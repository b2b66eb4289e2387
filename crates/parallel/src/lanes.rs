//! Eight-lane `f64` arithmetic shared by the vector kernels.
//!
//! A kernel body is written once, generically over [`LaneMath`], and run
//! through [`LanePath::dispatch`]. It is instantiated twice: on [`Lanes`]
//! (eight scalar operations per step, the portable path and the oracle) and,
//! on x86-64 hosts with AVX-512F, on one `__m512d` register. Every method is
//! one IEEE operation per lane — never FMA, never reassociated — so the two
//! instantiations return the same bits lane for lane, by construction.
//!
//! [`LaneMath::min`] and [`LaneMath::max`] are written once, as a compare
//! and a select, so they agree on both paths for every input: a NaN operand
//! yields the other operand, like `f64::min`/`f64::max`.
//!
//! ```
//! use xplace_parallel::lanes::{LaneKernel, LaneMath, LanePath, Lanes};
//!
//! /// `min(a, b) * 2` on every lane.
//! struct Double<'a>(&'a Lanes, &'a Lanes);
//!
//! impl LaneKernel for Double<'_> {
//!     type Output = Lanes;
//!     #[inline(always)]
//!     fn run<V: LaneMath>(self) -> Lanes {
//!         let mut out = [0.0; 8];
//!         V::load(self.0).min(V::load(self.1)).mul(V::splat(2.0)).store(&mut out);
//!         out
//!     }
//! }
//!
//! let a = [1.0, f64::NAN, 3.0, -4.0, 5.0, 6.0, 7.0, 8.0];
//! let b = [2.0, 1.0, f64::NAN, -5.0, 5.0, 0.5, 9.0, 8.5];
//! let want = [2.0, 2.0, 6.0, -10.0, 10.0, 1.0, 14.0, 16.0];
//! assert_eq!(LanePath::detect().dispatch(Double(&a, &b)), want);
//! assert_eq!(LanePath::scalar().dispatch(Double(&a, &b)), want);
//! ```

/// Number of lanes of every [`LaneMath`] value.
pub const LANES: usize = 8;

/// One `f64` per lane.
pub type Lanes = [f64; LANES];

/// One bit per lane, lane `l` in bit `l`.
pub type Mask = u8;

/// The mask of lanes `0..n` (every lane once `n >= LANES`).
#[inline(always)]
pub fn first_lanes(n: usize) -> Mask {
    if n >= LANES {
        Mask::MAX
    } else {
        (1 << n) - 1
    }
}

/// The eight-lane arithmetic of the vector kernels. Every method is one IEEE
/// operation per lane (no fusion, no reassociation), so any two
/// implementations return the same bits lane for lane.
///
/// The methods are `#[inline(always)]` so that an AVX-512 instantiation
/// compiles all of them, intrinsics included, inside the
/// `avx512f`-enabled entry point of [`LanePath::dispatch`]; an out-of-line
/// call would lose the feature.
pub trait LaneMath: Copy {
    /// Every lane set to `x`.
    fn splat(x: f64) -> Self;
    /// Eight consecutive values.
    fn load(x: &Lanes) -> Self;
    /// Writes every lane to `out`.
    fn store(self, out: &mut Lanes);
    /// Lane `l` reads `src[l]` where bit `l` of `mask` is set and
    /// `l < src.len()`; every other lane is `+0.0` and reads no memory.
    fn load_masked(src: &[f64], mask: Mask) -> Self;
    /// Writes lane `l` to `dst[l]` where bit `l` of `mask` is set and
    /// `l < dst.len()`; every other element of `dst` is left as it is.
    fn store_masked(self, dst: &mut [f64], mask: Mask);
    /// `self + rhs`.
    fn add(self, rhs: Self) -> Self;
    /// `self - rhs`.
    fn sub(self, rhs: Self) -> Self;
    /// `self * rhs`.
    fn mul(self, rhs: Self) -> Self;
    /// `self / rhs`.
    fn div(self, rhs: Self) -> Self;
    /// `-self`: flips each lane's sign bit.
    fn neg(self) -> Self;
    /// The lanes where `self < rhs` (false when either is NaN).
    fn lt(self, rhs: Self) -> Mask;
    /// The lanes where `self <= rhs` (false when either is NaN).
    fn le(self, rhs: Self) -> Mask;
    /// The lanes where `self > rhs` (false when either is NaN).
    fn gt(self, rhs: Self) -> Mask;
    /// The lanes that hold a NaN.
    fn nan(self) -> Mask;
    /// `if_set` on the lanes of `mask`, `if_clear` elsewhere.
    fn select(mask: Mask, if_set: Self, if_clear: Self) -> Self;

    /// The lane-wise minimum: `rhs` where `rhs < self` or `self` is NaN,
    /// else `self` — `f64::min`'s result on every input but a pair of
    /// zeros of opposite sign, whose order `f64::min` leaves open.
    #[inline(always)]
    fn min(self, rhs: Self) -> Self {
        Self::select(rhs.lt(self) | self.nan(), rhs, self)
    }

    /// The lane-wise maximum: `rhs` where `rhs > self` or `self` is NaN,
    /// else `self` (see [`LaneMath::min`]).
    #[inline(always)]
    fn max(self, rhs: Self) -> Self {
        Self::select(rhs.gt(self) | self.nan(), rhs, self)
    }
}

impl LaneMath for Lanes {
    #[inline(always)]
    fn splat(x: f64) -> Self {
        [x; LANES]
    }
    #[inline(always)]
    fn load(x: &Lanes) -> Self {
        *x
    }
    #[inline(always)]
    fn store(self, out: &mut Lanes) {
        *out = self;
    }
    #[inline(always)]
    fn load_masked(src: &[f64], mask: Mask) -> Self {
        std::array::from_fn(|l| match src.get(l) {
            Some(&x) if mask >> l & 1 == 1 => x,
            _ => 0.0,
        })
    }
    #[inline(always)]
    fn store_masked(self, dst: &mut [f64], mask: Mask) {
        for (l, (d, x)) in dst.iter_mut().zip(self).enumerate() {
            if mask >> l & 1 == 1 {
                *d = x;
            }
        }
    }
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        std::array::from_fn(|l| self[l] + rhs[l])
    }
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        std::array::from_fn(|l| self[l] - rhs[l])
    }
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        std::array::from_fn(|l| self[l] * rhs[l])
    }
    #[inline(always)]
    fn div(self, rhs: Self) -> Self {
        std::array::from_fn(|l| self[l] / rhs[l])
    }
    #[inline(always)]
    fn neg(self) -> Self {
        self.map(|x| -x)
    }
    #[inline(always)]
    fn lt(self, rhs: Self) -> Mask {
        (0..LANES).fold(0, |m, l| m | Mask::from(self[l] < rhs[l]) << l)
    }
    #[inline(always)]
    fn le(self, rhs: Self) -> Mask {
        (0..LANES).fold(0, |m, l| m | Mask::from(self[l] <= rhs[l]) << l)
    }
    #[inline(always)]
    fn gt(self, rhs: Self) -> Mask {
        (0..LANES).fold(0, |m, l| m | Mask::from(self[l] > rhs[l]) << l)
    }
    #[inline(always)]
    fn nan(self) -> Mask {
        (0..LANES).fold(0, |m, l| m | Mask::from(self[l].is_nan()) << l)
    }
    #[inline(always)]
    fn select(mask: Mask, if_set: Self, if_clear: Self) -> Self {
        std::array::from_fn(|l| {
            if mask >> l & 1 == 1 {
                if_set[l]
            } else {
                if_clear[l]
            }
        })
    }
}

/// A kernel body written once over [`LaneMath`], run by
/// [`LanePath::dispatch`] on the instantiation the path names.
///
/// `run` must be `#[inline(always)]`, and so must every generic helper it
/// calls, so that the AVX-512 entry point compiles the whole body with the
/// `avx512f` feature.
pub trait LaneKernel {
    /// What the kernel returns.
    type Output;
    /// The kernel body on lane arithmetic `V`.
    fn run<V: LaneMath>(self) -> Self::Output;
}

/// Which [`LaneMath`] instantiation a kernel runs on. It can only be the
/// scalar path or the path [`LanePath::detect`] found on this CPU, so
/// [`LanePath::dispatch`] never runs AVX-512 code on a CPU without it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LanePath(Path);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    /// Eight scalar operations per step; every target.
    Scalar,
    /// One AVX-512F register per eight lanes.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl LanePath {
    /// The fastest path this CPU runs.
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            return LanePath(Path::Avx512);
        }
        LanePath(Path::Scalar)
    }

    /// The portable path, [`Lanes`]: the fallback and the oracle.
    pub fn scalar() -> Self {
        LanePath(Path::Scalar)
    }

    /// Runs `kernel` on this path's lane arithmetic.
    #[inline]
    pub fn dispatch<K: LaneKernel>(self, kernel: K) -> K::Output {
        match self.0 {
            Path::Scalar => kernel.run::<Lanes>(),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: a `LanePath` holds `Avx512` only when `detect` found
            // `avx512f` on this CPU.
            Path::Avx512 => unsafe { avx512::run(kernel) },
        }
    }
}

/// The AVX-512F instantiation: one `__m512d` per eight lanes.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{first_lanes, LaneKernel, LaneMath, Lanes, Mask};
    use std::arch::x86_64::{
        __m512d, _mm512_add_pd, _mm512_castpd_si512, _mm512_castsi512_pd, _mm512_cmp_pd_mask,
        _mm512_div_pd, _mm512_loadu_pd, _mm512_mask_blend_pd, _mm512_mask_storeu_pd,
        _mm512_maskz_loadu_pd, _mm512_mul_pd, _mm512_set1_epi64, _mm512_set1_pd, _mm512_storeu_pd,
        _mm512_sub_pd, _mm512_xor_si512, _CMP_GT_OQ, _CMP_LE_OQ, _CMP_LT_OQ, _CMP_UNORD_Q,
    };

    /// Eight lanes in one AVX-512 register.
    ///
    /// The type is private: only [`run`] instantiates kernels on it, and
    /// [`LanePath::dispatch`](super::LanePath::dispatch) calls `run` only
    /// once `avx512f` has been detected, so the `unsafe` blocks in its
    /// methods never run on a CPU without AVX-512F.
    #[derive(Clone, Copy)]
    struct V(__m512d);

    impl LaneMath for V {
        #[inline(always)]
        fn splat(x: f64) -> Self {
            // SAFETY: see the type's documentation.
            V(unsafe { _mm512_set1_pd(x) })
        }
        #[inline(always)]
        fn load(x: &Lanes) -> Self {
            // SAFETY: `x` is eight readable doubles; see the type's
            // documentation for the feature.
            V(unsafe { _mm512_loadu_pd(x.as_ptr()) })
        }
        #[inline(always)]
        fn store(self, out: &mut Lanes) {
            // SAFETY: `out` is eight writable doubles; see the type's
            // documentation for the feature.
            unsafe { _mm512_storeu_pd(out.as_mut_ptr(), self.0) }
        }
        #[inline(always)]
        fn load_masked(src: &[f64], mask: Mask) -> Self {
            let mask = mask & first_lanes(src.len());
            // SAFETY: every lane left in `mask` indexes into `src`, and a
            // masked-off lane reads no memory (AVX-512 fault suppression);
            // see the type's documentation for the feature.
            V(unsafe { _mm512_maskz_loadu_pd(mask, src.as_ptr()) })
        }
        #[inline(always)]
        fn store_masked(self, dst: &mut [f64], mask: Mask) {
            let mask = mask & first_lanes(dst.len());
            // SAFETY: every lane left in `mask` indexes into `dst`, and a
            // masked-off lane writes no memory; see the type's
            // documentation for the feature.
            unsafe { _mm512_mask_storeu_pd(dst.as_mut_ptr(), mask, self.0) }
        }
        #[inline(always)]
        fn add(self, rhs: Self) -> Self {
            // SAFETY: see the type's documentation.
            V(unsafe { _mm512_add_pd(self.0, rhs.0) })
        }
        #[inline(always)]
        fn sub(self, rhs: Self) -> Self {
            // SAFETY: see the type's documentation.
            V(unsafe { _mm512_sub_pd(self.0, rhs.0) })
        }
        #[inline(always)]
        fn mul(self, rhs: Self) -> Self {
            // SAFETY: see the type's documentation.
            V(unsafe { _mm512_mul_pd(self.0, rhs.0) })
        }
        #[inline(always)]
        fn div(self, rhs: Self) -> Self {
            // SAFETY: see the type's documentation.
            V(unsafe { _mm512_div_pd(self.0, rhs.0) })
        }
        #[inline(always)]
        fn neg(self) -> Self {
            // SAFETY: see the type's documentation.
            V(unsafe {
                let sign = _mm512_set1_epi64(i64::MIN);
                _mm512_castsi512_pd(_mm512_xor_si512(_mm512_castpd_si512(self.0), sign))
            })
        }
        #[inline(always)]
        fn lt(self, rhs: Self) -> Mask {
            // SAFETY: see the type's documentation.
            unsafe { _mm512_cmp_pd_mask::<_CMP_LT_OQ>(self.0, rhs.0) }
        }
        #[inline(always)]
        fn le(self, rhs: Self) -> Mask {
            // SAFETY: see the type's documentation.
            unsafe { _mm512_cmp_pd_mask::<_CMP_LE_OQ>(self.0, rhs.0) }
        }
        #[inline(always)]
        fn gt(self, rhs: Self) -> Mask {
            // SAFETY: see the type's documentation.
            unsafe { _mm512_cmp_pd_mask::<_CMP_GT_OQ>(self.0, rhs.0) }
        }
        #[inline(always)]
        fn nan(self) -> Mask {
            // SAFETY: see the type's documentation.
            unsafe { _mm512_cmp_pd_mask::<_CMP_UNORD_Q>(self.0, self.0) }
        }
        #[inline(always)]
        fn select(mask: Mask, if_set: Self, if_clear: Self) -> Self {
            // SAFETY: see the type's documentation.
            V(unsafe { _mm512_mask_blend_pd(mask, if_clear.0, if_set.0) })
        }
    }

    /// Runs `kernel` on AVX-512F lanes.
    ///
    /// # Safety
    ///
    /// The CPU must support `avx512f`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn run<K: LaneKernel>(kernel: K) -> K::Output {
        kernel.run::<V>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Values where two lane implementations could part: signed zeros,
    /// NaN, infinities, subnormals, huge and ordinary values, ties.
    const PROBES: [f64; 16] = [
        0.0,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        5e-324,
        -5e-324,
        f64::MAX,
        f64::MIN,
        1.0,
        -1.0,
        0.1,
        3.5,
        -2.25,
        1e300,
        1.0 + f64::EPSILON,
    ];

    /// Every lane operation applied to `a` and `b`, with mask `m` and the
    /// masked slice `dst`, spilled to named rows; masks are widened to
    /// `f64` rows of 0 and 1.
    struct AllOps<'a> {
        a: &'a Lanes,
        b: &'a Lanes,
        m: Mask,
        dst: &'a [f64],
    }

    impl LaneKernel for AllOps<'_> {
        type Output = Vec<(&'static str, Lanes)>;
        #[inline(always)]
        fn run<V: LaneMath>(self) -> Vec<(&'static str, Lanes)> {
            let (a, b) = (V::load(self.a), V::load(self.b));
            let row = |v: V| {
                let mut out = [0.0; LANES];
                v.store(&mut out);
                out
            };
            let mask_row = |m: Mask| std::array::from_fn(|l| f64::from(m >> l & 1));
            let mut masked = self.dst.to_vec();
            a.store_masked(&mut masked, self.m);
            let mut stored = [0.0; LANES];
            for (s, &x) in stored.iter_mut().zip(&masked) {
                *s = x;
            }
            vec![
                ("splat", row(V::splat(self.a[3]))),
                ("add", row(a.add(b))),
                ("sub", row(a.sub(b))),
                ("mul", row(a.mul(b))),
                ("div", row(a.div(b))),
                ("neg", row(a.neg())),
                ("min", row(a.min(b))),
                ("max", row(a.max(b))),
                ("select", row(V::select(self.m, a, b))),
                ("load_masked", row(V::load_masked(self.dst, self.m))),
                ("store_masked", stored),
                ("lt", mask_row(a.lt(b))),
                ("le", mask_row(a.le(b))),
                ("gt", mask_row(a.gt(b))),
                ("nan", mask_row(a.nan())),
            ]
        }
    }

    /// The row `name` of an [`AllOps`] result.
    fn op(rows: &[(&'static str, Lanes)], name: &str) -> Lanes {
        rows.iter()
            .find(|(n, _)| *n == name)
            .map(|(_, row)| *row)
            .expect("a known op")
    }

    fn same(x: f64, y: f64) -> bool {
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    }

    #[test]
    fn vector_path_matches_scalar_path_bitwise() {
        let n = PROBES.len();
        for shift in 0..n {
            let a: Lanes = std::array::from_fn(|l| PROBES[(l + shift) % n]);
            for stride in 1..n {
                let b: Lanes = std::array::from_fn(|l| PROBES[(l * stride + shift) % n]);
                let m = (shift * 37 + stride * 11) as Mask;
                for len in [0, 3, 8, 11] {
                    let dst: Vec<f64> = (0..len).map(|i| -(i as f64) - 0.5).collect();
                    let ops = || AllOps {
                        a: &a,
                        b: &b,
                        m,
                        dst: &dst,
                    };
                    let want = LanePath::scalar().dispatch(ops());
                    let got = LanePath::detect().dispatch(ops());
                    for ((name, g), (_, w)) in got.iter().zip(&want) {
                        for l in 0..LANES {
                            assert!(
                                same(g[l], w[l]),
                                "{name} lane {l}: {} vs {} (a {} b {})",
                                g[l],
                                w[l],
                                a[l],
                                b[l]
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn min_max_follow_f64_min_max() {
        for &x in &PROBES {
            for &y in &PROBES {
                let zeros = x == 0.0 && y == 0.0;
                for path in [LanePath::scalar(), LanePath::detect()] {
                    let (a, b) = ([x; LANES], [y; LANES]);
                    let rows = path.dispatch(AllOps {
                        a: &a,
                        b: &b,
                        m: 0,
                        dst: &[],
                    });
                    let (lo, hi) = (op(&rows, "min")[0], op(&rows, "max")[0]);
                    // A pair of opposite zeros may come back either way.
                    assert!(same(lo, x.min(y)) || zeros, "min({x}, {y}) = {lo}");
                    assert!(same(hi, x.max(y)) || zeros, "max({x}, {y}) = {hi}");
                }
            }
        }
    }

    #[test]
    fn masked_access_stays_inside_the_slice() {
        const M: Mask = 0b1010_0101;
        for path in [LanePath::scalar(), LanePath::detect()] {
            for len in 0..=LANES + 2 {
                let src: Vec<f64> = (0..len).map(|i| i as f64 + 1.0).collect();
                let a = [7.0; LANES];
                let rows = path.dispatch(AllOps {
                    a: &a,
                    b: &a,
                    m: M,
                    dst: &src,
                });
                let (loaded, stored) = (op(&rows, "load_masked"), op(&rows, "store_masked"));
                for (l, (ld, st)) in loaded.iter().zip(stored).enumerate() {
                    let live = l < len && M >> l & 1 == 1;
                    let want = if live { l as f64 + 1.0 } else { 0.0 };
                    assert_eq!(ld.to_bits(), want.to_bits(), "load len {len} lane {l}");
                    if l < len {
                        let want = if live { 7.0 } else { l as f64 + 1.0 };
                        assert_eq!(st, want, "store len {len} lane {l}");
                    }
                }
            }
        }
    }

    #[test]
    fn first_lanes_masks_a_prefix() {
        assert_eq!(first_lanes(0), 0);
        assert_eq!(first_lanes(3), 0b111);
        assert_eq!(first_lanes(8), 0xff);
        assert_eq!(first_lanes(usize::MAX), 0xff);
    }

    #[test]
    fn detect_takes_avx512_whenever_the_cpu_has_it() {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            assert_ne!(LanePath::detect(), LanePath::scalar());
            return;
        }
        assert_eq!(LanePath::detect(), LanePath::scalar());
    }
}
