//! Lane-batched DCT/DST transforms: one tile runs [`TILE_LANES`]
//! independent transforms of the same length at once.
//!
//! A tile is stored sample-major, `[sample][lane]`, so every step of the
//! transform touches `TILE_LANES` contiguous doubles; each twiddle is loaded
//! once per tile instead of once per transform.
//!
//! Every lane runs exactly the scalar sequence of [`DctPlan`] →
//! [`RealFftPlan`](crate::RealFftPlan) → [`FftPlan`](crate::FftPlan): the
//! same radix-2 butterflies in the same order, the same twiddle tables and
//! the same scale/recombine expressions. Rust never contracts or reorders
//! floating-point operations, so each lane is **bit-identical** to the
//! matching `DctPlan` call. The only differences are data movement: the
//! bit-reversal permutation is folded into the load, and the recombination
//! feeds the phase rotation (or the inverse FFT) directly instead of
//! materializing the half spectrum.
//!
//! The transform body is written once, generically over [`LaneMath`], the
//! shared eight-lane arithmetic of `xplace-parallel`, and run through
//! [`LanePath::dispatch`]: on scalar lanes (the portable path) or, on
//! x86-64 hosts with AVX-512F, on one `__m512d` register per sample row.
//! The body uses only add, sub, mul, a sign-bit negation and broadcasts —
//! never FMA — so every lane returns the scalar bits by construction.
//! [`DctTile::from_plan`] picks the path once, by runtime feature
//! detection.

use crate::{Complex, DctPlan, FftError};
pub(crate) use xplace_parallel::lanes::Lanes;
use xplace_parallel::lanes::{LaneKernel, LaneMath, LanePath, LANES};

/// Number of independent transforms carried by one [`DctTile`] call — one
/// per SIMD lane.
pub const TILE_LANES: usize = LANES;

/// One complex sample of every lane in a tile. Aligned so that each half is
/// one 64-byte row.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct CLanes {
    re: Lanes,
    im: Lanes,
}

impl CLanes {
    const ZERO: CLanes = CLanes {
        re: [0.0; TILE_LANES],
        im: [0.0; TILE_LANES],
    };
}

/// A lane-batched plan for the DCT/DST family of a fixed power-of-two
/// length: the tile counterpart of [`DctPlan`], bit for bit.
///
/// Buffers are `len * TILE_LANES` doubles laid out `[sample][lane]`:
/// sample `k` of lane `l` sits at index `k * TILE_LANES + l`. Lanes never
/// interact, so a partial tile simply fills its spare lanes with zeros.
///
/// ```
/// use xplace_fft::{DctPlan, DctTile, TILE_LANES};
///
/// # fn main() -> Result<(), xplace_fft::FftError> {
/// let n = 16;
/// let mut tile = DctTile::new(n)?;
/// let input: Vec<f64> = (0..n * TILE_LANES).map(|i| (i as f64 * 0.37).sin()).collect();
/// let mut out = vec![0.0; n * TILE_LANES];
/// tile.analyze(&input, &mut out)?;
///
/// // Lane 3 equals the scalar plan on lane 3's samples, bit for bit.
/// let lane: Vec<f64> = (0..n).map(|k| input[k * TILE_LANES + 3]).collect();
/// let mut scalar = vec![0.0; n];
/// DctPlan::new(n)?.analyze(&lane, &mut scalar)?;
/// for (k, s) in scalar.iter().enumerate() {
///     assert_eq!(s.to_bits(), out[k * TILE_LANES + 3].to_bits());
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DctTile {
    len: usize,
    /// Bit-reversal permutation of the length-`len` complex FFT.
    bitrev: Vec<u32>,
    /// Complex-FFT twiddles, stage by stage (the [`FftPlan`](crate::FftPlan)
    /// table).
    fft_tw: Vec<Complex>,
    /// Real-FFT recombination twiddles `e^{-i pi k / len}`, `k = 0..=len/2`.
    rfft_tw: Vec<Complex>,
    /// `e^{-i pi k / (2 len)}` for `k in 0..len`.
    phase_fwd: Vec<Complex>,
    /// `e^{+i pi k / (2 len)}` for `k in 0..len`.
    phase_inv: Vec<Complex>,
    /// Packed complex work tile, `len` samples.
    z: Vec<CLanes>,
    /// The lane arithmetic every transform of this tile runs on.
    path: LanePath,
}

impl DctTile {
    /// Creates a tile plan of length `len` (a nonzero power of two).
    ///
    /// # Errors
    ///
    /// Same as [`DctPlan::new`].
    pub fn new(len: usize) -> Result<Self, FftError> {
        Ok(Self::from_plan(&DctPlan::new(len)?))
    }

    /// Creates a tile plan from the process-wide [`DctPlan::cached`] plan
    /// cache, so repeated solvers of one grid size share the table work and
    /// show up in [`plan_cache_stats`](crate::plan_cache_stats).
    ///
    /// # Errors
    ///
    /// Same as [`DctPlan::cached`].
    pub(crate) fn cached(len: usize) -> Result<Self, FftError> {
        Ok(Self::from_plan(&DctPlan::cached(len)?))
    }

    /// Builds a tile plan from copies of `plan`'s tables, so every lane is
    /// bit-identical to that plan, and picks the lane path for this CPU.
    fn from_plan(plan: &DctPlan) -> Self {
        let fft = &plan.rfft.half;
        DctTile {
            len: plan.len(),
            bitrev: fft.bitrev.clone(),
            fft_tw: fft.twiddles.clone(),
            rfft_tw: plan.rfft.twiddles.clone(),
            phase_fwd: plan.phase_fwd.clone(),
            phase_inv: plan.phase_inv.clone(),
            z: vec![CLanes::ZERO; plan.len()],
            path: LanePath::detect(),
        }
    }

    fn check(&self, input: &[f64], output: &[f64]) -> Result<(), FftError> {
        let expected = self.len * TILE_LANES;
        for actual in [input.len(), output.len()] {
            if actual != expected {
                return Err(FftError::LengthMismatch { expected, actual });
            }
        }
        Ok(())
    }

    /// Lane-wise [`DctPlan::analyze`] (unnormalized DCT-II).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] unless both slices hold
    /// `len * TILE_LANES` samples.
    pub fn analyze(&mut self, input: &[f64], output: &mut [f64]) -> Result<(), FftError> {
        self.check(input, output)?;
        self.analyze_with(|k| lanes_at(input, k), |k, v| put_lanes(output, k, v));
        Ok(())
    }

    /// Lane-wise [`DctPlan::cosine_synthesis`].
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] unless both slices hold
    /// `len * TILE_LANES` samples.
    pub fn cosine_synthesis(&mut self, coeffs: &[f64], output: &mut [f64]) -> Result<(), FftError> {
        self.check(coeffs, output)?;
        self.cosine_with(|k| lanes_at(coeffs, k), |k, v| put_lanes(output, k, v));
        Ok(())
    }

    /// Lane-wise [`DctPlan::sine_synthesis`].
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] unless both slices hold
    /// `len * TILE_LANES` samples.
    pub fn sine_synthesis(&mut self, coeffs: &[f64], output: &mut [f64]) -> Result<(), FftError> {
        self.check(coeffs, output)?;
        self.sine_with(|k| lanes_at(coeffs, k), |k, v| put_lanes(output, k, v));
        Ok(())
    }

    /// DCT-II analysis reading sample `k` of every lane from `load(k)` and
    /// handing output coefficient `k` to `store(k, ..)` (in no particular
    /// order, each `k` exactly once).
    pub(crate) fn analyze_with(
        &mut self,
        load: impl Fn(usize) -> Lanes,
        store: impl FnMut(usize, Lanes),
    ) {
        self.path.dispatch(Transform {
            tile: self,
            kind: Kind::Analyze,
            load,
            store,
        });
    }

    /// Cosine synthesis; `load`/`store` as in [`Self::analyze_with`], with
    /// outputs stored in ascending order.
    pub(crate) fn cosine_with(
        &mut self,
        load: impl Fn(usize) -> Lanes,
        store: impl FnMut(usize, Lanes),
    ) {
        self.path.dispatch(Transform {
            tile: self,
            kind: Kind::Cosine,
            load,
            store,
        });
    }

    /// Sine synthesis (`idxst`); `load`/`store` as in
    /// [`Self::cosine_with`].
    pub(crate) fn sine_with(
        &mut self,
        load: impl Fn(usize) -> Lanes,
        store: impl FnMut(usize, Lanes),
    ) {
        self.path.dispatch(Transform {
            tile: self,
            kind: Kind::Sine,
            load,
            store,
        });
    }

    #[inline(always)]
    fn analyze_body<V: LaneMath>(
        &mut self,
        load: impl Fn(usize) -> Lanes,
        mut store: impl FnMut(usize, Lanes),
    ) {
        let n = self.len;
        let z = &mut self.z;
        // Even extension y = [x, reverse(x)], packed two real samples per
        // complex slot and dropped straight into bit-reversed order: slot j
        // holds (y[2j], y[2j+1]) and its mirror slot n-1-j holds
        // (y[2j+1], y[2j]).
        if n == 1 {
            let x = V::load(&load(0));
            x.store(&mut z[0].re);
            x.store(&mut z[0].im);
        } else {
            for j in 0..n / 2 {
                let (x0, x1) = (V::load(&load(2 * j)), V::load(&load(2 * j + 1)));
                let slot = &mut z[self.bitrev[j] as usize];
                x0.store(&mut slot.re);
                x1.store(&mut slot.im);
                let mirror = &mut z[self.bitrev[n - 1 - j] as usize];
                x1.store(&mut mirror.re);
                x0.store(&mut mirror.im);
            }
        }
        butterflies::<V>(z, &self.fft_tw, false);
        // Real-FFT recombination X[k] = E[k] + w^k O[k], fused with the
        // phase rotation C[k] = Re(X[k] e^{-i pi k / 2N}) / 2.
        let half = V::splat(0.5);
        let (z0_re, z0_im) = (V::load(&z[0].re), V::load(&z[0].im));
        store(
            0,
            rotate(half, z0_re.add(z0_im), V::splat(0.0), self.phase_fwd[0]),
        );
        for k in 1..=n / 2 {
            let (zk, zn) = (&z[k], &z[n - k]);
            let (zk_re, zk_im) = (V::load(&zk.re), V::load(&zk.im));
            let (zn_re, zn_im) = (V::load(&zn.re), V::load(&zn.im));
            let w = self.rfft_tw[k];
            let (wr, wi) = (V::splat(w.re), V::splat(w.im));
            let er = half.mul(zk_re.add(zn_re));
            let ei = half.mul(zk_im.sub(zn_im));
            let or = half.mul(zk_im.add(zn_im));
            let oi = half.mul(zn_re.sub(zk_re));
            let tr = wr.mul(or).sub(wi.mul(oi));
            let ti = wr.mul(oi).add(wi.mul(or));
            store(k, rotate(half, er.add(tr), ei.add(ti), self.phase_fwd[k]));
            if k != n - k {
                let sn_im = ei.sub(ti).neg();
                store(
                    n - k,
                    rotate(half, er.sub(tr), sn_im, self.phase_fwd[n - k]),
                );
            }
        }
    }

    #[inline(always)]
    fn cosine_body<V: LaneMath>(
        &mut self,
        load: impl Fn(usize) -> Lanes,
        mut store: impl FnMut(usize, Lanes),
    ) {
        let c0 = V::load(&load(0));
        // Hermitian half spectrum Z[k] = c[k] e^{i pi k/2N}, Z[0] = c[0].
        self.inverse_packed(c0, &load);
        // out[i] = (ext[i] + c[0]) / 2, ext[2j] = z[j].re, ext[2j+1] = z[j].im.
        let n = self.len;
        let half = V::splat(0.5);
        for (j, z) in self.z.iter().take(n.div_ceil(2)).enumerate() {
            store(2 * j, lanes(half.mul(V::load(&z.re).add(c0))));
            if 2 * j + 1 < n {
                store(2 * j + 1, lanes(half.mul(V::load(&z.im).add(c0))));
            }
        }
    }

    #[inline(always)]
    fn sine_body<V: LaneMath>(
        &mut self,
        load: impl Fn(usize) -> Lanes,
        mut store: impl FnMut(usize, Lanes),
    ) {
        let n = self.len;
        // Cosine spectrum of the reversed coefficients c'[k] = c[N-k],
        // c'[0] = 0.
        self.inverse_packed(V::splat(0.0), |k| load(n - k));
        // out[2j] = ext[2j] / 2, out[2j+1] = -ext[2j+1] / 2.
        let (half, neg_half) = (V::splat(0.5), V::splat(-0.5));
        for (j, z) in self.z.iter().take(n.div_ceil(2)).enumerate() {
            store(2 * j, lanes(half.mul(V::load(&z.re))));
            if 2 * j + 1 < n {
                store(2 * j + 1, lanes(neg_half.mul(V::load(&z.im))));
            }
        }
    }

    /// Undoes the real-FFT recombination of the Hermitian half spectrum
    /// whose `k = 0` bin is `x0` (real), whose bins `0 < k < N` are
    /// `coeff(k) e^{i pi k/2N}` and whose `k = N` bin is zero, writes the
    /// packed slots in bit-reversed order and runs the unscaled inverse
    /// butterflies, leaving `ext[2j] + i ext[2j+1]` in `self.z[j]`.
    #[inline(always)]
    fn inverse_packed<V: LaneMath>(&mut self, x0: V, coeff: impl Fn(usize) -> Lanes) {
        let n = self.len;
        let z = &mut self.z;
        let xn = V::splat(0.0);
        x0.add(xn).store(&mut z[0].re);
        x0.sub(xn).store(&mut z[0].im);
        for k in 1..=n / 2 {
            let (xk_re, xk_im) = spectrum(V::load(&coeff(k)), self.phase_inv[k]);
            let (xm_re, xm_im) = spectrum(V::load(&coeff(n - k)), self.phase_inv[n - k]);
            let w = self.rfft_tw[k];
            let (wr, wi) = (V::splat(w.re), V::splat(-w.im));
            let ar = xk_re.add(xm_re);
            let ai = xk_im.sub(xm_im);
            let br = xk_re.sub(xm_re);
            let bi = xk_im.add(xm_im);
            let cr = wr.mul(br).sub(wi.mul(bi));
            let ci = wr.mul(bi).add(wi.mul(br));
            let (ur, ui) = (ci.neg(), cr);
            let pk = &mut z[self.bitrev[k] as usize];
            ar.add(ur).store(&mut pk.re);
            ai.add(ui).store(&mut pk.im);
            if k != n - k {
                let pm = &mut z[self.bitrev[n - k] as usize];
                ar.sub(ur).store(&mut pm.re);
                ai.sub(ui).neg().store(&mut pm.im);
            }
        }
        butterflies::<V>(z, &self.fft_tw, true);
    }
}

/// Which transform a [`Transform`] kernel runs.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Analyze,
    Cosine,
    Sine,
}

/// One tile transform as a [`LaneKernel`], so [`LanePath::dispatch`] runs
/// it on the tile's lane arithmetic.
struct Transform<'a, L, S> {
    tile: &'a mut DctTile,
    kind: Kind,
    load: L,
    store: S,
}

impl<L: Fn(usize) -> Lanes, S: FnMut(usize, Lanes)> LaneKernel for Transform<'_, L, S> {
    type Output = ();
    #[inline(always)]
    fn run<V: LaneMath>(self) {
        let Transform {
            tile,
            kind,
            load,
            store,
        } = self;
        match kind {
            Kind::Analyze => tile.analyze_body::<V>(load, store),
            Kind::Cosine => tile.cosine_body::<V>(load, store),
            Kind::Sine => tile.sine_body::<V>(load, store),
        }
    }
}

/// `v` spilled to one sample row.
#[inline(always)]
fn lanes<V: LaneMath>(v: V) -> Lanes {
    let mut out = [0.0; TILE_LANES];
    v.store(&mut out);
    out
}

/// `Re((re + i im) p) / 2`, the phase rotation of the DCT-II analysis.
#[inline(always)]
fn rotate<V: LaneMath>(half: V, re: V, im: V, p: Complex) -> Lanes {
    lanes(half.mul(re.mul(V::splat(p.re)).sub(im.mul(V::splat(p.im)))))
}

/// `p c` for a real coefficient `c`, as `(re, im)`.
#[inline(always)]
fn spectrum<V: LaneMath>(c: V, p: Complex) -> (V, V) {
    (V::splat(p.re).mul(c), V::splat(p.im).mul(c))
}

/// The radix-2 decimation-in-time butterflies of
/// [`FftPlan`](crate::FftPlan) on bit-reversed input, every lane at once.
#[inline(always)]
fn butterflies<V: LaneMath>(z: &mut [CLanes], twiddles: &[Complex], inverse: bool) {
    let mut half = 1;
    let mut tw_base = 0;
    while half < z.len() {
        let tw = &twiddles[tw_base..tw_base + half];
        for block in z.chunks_exact_mut(2 * half) {
            let (lo, hi) = block.split_at_mut(half);
            for ((a, b), w) in lo.iter_mut().zip(hi.iter_mut()).zip(tw) {
                let (wr, wi) = if inverse { (w.re, -w.im) } else { (w.re, w.im) };
                let (wr, wi) = (V::splat(wr), V::splat(wi));
                let (b_re, b_im) = (V::load(&b.re), V::load(&b.im));
                let br = b_re.mul(wr).sub(b_im.mul(wi));
                let bi = b_re.mul(wi).add(b_im.mul(wr));
                let (ar, ai) = (V::load(&a.re), V::load(&a.im));
                ar.add(br).store(&mut a.re);
                ai.add(bi).store(&mut a.im);
                ar.sub(br).store(&mut b.re);
                ai.sub(bi).store(&mut b.im);
            }
        }
        tw_base += half;
        half *= 2;
    }
}

/// Sample `k` of a dense `[sample][lane]` tile.
#[inline]
pub(crate) fn lanes_at(tile: &[f64], k: usize) -> Lanes {
    let mut out = [0.0; TILE_LANES];
    out.copy_from_slice(&tile[k * TILE_LANES..(k + 1) * TILE_LANES]);
    out
}

/// Writes sample `k` of a dense `[sample][lane]` tile.
#[inline]
pub(crate) fn put_lanes(tile: &mut [f64], k: usize, v: Lanes) {
    tile[k * TILE_LANES..(k + 1) * TILE_LANES].copy_from_slice(&v);
}

#[cfg(test)]
mod tests {
    use super::*;
    use xplace_testkit::rng::Rng;

    /// A sample of magnitude class `class`: ordinary values, subnormals,
    /// values near `f64::MAX`, ordinary values with the odd infinity, or
    /// signed zeros only; every class draws signed zeros.
    fn sample(rng: &mut Rng, class: u32) -> f64 {
        let sign = if rng.gen_range(0u32..2) == 0 {
            1.0
        } else {
            -1.0
        };
        sign * match (class, rng.gen_range(0u32..16)) {
            (_, 0) => 0.0,
            (1, _) => f64::from_bits(rng.gen_range(1u64..1 << 52)),
            (2, _) => f64::MAX * rng.gen_range(0.5..1.0),
            (3, 1) => f64::INFINITY,
            (4, _) => 0.0,
            _ => rng.gen_range(0.0..100.0),
        }
    }

    /// Runs all three transforms of a length-`n` tile on `input` with the
    /// lane arithmetic `path`, returning the outputs back to back.
    fn transforms(path: LanePath, n: usize, input: &[f64]) -> Vec<f64> {
        let mut tile = DctTile::new(n).unwrap();
        tile.path = path;
        let mut out = vec![0.0; 3 * n * TILE_LANES];
        let (a, rest) = out.split_at_mut(n * TILE_LANES);
        let (c, s) = rest.split_at_mut(n * TILE_LANES);
        tile.analyze(input, a).unwrap();
        tile.cosine_synthesis(input, c).unwrap();
        tile.sine_synthesis(input, s).unwrap();
        out
    }

    #[test]
    fn vector_path_matches_scalar_path_bitwise() {
        let mut rng = Rng::seed_from_u64(32);
        for p in 0..=10 {
            let n = 1usize << p;
            for _ in 0..4 {
                let classes: [u32; TILE_LANES] = std::array::from_fn(|_| rng.gen_range(0u32..5));
                let input: Vec<f64> = (0..n * TILE_LANES)
                    .map(|i| sample(&mut rng, classes[i % TILE_LANES]))
                    .collect();
                let want = transforms(LanePath::scalar(), n, &input);
                let got = transforms(LanePath::detect(), n, &input);
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    // NaN payloads are not fixed by Rust; NaN only has to
                    // meet NaN.
                    assert!(
                        g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                        "n={n} at {i}: {g} vs {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn dispatch_takes_avx512_whenever_the_cpu_has_it() {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            assert_ne!(DctTile::new(64).unwrap().path, LanePath::scalar());
            assert_ne!(DctTile::cached(64).unwrap().path, LanePath::scalar());
            return;
        }
        assert_eq!(DctTile::new(64).unwrap().path, LanePath::scalar());
    }

    #[test]
    fn mismatched_tiles_error() {
        let mut tile = DctTile::new(8).unwrap();
        let input = vec![0.0; 8 * TILE_LANES];
        let mut short = vec![0.0; 8];
        assert!(matches!(
            tile.analyze(&input, &mut short),
            Err(FftError::LengthMismatch { actual: 8, .. })
        ));
        assert!(matches!(DctTile::new(12), Err(FftError::NotPowerOfTwo(12))));
    }
}
