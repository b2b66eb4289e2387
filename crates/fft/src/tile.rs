//! Lane-batched DCT/DST transforms: one tile runs [`TILE_LANES`]
//! independent transforms of the same length at once.
//!
//! A tile is stored sample-major, `[sample][lane]`, so every step of the
//! transform touches `TILE_LANES` contiguous doubles and the per-lane loops
//! compile to SIMD arithmetic; each twiddle is loaded once per tile instead
//! of once per transform.
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

use crate::{Complex, DctPlan, FftError};

/// Number of independent transforms carried by one [`DctTile`] call — one
/// per SIMD lane.
pub const TILE_LANES: usize = 8;

/// One sample of every lane in a tile.
pub(crate) type Lanes = [f64; TILE_LANES];

/// One complex sample of every lane in a tile.
#[derive(Debug, Clone, Copy)]
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
    /// bit-identical to that plan.
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
        mut store: impl FnMut(usize, Lanes),
    ) {
        let n = self.len;
        // Even extension y = [x, reverse(x)], packed two real samples per
        // complex slot and dropped straight into bit-reversed order: slot j
        // holds (y[2j], y[2j+1]) and its mirror slot n-1-j holds
        // (y[2j+1], y[2j]).
        if n == 1 {
            let x = load(0);
            self.z[0] = CLanes { re: x, im: x };
        } else {
            for j in 0..n / 2 {
                let (x0, x1) = (load(2 * j), load(2 * j + 1));
                self.z[self.bitrev[j] as usize] = CLanes { re: x0, im: x1 };
                self.z[self.bitrev[n - 1 - j] as usize] = CLanes { re: x1, im: x0 };
            }
        }
        butterflies(&mut self.z, &self.fft_tw, false);
        // Real-FFT recombination X[k] = E[k] + w^k O[k], fused with the
        // phase rotation C[k] = Re(X[k] e^{-i pi k / 2N}) / 2.
        let phase = |s: &CLanes, p: Complex| -> Lanes {
            std::array::from_fn(|l| 0.5 * (s.re[l] * p.re - s.im[l] * p.im))
        };
        let z0 = self.z[0];
        let s0 = CLanes {
            re: std::array::from_fn(|l| z0.re[l] + z0.im[l]),
            im: [0.0; TILE_LANES],
        };
        store(0, phase(&s0, self.phase_fwd[0]));
        for k in 1..=n / 2 {
            let (zk, zn) = (self.z[k], self.z[n - k]);
            let w = self.rfft_tw[k];
            let (mut sk, mut sn) = (CLanes::ZERO, CLanes::ZERO);
            for l in 0..TILE_LANES {
                let er = 0.5 * (zk.re[l] + zn.re[l]);
                let ei = 0.5 * (zk.im[l] - zn.im[l]);
                let or = 0.5 * (zk.im[l] + zn.im[l]);
                let oi = 0.5 * (zn.re[l] - zk.re[l]);
                let tr = w.re * or - w.im * oi;
                let ti = w.re * oi + w.im * or;
                sk.re[l] = er + tr;
                sk.im[l] = ei + ti;
                sn.re[l] = er - tr;
                sn.im[l] = -(ei - ti);
            }
            store(k, phase(&sk, self.phase_fwd[k]));
            if k != n - k {
                store(n - k, phase(&sn, self.phase_fwd[n - k]));
            }
        }
    }

    /// Cosine synthesis; `load`/`store` as in [`Self::analyze_with`], with
    /// outputs stored in ascending order.
    pub(crate) fn cosine_with(
        &mut self,
        load: impl Fn(usize) -> Lanes,
        mut store: impl FnMut(usize, Lanes),
    ) {
        let c0 = load(0);
        // Hermitian half spectrum Z[k] = c[k] e^{i pi k/2N}, Z[0] = c[0].
        self.inverse_packed(c0, &load);
        // out[i] = (ext[i] + c[0]) / 2, ext[2j] = z[j].re, ext[2j+1] = z[j].im.
        let n = self.len;
        for (j, z) in self.z.iter().take(n.div_ceil(2)).enumerate() {
            store(2 * j, std::array::from_fn(|l| 0.5 * (z.re[l] + c0[l])));
            if 2 * j + 1 < n {
                store(2 * j + 1, std::array::from_fn(|l| 0.5 * (z.im[l] + c0[l])));
            }
        }
    }

    /// Sine synthesis (`idxst`); `load`/`store` as in
    /// [`Self::cosine_with`].
    pub(crate) fn sine_with(
        &mut self,
        load: impl Fn(usize) -> Lanes,
        mut store: impl FnMut(usize, Lanes),
    ) {
        let n = self.len;
        // Cosine spectrum of the reversed coefficients c'[k] = c[N-k],
        // c'[0] = 0.
        self.inverse_packed([0.0; TILE_LANES], |k| load(n - k));
        // out[2j] = ext[2j] / 2, out[2j+1] = -ext[2j+1] / 2.
        for (j, z) in self.z.iter().take(n.div_ceil(2)).enumerate() {
            store(2 * j, std::array::from_fn(|l| 0.5 * z.re[l]));
            if 2 * j + 1 < n {
                store(2 * j + 1, std::array::from_fn(|l| -0.5 * z.im[l]));
            }
        }
    }

    /// Undoes the real-FFT recombination of the Hermitian half spectrum
    /// whose `k = 0` bin is `x0` (real), whose bins `0 < k < N` are
    /// `coeff(k) e^{i pi k/2N}` and whose `k = N` bin is zero, writes the
    /// packed slots in bit-reversed order and runs the unscaled inverse
    /// butterflies, leaving `ext[2j] + i ext[2j+1]` in `self.z[j]`.
    fn inverse_packed(&mut self, x0: Lanes, coeff: impl Fn(usize) -> Lanes) {
        let n = self.len;
        let pinv = &self.phase_inv;
        let spec = |k: usize| {
            let (c, p) = (coeff(k), pinv[k]);
            CLanes {
                re: std::array::from_fn(|l| p.re * c[l]),
                im: std::array::from_fn(|l| p.im * c[l]),
            }
        };
        let xn = 0.0;
        self.z[0] = CLanes {
            re: std::array::from_fn(|l| x0[l] + xn),
            im: std::array::from_fn(|l| x0[l] - xn),
        };
        for k in 1..=n / 2 {
            let (xk, xm) = (spec(k), spec(n - k));
            let w = self.rfft_tw[k];
            let (wr, wi) = (w.re, -w.im);
            let (mut pk, mut pm) = (CLanes::ZERO, CLanes::ZERO);
            for l in 0..TILE_LANES {
                let ar = xk.re[l] + xm.re[l];
                let ai = xk.im[l] - xm.im[l];
                let br = xk.re[l] - xm.re[l];
                let bi = xk.im[l] + xm.im[l];
                let cr = wr * br - wi * bi;
                let ci = wr * bi + wi * br;
                let (ur, ui) = (-ci, cr);
                pk.re[l] = ar + ur;
                pk.im[l] = ai + ui;
                pm.re[l] = ar - ur;
                pm.im[l] = -(ai - ui);
            }
            self.z[self.bitrev[k] as usize] = pk;
            if k != n - k {
                self.z[self.bitrev[n - k] as usize] = pm;
            }
        }
        butterflies(&mut self.z, &self.fft_tw, true);
    }
}

/// The radix-2 decimation-in-time butterflies of
/// [`FftPlan`](crate::FftPlan) on bit-reversed input, every lane at once.
fn butterflies(z: &mut [CLanes], twiddles: &[Complex], inverse: bool) {
    let mut half = 1;
    let mut tw_base = 0;
    while half < z.len() {
        let tw = &twiddles[tw_base..tw_base + half];
        for block in z.chunks_exact_mut(2 * half) {
            let (lo, hi) = block.split_at_mut(half);
            for ((a, b), w) in lo.iter_mut().zip(hi.iter_mut()).zip(tw) {
                let (wr, wi) = if inverse { (w.re, -w.im) } else { (w.re, w.im) };
                for l in 0..TILE_LANES {
                    let br = b.re[l] * wr - b.im[l] * wi;
                    let bi = b.re[l] * wi + b.im[l] * wr;
                    let (ar, ai) = (a.re[l], a.im[l]);
                    a.re[l] = ar + br;
                    a.im[l] = ai + bi;
                    b.re[l] = ar - br;
                    b.im[l] = ai - bi;
                }
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
