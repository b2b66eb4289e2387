//! FFT-backed discrete cosine/sine transforms.
//!
//! The electrostatic solver needs three 1-D building blocks, all defined on
//! the half-sample grid `theta_k(n) = pi * k * (2n + 1) / (2N)`:
//!
//! * **analysis** (DCT-II): `C[k] = sum_n x[n] cos(theta_k(n))`
//! * **cosine synthesis**:  `f[n] = sum_k c[k] cos(theta_k(n))`
//! * **sine synthesis** (a.k.a. `idxst`): `f[n] = sum_k c[k] sin(theta_k(n))`
//!
//! All three run through a single length-`N` complex FFT by way of the
//! packed real transform [`RealFftPlan`]: the even extension of the input
//! (analysis) and the Hermitian coefficient spectrum (synthesis) are real /
//! conjugate-symmetric, so only the non-redundant half of the length-`2N`
//! spectrum is ever computed or stored. See `DESIGN.md` ("Real-FFT spectral
//! engine") for the derivation; [`naive`] holds the `O(N^2)` sums the
//! tests check these paths against.

use crate::{Complex, FftError, RealFftPlan};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// A cache of [`DctPlan`]s keyed by length, with tear-free hit/miss stats.
///
/// Plan construction computes `O(N)` twiddle/phase tables; callers that
/// repeatedly build solvers for the same grid size (batch runs over many
/// designs, a serving daemon) share that work through a cache. Lookups
/// clone the cached plan, so cached clones never contend at transform time.
///
/// Both counters live in one `AtomicU64` (hits in the high 32 bits, misses
/// in the low 32), so a [`PlanCache::stats`] snapshot is always a
/// consistent pair — a concurrent lookup can never be observed in one
/// counter but not the other. Tests that assert exact deltas should use a
/// private instance instead of the process-wide [`DctPlan::cached`] cache,
/// whose counters are shared by the whole process.
///
/// ```
/// use xplace_fft::PlanCache;
///
/// let cache = PlanCache::new();
/// cache.get(64).unwrap();
/// cache.get(64).unwrap();
/// assert_eq!(cache.stats(), (1, 1)); // one miss, then one hit
/// ```
///
/// The cache holds at most `capacity` plans (default
/// [`DEFAULT_PLAN_CACHE_CAPACITY`]); inserting beyond the cap evicts the
/// least-recently-used length. Recency is a logical access counter bumped
/// under the cache lock, so eviction order is a deterministic function of
/// the access sequence.
#[derive(Debug)]
pub struct PlanCache {
    map: Mutex<PlanEntries>,
    capacity: usize,
    /// Packed `(hits << 32) | misses`; saturating per half.
    stats: AtomicU64,
}

/// Default [`PlanCache`] capacity, in distinct plan lengths.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 32;

#[derive(Debug, Default)]
struct PlanEntries {
    map: HashMap<usize, (DctPlan, u64)>,
    /// Logical LRU clock (see [`PlanCache`] docs).
    tick: u64,
    evictions: usize,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_PLAN_CACHE_CAPACITY)
    }
}

impl PlanCache {
    /// Creates an empty cache with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache holding at most `capacity` plan lengths (a
    /// cap of 0 is clamped to 1 so the most recent plan stays reusable).
    pub fn with_capacity(capacity: usize) -> Self {
        PlanCache {
            map: Mutex::new(PlanEntries::default()),
            capacity: capacity.max(1),
            stats: AtomicU64::new(0),
        }
    }

    /// The maximum number of plan lengths the cache retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of plans evicted to stay within capacity.
    pub fn evictions(&self) -> usize {
        self.map.lock().unwrap_or_else(|e| e.into_inner()).evictions
    }

    /// `(hits, misses)` since construction, read as one consistent pair.
    ///
    /// Each counter saturates at `u32::MAX` instead of wrapping into its
    /// neighbor's half.
    pub fn stats(&self) -> (usize, usize) {
        let packed = self.stats.load(Ordering::Relaxed);
        (
            (packed >> 32) as usize,
            (packed & u64::from(u32::MAX)) as usize,
        )
    }

    fn bump(&self, hit: bool) {
        let _ = self
            .stats
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |packed| {
                let hits = packed >> 32;
                let misses = packed & u64::from(u32::MAX);
                let (hits, misses) = if hit {
                    ((hits + 1).min(u64::from(u32::MAX)), misses)
                } else {
                    (hits, (misses + 1).min(u64::from(u32::MAX)))
                };
                Some(hits << 32 | misses)
            });
    }

    /// Returns a plan of length `len`, cloned from the cache (loading it on
    /// first use). The returned plan owns private scratch.
    ///
    /// # Errors
    ///
    /// Same as [`DctPlan::new`]; invalid lengths are never cached and touch
    /// neither counter.
    pub fn get(&self, len: usize) -> Result<DctPlan, FftError> {
        let mut entries = self.map.lock().unwrap_or_else(|e| e.into_inner());
        entries.tick += 1;
        let now = entries.tick;
        if let Some((plan, used)) = entries.map.get_mut(&len) {
            *used = now;
            let plan = plan.clone();
            self.bump(true);
            return Ok(plan);
        }
        let plan = DctPlan::new(len)?;
        self.bump(false);
        if entries.map.len() >= self.capacity {
            // Ticks are unique under the lock, so the LRU victim is
            // unique and eviction order is deterministic.
            if let Some(victim) = entries
                .map
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| *k)
            {
                entries.map.remove(&victim);
                entries.evictions += 1;
            }
        }
        entries.map.insert(len, (plan.clone(), now));
        Ok(plan)
    }

    /// Number of cached plan lengths.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap_or_else(|e| e.into_inner()).map.len()
    }

    /// `true` when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn global_cache() -> &'static PlanCache {
    static CACHE: OnceLock<PlanCache> = OnceLock::new();
    CACHE.get_or_init(PlanCache::new)
}

/// `(hits, misses)` of the process-wide [`DctPlan::cached`] plan cache
/// since process start, read as one consistent snapshot. Long-running
/// services expose these counters to show that spectral plans stay warm
/// across requests.
pub fn plan_cache_stats() -> (usize, usize) {
    global_cache().stats()
}

/// Evictions from the process-wide [`DctPlan::cached`] plan cache since
/// process start. Nonzero means more distinct grid sizes were in play
/// than [`DEFAULT_PLAN_CACHE_CAPACITY`] — plans are being rebuilt.
pub fn plan_cache_evictions() -> usize {
    global_cache().evictions()
}

/// A reusable plan for the DCT/DST family of a fixed power-of-two length.
///
/// All transforms are `O(N log N)` and allocation-free after construction,
/// computed through one length-`N` complex FFT via the packed real path of
/// [`RealFftPlan`]. Methods take `&mut self` because the plan owns scratch
/// buffers.
///
/// ```
/// use xplace_fft::DctPlan;
///
/// # fn main() -> Result<(), xplace_fft::FftError> {
/// let mut plan = DctPlan::new(8)?;
/// let x: Vec<f64> = (0..8).map(|i| (i as f64 * 0.3).sin()).collect();
/// let mut coeffs = vec![0.0; 8];
/// plan.analyze(&x, &mut coeffs)?;
/// // Scale to synthesis coefficients and reconstruct.
/// let mut c = coeffs.clone();
/// for (k, v) in c.iter_mut().enumerate() {
///     *v *= 2.0 / 8.0;
///     if k == 0 { *v *= 0.5; }
/// }
/// let mut back = vec![0.0; 8];
/// plan.cosine_synthesis(&c, &mut back)?;
/// for (a, b) in back.iter().zip(&x) {
///     assert!((a - b).abs() < 1e-10);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DctPlan {
    len: usize,
    pub(crate) rfft: RealFftPlan,
    /// e^{-i pi k / (2N)} for k in 0..N.
    pub(crate) phase_fwd: Vec<Complex>,
    /// e^{+i pi k / (2N)} for k in 0..N.
    pub(crate) phase_inv: Vec<Complex>,
    /// Half-spectrum scratch, N + 1 slots.
    spec: Vec<Complex>,
    /// Real even-extension scratch, 2N samples.
    ext: Vec<f64>,
}

impl DctPlan {
    /// Creates a plan of length `len` (must be a nonzero power of two).
    ///
    /// # Errors
    ///
    /// Propagates [`FftError::EmptyLength`] / [`FftError::NotPowerOfTwo`]
    /// from the underlying FFT plan.
    pub fn new(len: usize) -> Result<Self, FftError> {
        if len == 0 {
            return Err(FftError::EmptyLength);
        }
        if !crate::is_power_of_two(len) {
            return Err(FftError::NotPowerOfTwo(len));
        }
        let rfft = RealFftPlan::new(2 * len)?;
        let phase_fwd = (0..len)
            .map(|k| Complex::from_angle(-std::f64::consts::PI * k as f64 / (2.0 * len as f64)))
            .collect();
        let phase_inv = (0..len)
            .map(|k| Complex::from_angle(std::f64::consts::PI * k as f64 / (2.0 * len as f64)))
            .collect();
        Ok(DctPlan {
            len,
            rfft,
            phase_fwd,
            phase_inv,
            spec: vec![Complex::ZERO; len + 1],
            ext: vec![0.0; 2 * len],
        })
    }

    /// Returns a plan of length `len`, cloned from a process-wide cache —
    /// a convenience wrapper over a global [`PlanCache`].
    ///
    /// The returned plan owns private scratch, so cached clones never
    /// contend at transform time. Tests asserting exact hit/miss deltas
    /// should construct their own [`PlanCache`]: the global counters are
    /// shared by every caller in the process.
    ///
    /// # Errors
    ///
    /// Same as [`DctPlan::new`]; invalid lengths are never cached.
    pub fn cached(len: usize) -> Result<Self, FftError> {
        global_cache().get(len)
    }

    /// The transform length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the plan length is zero (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn check(&self, input: &[f64], output: &[f64]) -> Result<(), FftError> {
        if input.len() != self.len {
            return Err(FftError::LengthMismatch {
                expected: self.len,
                actual: input.len(),
            });
        }
        if output.len() != self.len {
            return Err(FftError::LengthMismatch {
                expected: self.len,
                actual: output.len(),
            });
        }
        Ok(())
    }

    /// Unnormalized DCT-II analysis:
    /// `output[k] = sum_n input[n] * cos(pi k (2n+1) / (2N))`.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] if either slice length differs
    /// from the plan length.
    pub fn analyze(&mut self, input: &[f64], output: &mut [f64]) -> Result<(), FftError> {
        self.check(input, output)?;
        let n = self.len;
        // Even extension: y[n] = x[n], y[2N-1-n] = x[n]. The extension is
        // real, so the forward transform runs through the packed real path.
        let (head, tail) = self.ext.split_at_mut(n);
        head.copy_from_slice(input);
        for (t, &x) in tail.iter_mut().rev().zip(input) {
            *t = x;
        }
        self.rfft.forward(&self.ext, &mut self.spec)?;
        // C[k] = Re(Y[k] * e^{-i pi k / 2N}) / 2; only the half spectrum
        // k < N is needed, and only the real part of the product.
        for ((out, y), p) in output.iter_mut().zip(&self.spec).zip(&self.phase_fwd) {
            *out = 0.5 * (y.re * p.re - y.im * p.im);
        }
        Ok(())
    }

    /// Cosine synthesis:
    /// `output[n] = sum_{k=0}^{N-1} coeffs[k] * cos(pi k (2n+1) / (2N))`.
    ///
    /// Note the `k = 0` term enters with full weight `coeffs[0]`; any DCT
    /// normalization convention is the caller's responsibility (see the
    /// type-level example).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] on slice-length mismatch.
    pub fn cosine_synthesis(&mut self, coeffs: &[f64], output: &mut [f64]) -> Result<(), FftError> {
        self.check(coeffs, output)?;
        let n = self.len;
        // Hermitian half spectrum Z[k] = c[k] e^{i pi k/2N} for k < N; the
        // conjugate half is implied and never materialized.
        self.spec[0] = Complex::new(coeffs[0], 0.0);
        self.spec[n] = Complex::ZERO;
        for ((z, p), &c) in self.spec[1..n]
            .iter_mut()
            .zip(&self.phase_inv[1..])
            .zip(&coeffs[1..])
        {
            *z = p.scale(c);
        }
        self.rfft.inverse_unscaled(&self.spec, &mut self.ext)?;
        // ext[n] = c[0] + 2 sum_{k>=1} c[k] cos(theta) ; recover the sum.
        let c0 = coeffs[0];
        for (out, &e) in output.iter_mut().zip(self.ext.iter()) {
            *out = 0.5 * (e + c0);
        }
        Ok(())
    }

    /// Sine synthesis (the `idxst` transform of ePlace/DREAMPlace):
    /// `output[n] = sum_{k=0}^{N-1} coeffs[k] * sin(pi k (2n+1) / (2N))`.
    ///
    /// The `k = 0` coefficient is irrelevant (its basis function is zero).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] on slice-length mismatch.
    pub fn sine_synthesis(&mut self, coeffs: &[f64], output: &mut [f64]) -> Result<(), FftError> {
        self.check(coeffs, output)?;
        let n = self.len;
        // Identity: sum_k c[k] sin(pi k (2n+1)/(2N))
        //         = (-1)^n * sum_m c'[m] cos(pi m (2n+1)/(2N))
        // with c'[0] = 0, c'[m] = c[N-m].
        // Build the Hermitian half spectrum for c' directly.
        self.spec[0] = Complex::ZERO;
        self.spec[n] = Complex::ZERO;
        for (m, z) in self.spec[1..n].iter_mut().enumerate() {
            *z = self.phase_inv[m + 1].scale(coeffs[n - 1 - m]);
        }
        self.rfft.inverse_unscaled(&self.spec, &mut self.ext)?;
        for (pair, out) in self.ext.chunks_exact(2).zip(output.chunks_mut(2)) {
            out[0] = 0.5 * pair[0];
            if let Some(o) = out.get_mut(1) {
                *o = -0.5 * pair[1];
            }
        }
        Ok(())
    }
}

/// Reference `O(N^2)` implementations used to validate the FFT-backed
/// paths (unit, property and solver tests).
#[doc(hidden)]
pub mod naive {
    /// Unnormalized DCT-II.
    pub fn analyze(input: &[f64]) -> Vec<f64> {
        let n = input.len();
        (0..n)
            .map(|k| {
                input
                    .iter()
                    .enumerate()
                    .map(|(i, &x)| {
                        x * (std::f64::consts::PI * k as f64 * (2 * i + 1) as f64
                            / (2.0 * n as f64))
                            .cos()
                    })
                    .sum()
            })
            .collect()
    }

    /// Plain cosine synthesis.
    pub fn cosine_synthesis(coeffs: &[f64]) -> Vec<f64> {
        let n = coeffs.len();
        (0..n)
            .map(|i| {
                coeffs
                    .iter()
                    .enumerate()
                    .map(|(k, &c)| {
                        c * (std::f64::consts::PI * k as f64 * (2 * i + 1) as f64
                            / (2.0 * n as f64))
                            .cos()
                    })
                    .sum()
            })
            .collect()
    }

    /// Plain sine synthesis.
    pub fn sine_synthesis(coeffs: &[f64]) -> Vec<f64> {
        let n = coeffs.len();
        (0..n)
            .map(|i| {
                coeffs
                    .iter()
                    .enumerate()
                    .map(|(k, &c)| {
                        c * (std::f64::consts::PI * k as f64 * (2 * i + 1) as f64
                            / (2.0 * n as f64))
                            .sin()
                    })
                    .sum()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.7).sin() + 0.3 * (i as f64 * 2.1).cos())
            .collect()
    }

    #[test]
    fn rejects_invalid_lengths() {
        assert!(matches!(DctPlan::new(0), Err(FftError::EmptyLength)));
        assert!(matches!(DctPlan::new(10), Err(FftError::NotPowerOfTwo(10))));
    }

    #[test]
    fn private_plan_cache_counts_exact_hits_and_misses() {
        // A private cache has delta-scoped counters: no other test can
        // touch them, so the assertions are exact and order-independent.
        let cache = PlanCache::new();
        assert_eq!(cache.stats(), (0, 0));
        assert!(cache.is_empty());
        cache.get(64).unwrap();
        assert_eq!(cache.stats(), (0, 1), "first get(64) must be a miss");
        cache.get(64).unwrap();
        assert_eq!(cache.stats(), (1, 1), "second get(64) must be a hit");
        cache.get(32).unwrap();
        cache.get(32).unwrap();
        cache.get(32).unwrap();
        assert_eq!(cache.stats(), (3, 2));
        assert_eq!(cache.len(), 2);
        // Invalid lengths touch neither counter.
        assert!(cache.get(12).is_err());
        assert!(cache.get(0).is_err());
        assert_eq!(cache.stats(), (3, 2));
    }

    #[test]
    fn plan_cache_capacity_evicts_least_recently_used() {
        let cache = PlanCache::with_capacity(2);
        assert_eq!(cache.capacity(), 2);
        cache.get(8).unwrap();
        cache.get(16).unwrap();
        // Touch 8 so 16 is the LRU victim when 32 arrives.
        cache.get(8).unwrap();
        cache.get(32).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        // 8 survived (hit); 16 was evicted (miss again, evicting 8,
        // which is now the LRU after 32's insert touched the clock).
        cache.get(8).unwrap();
        let (hits, misses) = cache.stats();
        cache.get(16).unwrap();
        assert_eq!(cache.stats(), (hits, misses + 1));
        assert_eq!(cache.evictions(), 2);
        // Zero capacity clamps to 1.
        assert_eq!(PlanCache::with_capacity(0).capacity(), 1);
    }

    #[test]
    fn plan_cache_stats_snapshot_is_monotone_and_consistent() {
        // The process-wide counters are shared across the test binary, so
        // only monotone (>=) deltas can be asserted here; exact deltas live
        // in `private_plan_cache_counts_exact_hits_and_misses`.
        let (h0, m0) = plan_cache_stats();
        DctPlan::cached(2048).unwrap();
        DctPlan::cached(2048).unwrap();
        let (h1, m1) = plan_cache_stats();
        assert!(h1 + m1 >= h0 + m0 + 2, "two lookups must be counted");
        assert!(h1 >= h0 + 1, "the second cached(2048) must be a hit");
        assert!(m1 >= m0, "misses never decrease");
        assert!(DctPlan::cached(12).is_err());
    }

    #[test]
    fn plan_cache_stats_saturate_instead_of_carrying() {
        // Force the miss half to the saturation point and verify further
        // misses neither wrap nor spill a carry into the hit half.
        let cache = PlanCache::new();
        cache
            .stats
            .store(u64::from(u32::MAX) - 1, Ordering::Relaxed);
        cache.get(16).unwrap(); // miss -> u32::MAX
        cache.get(8).unwrap(); // miss -> saturates
        assert_eq!(cache.stats(), (0, u32::MAX as usize));
        cache.get(16).unwrap(); // hit half still counts normally
        assert_eq!(cache.stats(), (1, u32::MAX as usize));
    }

    #[test]
    fn cached_plan_matches_fresh_plan_bitwise() {
        let x = sample_signal(64);
        let mut fresh = DctPlan::new(64).unwrap();
        let mut cached = DctPlan::cached(64).unwrap();
        let mut again = DctPlan::cached(64).unwrap();
        let mut a = vec![0.0; 64];
        let mut b = vec![0.0; 64];
        let mut c = vec![0.0; 64];
        fresh.analyze(&x, &mut a).unwrap();
        cached.analyze(&x, &mut b).unwrap();
        again.analyze(&x, &mut c).unwrap();
        for ((p, q), r) in a.iter().zip(&b).zip(&c) {
            assert_eq!(p.to_bits(), q.to_bits());
            assert_eq!(p.to_bits(), r.to_bits());
        }
    }

    #[test]
    fn cached_rejects_invalid_lengths() {
        assert!(matches!(DctPlan::cached(0), Err(FftError::EmptyLength)));
        assert!(matches!(
            DctPlan::cached(12),
            Err(FftError::NotPowerOfTwo(12))
        ));
    }

    #[test]
    fn analyze_matches_naive() {
        for &n in &[1usize, 2, 4, 8, 32, 128] {
            let mut plan = DctPlan::new(n).unwrap();
            let x = sample_signal(n);
            let mut fast = vec![0.0; n];
            plan.analyze(&x, &mut fast).unwrap();
            let slow = naive::analyze(&x);
            for (a, b) in fast.iter().zip(&slow) {
                assert!((a - b).abs() < 1e-9, "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn cosine_synthesis_matches_naive() {
        for &n in &[1usize, 2, 8, 64] {
            let mut plan = DctPlan::new(n).unwrap();
            let c = sample_signal(n);
            let mut fast = vec![0.0; n];
            plan.cosine_synthesis(&c, &mut fast).unwrap();
            let slow = naive::cosine_synthesis(&c);
            for (a, b) in fast.iter().zip(&slow) {
                assert!((a - b).abs() < 1e-9, "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn sine_synthesis_matches_naive() {
        for &n in &[1usize, 2, 8, 64, 256] {
            let mut plan = DctPlan::new(n).unwrap();
            let c = sample_signal(n);
            let mut fast = vec![0.0; n];
            plan.sine_synthesis(&c, &mut fast).unwrap();
            let slow = naive::sine_synthesis(&c);
            for (a, b) in fast.iter().zip(&slow) {
                assert!((a - b).abs() < 1e-9, "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn length_one_plans_are_exact() {
        let mut plan = DctPlan::new(1).unwrap();
        let (mut out, x) = ([0.0], [2.75]);
        plan.analyze(&x, &mut out).unwrap();
        assert_eq!(out, [2.75]); // C[0] = x[0]
        plan.cosine_synthesis(&x, &mut out).unwrap();
        assert_eq!(out, [2.75]); // f[0] = c[0]
        plan.sine_synthesis(&x, &mut out).unwrap();
        assert_eq!(out, [0.0]); // sin(0) basis
    }

    #[test]
    fn analysis_then_scaled_synthesis_round_trips() {
        let n = 64;
        let mut plan = DctPlan::new(n).unwrap();
        let x = sample_signal(n);
        let mut c = vec![0.0; n];
        plan.analyze(&x, &mut c).unwrap();
        for (k, v) in c.iter_mut().enumerate() {
            *v *= 2.0 / n as f64;
            if k == 0 {
                *v *= 0.5;
            }
        }
        let mut back = vec![0.0; n];
        plan.cosine_synthesis(&c, &mut back).unwrap();
        for (a, b) in back.iter().zip(&x) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn pure_cosine_mode_concentrates_in_one_coefficient() {
        let n = 32;
        let mut plan = DctPlan::new(n).unwrap();
        let k0 = 5;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                (std::f64::consts::PI * k0 as f64 * (2 * i + 1) as f64 / (2.0 * n as f64)).cos()
            })
            .collect();
        let mut c = vec![0.0; n];
        plan.analyze(&x, &mut c).unwrap();
        for (k, &v) in c.iter().enumerate() {
            if k == k0 {
                assert!(
                    (v - n as f64 / 2.0).abs() < 1e-9,
                    "peak coefficient wrong: {v}"
                );
            } else {
                assert!(v.abs() < 1e-9, "leakage at k={k}: {v}");
            }
        }
    }

    #[test]
    fn sine_synthesis_ignores_k0() {
        let n = 16;
        let mut plan = DctPlan::new(n).unwrap();
        let mut c = vec![0.0; n];
        c[0] = 123.0;
        let mut out = vec![0.0; n];
        plan.sine_synthesis(&c, &mut out).unwrap();
        for v in &out {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn mismatched_lengths_error() {
        let mut plan = DctPlan::new(8).unwrap();
        let x = vec![0.0; 8];
        let mut out = vec![0.0; 4];
        assert!(matches!(
            plan.analyze(&x, &mut out),
            Err(FftError::LengthMismatch {
                expected: 8,
                actual: 4
            })
        ));
    }

    #[test]
    fn linearity_of_analysis() {
        let n = 32;
        let mut plan = DctPlan::new(n).unwrap();
        let x = sample_signal(n);
        let y: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let sum: Vec<f64> = x.iter().zip(&y).map(|(a, b)| 2.0 * a + 3.0 * b).collect();
        let (mut cx, mut cy, mut cs) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        plan.analyze(&x, &mut cx).unwrap();
        plan.analyze(&y, &mut cy).unwrap();
        plan.analyze(&sum, &mut cs).unwrap();
        for k in 0..n {
            assert!((cs[k] - (2.0 * cx[k] + 3.0 * cy[k])).abs() < 1e-9);
        }
    }
}
