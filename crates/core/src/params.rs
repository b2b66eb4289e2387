//! The live placement parameters (γ, λ) and the fixed schedule that
//! evolves them: the ePlace γ/λ updates Xplace keeps, the §3.2
//! intermediate-stage period and the stop-test constants.

/// γ schedule scale: `γ = GAMMA_SCALE * bin_size * 10^(GAMMA_K * ovfl + GAMMA_B)`
/// (the ePlace coarse-to-sharp smoothing schedule).
pub const GAMMA_SCALE: f64 = 8.0;
/// Slope of the γ exponent in overflow.
pub const GAMMA_K: f64 = 20.0 / 9.0;
/// Intercept of the γ exponent.
pub const GAMMA_B: f64 = -11.0 / 9.0;
/// λ0 = `LAMBDA_INIT_FACTOR * |∇WL| / |∇D|` (DREAMPlace's 8e-5).
pub const LAMBDA_INIT_FACTOR: f64 = 8e-5;
/// Per-update multiplier cap for λ (growth when HPWL behaves).
pub const LAMBDA_MU_MAX: f64 = 1.1;
/// Per-update multiplier floor for λ.
pub const LAMBDA_MU_MIN: f64 = 1.0;
/// Iterations between parameter updates in the intermediate stage
/// (0.5 < ω < 0.95) when the schedule is stage-aware (3 in the paper).
pub const INTERMEDIATE_UPDATE_PERIOD: usize = 3;
/// Minimum iterations before the overflow stop test applies.
pub const MIN_ITERATIONS: usize = 30;
/// Early-stop window: give up (and roll back to the best solution) after
/// this many iterations without an overflow improvement.
pub const PLATEAU_WINDOW: usize = 250;

/// The live placement parameters the scheduler evolves (γ, λ) together
/// with the bookkeeping needed for their updates. A checkpoint stores it
/// as is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Parameters {
    /// WA smoothing parameter γ (Eq. 4/6); smaller = closer to HPWL.
    pub gamma: f64,
    /// Density penalty weight λ (Eq. 3).
    pub lambda: f64,
    /// Current iteration index.
    pub iteration: usize,
    /// HPWL observed at the previous parameter update (`INFINITY` before
    /// the first update).
    pub last_hpwl: f64,
    /// Overflow observed at the previous parameter update (`INFINITY`
    /// before the first update).
    pub last_overflow: f64,
    /// Whether λ has been initialized from the first gradient norms.
    pub lambda_initialized: bool,
}

impl Parameters {
    /// Fresh parameters: γ for a fully-overflowed design, λ uninitialized
    /// (set after the first gradient evaluation).
    pub fn new(bin_size: f64) -> Self {
        Parameters {
            gamma: gamma_for(bin_size, 1.0),
            lambda: 0.0,
            iteration: 0,
            last_hpwl: f64::INFINITY,
            last_overflow: f64::INFINITY,
            lambda_initialized: false,
        }
    }

    /// Initializes λ from the L1 norms of the wirelength and density
    /// gradients: `λ0 = factor * |∇WL| / |∇D|` (the DREAMPlace rule; the
    /// small factor is why the ratio `r` of §3.1.4 starts ultra-small).
    pub fn initialize_lambda(&mut self, wl_grad_norm: f64, density_grad_norm: f64) {
        let ratio = if density_grad_norm > 0.0 {
            // Floor the ratio: a degenerate start (all cells coincident,
            // wirelength gradient ~ 0) must still seed a usable lambda.
            (wl_grad_norm / density_grad_norm).max(1e-6)
        } else {
            1.0
        };
        self.lambda = (LAMBDA_INIT_FACTOR * ratio).max(f64::MIN_POSITIVE);
        self.lambda_initialized = true;
    }

    /// One scheduler update (ePlace rules, called at the cadence chosen by
    /// the stage-aware logic): γ follows the overflow, λ is multiplied by
    /// a factor driven by the relative HPWL change since the last update.
    pub fn update(&mut self, bin_size: f64, overflow: f64, hpwl: f64) {
        self.gamma = gamma_for(bin_size, overflow);
        if self.lambda_initialized {
            let mut mu = if self.last_hpwl.is_finite() && self.last_hpwl > 0.0 {
                let rel = (hpwl - self.last_hpwl) / self.last_hpwl;
                // HPWL stable or improving -> grow λ at the cap; HPWL
                // blowing up -> slow the growth (ePlace's μ schedule, made
                // scale-free by using the relative change). λ never
                // shrinks: spreading must eventually win.
                (LAMBDA_MU_MAX * 10f64.powf(-rel * 10.0)).clamp(LAMBDA_MU_MIN, LAMBDA_MU_MAX)
            } else {
                LAMBDA_MU_MAX
            };
            // Once the density force has saturated (overflow actively
            // worsening under more pressure), pushing λ harder only
            // oscillates the system — the runaway DREAMPlace's divergence
            // check also guards against.
            if overflow > self.last_overflow + 1e-3 && overflow < 0.5 {
                mu = mu.min(1.02).max(LAMBDA_MU_MIN.min(1.02));
            }
            self.lambda *= mu;
        }
        self.last_hpwl = hpwl;
        self.last_overflow = overflow;
    }

    /// Advances the iteration counter.
    pub fn advance(&mut self) {
        self.iteration += 1;
    }
}

/// The ePlace γ schedule: `GAMMA_SCALE * bin_size * 10^(GAMMA_K * ovfl + GAMMA_B)`.
pub fn gamma_for(bin_size: f64, overflow: f64) -> f64 {
    let ovfl = overflow.clamp(0.0, 1.0);
    GAMMA_SCALE * bin_size * 10f64.powf(GAMMA_K * ovfl + GAMMA_B)
}

/// Stage classification by the precondition weighted ratio ω (§3.2):
/// returns the parameter-update period for the current stage.
pub fn update_period(stage_aware: bool, omega: f64) -> usize {
    if stage_aware && omega > 0.5 && omega < 0.95 {
        INTERMEDIATE_UPDATE_PERIOD
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gamma_shrinks_with_overflow() {
        let g1 = gamma_for(10.0, 1.0);
        let g05 = gamma_for(10.0, 0.5);
        let g01 = gamma_for(10.0, 0.1);
        assert!(g1 > g05 && g05 > g01);
        // At full overflow: 8 * 10 * 10^(20/9 - 11/9) = 80 * 10 = 800.
        assert!((g1 - 800.0).abs() < 1e-9);
        // At 10% overflow: 8 * 10 * 10^(2/9 - 11/9) = 80 * 0.1 = 8.
        assert!((g01 - 8.0).abs() < 1e-9);
    }

    #[test]
    fn gamma_clamps_overflow_to_unit_range() {
        assert_eq!(gamma_for(1.0, 5.0), gamma_for(1.0, 1.0));
        assert_eq!(gamma_for(1.0, -1.0), gamma_for(1.0, 0.0));
    }

    #[test]
    fn lambda_initialization_uses_gradient_ratio() {
        let mut p = Parameters::new(1.0);
        assert!(!p.lambda_initialized);
        p.initialize_lambda(1000.0, 10.0);
        assert!(p.lambda_initialized);
        assert!((p.lambda - 8e-5 * 100.0).abs() < 1e-12);
        // r = λ|∇D|/|∇WL| = 8e-5: "ultra-small" as the paper observes.
        let r = p.lambda * 10.0 / 1000.0;
        assert!((r - 8e-5).abs() < 1e-12);
    }

    #[test]
    fn lambda_grows_when_hpwl_is_stable() {
        let mut p = Parameters::new(1.0);
        p.initialize_lambda(100.0, 100.0);
        let l0 = p.lambda;
        p.update(1.0, 0.9, 1000.0);
        p.update(1.0, 0.8, 1000.0); // overflow improving, HPWL stable
        assert!((p.lambda - l0 * LAMBDA_MU_MAX * LAMBDA_MU_MAX).abs() < 1e-12);
    }

    #[test]
    fn lambda_growth_damps_when_overflow_stagnates() {
        let mut p = Parameters::new(1.0);
        p.initialize_lambda(100.0, 100.0);
        p.update(1.0, 0.3, 1000.0);
        let l_before = p.lambda;
        p.update(1.0, 0.32, 1000.0); // overflow worsening mid-spread
        let mu = p.lambda / l_before;
        assert!(mu <= 1.02 + 1e-12, "regression must damp growth, mu {mu}");
    }

    #[test]
    fn lambda_growth_slows_when_hpwl_explodes() {
        let mut p = Parameters::new(1.0);
        p.initialize_lambda(100.0, 100.0);
        p.update(1.0, 0.9, 1000.0);
        let l_before = p.lambda;
        p.update(1.0, 0.9, 1500.0); // +50% HPWL
        let mu = p.lambda / l_before;
        assert!(mu <= LAMBDA_MU_MIN + 1e-12, "mu {mu} should hit the floor");
    }

    #[test]
    fn update_period_follows_stage() {
        assert_eq!(update_period(true, 0.01), 1);
        assert_eq!(update_period(true, 0.7), 3);
        assert_eq!(update_period(true, 0.97), 1);
        assert_eq!(update_period(false, 0.7), 1);
    }

    #[test]
    fn advance_counts_iterations() {
        let mut p = Parameters::new(1.0);
        p.advance();
        p.advance();
        assert_eq!(p.iteration, 2);
    }
}
