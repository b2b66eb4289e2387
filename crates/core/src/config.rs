use xplace_device::DeviceConfig;
use xplace_fault::GpFault;

/// Which operator stream the engine emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framework {
    /// Xplace's lean operator stream (subject to the four toggles).
    Xplace,
    /// The DREAMPlace-like baseline: the same math executed through the
    /// operator stream described in the DREAMPlace paper — merged WA objective+gradient but
    /// separate HPWL kernel, direct (non-extracted) density accumulation,
    /// autograd-driven backward ops, out-of-place tensors, per-readback
    /// synchronization, and the framework glue kernels a PyTorch optimizer
    /// step issues.
    DreamplaceLike,
}

/// The four operator-level optimization toggles of §3.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OperatorConfig {
    /// §3.1.3 operator reduction: bypass autograd, use in-place kernels,
    /// defer synchronization to the end of the iteration.
    pub reduction: bool,
    /// §3.1.1 operator combination: fuse WA wirelength + WA gradient +
    /// HPWL into one kernel sharing the min/max computation.
    pub combination: bool,
    /// §3.1.2 operator extraction: accumulate the movable density map once
    /// and reuse it for both the overflow ratio and the total map.
    pub extraction: bool,
    /// §3.1.4 operator skipping: while `r < 0.01` and `iteration < 100`,
    /// run the density operator once per 20 iterations.
    pub skipping: bool,
}

impl OperatorConfig {
    /// All four optimizations enabled (the full Xplace configuration).
    pub fn all() -> Self {
        OperatorConfig {
            reduction: true,
            combination: true,
            extraction: true,
            skipping: true,
        }
    }

    /// All optimizations disabled (the "none" ablation row).
    pub fn none() -> Self {
        OperatorConfig {
            reduction: false,
            combination: false,
            extraction: false,
            skipping: false,
        }
    }
}

/// Parameter-scheduling knobs (§3.2 and the ePlace updates Xplace keeps).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleConfig {
    /// Hard iteration cap.
    pub max_iterations: usize,
    /// Minimum iterations before the stop test applies.
    pub min_iterations: usize,
    /// Stop when the overflow ratio drops below this.
    pub stop_overflow: f64,
    /// γ = `gamma_scale * bin_size * 10^(gamma_k * ovfl + gamma_b)`
    /// (the ePlace coarse-to-sharp smoothing schedule).
    pub gamma_scale: f64,
    /// Slope of the γ exponent in overflow.
    pub gamma_k: f64,
    /// Intercept of the γ exponent.
    pub gamma_b: f64,
    /// λ0 = `lambda_init_factor * |∇WL| / |∇D|` (DREAMPlace's 8e-5).
    pub lambda_init_factor: f64,
    /// Per-update multiplier cap for λ (growth when HPWL behaves).
    pub lambda_mu_max: f64,
    /// Per-update multiplier floor for λ.
    pub lambda_mu_min: f64,
    /// Enable the placement-stage-aware slowdown of Algorithm 1
    /// (parameters update once per 3 iterations while 0.5 < ω < 0.95).
    pub stage_aware: bool,
    /// How many iterations between parameter updates in the intermediate
    /// stage (3 in the paper).
    pub intermediate_update_period: usize,
    /// Early-stop window: give up (and roll back to the best solution)
    /// after this many iterations without an overflow improvement.
    pub plateau_window: usize,
}

impl Default for ScheduleConfig {
    fn default() -> Self {
        ScheduleConfig {
            max_iterations: 1500,
            min_iterations: 30,
            stop_overflow: 0.10,
            gamma_scale: 8.0,
            gamma_k: 20.0 / 9.0,
            gamma_b: -11.0 / 9.0,
            lambda_init_factor: 8e-5,
            lambda_mu_max: 1.1,
            lambda_mu_min: 1.0,
            stage_aware: true,
            intermediate_update_period: 3,
            plateau_window: 250,
        }
    }
}

/// Multilevel (coarsen/uncoarsen) placement controls.
///
/// When enabled and the design has more movable cells than `min_cells`,
/// the placer builds a clustering hierarchy
/// ([`xplace_db::build_hierarchy`]), places the coarsest level with a
/// short ω-driven schedule, seeds each finer level from the coarser
/// solution, and runs the configured full schedule only on the original
/// netlist. Determinism is preserved level by level: coarsening is
/// RNG-free, seeding jitter is hash-derived from the placement seed, and
/// coarse levels trace nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultilevelConfig {
    /// Run multilevel placement (off by default: small designs gain
    /// nothing from the hierarchy).
    pub enabled: bool,
    /// Hierarchy floor: coarsening stops at this many movable cells, and
    /// designs at or below it place flat even when `enabled`.
    pub min_cells: usize,
    /// Hard cap on coarse levels.
    pub max_levels: usize,
    /// Iteration cap per coarse level (the full schedule only runs at the
    /// finest level).
    pub coarse_max_iterations: usize,
    /// Relaxed overflow stop for coarse levels; the effective coarse
    /// target is `max(coarse_stop_overflow, schedule.stop_overflow)`.
    pub coarse_stop_overflow: f64,
}

impl Default for MultilevelConfig {
    fn default() -> Self {
        MultilevelConfig {
            enabled: false,
            min_cells: 5_000,
            max_levels: 8,
            coarse_max_iterations: 200,
            coarse_stop_overflow: 0.15,
        }
    }
}

/// Complete configuration of a [`crate::GlobalPlacer`].
#[derive(Debug, Clone)]
pub struct XplaceConfig {
    /// Which operator stream to emit.
    pub framework: Framework,
    /// The §3.1 toggles (ignored in `DreamplaceLike` mode, which fixes its
    /// own stream).
    pub operators: OperatorConfig,
    /// Scheduling knobs.
    pub schedule: ScheduleConfig,
    /// Device performance model used for the modeled GPU time.
    pub device: DeviceConfig,
    /// Density-grid override (power of two) for experiments; `None` picks
    /// automatically from the design size.
    pub grid: Option<usize>,
    /// Seed for filler spreading.
    pub seed: u64,
    /// CPU launch width inside the heavy kernel bodies (wirelength,
    /// density accumulation and the spectral Poisson solve), executed on the
    /// persistent `xplace-parallel` pool. The work decomposition is fixed by
    /// the design — never by this count — so metrics are **bit-identical for
    /// every value**; it only changes wall-clock scheduling, not the modeled
    /// GPU time.
    pub threads: usize,
    /// Multilevel coarsen/uncoarsen controls.
    pub multilevel: MultilevelConfig,
    /// Injected fault resolved from a [`xplace_fault::FaultPlan`] for the
    /// current job attempt (the scheduler fills this in; standalone runs
    /// leave it at [`GpFault::NONE`]).
    ///
    /// Deliberately **excluded** from [`Self::echo`]: it is not a
    /// placement parameter, and a faulted run's trace prefix must stay
    /// byte-identical to the healthy run's.
    pub fault: GpFault,
}

impl XplaceConfig {
    /// The full Xplace configuration: all operator optimizations on,
    /// stage-aware scheduling on.
    pub fn xplace() -> Self {
        XplaceConfig {
            framework: Framework::Xplace,
            operators: OperatorConfig::all(),
            schedule: ScheduleConfig::default(),
            device: DeviceConfig::rtx3090(),
            grid: None,
            seed: 0x5eed,
            threads: 1,
            multilevel: MultilevelConfig::default(),
            fault: GpFault::NONE,
        }
    }

    /// An ablation configuration with explicit §3.1 toggles
    /// (reduction, combination, extraction, skipping).
    pub fn ablation(reduction: bool, combination: bool, extraction: bool, skipping: bool) -> Self {
        let mut cfg = Self::xplace();
        cfg.operators = OperatorConfig {
            reduction,
            combination,
            extraction,
            skipping,
        };
        cfg
    }

    /// The DREAMPlace-like baseline comparator.
    pub fn dreamplace_like() -> Self {
        let mut cfg = Self::xplace();
        cfg.framework = Framework::DreamplaceLike;
        cfg.operators = OperatorConfig::none();
        // DREAMPlace updates parameters every iteration (no stage-aware
        // slowdown) — that is part of Xplace's §3.2 contribution.
        cfg.schedule.stage_aware = false;
        cfg
    }

    /// Sets the RNG seed for filler spreading.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the CPU worker-thread count for kernel bodies.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enables (or disables) multilevel placement with default controls.
    pub fn with_multilevel(mut self, enabled: bool) -> Self {
        self.multilevel.enabled = enabled;
        self
    }

    /// The telemetry configuration echo embedded in traces and reports.
    ///
    /// Excludes the thread count on purpose: metrics are bit-identical
    /// for every `threads` value, and a thread-free echo keeps traces
    /// byte-identical across thread counts (the count is reported in
    /// [`xplace_telemetry::RunReport::threads`] instead).
    pub fn echo(&self) -> xplace_telemetry::ConfigEcho {
        xplace_telemetry::ConfigEcho {
            framework: match self.framework {
                Framework::Xplace => "xplace",
                Framework::DreamplaceLike => "dreamplace_like",
            }
            .to_string(),
            reduction: self.operators.reduction,
            combination: self.operators.combination,
            extraction: self.operators.extraction,
            skipping: self.operators.skipping,
            stage_aware: self.schedule.stage_aware,
            max_iterations: self.schedule.max_iterations,
            stop_overflow: self.schedule.stop_overflow,
            seed: self.seed,
            grid: self.grid,
            multilevel: self.multilevel.enabled,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`crate::PlaceError::InvalidConfig`] for inconsistent
    /// schedules (zero iterations, non-positive overflow target, bad γ
    /// scale, or a grid override that is not a power of two or exceeds
    /// [`xplace_fft::MAX_GRID_SIDE`]).
    pub fn validate(&self) -> Result<(), crate::PlaceError> {
        if self.schedule.max_iterations == 0 {
            return Err(crate::PlaceError::InvalidConfig(
                "max_iterations is zero".into(),
            ));
        }
        if not_positive(self.schedule.stop_overflow) {
            return Err(crate::PlaceError::InvalidConfig(
                "stop_overflow must be positive".into(),
            ));
        }
        if not_positive(self.schedule.gamma_scale) {
            return Err(crate::PlaceError::InvalidConfig(
                "gamma_scale must be positive".into(),
            ));
        }
        if self.schedule.lambda_mu_min > self.schedule.lambda_mu_max {
            return Err(crate::PlaceError::InvalidConfig(
                "lambda_mu_min exceeds lambda_mu_max".into(),
            ));
        }
        if let Some(g) = self.grid {
            if !xplace_fft::is_power_of_two(g) {
                return Err(crate::PlaceError::InvalidConfig(format!(
                    "grid override {g} is not a power of two"
                )));
            }
            if g > xplace_fft::MAX_GRID_SIDE {
                return Err(crate::PlaceError::InvalidConfig(format!(
                    "grid override {g} exceeds the maximum of {} bins",
                    xplace_fft::MAX_GRID_SIDE
                )));
            }
        }
        if self.multilevel.enabled {
            if self.multilevel.coarse_max_iterations == 0 {
                return Err(crate::PlaceError::InvalidConfig(
                    "multilevel coarse_max_iterations is zero".into(),
                ));
            }
            if self.multilevel.max_levels == 0 {
                return Err(crate::PlaceError::InvalidConfig(
                    "multilevel max_levels is zero".into(),
                ));
            }
            if not_positive(self.multilevel.coarse_stop_overflow) {
                return Err(crate::PlaceError::InvalidConfig(
                    "multilevel coarse_stop_overflow must be positive".into(),
                ));
            }
        }
        Ok(())
    }
}

/// `true` unless `v` is a number above zero: NaN is not positive.
fn not_positive(v: f64) -> bool {
    v.is_nan() || v <= 0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_toggles() {
        let x = XplaceConfig::xplace();
        assert_eq!(x.operators, OperatorConfig::all());
        assert_eq!(x.framework, Framework::Xplace);
        assert!(x.schedule.stage_aware);

        let d = XplaceConfig::dreamplace_like();
        assert_eq!(d.framework, Framework::DreamplaceLike);
        assert!(!d.schedule.stage_aware);

        let a = XplaceConfig::ablation(true, true, false, false);
        assert!(a.operators.reduction && a.operators.combination);
        assert!(!a.operators.extraction && !a.operators.skipping);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = XplaceConfig::xplace();
        c.schedule.max_iterations = 0;
        assert!(c.validate().is_err());
        let mut c = XplaceConfig::xplace();
        c.schedule.stop_overflow = 0.0;
        assert!(c.validate().is_err());
        let nan = |set: fn(&mut XplaceConfig), want: &str| {
            let mut c = XplaceConfig::xplace();
            set(&mut c);
            let err = c.validate().unwrap_err().to_string();
            assert!(err.contains(want), "{err}");
        };
        nan(|c| c.schedule.stop_overflow = f64::NAN, "stop_overflow");
        nan(|c| c.schedule.gamma_scale = f64::NAN, "gamma_scale");
        nan(
            |c| {
                c.multilevel.enabled = true;
                c.multilevel.coarse_stop_overflow = f64::NAN;
            },
            "coarse_stop_overflow",
        );
        let mut c = XplaceConfig::xplace();
        c.schedule.lambda_mu_min = 2.0;
        assert!(c.validate().is_err());
        let mut c = XplaceConfig::xplace();
        c.grid = Some(48);
        assert!(c.validate().is_err());
        let mut c = XplaceConfig::xplace();
        c.grid = Some(2 * xplace_fft::MAX_GRID_SIDE);
        let err = c.validate().unwrap_err().to_string();
        assert!(err.contains("exceeds the maximum"), "{err}");
        assert!(XplaceConfig::xplace().validate().is_ok());
    }

    #[test]
    fn builders_set_fields() {
        let c = XplaceConfig::xplace().with_seed(9);
        assert_eq!(c.seed, 9);
    }

    #[test]
    fn fault_hook_is_excluded_from_the_config_echo() {
        // A faulted run's trace prefix must stay byte-identical to the
        // healthy run's, so the hook must not leak into the echo.
        let healthy = XplaceConfig::xplace();
        assert_eq!(healthy.fault, GpFault::NONE);
        use xplace_telemetry::ToJson;
        let mut faulted = healthy.clone();
        faulted.fault.panic_at = Some(3);
        assert_eq!(
            healthy.echo().to_json_string(),
            faulted.echo().to_json_string()
        );
    }
}
