use xplace_device::DeviceConfig;

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

/// The schedule settings a caller chooses; every one is in the
/// [`XplaceConfig::echo`]. The γ/λ update rules, the intermediate-stage
/// period and the stop-test windows are fixed constants in `params.rs`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleConfig {
    /// Hard iteration cap.
    pub max_iterations: usize,
    /// Stop when the overflow ratio drops below this (once
    /// `MIN_ITERATIONS` have run).
    pub stop_overflow: f64,
    /// Enable the placement-stage-aware slowdown of Algorithm 1
    /// (parameters update once per `INTERMEDIATE_UPDATE_PERIOD` = 3
    /// iterations while 0.5 < ω < 0.95).
    pub stage_aware: bool,
}

impl Default for ScheduleConfig {
    fn default() -> Self {
        ScheduleConfig {
            max_iterations: 1500,
            stop_overflow: 0.10,
            stage_aware: true,
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
    /// finest level). Coarse levels stop at the relaxed overflow
    /// `max(COARSE_STOP_OVERFLOW, schedule.stop_overflow)`.
    pub coarse_max_iterations: usize,
}

impl Default for MultilevelConfig {
    fn default() -> Self {
        MultilevelConfig {
            enabled: false,
            min_cells: 5_000,
            max_levels: 8,
            coarse_max_iterations: 200,
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
    /// schedules (zero iterations, non-positive overflow target, or a grid
    /// override that is not a power of two or exceeds
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
        let mut c = XplaceConfig::xplace();
        c.schedule.stop_overflow = f64::NAN;
        let err = c.validate().unwrap_err().to_string();
        assert!(err.contains("stop_overflow"), "{err}");
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
    fn every_schedule_setting_reaches_the_config_echo() {
        // The gate's same-experiment check and checkpoint resume compare
        // echoes, so each settable schedule field must show up in it.
        use xplace_telemetry::ToJson;
        let base = XplaceConfig::xplace();
        let changes: [fn(&mut ScheduleConfig); 3] = [
            |s| s.max_iterations += 1,
            |s| s.stop_overflow *= 0.5,
            |s| s.stage_aware = !s.stage_aware,
        ];
        for change in changes {
            let mut other = base.clone();
            change(&mut other.schedule);
            assert_ne!(other.schedule, base.schedule);
            assert_ne!(
                other.echo().to_json_string(),
                base.echo().to_json_string(),
                "{:?}",
                other.schedule
            );
        }
    }
}
