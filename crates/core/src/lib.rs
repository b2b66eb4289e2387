//! The Xplace global placement engine.
//!
//! This crate reproduces the paper's core contribution: an
//! electrostatics-based analytical global placer (the ePlace formulation)
//! whose per-iteration operator stream is aggressively optimized at the
//! operator level (§3.1) and whose parameters are scheduled by placement
//! stage (§3.2), with a pluggable neural density guidance hook (§3.3).
//!
//! The module layout mirrors Figure 1 of the paper:
//!
//! * [`GradientEngine`] — computes the preconditioned cell gradient from
//!   the wirelength and density operators, honouring the four
//!   operator-level optimization toggles ([`OperatorConfig`]),
//! * [`NesterovOptimizer`] — Nesterov accelerated gradient with
//!   Barzilai–Borwein step prediction (as in ePlace),
//! * [`Parameters`] / scheduling — γ and λ updates including the
//!   stage-aware slowdown of Algorithm 1,
//! * [`GlobalPlacer`] — the driver tying everything together,
//! * [`DensityGuidance`] — the extension trait a neural model (crate
//!   `xplace-nn`) implements to inject predicted fields (Eq. 14).
//!
//! Presets: [`XplaceConfig::xplace`] (all optimizations), ablation
//! configurations for Table 3, and [`XplaceConfig::dreamplace_like`] — the
//! baseline comparator that executes the same math through DREAMPlace's
//! unfused, autograd-driven, per-operator-synchronizing stream.
//!
//! # Example
//!
//! ```
//! use xplace_core::{GlobalPlacer, XplaceConfig};
//! use xplace_db::synthesis::{synthesize, SynthesisSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut design = synthesize(&SynthesisSpec::new("demo", 400, 420).with_seed(1))?;
//! let mut config = XplaceConfig::xplace();
//! config.schedule.max_iterations = 60; // keep the doc test fast
//! let report = GlobalPlacer::new(config).place(&mut design)?;
//! assert!(report.iterations > 0);
//! assert!(report.final_overflow < report.initial_overflow);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod checkpoint;
mod config;
mod engine;
mod error;
mod guidance;
mod optimizer;
mod params;
mod placer;

pub use checkpoint::{
    Checkpoint, CheckpointOptions, CheckpointStore, FileCheckpointStore, LoopState,
    MemoryCheckpointStore, Perturbation,
};
pub use config::{Framework, MultilevelConfig, OperatorConfig, ScheduleConfig, XplaceConfig};
pub use engine::{seed_from_coarse, EngineState, EvalResult, GradientEngine};
pub use error::PlaceError;
pub use guidance::{sigma_blend, DensityGuidance};
pub use optimizer::NesterovOptimizer;
pub use params::Parameters;
pub use placer::{GlobalPlacer, PlacementReport};
// The telemetry sink trait and record types live in `xplace-telemetry`;
// re-exported here for placer callers.
pub use xplace_telemetry::{IterationRecord, NullSink, TelemetryEvent, TelemetrySink};
