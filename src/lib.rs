//! # xplace
//!
//! A pure-Rust reproduction of **Xplace** (Liu, Fu, Wong, Young — *"Xplace:
//! An Extremely Fast and Extensible Global Placement Framework"*, DAC 2022):
//! an ePlace-style analytical global placer whose per-iteration operator
//! stream is optimized at the operator level, together with every substrate
//! the paper depends on — built from scratch.
//!
//! This umbrella crate re-exports the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`parallel`] | `xplace-parallel` | persistent deterministic worker pool behind every CPU kernel body |
//! | [`db`] | `xplace-db` | netlist/design model, Bookshelf reader/writer, ISPD-like synthetic suites |
//! | [`fft`] | `xplace-fft` | FFT/DCT family and the electrostatic (Poisson) solver |
//! | [`device`] | `xplace-device` | the GPU execution model (launch accounting, profiler) |
//! | [`ops`] | `xplace-ops` | wirelength/density/preconditioner operators, fused and split |
//! | [`core`] | `xplace-core` | the placer: gradient engine, Nesterov, scheduler |
//! | [`telemetry`] | `xplace-telemetry` | typed event traces, run reports, and the regression comparator |
//! | [`sched`] | `xplace-sched` | batch scheduler: concurrent multi-design runs with failure isolation |
//! | [`serve`] | `xplace-serve` | placement-as-a-service: std-only HTTP daemon with fair admission and streamed telemetry |
//! | [`nn`] | `xplace-nn` | the Fourier neural operator and training loop (Xplace-NN) |
//! | [`legal`] | `xplace-legal` | Tetris/Abacus legalization and detailed placement |
//! | [`route`] | `xplace-route` | RUDY congestion estimation and the top5-overflow metric |
//!
//! ## Quickstart
//!
//! ```
//! use xplace::core::{GlobalPlacer, XplaceConfig};
//! use xplace::db::synthesis::{synthesize, SynthesisSpec};
//! use xplace::sched::finish_flow;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Get a design (synthetic here; the Bookshelf reader is in xplace::db).
//! let mut design = synthesize(&SynthesisSpec::new("demo", 400, 420).with_seed(1))?;
//!
//! // 2. Global placement.
//! let mut config = XplaceConfig::xplace();
//! config.schedule.max_iterations = 80; // keep the doc test fast
//! let gp = GlobalPlacer::new(config.clone()).place(&mut design)?;
//! assert!(gp.final_overflow < gp.initial_overflow);
//!
//! // 3. Legalize, detailed-place, check legality, estimate congestion.
//! let report = finish_flow(&mut design, &config, &gp)?;
//! let dp = report.dp.expect("finish_flow runs detailed placement");
//! assert!(dp.final_hpwl <= dp.initial_hpwl);
//! # Ok(())
//! # }
//! ```
//!
//! See `README.md` for the architecture overview, `DESIGN.md` for the
//! paper-to-module map, and `EXPERIMENTS.md` for the reproduced tables.

#![warn(missing_docs)]

pub mod cli;

pub use xplace_core as core;
pub use xplace_db as db;
pub use xplace_device as device;
pub use xplace_fft as fft;
pub use xplace_legal as legal;
pub use xplace_nn as nn;
pub use xplace_ops as ops;
pub use xplace_parallel as parallel;
pub use xplace_route as route;
pub use xplace_sched as sched;
pub use xplace_serve as serve;
pub use xplace_telemetry as telemetry;
