//! Structured run telemetry for the xplace workspace.
//!
//! The paper's efficiency argument (Tables 2–4, §3.1) is made through
//! *measurement*: per-iteration modeled GPU time, launch counts, and the
//! ω/r schedule trace. This crate turns those measurements into
//! machine-readable artifacts:
//!
//! * [`TelemetryEvent`] — a typed event stream: per-iteration
//!   [`IterationRecord`]s with [`ProfileDelta`]s, ω-stage transitions,
//!   skip-window on/off flips, λ updates, rollback and run start/end
//!   markers,
//! * [`TelemetrySink`] — the trait the placer emits events through;
//!   [`NullSink`] makes the hot loop free when tracing is off,
//!   [`VecSink`] collects in memory (its iteration records are the
//!   "recorder" block of the paper's Figure 1), [`JsonLinesSink`] streams
//!   JSON-lines,
//! * [`RunReport`] — the single-JSON summary of a full GP → LG → DP run
//!   (metrics, config echo, thread count, wall + modeled time),
//! * [`compare_reports`] — the regression comparator behind
//!   `scripts/check_regression.sh`: deterministic quantities (HPWL,
//!   modeled time, launch counts, structure) hard-fail beyond fixed bounds
//!   ([`HPWL_PCT`], [`MODELED_TIME_PCT`], [`LAUNCHES_PCT`]), wall-clock
//!   drift beyond [`WALL_WARN_PCT`] only warns,
//! * [`BatchReport`] — the manifest-ordered array of per-job records
//!   ([`JobRecord`]: status + optional [`RunReport`]) a batch run writes;
//!   [`compare_batch_reports`] gates it job by job under the same bounds.
//!
//! Everything serializes through `xplace-testkit`'s
//! [`ToJson`](xplace_testkit::json::ToJson) /
//! [`FromJson`](xplace_testkit::json::FromJson) traits, keeping the
//! workspace hermetic (zero registry dependencies); a plain field-list
//! struct declares both with one [`json_struct!`] line.
//!
//! # Determinism contract
//!
//! A trace contains **no wall-clock quantities** — only modeled-device
//! and schedule state. Two runs with the same seed must therefore render
//! byte-identical JSON-lines, and because every kernel decomposition is
//! thread-count-invariant, so must runs with different `--threads`
//! values. (The thread count lives in the [`RunReport`], which also
//! carries wall-clock times and is *not* byte-compared.)

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod batch;
mod event;
mod regression;
mod report;
mod sink;

pub use batch::{compare_batch_reports, BatchReport, JobRecord, JobStatus};
pub use event::{stage_of, ConfigEcho, IterationRecord, ProfileDelta, Stage, TelemetryEvent};
pub use regression::{
    compare_reports, inject_regression, Comparison, GatedSection, HPWL_PCT, LAUNCHES_PCT,
    MODELED_TIME_PCT, WALL_WARN_PCT,
};
pub use report::{
    DpMetrics, ExploreGeneration, ExploreMember, ExploreMetrics, GpMetrics, LgMetrics,
    RouteMetrics, RunReport, ScalingMetrics, ScalingPoint, SpectralGrid, SpectralMetrics,
};
pub use sink::{parse_trace, CallbackSink, JsonLinesSink, NullSink, TelemetrySink, VecSink};
// Serialization traits re-exported so downstream binaries can render and
// load telemetry artifacts without a direct `xplace-testkit` dependency.
pub use xplace_testkit::json::{FromJson, Json, JsonError, ToJson};
pub use xplace_testkit::json_struct;
