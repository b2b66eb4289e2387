//! Deterministic fault injection for the xplace workspace.
//!
//! A [`FaultPlan`] is a JSON-described schedule of faults to inject into
//! an otherwise healthy run: GP panics at a chosen iteration, sink I/O
//! errors after a byte budget, modeled-time stalls, connection drops
//! after a frame count, and poisoned manifest entries. Plans are plain
//! data — the crate has no clocks and no randomness, so the same plan
//! applied to the same workload produces the same failures in the same
//! places on every run, at any thread count.
//!
//! Faults are *attempt-aware*: a fault with `times: K` fires on the
//! first `K` attempts of its target and then stops, which is what lets
//! the scheduler's retry loop deterministically recover from an injected
//! crash. A fault with no `times` field fires on every attempt.
//!
//! The crate also provides [`FailingWriter`], an `io::Write` adapter
//! that injects a sticky I/O error after a byte budget — the primitive
//! behind the serve crate's torn-write property suite (`http_props`).
//! The sink-error fault does not use it: the scheduler's trace callback
//! spends the byte budget and panics with [`INJECTED_WRITE_ERROR`].

#![warn(missing_docs)]

use std::io::{self, Write};

use xplace_testkit::json::{FromJson, Json, JsonError};

/// The GP-engine slice of a fault plan: what the core placer loop needs
/// to know, resolved for one job attempt. Embedded in `XplaceConfig` so
/// `xplace-core` does not need the full plan machinery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GpFault {
    /// Panic at the start of this GP iteration (`injected failure at GP
    /// iteration N`). `None` disables the hook.
    pub panic_at: Option<usize>,
}

impl GpFault {
    /// A fault that never fires.
    pub const NONE: GpFault = GpFault { panic_at: None };
}

/// One kind of injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the GP loop at the start of the given iteration.
    GpPanic {
        /// Iteration index at which the panic fires.
        iteration: usize,
    },
    /// Telemetry sink I/O error once this many bytes have been written.
    SinkError {
        /// Byte budget before writes start failing.
        after_bytes: usize,
    },
    /// Modeled-time stall charged against the job's deadline budget.
    Stall {
        /// Stall duration in modeled nanoseconds.
        modeled_ns: u64,
    },
    /// Drop the client connection after this many streamed frames.
    DropConnection {
        /// Number of frames delivered before the drop.
        after_frames: usize,
    },
    /// The manifest entry itself is poisoned: the job fails fatally
    /// before any work starts (never retried).
    PoisonManifest,
}

impl FaultKind {
    fn name(&self) -> &'static str {
        match self {
            FaultKind::GpPanic { .. } => "gp_panic",
            FaultKind::SinkError { .. } => "sink_error",
            FaultKind::Stall { .. } => "stall",
            FaultKind::DropConnection { .. } => "drop_connection",
            FaultKind::PoisonManifest => "poison_manifest",
        }
    }
}

/// One scheduled fault: a kind, the job or client it applies to, and
/// how many attempts it fires on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// Job name (for GP/sink/stall/poison faults) or client identity
    /// (for connection drops) the fault applies to.
    pub target: String,
    /// What to inject.
    pub kind: FaultKind,
    /// Number of attempts the fault fires on: attempts `0..times`.
    /// `None` means every attempt.
    pub times: Option<usize>,
}

impl Fault {
    /// Whether this fault fires on the given (zero-based) attempt.
    pub fn fires_on(&self, attempt: usize) -> bool {
        match self.times {
            Some(times) => attempt < times,
            None => true,
        }
    }
}

impl FromJson for Fault {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let target = value.field("target")?.as_str()?.to_string();
        if target.is_empty() {
            return Err(JsonError("fault `target` must be non-empty".to_string()));
        }
        let kind_name = value.field("kind")?.as_str()?;
        let kind = match kind_name {
            "gp_panic" => FaultKind::GpPanic {
                iteration: value.field("iteration")?.as_usize()?,
            },
            "sink_error" => FaultKind::SinkError {
                after_bytes: value.field("after_bytes")?.as_usize()?,
            },
            "stall" => FaultKind::Stall {
                modeled_ns: value.field("modeled_ns")?.as_u64()?,
            },
            "drop_connection" => FaultKind::DropConnection {
                after_frames: value.field("after_frames")?.as_usize()?,
            },
            "poison_manifest" => FaultKind::PoisonManifest,
            other => {
                return Err(JsonError(format!("unknown fault kind `{other}`")));
            }
        };
        Ok(Fault {
            target,
            kind,
            times: value.get("times").map(Json::as_usize).transpose()?,
        })
    }
}

/// A deterministic schedule of faults, keyed by target name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scheduled faults, in declaration order.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (no faults ever fire).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Parse a plan from JSON text. Accepts either a bare array of
    /// faults or an object with a `"faults"` array.
    pub fn parse(text: &str) -> Result<FaultPlan, JsonError> {
        FaultPlan::from_json(&Json::parse(text)?)
    }

    fn firing<'a>(
        &'a self,
        target: &'a str,
        attempt: usize,
    ) -> impl Iterator<Item = &'a Fault> + 'a {
        self.faults
            .iter()
            .filter(move |f| f.target == target && f.fires_on(attempt))
    }

    /// Resolve the GP-engine fault for one attempt of a job. If several
    /// GP panics fire, the earliest iteration wins.
    pub fn gp_fault(&self, target: &str, attempt: usize) -> GpFault {
        let panic_at = self
            .firing(target, attempt)
            .filter_map(|f| match f.kind {
                FaultKind::GpPanic { iteration } => Some(iteration),
                _ => None,
            })
            .min();
        GpFault { panic_at }
    }

    /// Byte budget before the job's telemetry sink starts erroring on
    /// this attempt, if a sink fault fires (smallest budget wins).
    pub fn sink_error_after(&self, target: &str, attempt: usize) -> Option<usize> {
        self.firing(target, attempt)
            .filter_map(|f| match f.kind {
                FaultKind::SinkError { after_bytes } => Some(after_bytes),
                _ => None,
            })
            .min()
    }

    /// Total modeled-time stall charged to this attempt of the job.
    pub fn stall_ns(&self, target: &str, attempt: usize) -> u64 {
        self.firing(target, attempt)
            .map(|f| match f.kind {
                FaultKind::Stall { modeled_ns } => modeled_ns,
                _ => 0,
            })
            .sum()
    }

    /// Whether the manifest entry for this job is poisoned.
    pub fn poisoned(&self, target: &str) -> bool {
        self.faults
            .iter()
            .any(|f| f.target == target && matches!(f.kind, FaultKind::PoisonManifest))
    }

    /// Frame budget before the client's connection is dropped, if a
    /// drop fault fires for this client (smallest budget wins).
    pub fn drop_after_frames(&self, target: &str, attempt: usize) -> Option<usize> {
        self.firing(target, attempt)
            .filter_map(|f| match f.kind {
                FaultKind::DropConnection { after_frames } => Some(after_frames),
                _ => None,
            })
            .min()
    }
}

impl FromJson for FaultPlan {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let faults_value = match value {
            Json::Arr(_) => value,
            _ => match value.get("faults") {
                Some(v) => v,
                None => return Ok(FaultPlan::none()),
            },
        };
        let faults = Vec::<Fault>::from_json(faults_value)?;
        // An exact duplicate entry is never meaningful (distinct faults
        // on one target — even of the same kind — are fine; the
        // resolvers document how they combine) and always an authoring
        // mistake, so reject it loudly instead of silently collapsing.
        for (i, fault) in faults.iter().enumerate() {
            if faults[..i].contains(fault) {
                return Err(JsonError(format!(
                    "duplicate fault entry for target `{}` kind `{}`",
                    fault.target,
                    fault.kind.name()
                )));
            }
        }
        Ok(FaultPlan { faults })
    }
}

/// An `io::Write` adapter that injects a sticky error once a byte
/// budget is exhausted. Writes that straddle the budget are truncated
/// to the remaining budget (a short write), and every write after the
/// budget is spent fails with [`io::ErrorKind::BrokenPipe`] — the same
/// shape as a real torn pipe.
#[derive(Debug)]
pub struct FailingWriter<W> {
    inner: W,
    remaining: usize,
}

/// The message carried by every error a [`FailingWriter`] injects, and
/// by the scheduler's panic when a job's sink-error budget is spent.
pub const INJECTED_WRITE_ERROR: &str = "injected write fault";

impl<W: Write> FailingWriter<W> {
    /// Wrap `inner`, allowing `budget` bytes through before failing.
    pub fn new(inner: W, budget: usize) -> FailingWriter<W> {
        FailingWriter {
            inner,
            remaining: budget,
        }
    }

    /// Bytes still allowed through before the injected failure.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Unwrap the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FailingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        if self.remaining == 0 {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                INJECTED_WRITE_ERROR,
            ));
        }
        let n = buf.len().min(self.remaining);
        let written = self.inner.write(&buf[..n])?;
        self.remaining -= written;
        Ok(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PLAN: &str = r#"{
        "faults": [
            {"target": "crash", "kind": "gp_panic", "iteration": 5, "times": 2},
            {"target": "crash", "kind": "stall", "modeled_ns": 1000},
            {"target": "torn", "kind": "sink_error", "after_bytes": 64},
            {"target": "client-1", "kind": "drop_connection", "after_frames": 3},
            {"target": "bad", "kind": "poison_manifest"}
        ]
    }"#;

    #[test]
    fn plan_decodes_every_fault_kind_and_times() {
        let plan = FaultPlan::parse(PLAN).unwrap();
        let fault = |target: &str, kind, times| Fault {
            target: target.to_string(),
            kind,
            times,
        };
        assert_eq!(
            plan.faults,
            vec![
                fault("crash", FaultKind::GpPanic { iteration: 5 }, Some(2)),
                fault("crash", FaultKind::Stall { modeled_ns: 1000 }, None),
                fault("torn", FaultKind::SinkError { after_bytes: 64 }, None),
                fault(
                    "client-1",
                    FaultKind::DropConnection { after_frames: 3 },
                    None
                ),
                fault("bad", FaultKind::PoisonManifest, None),
            ]
        );
    }

    #[test]
    fn gp_panic_respects_the_attempt_budget() {
        let plan = FaultPlan::parse(PLAN).unwrap();
        assert_eq!(plan.gp_fault("crash", 0).panic_at, Some(5));
        assert_eq!(plan.gp_fault("crash", 1).panic_at, Some(5));
        assert_eq!(plan.gp_fault("crash", 2), GpFault::NONE);
        assert_eq!(plan.gp_fault("other", 0), GpFault::NONE);
    }

    #[test]
    fn unlimited_faults_fire_on_every_attempt() {
        let plan = FaultPlan::parse(PLAN).unwrap();
        for attempt in 0..10 {
            assert_eq!(plan.stall_ns("crash", attempt), 1000);
            assert_eq!(plan.sink_error_after("torn", attempt), Some(64));
            assert_eq!(plan.drop_after_frames("client-1", attempt), Some(3));
        }
        assert_eq!(plan.stall_ns("torn", 0), 0);
        assert!(plan.poisoned("bad"));
        assert!(!plan.poisoned("crash"));
    }

    #[test]
    fn earliest_gp_panic_wins_when_several_fire() {
        let plan = FaultPlan::parse(
            r#"[{"target": "j", "kind": "gp_panic", "iteration": 9},
                {"target": "j", "kind": "gp_panic", "iteration": 4}]"#,
        )
        .unwrap();
        assert_eq!(plan.gp_fault("j", 0).panic_at, Some(4));
    }

    #[test]
    fn malformed_plans_are_rejected_with_exact_messages() {
        // Table-driven: each rejected plan must produce *exactly* this
        // message — callers (CLI, manifests, CI logs) surface these
        // strings verbatim, so wording drift is a breaking change.
        let cases: &[(&str, &str)] = &[
            (
                r#"[{"target": "j", "kind": "nope"}]"#,
                "unknown fault kind `nope`",
            ),
            (
                r#"[{"target": "j", "kind": "gp_panic"}]"#,
                "missing field `iteration`",
            ),
            (
                r#"[{"target": "j", "kind": "sink_error"}]"#,
                "missing field `after_bytes`",
            ),
            (
                r#"[{"target": "j", "kind": "drop_connection"}]"#,
                "missing field `after_frames`",
            ),
            (r#"[{"kind": "poison_manifest"}]"#, "missing field `target`"),
            (
                r#"[{"target": "", "kind": "poison_manifest"}]"#,
                "fault `target` must be non-empty",
            ),
            (
                r#"[{"target": "j", "kind": "stall", "modeled_ns": -3}]"#,
                "expected u64, got -3",
            ),
            (
                r#"[{"target": "j", "kind": "gp_panic", "iteration": -1}]"#,
                "expected unsigned integer, got -1",
            ),
            (
                r#"[{"target": "j", "kind": "sink_error", "after_bytes": 1.5}]"#,
                "expected unsigned integer, got 1.5",
            ),
            (
                r#"[{"target": "j", "kind": "gp_panic", "iteration": 3, "times": -2}]"#,
                "expected unsigned integer, got -2",
            ),
            (
                r#"[{"target": "j", "kind": "gp_panic", "iteration": 3},
                    {"target": "j", "kind": "gp_panic", "iteration": 3}]"#,
                "duplicate fault entry for target `j` kind `gp_panic`",
            ),
            (
                r#"[{"target": "c", "kind": "drop_connection", "after_frames": 2},
                    {"target": "c", "kind": "drop_connection", "after_frames": 2}]"#,
                "duplicate fault entry for target `c` kind `drop_connection`",
            ),
        ];
        for (plan, want) in cases {
            let err = FaultPlan::parse(plan).expect_err(plan);
            assert_eq!(err.0, *want, "for plan {plan}");
        }
    }

    #[test]
    fn distinct_same_kind_faults_on_one_target_are_allowed() {
        // Not a duplicate: same target and kind but different payloads —
        // the resolvers combine them (earliest/smallest wins, stalls
        // sum), which `earliest_gp_panic_wins_when_several_fire` pins.
        let plan = FaultPlan::parse(
            r#"[{"target": "j", "kind": "gp_panic", "iteration": 9},
                {"target": "j", "kind": "gp_panic", "iteration": 4},
                {"target": "j", "kind": "stall", "modeled_ns": 7}]"#,
        )
        .unwrap();
        assert_eq!(plan.faults.len(), 3);
    }

    #[test]
    fn empty_object_parses_as_the_empty_plan() {
        let plan = FaultPlan::parse("{}").unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan.gp_fault("x", 0), GpFault::NONE);
    }

    #[test]
    fn failing_writer_truncates_at_the_budget_then_errors() {
        let mut w = FailingWriter::new(Vec::new(), 5);
        assert_eq!(w.write(b"abc").unwrap(), 3);
        assert_eq!(w.write(b"defg").unwrap(), 2);
        let err = w.write(b"h").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(err.to_string(), INJECTED_WRITE_ERROR);
        assert_eq!(w.into_inner(), b"abcde");
    }
}
