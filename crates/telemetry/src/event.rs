//! The typed telemetry event stream and its JSON encoding.

use xplace_device::ProfileSnapshot;
use xplace_testkit::json::{FromJson, Json, JsonError, ToJson};
use xplace_testkit::json_struct;

/// Metrics of one global-placement iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationRecord {
    /// Iteration index.
    pub iteration: usize,
    /// Exact HPWL.
    pub hpwl: f64,
    /// WA smoothed wirelength.
    pub wa: f64,
    /// Overflow ratio (Eq. 7).
    pub overflow: f64,
    /// Density weight λ.
    pub lambda: f64,
    /// WA smoothing γ.
    pub gamma: f64,
    /// Precondition weighted ratio ω (§3.2).
    pub omega: f64,
    /// Gradient ratio `r = λ|∇D| / |∇WL|` (§3.1.4).
    pub r_ratio: f64,
    /// Whether the density operator was skipped this iteration.
    pub density_skipped: bool,
    /// Modeled GPU time of this iteration in nanoseconds.
    pub modeled_ns: u64,
    /// Kernel launches this iteration.
    pub launches: u64,
}

json_struct!(IterationRecord {
    iteration,
    hpwl,
    wa,
    overflow,
    lambda,
    gamma,
    omega,
    r_ratio,
    density_skipped,
    modeled_ns,
    launches,
});

/// The modeled-device cost of a region of the operator stream (one
/// iteration, typically): a [`ProfileSnapshot`] difference with the
/// wall-clock `cpu_ns` field deliberately dropped so traces stay
/// byte-deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProfileDelta {
    /// Kernel launches.
    pub launches: u64,
    /// Host synchronizations.
    pub syncs: u64,
    /// Launch overhead (ns).
    pub launch_overhead_ns: u64,
    /// Modeled kernel execution time (ns).
    pub exec_ns: u64,
    /// Pipelined time (ns): `sum(max(launch_i, exec_i))`.
    pub pipelined_ns: u64,
    /// Synchronization stall time (ns).
    pub sync_stall_ns: u64,
}

impl ProfileDelta {
    /// Modeled elapsed time: pipelined kernel time plus sync stalls.
    pub fn modeled_ns(&self) -> u64 {
        self.pipelined_ns + self.sync_stall_ns
    }
}

impl From<ProfileSnapshot> for ProfileDelta {
    fn from(p: ProfileSnapshot) -> Self {
        ProfileDelta {
            launches: p.launches,
            syncs: p.syncs,
            launch_overhead_ns: p.launch_overhead_ns,
            exec_ns: p.exec_ns,
            pipelined_ns: p.pipelined_ns,
            sync_stall_ns: p.sync_stall_ns,
        }
    }
}

/// The inverse of the conversion above, with the wall-clock `cpu_ns` at 0:
/// how a checkpoint reads back the profile it stored in this form.
impl From<ProfileDelta> for ProfileSnapshot {
    fn from(p: ProfileDelta) -> Self {
        ProfileSnapshot {
            launches: p.launches,
            syncs: p.syncs,
            launch_overhead_ns: p.launch_overhead_ns,
            exec_ns: p.exec_ns,
            pipelined_ns: p.pipelined_ns,
            sync_stall_ns: p.sync_stall_ns,
            cpu_ns: 0,
        }
    }
}

json_struct!(ProfileDelta {
    launches,
    syncs,
    launch_overhead_ns,
    exec_ns,
    pipelined_ns,
    sync_stall_ns,
});

/// The three placement stages classified by the precondition weighted
/// ratio ω (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Wirelength-dominated start (ω ≤ 0.5).
    Early,
    /// Spreading (0.5 < ω < 0.95): parameters update once per period.
    Intermediate,
    /// Converging tail (ω ≥ 0.95).
    Final,
}

impl ToJson for Stage {
    fn to_json(&self) -> Json {
        Json::str(match self {
            Stage::Early => "early",
            Stage::Intermediate => "intermediate",
            Stage::Final => "final",
        })
    }
}

impl FromJson for Stage {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value.as_str()? {
            "early" => Ok(Stage::Early),
            "intermediate" => Ok(Stage::Intermediate),
            "final" => Ok(Stage::Final),
            other => Err(JsonError(format!("unknown stage `{other}`"))),
        }
    }
}

/// Classifies ω into its placement stage, with the same band boundaries
/// the stage-aware scheduler uses.
pub fn stage_of(omega: f64) -> Stage {
    if omega <= 0.5 {
        Stage::Early
    } else if omega < 0.95 {
        Stage::Intermediate
    } else {
        Stage::Final
    }
}

/// The configuration echo embedded in traces and reports so an artifact
/// is self-describing.
///
/// Deliberately excludes the thread count: metrics are bit-identical for
/// every `--threads` value, and keeping the echo thread-free keeps the
/// whole trace byte-identical across thread counts too. The thread count
/// is reported in [`crate::RunReport`] instead.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigEcho {
    /// Operator stream: `"xplace"` or `"dreamplace_like"`.
    pub framework: String,
    /// §3.1.3 operator reduction.
    pub reduction: bool,
    /// §3.1.1 operator combination.
    pub combination: bool,
    /// §3.1.2 operator extraction.
    pub extraction: bool,
    /// §3.1.4 operator skipping.
    pub skipping: bool,
    /// Stage-aware parameter cadence (Algorithm 1).
    pub stage_aware: bool,
    /// Hard iteration cap.
    pub max_iterations: usize,
    /// Overflow stop target.
    pub stop_overflow: f64,
    /// Placement seed.
    pub seed: u64,
    /// Density-grid override (`None` = auto).
    pub grid: Option<usize>,
    /// Multilevel (coarsen/uncoarsen) global placement.
    pub multilevel: bool,
}

// `multilevel` is absent in traces recorded before multilevel placement
// existed; those ran flat.
json_struct!(ConfigEcho {
    framework,
    reduction,
    combination,
    extraction,
    skipping,
    stage_aware,
    max_iterations,
    stop_overflow,
    seed,
    grid,
    multilevel = false,
});

/// One event of a placement run's telemetry stream.
///
/// Encoded as a JSON object with an `"event"` tag; a trace file is one
/// event per line (JSON-lines).
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryEvent {
    /// Run header: design identity and configuration echo.
    RunStart {
        /// Design name.
        design: String,
        /// Total cells (movable + terminals).
        cells: usize,
        /// Nets.
        nets: usize,
        /// Movable cells.
        movable: usize,
        /// Configuration echo.
        config: ConfigEcho,
    },
    /// One global-placement iteration with its modeled-device delta.
    Iteration {
        /// Scheduler and quality metrics of the iteration.
        record: IterationRecord,
        /// Modeled device cost of the iteration.
        profile: ProfileDelta,
    },
    /// The ω-classified stage changed between iterations.
    StageTransition {
        /// Iteration at which the new stage was observed.
        iteration: usize,
        /// Stage before the transition.
        from: Stage,
        /// Stage after the transition.
        to: Stage,
        /// ω value that triggered the classification.
        omega: f64,
    },
    /// The §3.1.4 skip window (r below threshold, iteration below cap)
    /// opened or closed.
    SkipWindow {
        /// Iteration of the flip.
        iteration: usize,
        /// `true` when the window opened, `false` when it closed.
        active: bool,
    },
    /// The scheduler performed a λ update (the γ/λ cadence of §3.2).
    LambdaUpdate {
        /// Iteration of the update.
        iteration: usize,
        /// λ after the update.
        lambda: f64,
        /// γ after the update.
        gamma: f64,
    },
    /// The run ended worse than its best point and rolled back to the
    /// best-overflow snapshot (the divergence guard).
    Rollback {
        /// Last executed iteration.
        iteration: usize,
        /// Iteration of the restored snapshot.
        best_iteration: usize,
        /// Overflow of the restored snapshot.
        best_overflow: f64,
    },
    /// Run footer: final metrics under the device model (no wall clock —
    /// see the crate-level determinism contract).
    RunEnd {
        /// Iterations executed.
        iterations: usize,
        /// Whether the overflow target was reached.
        converged: bool,
        /// Final exact HPWL.
        final_hpwl: f64,
        /// Final overflow ratio.
        final_overflow: f64,
        /// Best overflow seen during the run.
        best_overflow: f64,
        /// Total modeled GPU time (ns).
        modeled_ns: u64,
        /// Total kernel launches.
        launches: u64,
    },
}

impl TelemetryEvent {
    /// The event's `"event"` tag.
    pub fn tag(&self) -> &'static str {
        match self {
            TelemetryEvent::RunStart { .. } => "run_start",
            TelemetryEvent::Iteration { .. } => "iteration",
            TelemetryEvent::StageTransition { .. } => "stage",
            TelemetryEvent::SkipWindow { .. } => "skip_window",
            TelemetryEvent::LambdaUpdate { .. } => "lambda_update",
            TelemetryEvent::Rollback { .. } => "rollback",
            TelemetryEvent::RunEnd { .. } => "run_end",
        }
    }
}

impl ToJson for TelemetryEvent {
    fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = vec![("event".into(), Json::str(self.tag()))];
        match self {
            TelemetryEvent::RunStart {
                design,
                cells,
                nets,
                movable,
                config,
            } => {
                pairs.push(("design".into(), design.to_json()));
                pairs.push(("cells".into(), cells.to_json()));
                pairs.push(("nets".into(), nets.to_json()));
                pairs.push(("movable".into(), movable.to_json()));
                pairs.push(("config".into(), config.to_json()));
            }
            TelemetryEvent::Iteration { record, profile } => {
                // Flatten the record so a trace line reads like a CSV row.
                if let Json::Obj(fields) = record.to_json() {
                    pairs.extend(fields);
                }
                pairs.push(("profile".into(), profile.to_json()));
            }
            TelemetryEvent::StageTransition {
                iteration,
                from,
                to,
                omega,
            } => {
                pairs.push(("iteration".into(), iteration.to_json()));
                pairs.push(("from".into(), from.to_json()));
                pairs.push(("to".into(), to.to_json()));
                pairs.push(("omega".into(), omega.to_json()));
            }
            TelemetryEvent::SkipWindow { iteration, active } => {
                pairs.push(("iteration".into(), iteration.to_json()));
                pairs.push(("active".into(), active.to_json()));
            }
            TelemetryEvent::LambdaUpdate {
                iteration,
                lambda,
                gamma,
            } => {
                pairs.push(("iteration".into(), iteration.to_json()));
                pairs.push(("lambda".into(), lambda.to_json()));
                pairs.push(("gamma".into(), gamma.to_json()));
            }
            TelemetryEvent::Rollback {
                iteration,
                best_iteration,
                best_overflow,
            } => {
                pairs.push(("iteration".into(), iteration.to_json()));
                pairs.push(("best_iteration".into(), best_iteration.to_json()));
                pairs.push(("best_overflow".into(), best_overflow.to_json()));
            }
            TelemetryEvent::RunEnd {
                iterations,
                converged,
                final_hpwl,
                final_overflow,
                best_overflow,
                modeled_ns,
                launches,
            } => {
                pairs.push(("iterations".into(), iterations.to_json()));
                pairs.push(("converged".into(), converged.to_json()));
                pairs.push(("final_hpwl".into(), final_hpwl.to_json()));
                pairs.push(("final_overflow".into(), final_overflow.to_json()));
                pairs.push(("best_overflow".into(), best_overflow.to_json()));
                pairs.push(("modeled_ns".into(), modeled_ns.to_json()));
                pairs.push(("launches".into(), launches.to_json()));
            }
        }
        Json::Obj(pairs)
    }
}

impl FromJson for TelemetryEvent {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let tag = value.field("event")?.as_str()?;
        match tag {
            "run_start" => Ok(TelemetryEvent::RunStart {
                design: value.decode("design")?,
                cells: value.decode("cells")?,
                nets: value.decode("nets")?,
                movable: value.decode("movable")?,
                config: value.decode("config")?,
            }),
            "iteration" => Ok(TelemetryEvent::Iteration {
                record: IterationRecord::from_json(value)?,
                profile: value.decode("profile")?,
            }),
            "stage" => Ok(TelemetryEvent::StageTransition {
                iteration: value.decode("iteration")?,
                from: value.decode("from")?,
                to: value.decode("to")?,
                omega: value.decode("omega")?,
            }),
            "skip_window" => Ok(TelemetryEvent::SkipWindow {
                iteration: value.decode("iteration")?,
                active: value.decode("active")?,
            }),
            "lambda_update" => Ok(TelemetryEvent::LambdaUpdate {
                iteration: value.decode("iteration")?,
                lambda: value.decode("lambda")?,
                gamma: value.decode("gamma")?,
            }),
            "rollback" => Ok(TelemetryEvent::Rollback {
                iteration: value.decode("iteration")?,
                best_iteration: value.decode("best_iteration")?,
                best_overflow: value.decode("best_overflow")?,
            }),
            "run_end" => Ok(TelemetryEvent::RunEnd {
                iterations: value.decode("iterations")?,
                converged: value.decode("converged")?,
                final_hpwl: value.decode("final_hpwl")?,
                final_overflow: value.decode("final_overflow")?,
                best_overflow: value.decode("best_overflow")?,
                modeled_ns: value.decode("modeled_ns")?,
                launches: value.decode("launches")?,
            }),
            other => Err(JsonError(format!("unknown event tag `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_record(i: usize) -> IterationRecord {
        IterationRecord {
            iteration: i,
            hpwl: 14026.78,
            wa: 13000.5,
            overflow: 0.22,
            lambda: 1.5e-4,
            gamma: 80.0,
            omega: 0.61,
            r_ratio: 2.5e-3,
            density_skipped: i.is_multiple_of(2),
            modeled_ns: 123_456,
            launches: 17,
        }
    }

    fn sample_echo() -> ConfigEcho {
        ConfigEcho {
            framework: "xplace".into(),
            reduction: true,
            combination: true,
            extraction: true,
            skipping: true,
            stage_aware: true,
            max_iterations: 400,
            stop_overflow: 0.1,
            seed: 0x5eed,
            grid: None,
            multilevel: false,
        }
    }

    #[test]
    fn stage_bands_match_the_scheduler() {
        assert_eq!(stage_of(0.0), Stage::Early);
        assert_eq!(stage_of(0.5), Stage::Early);
        assert_eq!(stage_of(0.51), Stage::Intermediate);
        assert_eq!(stage_of(0.949), Stage::Intermediate);
        assert_eq!(stage_of(0.95), Stage::Final);
        assert_eq!(stage_of(1.0), Stage::Final);
    }

    #[test]
    fn every_event_kind_round_trips() {
        let events = vec![
            TelemetryEvent::RunStart {
                design: "golden".into(),
                cells: 500,
                nets: 525,
                movable: 480,
                config: sample_echo(),
            },
            TelemetryEvent::Iteration {
                record: sample_record(3),
                profile: ProfileDelta {
                    launches: 17,
                    syncs: 1,
                    launch_overhead_ns: 42_500,
                    exec_ns: 70_000,
                    pipelined_ns: 90_000,
                    sync_stall_ns: 33_456,
                },
            },
            TelemetryEvent::StageTransition {
                iteration: 12,
                from: Stage::Early,
                to: Stage::Intermediate,
                omega: 0.53,
            },
            TelemetryEvent::SkipWindow {
                iteration: 0,
                active: true,
            },
            TelemetryEvent::LambdaUpdate {
                iteration: 9,
                lambda: 3.3e-4,
                gamma: 64.2,
            },
            TelemetryEvent::Rollback {
                iteration: 321,
                best_iteration: 280,
                best_overflow: 0.21,
            },
            TelemetryEvent::RunEnd {
                iterations: 400,
                converged: false,
                final_hpwl: 14026.78,
                final_overflow: 0.2219,
                best_overflow: 0.2219,
                modeled_ns: 1_234_567_890,
                launches: 6_800,
            },
        ];
        for event in events {
            let line = event.to_json_string();
            let back = TelemetryEvent::from_json_str(&line)
                .unwrap_or_else(|e| panic!("decoding `{line}`: {e}"));
            assert_eq!(back, event);
        }
    }

    #[test]
    fn iteration_event_is_flat() {
        let event = TelemetryEvent::Iteration {
            record: sample_record(3),
            profile: ProfileDelta::default(),
        };
        let v = event.to_json();
        // The record's fields sit at the top level next to the tag.
        assert_eq!(v.field("event").unwrap().as_str().unwrap(), "iteration");
        assert_eq!(v.field("iteration").unwrap().as_f64().unwrap(), 3.0);
        assert!(v.field("hpwl").is_ok());
        assert!(v.field("profile").is_ok());
    }

    #[test]
    fn traces_without_multilevel_round_trip_as_flat() {
        let event = TelemetryEvent::RunStart {
            design: "old".into(),
            cells: 10,
            nets: 9,
            movable: 8,
            config: sample_echo(),
        };
        let text = event.to_json_string();
        let stripped = text.replace(",\"multilevel\":false", "");
        assert_ne!(stripped, text, "fixture must contain the multilevel key");
        assert_eq!(TelemetryEvent::from_json_str(&stripped).unwrap(), event);
        let null = text.replace("\"multilevel\":false", "\"multilevel\":null");
        assert!(TelemetryEvent::from_json_str(&null).is_err());
    }

    #[test]
    fn unknown_tags_and_stages_are_rejected() {
        assert!(TelemetryEvent::from_json_str(r#"{"event":"warp"}"#).is_err());
        assert!(Stage::from_json(&Json::str("mid")).is_err());
    }

    #[test]
    fn profile_delta_drops_wall_clock() {
        let snap = ProfileSnapshot {
            launches: 5,
            syncs: 2,
            launch_overhead_ns: 10,
            exec_ns: 20,
            pipelined_ns: 25,
            sync_stall_ns: 5,
            cpu_ns: 999_999, // wall-clock: must not reach the trace
        };
        let delta = ProfileDelta::from(snap);
        assert_eq!(delta.modeled_ns(), 30);
        assert!(!delta.to_json_string().contains("cpu_ns"));
        let back = ProfileSnapshot::from(delta);
        assert_eq!(back, ProfileSnapshot { cpu_ns: 0, ..snap });
    }
}
