//! The batch manifest: which designs to place, under which configurations.
//!
//! A manifest is a single JSON object with a `jobs` array. Each job names
//! its design source — either a Bookshelf `.aux` file or a synthesis spec —
//! plus optional per-job placer overrides:
//!
//! ```json
//! {"jobs": [
//!   {"name": "tiny",  "synth": {"cells": 300, "nets": 320, "seed": 3},
//!    "max_iters": 120, "seed": 7},
//!   {"name": "board", "aux": "bench/board.aux", "density": 0.9,
//!    "baseline": true, "grid": 64}
//! ]}
//! ```
//!
//! Job names must be unique: they key the [`JobRecord`]s of the resulting
//! [`BatchReport`](xplace_telemetry::BatchReport), and the regression
//! comparator pairs baseline and current jobs by name.
//!
//! [`JobRecord`]: xplace_telemetry::JobRecord

use crate::fault::FaultPlan;
use std::path::PathBuf;
use xplace_core::XplaceConfig;
use xplace_db::synthesis::SynthesisSpec;
use xplace_telemetry::{FromJson, Json, JsonError};

/// Where a job's design comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum DesignSource {
    /// A Bookshelf benchmark on disk (`"aux"` + optional `"density"`).
    Aux {
        /// Path to the `.aux` file.
        path: PathBuf,
        /// Target placement density (default 0.9).
        density: f64,
    },
    /// A synthesized benchmark (`"synth"` object).
    Synth {
        /// Number of movable cells (required).
        cells: usize,
        /// Number of nets (default `cells + cells / 20`).
        nets: usize,
        /// Synthesis seed (default 1).
        seed: u64,
        /// Number of fixed macros (default 0).
        macros: usize,
    },
}

impl DesignSource {
    /// The synthesis spec of a `Synth` source.
    ///
    /// The design name is derived from the parameters — not the job name —
    /// so jobs placing the same synthetic design under different configs
    /// share one [`DesignCache`](xplace_db::DesignCache) entry.
    pub fn synth_spec(&self) -> Option<SynthesisSpec> {
        match self {
            DesignSource::Aux { .. } => None,
            DesignSource::Synth {
                cells,
                nets,
                seed,
                macros,
            } => {
                let name = format!("synth_c{cells}_n{nets}_s{seed}_m{macros}");
                Some(
                    SynthesisSpec::new(name, *cells, *nets)
                        .with_seed(*seed)
                        .with_macro_count(*macros),
                )
            }
        }
    }
}

/// One job: a design source plus per-job placer overrides.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Unique job name (keys the batch report).
    pub name: String,
    /// Design source.
    pub source: DesignSource,
    /// GP iteration cap override (`"max_iters"`).
    pub max_iters: Option<usize>,
    /// Placer seed override (`"seed"`).
    pub seed: Option<u64>,
    /// Run the DREAMPlace-like baseline config (`"baseline"`, default
    /// `false`).
    pub baseline: bool,
    /// Density-grid override (`"grid"`, power of two).
    pub grid: Option<usize>,
    /// Modeled-ns deadline override for this job (`"deadline_ns"`).
    /// Falls back to [`BatchManifest::deadline_ns`] when absent.
    pub deadline_ns: Option<u64>,
    /// Checkpoint cadence override for this job (`"checkpoint_every"`,
    /// GP iterations between snapshots). Falls back to
    /// [`BatchManifest::checkpoint_every`] when absent.
    pub checkpoint_every: Option<usize>,
}

impl JobSpec {
    /// Builds this job's placer configuration.
    ///
    /// Starts from [`XplaceConfig::xplace`] (or
    /// [`XplaceConfig::dreamplace_like`] with `baseline`), applies the
    /// overrides, and sets the kernel thread width — metrics are
    /// bit-identical for any width, so sharing the batch-level count is
    /// safe.
    pub fn config(&self, threads: usize) -> XplaceConfig {
        let mut cfg = if self.baseline {
            XplaceConfig::dreamplace_like()
        } else {
            XplaceConfig::xplace()
        };
        if let Some(n) = self.max_iters {
            cfg.schedule.max_iterations = n;
        }
        if let Some(s) = self.seed {
            cfg.seed = s;
        }
        if let Some(g) = self.grid {
            cfg.grid = Some(g);
        }
        cfg.threads = threads.max(1);
        cfg
    }
}

/// The parsed batch manifest: a non-empty list of uniquely named jobs
/// plus batch-wide robustness policy (fault plan, retry budget,
/// deadlines, checkpoint cadence).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchManifest {
    /// Jobs in manifest order (the order of the batch report).
    pub jobs: Vec<JobSpec>,
    /// Deterministic fault schedule (`"faults"` array, keyed by job
    /// name). Empty by default.
    pub faults: FaultPlan,
    /// Retry budget per job (`"retries"`, default 0): how many times a
    /// job that panicked or hit a sink I/O error is re-run.
    pub retries: usize,
    /// Batch-default modeled-ns deadline per job (`"deadline_ns"`).
    /// `None` means no deadline.
    pub deadline_ns: Option<u64>,
    /// Batch-default checkpoint cadence in GP iterations
    /// (`"checkpoint_every"`, 0 = disabled).
    pub checkpoint_every: usize,
}

impl BatchManifest {
    /// A manifest over `jobs` with no faults, retries, deadlines, or
    /// checkpoints — the pre-robustness behavior.
    pub fn plain(jobs: Vec<JobSpec>) -> Self {
        BatchManifest {
            jobs,
            faults: FaultPlan::none(),
            retries: 0,
            deadline_ns: None,
            checkpoint_every: 0,
        }
    }
}

impl BatchManifest {
    /// Parses manifest JSON text.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] for malformed JSON, a missing or empty
    /// `jobs` array, a job without exactly one design source, or a
    /// duplicate job name.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        Self::from_json_str(text)
    }
}

fn parse_source(value: &Json, name: &str) -> Result<DesignSource, JsonError> {
    let aux = value.decode_nullable::<String>("aux")?;
    let synth = value.get("synth").filter(|v| !matches!(v, Json::Null));
    match (aux, synth) {
        (Some(path), None) => Ok(DesignSource::Aux {
            path: PathBuf::from(path),
            density: value.decode_nullable("density")?.unwrap_or(0.9),
        }),
        (None, Some(spec)) => {
            let cells: usize = spec
                .decode("cells")
                .map_err(|e| JsonError(format!("job `{name}` synth: {e}")))?;
            Ok(DesignSource::Synth {
                cells,
                nets: spec.decode_nullable("nets")?.unwrap_or(cells + cells / 20),
                seed: spec.decode_nullable("seed")?.unwrap_or(1),
                macros: spec.decode_nullable("macros")?.unwrap_or(0),
            })
        }
        (Some(_), Some(_)) => Err(JsonError(format!(
            "job `{name}` has both `aux` and `synth` design sources"
        ))),
        (None, None) => Err(JsonError(format!(
            "job `{name}` has no design source (need `aux` or `synth`)"
        ))),
    }
}

impl FromJson for JobSpec {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let name: String = value.decode("name")?;
        if name.is_empty() {
            return Err(JsonError("job name must be non-empty".into()));
        }
        Ok(JobSpec {
            source: parse_source(value, &name)?,
            max_iters: value.decode_nullable("max_iters")?,
            seed: value.decode_nullable("seed")?,
            baseline: value.decode_nullable("baseline")?.unwrap_or(false),
            grid: value.decode_nullable("grid")?,
            deadline_ns: value.decode_nullable("deadline_ns")?,
            checkpoint_every: value.decode_nullable("checkpoint_every")?,
            name,
        })
    }
}

impl FromJson for BatchManifest {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let jobs = Vec::<JobSpec>::from_json(value.field("jobs")?)?;
        if jobs.is_empty() {
            return Err(JsonError("manifest has no jobs".into()));
        }
        let mut seen = std::collections::HashSet::new();
        for job in &jobs {
            if !seen.insert(job.name.as_str()) {
                return Err(JsonError(format!("duplicate job name `{}`", job.name)));
            }
        }
        let faults = match value.get("faults") {
            None | Some(Json::Null) => FaultPlan::none(),
            Some(v) => FaultPlan::from_json(v).map_err(|e| JsonError(format!("faults: {e}")))?,
        };
        Ok(BatchManifest {
            jobs,
            faults,
            retries: value.decode_nullable("retries")?.unwrap_or(0),
            deadline_ns: value.decode_nullable("deadline_ns")?,
            checkpoint_every: value.decode_nullable("checkpoint_every")?.unwrap_or(0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{"jobs": [
        {"name": "tiny", "synth": {"cells": 300, "nets": 320, "seed": 3},
         "max_iters": 120, "seed": 7},
        {"name": "board", "aux": "bench/board.aux", "density": 0.8,
         "baseline": true, "grid": 64, "deadline_ns": 5000000,
         "checkpoint_every": 25}
    ],
    "faults": [{"target": "board", "kind": "gp_panic", "iteration": 5,
                "times": 1}],
    "retries": 2, "checkpoint_every": 50}"#;

    #[test]
    fn good_manifest_parses_in_order() {
        let m = BatchManifest::parse(GOOD).unwrap();
        assert_eq!(m.jobs.len(), 2);
        assert_eq!(m.jobs[0].name, "tiny");
        assert_eq!(
            m.jobs[0].source,
            DesignSource::Synth {
                cells: 300,
                nets: 320,
                seed: 3,
                macros: 0
            }
        );
        assert_eq!(m.jobs[0].max_iters, Some(120));
        assert_eq!(m.jobs[0].seed, Some(7));
        assert!(!m.jobs[0].baseline);
        assert_eq!(
            m.jobs[1].source,
            DesignSource::Aux {
                path: PathBuf::from("bench/board.aux"),
                density: 0.8
            }
        );
        assert!(m.jobs[1].baseline);
        assert_eq!(m.jobs[1].grid, Some(64));
        assert_eq!(m.jobs[1].deadline_ns, Some(5_000_000));
        assert_eq!(m.jobs[1].checkpoint_every, Some(25));
        assert_eq!(m.retries, 2);
        assert_eq!(m.deadline_ns, None);
        assert_eq!(m.checkpoint_every, 50);
        assert_eq!(m.faults.gp_panic_at("board", 0), Some(5));
        assert_eq!(m.faults.gp_panic_at("board", 1), None);
    }

    #[test]
    fn robustness_policy_defaults_to_off() {
        let m =
            BatchManifest::parse(r#"{"jobs": [{"name": "d", "synth": {"cells": 100}}]}"#).unwrap();
        assert!(m.faults.is_empty());
        assert_eq!(m.retries, 0);
        assert_eq!(m.deadline_ns, None);
        assert_eq!(m.checkpoint_every, 0);
        assert_eq!(m, BatchManifest::plain(m.jobs.clone()));
    }

    #[test]
    fn malformed_fault_plans_are_rejected_with_context() {
        let err = BatchManifest::parse(
            r#"{"jobs": [{"name": "a", "synth": {"cells": 10}}],
                "faults": [{"target": "a", "kind": "nope"}]}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("faults:"), "{err}");
        assert!(err.to_string().contains("unknown fault kind"), "{err}");
    }

    #[test]
    fn synth_defaults_fill_in() {
        let m =
            BatchManifest::parse(r#"{"jobs": [{"name": "d", "synth": {"cells": 100}}]}"#).unwrap();
        assert_eq!(
            m.jobs[0].source,
            DesignSource::Synth {
                cells: 100,
                nets: 105,
                seed: 1,
                macros: 0
            }
        );
        let spec = m.jobs[0].source.synth_spec().unwrap();
        assert_eq!(spec.name, "synth_c100_n105_s1_m0");
        assert_eq!(spec.num_cells, 100);
    }

    #[test]
    fn config_applies_overrides() {
        let m = BatchManifest::parse(GOOD).unwrap();
        let cfg = m.jobs[0].config(4);
        assert_eq!(cfg.schedule.max_iterations, 120);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.threads, 4);
        let cfg = m.jobs[1].config(0);
        assert_eq!(cfg.framework, xplace_core::Framework::DreamplaceLike);
        assert_eq!(cfg.grid, Some(64));
        assert_eq!(cfg.threads, 1);
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(BatchManifest::parse("{not json").is_err());
        let err = BatchManifest::parse("{}").unwrap_err();
        assert!(err.to_string().contains("jobs"), "{err}");
    }

    #[test]
    fn huge_mistyped_values_give_small_errors() {
        let long_string = format!(r#"{{"jobs":"{}"}}"#, "x".repeat(500_000));
        let big_object = format!(r#"{{"jobs":{{"k":[{}0]}}}}"#, "0,".repeat(400_000));
        let huge_count = r#"{"jobs":[{"name":"a","synth":{"cells":1e300}}]}"#.to_string();
        for (text, expected) in [
            (long_string, "expected array"),
            (big_object, "expected array"),
            (huge_count, "expected unsigned integer"),
        ] {
            let err = BatchManifest::parse(&text).unwrap_err().to_string();
            assert!(err.len() <= 256, "{} bytes", err.len());
            assert!(err.contains(expected), "{err}");
        }
    }

    #[test]
    fn empty_job_list_is_rejected() {
        let err = BatchManifest::parse(r#"{"jobs": []}"#).unwrap_err();
        assert!(err.to_string().contains("no jobs"), "{err}");
    }

    #[test]
    fn duplicate_job_names_are_rejected() {
        let err = BatchManifest::parse(
            r#"{"jobs": [{"name": "a", "synth": {"cells": 10}},
                         {"name": "a", "synth": {"cells": 20}}]}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("duplicate job name `a`"), "{err}");
    }

    #[test]
    fn design_source_must_be_exactly_one() {
        let err = BatchManifest::parse(r#"{"jobs": [{"name": "a"}]}"#).unwrap_err();
        assert!(err.to_string().contains("no design source"), "{err}");
        let err = BatchManifest::parse(
            r#"{"jobs": [{"name": "a", "aux": "x.aux", "synth": {"cells": 10}}]}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("both `aux` and `synth`"), "{err}");
        let err = BatchManifest::parse(r#"{"jobs": [{"name": "a", "synth": {}}]}"#).unwrap_err();
        assert!(err.to_string().contains("cells"), "{err}");
    }

    #[test]
    fn bad_override_types_are_rejected_with_context() {
        let err = BatchManifest::parse(
            r#"{"jobs": [{"name": "a", "synth": {"cells": 10}, "max_iters": "lots"}]}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("max_iters"), "{err}");
    }

    #[test]
    fn empty_name_is_rejected() {
        let err = BatchManifest::parse(r#"{"jobs": [{"name": "", "synth": {"cells": 10}}]}"#)
            .unwrap_err();
        assert!(err.to_string().contains("non-empty"), "{err}");
    }
}
