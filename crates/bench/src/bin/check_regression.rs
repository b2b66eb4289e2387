//! Compares a fresh report against a committed baseline and exits
//! non-zero on regression — the executable half of
//! `scripts/check_regression.sh`.
//!
//! ```text
//! check_regression <baseline.json> <current.json>
//!                  [--hpwl-pct 2.0] [--time-pct 5.0] [--launches-pct 2.0]
//!                  [--wall-warn-pct 50.0] [--inject SECTION=PCT]
//! ```
//!
//! Single-run [`RunReport`]s and batch [`BatchReport`]s are accepted;
//! the kind is auto-detected (a batch report is an object with a `jobs`
//! array) and both sides must be the same kind. Deterministic quantities
//! (final HPWL, modeled GP time, kernel launch count, iteration count,
//! run structure — per job, for batches — and every gated section of a
//! run report: per-grid modeled transform ns for spectral, per-cell
//! modeled ns for scaling, winner HPWL, lineage and total modeled cost
//! for explore) hard-fail beyond tolerance; wall-clock drift beyond
//! `--wall-warn-pct` only warns.
//!
//! `--inject SECTION=PCT` is the self-test hook CI uses to prove the gate
//! actually fails on a regression: it inflates the current report by PCT
//! percent *after loading*, through [`inject_regression`]. SECTION `hpwl`
//! inflates the final HPWL (of every completed job, for a batch);
//! `spectral`, `scaling` and `explore` apply that section's
//! [`GatedSection::inject`](xplace_telemetry::GatedSection::inject) to a
//! run report. An unknown SECTION exits 2.

use xplace_bench::{argv_flag, argv_parse};
use xplace_telemetry::{
    compare_batch_reports, compare_reports, inject_regression, BatchReport, Comparison, FromJson,
    Json, RunReport, Tolerances,
};

enum Loaded {
    Run(RunReport),
    Batch(BatchReport),
}

impl Loaded {
    fn kind(&self) -> &'static str {
        match self {
            Loaded::Run(_) => "run report",
            Loaded::Batch(_) => "batch report",
        }
    }

    /// Applies `--inject name=…` to a run report, or `hpwl` to every
    /// completed job of a batch.
    fn inject(&mut self, name: &str, factor: f64) -> Result<(), String> {
        match self {
            Loaded::Run(report) => inject_regression(report, name, factor),
            Loaded::Batch(batch) if name == "hpwl" => batch
                .jobs
                .iter_mut()
                .filter_map(|job| job.report.as_mut())
                .try_for_each(|report| inject_regression(report, name, factor)),
            Loaded::Batch(_) => Err(format!("--inject {name} only applies to run reports")),
        }
    }
}

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

fn load(path: &str) -> Loaded {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    let json =
        Json::parse(&text).unwrap_or_else(|e| fail(format!("{path} is not valid JSON: {e}")));
    let result = if json.get("jobs").is_some() {
        BatchReport::from_json(&json).map(Loaded::Batch)
    } else {
        RunReport::from_json(&json).map(Loaded::Run)
    };
    result.unwrap_or_else(|e| fail(format!("{path} is not a valid report: {e}")))
}

/// Parses `--inject SECTION=PCT`, rejecting malformed values.
fn inject_arg() -> Option<(String, f64)> {
    let arg = argv_flag("--inject")?;
    let parsed = arg
        .split_once('=')
        .and_then(|(name, pct)| Some((name, pct.parse::<f64>().ok()?)));
    let Some((name, pct)) = parsed else {
        fail(format!(
            "invalid value '{arg}' for --inject: expected SECTION=PCT"
        ))
    };
    Some((name.to_string(), pct))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Positionals are the tokens that are neither flags nor flag values.
    let mut positionals = Vec::new();
    let mut skip = false;
    for a in &args {
        if skip {
            skip = false;
        } else if a.starts_with("--") {
            skip = true; // every flag of this tool takes a value
        } else {
            positionals.push(a);
        }
    }
    let (baseline_path, current_path) = match positionals.as_slice() {
        [b, c] => (b.as_str(), c.as_str()),
        _ => {
            eprintln!(
                "usage: check_regression <baseline.json> <current.json> \
                 [--hpwl-pct X] [--time-pct X] [--launches-pct X] [--wall-warn-pct X] \
                 [--inject hpwl|spectral|scaling|explore=PCT]"
            );
            std::process::exit(2)
        }
    };

    let tol = Tolerances {
        hpwl_pct: argv_parse("--hpwl-pct", 2.0),
        modeled_time_pct: argv_parse("--time-pct", 5.0),
        launches_pct: argv_parse("--launches-pct", 2.0),
        wall_warn_pct: argv_parse("--wall-warn-pct", 50.0),
    };
    let inject = inject_arg();

    let baseline = load(baseline_path);
    let mut current = load(current_path);

    if let Some((name, pct)) = &inject {
        current
            .inject(name, 1.0 + pct / 100.0)
            .unwrap_or_else(|e| fail(e));
        eprintln!("(self-test: injected {pct:+.1}% {name} regression into the current report)");
    }

    let cmp: Comparison = match (&baseline, &current) {
        (Loaded::Run(b), Loaded::Run(c)) => compare_reports(b, c, &tol),
        (Loaded::Batch(b), Loaded::Batch(c)) => compare_batch_reports(b, c, &tol),
        (b, c) => fail(format!(
            "report kind mismatch: {baseline_path} is a {} but {current_path} is a {}",
            b.kind(),
            c.kind()
        )),
    };
    print!("{}", cmp.render());
    if cmp.passed() {
        println!("regression gate: PASS");
    } else {
        println!("regression gate: FAIL ({} failure(s))", cmp.failures.len());
        std::process::exit(1)
    }
}
