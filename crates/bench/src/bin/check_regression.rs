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
//! Single-run [`RunReport`]s, batch [`BatchReport`]s and bare
//! [`GatedSection`] files — spectral (`spectral_bench` output), scaling
//! (`scaling_bench` output) and explore (`explore_bench` output) — are
//! accepted; the kind is auto-detected (a batch report is an object with
//! a `jobs` array, a bare section one with its marker key: a top-level
//! `grids`, `points` or `winner_lineage` array). Both sides must be the
//! same kind, except that a bare section *current* may be gated against
//! the matching section of a run-report *baseline* — the CI smoke paths
//! against `BENCH_baseline.json`. Deterministic quantities (final HPWL,
//! modeled GP time, kernel launch count, iteration count, run structure
//! — per job, for batches; per-grid modeled transform ns for spectral
//! sections; per-cell modeled ns for scaling points; winner HPWL,
//! lineage and total modeled cost for explore sections) hard-fail
//! beyond tolerance; wall-clock drift beyond `--wall-warn-pct` only
//! warns.
//!
//! `--inject SECTION=PCT` is the self-test hook CI uses to prove the gate
//! actually fails on a regression: it inflates the current report by PCT
//! percent *after loading*. SECTION `hpwl` inflates the final HPWL (of
//! every completed job, for a batch); `spectral`, `scaling` and `explore`
//! apply that section's [`GatedSection::inject`] — per-grid modeled
//! transform time, per-point modeled GP time, winner HPWL — to a bare
//! section file or to the section of a run report. An unknown SECTION
//! exits 2.

use std::any::Any;
use xplace_bench::{argv_flag, argv_parse};
use xplace_telemetry::{
    compare_batch_reports, compare_reports, BatchReport, Comparison, ExploreMetrics, FromJson,
    GatedSection, Json, JsonError, RunReport, ScalingMetrics, SpectralMetrics, Tolerances,
};

enum Loaded {
    Run(RunReport),
    Batch(BatchReport),
    /// A bare gated-section file: its [`SECTIONS`] entry and its value.
    Bare(&'static Section, Box<dyn Any>),
}

impl Loaded {
    fn kind(&self) -> String {
        match self {
            Loaded::Run(_) => "run report".into(),
            Loaded::Batch(_) => "batch report".into(),
            Loaded::Bare(section, _) => format!("{} report", section.key),
        }
    }
}

/// The gate's entry points for one [`GatedSection`] impl.
struct Section {
    key: &'static str,
    marker: &'static str,
    parse: fn(&Json) -> Result<Box<dyn Any>, JsonError>,
    inject: fn(&mut Loaded, f64) -> Result<(), String>,
    compare: fn(&Loaded, &Loaded, &Tolerances) -> Result<Comparison, String>,
}

impl Section {
    const fn of<S: GatedSection + 'static>() -> Section {
        Section {
            key: S::KEY,
            marker: S::MARKER,
            parse: parse_bare::<S>,
            inject: inject_section::<S>,
            compare: compare_bare::<S>,
        }
    }
}

static SECTIONS: [Section; 3] = [
    Section::of::<SpectralMetrics>(),
    Section::of::<ScalingMetrics>(),
    Section::of::<ExploreMetrics>(),
];

fn parse_bare<S: GatedSection + 'static>(json: &Json) -> Result<Box<dyn Any>, JsonError> {
    Ok(Box::new(S::from_json(json)?))
}

/// Applies [`GatedSection::inject`] to a bare `S` file or to the `S`
/// section of a run report.
fn inject_section<S: GatedSection + 'static>(
    current: &mut Loaded,
    factor: f64,
) -> Result<(), String> {
    let wrong_kind = || format!("--inject {0} only applies to {0} and run reports", S::KEY);
    let section = match current {
        Loaded::Run(report) => S::of_mut(report).as_mut().ok_or_else(|| {
            format!(
                "current run report has no {} section to inject into",
                S::KEY
            )
        })?,
        Loaded::Bare(_, value) => value.downcast_mut::<S>().ok_or_else(wrong_kind)?,
        Loaded::Batch(_) => return Err(wrong_kind()),
    };
    section.inject(factor);
    Ok(())
}

/// Gates a bare `S` current against a bare `S` baseline or against the
/// `S` section of a run-report baseline.
fn compare_bare<S: GatedSection + 'static>(
    baseline: &Loaded,
    current: &Loaded,
    tol: &Tolerances,
) -> Result<Comparison, String> {
    fn of<S: GatedSection + 'static>(loaded: &Loaded) -> Option<&S> {
        match loaded {
            Loaded::Run(report) => S::of(report),
            Loaded::Bare(_, value) => value.downcast_ref(),
            Loaded::Batch(_) => None,
        }
    }
    let base =
        of::<S>(baseline).ok_or_else(|| format!("has no {} section to gate against", S::KEY))?;
    let cur = of::<S>(current).expect("the current file is a bare section of this kind");
    let mut cmp = Comparison::default();
    S::compare(base, cur, tol, &mut cmp);
    Ok(cmp)
}

/// The `hpwl` self-test hook: inflates the final HPWL of a run report, or
/// of every completed job of a batch.
fn inject_hpwl(current: &mut Loaded, factor: f64) -> Result<(), String> {
    let reports: Vec<&mut RunReport> = match current {
        Loaded::Run(report) => vec![report],
        Loaded::Batch(batch) => batch
            .jobs
            .iter_mut()
            .filter_map(|job| job.report.as_mut())
            .collect(),
        Loaded::Bare(..) => {
            return Err("--inject hpwl only applies to run and batch reports".into())
        }
    };
    for report in reports {
        report.gp.final_hpwl *= factor;
        if let Some(lg) = report.lg.as_mut() {
            lg.final_hpwl *= factor;
        }
        if let Some(dp) = report.dp.as_mut() {
            dp.final_hpwl *= factor;
        }
    }
    Ok(())
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
    } else if let Some(section) = SECTIONS.iter().find(|s| json.get(s.marker).is_some()) {
        (section.parse)(&json).map(|value| Loaded::Bare(section, value))
    } else {
        RunReport::from_json(&json).map(Loaded::Run)
    };
    result.unwrap_or_else(|e| fail(format!("{path} is not a valid report: {e}")))
}

/// Parses `--inject SECTION=PCT`, rejecting malformed values and unknown
/// sections.
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
    if name != "hpwl" && !SECTIONS.iter().any(|s| s.key == name) {
        fail(format!(
            "unknown --inject section '{name}' (hpwl|spectral|scaling|explore)"
        ));
    }
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
        let factor = 1.0 + pct / 100.0;
        let injected = match SECTIONS.iter().find(|s| s.key == name) {
            Some(section) => (section.inject)(&mut current, factor),
            None => inject_hpwl(&mut current, factor),
        };
        injected.unwrap_or_else(|e| fail(e));
        eprintln!("(self-test: injected {pct:+.1}% {name} regression into the current report)");
    }

    let cmp: Comparison = match (&baseline, &current) {
        (Loaded::Run(b), Loaded::Run(c)) => compare_reports(b, c, &tol),
        (Loaded::Batch(b), Loaded::Batch(c)) => compare_batch_reports(b, c, &tol),
        (b, Loaded::Bare(section, _))
            if matches!(b, Loaded::Run(_)) || b.kind() == current.kind() =>
        {
            (section.compare)(&baseline, &current, &tol)
                .unwrap_or_else(|e| fail(format!("baseline {baseline_path} {e}")))
        }
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
