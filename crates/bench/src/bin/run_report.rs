//! Produces the canonical [`RunReport`] the regression gate compares
//! against `BENCH_baseline.json` — the only producer of its gated
//! sections.
//!
//! The flow is the golden flow of `tests/golden_flow.rs` — 500 cells,
//! 525 nets, seed 20220714, 400 GP iterations — extended through
//! legalization, detailed placement and routability estimation, so every
//! gated quantity (HPWL, modeled GP time, launch count, iteration count)
//! is deterministic across machines.
//!
//! ```text
//! run_report [--out results/run_report.json] [--max-iters 400] [--threads N]
//! ```
//!
//! The design is fixed ([`CELLS`], [`NETS`], [`SEED`]): the baseline
//! records it, so any other netlist is a mismatch the gate refuses.
//! `--max-iters` changes the GP budget, for measuring the flow at other
//! budgets (a report from another budget fails the gate's config echo).
//!
//! The report also embeds one section per [`GatedSection`] impl:
//! * `spectral` — per-grid modeled transform times (and the fastest of
//!   [`SPECTRAL_REPS`] wall-clock solves, which only warns);
//! * `scaling` — the scaling bench's smoke point set, per-cell modeled
//!   GP costs flat vs multilevel;
//! * `explore` — the committed case of the exploration suite: the
//!   population winner's HPWL, lineage and total modeled cost. The whole
//!   three-design suite runs, and the run exits 1 unless
//!   [`suite_verdict`] passes.
//!
//! Regenerating the committed baseline after an intentional change:
//! `cargo run --release -p xplace-bench --bin run_report -- --out BENCH_baseline.json`
//!
//! [`GatedSection`]: xplace_telemetry::GatedSection
//! [`RunReport`]: xplace_telemetry::RunReport

use std::path::PathBuf;
use xplace_bench::explore::{
    measure_explore, suite_cases, suite_verdict, ExploreComparison, EXPLORE_MEMBERS,
};
use xplace_bench::scaling::{measure_scaling, smoke_cases};
use xplace_bench::spectral::{measure_spectral, SPECTRAL_GRIDS};
use xplace_bench::{
    argv_flag, argv_only, argv_parse, argv_threads, default_workers, fmt, run_flow, TextTable,
};
use xplace_core::XplaceConfig;
use xplace_db::suites::SuiteEntry;
use xplace_db::synthesis::SynthesisSpec;
use xplace_telemetry::ToJson;

/// Cell count of the canonical design.
const CELLS: usize = 500;
/// Net count of the canonical design.
const NETS: usize = 525;
/// Synthesis seed of the canonical design.
const SEED: u64 = 20_220_714;
/// Wall-clock repetitions per spectral grid (the fastest is recorded).
const SPECTRAL_REPS: usize = 3;

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1)
}

/// The per-design exploration comparison, one row per suite case.
fn explore_table(comparisons: &[ExploreComparison]) -> String {
    let mut table = TextTable::new(&[
        "design",
        "single HPWL",
        "explore HPWL",
        "gain %",
        "single ms",
        "explore ms",
        "winner",
    ]);
    for c in comparisons {
        let gain = 100.0 * (c.single_hpwl - c.metrics.winner_hpwl) / c.single_hpwl;
        table.row(vec![
            c.name.clone(),
            fmt(c.single_hpwl, 1),
            fmt(c.metrics.winner_hpwl, 1),
            fmt(gain, 2),
            fmt(c.single_modeled_ns as f64 / 1e6, 2),
            fmt(c.metrics.total_modeled_ns as f64 / 1e6, 2),
            format!("{} via {:?}", c.metrics.winner, c.metrics.winner_lineage),
        ]);
    }
    table.render()
}

fn main() {
    argv_only(&["--out", "--max-iters", "--threads"]);
    let out =
        PathBuf::from(argv_flag("--out").unwrap_or_else(|| "results/run_report.json".to_string()));
    let max_iters: usize = argv_parse("--max-iters", 400);
    let threads = argv_threads(1);

    let entry = SuiteEntry {
        published_cells: CELLS,
        published_nets: NETS,
        fence_removed: false,
        spec: SynthesisSpec::new("golden", CELLS, NETS).with_seed(SEED),
    };
    let mut config = XplaceConfig::xplace().with_threads(threads);
    config.schedule.max_iterations = max_iters;

    eprintln!(
        "running the canonical flow ({CELLS} cells, {NETS} nets, seed {SEED}, \
         {max_iters} iters)..."
    );
    let flow = run_flow(&entry, config, None).unwrap_or_else(|e| fail(format!("flow failed: {e}")));
    let mut report = flow.report;

    eprintln!(
        "measuring the spectral microbench (grids {SPECTRAL_GRIDS:?}, {SPECTRAL_REPS} reps)..."
    );
    report.spectral = Some(measure_spectral(&SPECTRAL_GRIDS, SPECTRAL_REPS));

    let cases = smoke_cases();
    eprintln!("measuring the scaling bench ({} case(s))...", cases.len());
    report.scaling = Some(
        measure_scaling(&cases).unwrap_or_else(|e| fail(format!("scaling bench failed: {e}"))),
    );

    let cases = suite_cases();
    eprintln!(
        "measuring the exploration suite ({} designs, {EXPLORE_MEMBERS} members)...",
        cases.len()
    );
    let comparisons: Vec<ExploreComparison> = cases
        .iter()
        .map(|case| {
            measure_explore(case, default_workers())
                .unwrap_or_else(|e| fail(format!("exploration bench failed: {e}")))
        })
        .collect();
    eprint!("{}", explore_table(&comparisons));
    suite_verdict(&comparisons).unwrap_or_else(|e| fail(e));
    report.explore = comparisons.into_iter().next().map(|c| c.metrics);

    eprintln!(
        "GP {} iters, HPWL {:.1}, modeled {:.3}s, {} launches; final HPWL {:.1}",
        report.gp.iterations,
        report.gp.final_hpwl,
        report.gp.modeled_seconds(),
        report.gp.launches,
        report.final_hpwl()
    );
    if let Some(dir) = out.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&out, report.to_json_string())
        .unwrap_or_else(|e| fail(format!("cannot write {}: {e}", out.display())));
    println!("report written to {}", out.display());
}
