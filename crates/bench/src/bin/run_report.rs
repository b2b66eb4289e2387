//! Produces the canonical [`RunReport`] the regression gate compares
//! against `BENCH_baseline.json`.
//!
//! The flow is the golden flow of `tests/golden_flow.rs` — 500 cells,
//! 525 nets, seed 20220714, 400 GP iterations — extended through
//! legalization, detailed placement and routability estimation, so every
//! gated quantity (HPWL, modeled GP time, launch count, iteration count)
//! is deterministic across machines.
//!
//! ```text
//! run_report [--out results/run_report.json] [--max-iters 400]
//!            [--cells 500] [--nets 525] [--seed 20220714] [--threads N]
//!            [--no-spectral] [--spectral-reps 3] [--no-scaling]
//!            [--no-explore]
//! ```
//!
//! The report also embeds the spectral microbench section (unless
//! `--no-spectral`), so the committed baseline carries per-grid modeled
//! transform times for the spectral regression gate; the scaling
//! bench's smoke point set (unless `--no-scaling`), so the baseline
//! carries per-cell modeled GP costs for the scaling regression gate;
//! and the exploration bench's committed case (unless `--no-explore`),
//! so the baseline carries the population winner's HPWL, lineage and
//! total modeled cost for the explore regression gate.
//!
//! Regenerating the committed baseline after an intentional change:
//! `cargo run --release -p xplace-bench --bin run_report -- --out BENCH_baseline.json`

use std::path::PathBuf;
use xplace_bench::{argv_flag, argv_parse, run_flow};
use xplace_core::XplaceConfig;
use xplace_db::suites::SuiteEntry;
use xplace_db::synthesis::SynthesisSpec;
use xplace_telemetry::ToJson;

fn main() {
    let out =
        PathBuf::from(argv_flag("--out").unwrap_or_else(|| "results/run_report.json".to_string()));
    let cells: usize = argv_parse("--cells", 500);
    let nets: usize = argv_parse("--nets", 525);
    let seed: u64 = argv_parse("--seed", 20_220_714);
    let max_iters: usize = argv_parse("--max-iters", 400);
    let threads: usize = argv_parse("--threads", 1);

    let entry = SuiteEntry {
        published_cells: cells,
        published_nets: nets,
        fence_removed: false,
        spec: SynthesisSpec::new("golden", cells, nets).with_seed(seed),
    };
    let mut config = XplaceConfig::xplace().with_threads(threads.max(1));
    config.schedule.max_iterations = max_iters;

    eprintln!(
        "running the canonical flow ({cells} cells, {nets} nets, seed {seed}, \
         {max_iters} iters)..."
    );
    let flow = run_flow(&entry, config, None).unwrap_or_else(|e| {
        eprintln!("error: flow failed: {e}");
        std::process::exit(1)
    });
    let mut report = flow.report;
    if !std::env::args().any(|a| a == "--no-spectral") {
        let reps: usize = argv_parse("--spectral-reps", 3);
        eprintln!(
            "measuring the spectral microbench (grids {:?}, {reps} reps)...",
            xplace_bench::spectral::SPECTRAL_GRIDS
        );
        report.spectral = Some(xplace_bench::spectral::measure_spectral(
            &xplace_bench::spectral::SPECTRAL_GRIDS,
            reps,
        ));
    }
    if !std::env::args().any(|a| a == "--no-scaling") {
        let cases = xplace_bench::scaling::smoke_cases();
        eprintln!("measuring the scaling bench ({} case(s))...", cases.len());
        report.scaling = Some(
            xplace_bench::scaling::measure_scaling(&cases).unwrap_or_else(|e| {
                eprintln!("error: scaling bench failed: {e}");
                std::process::exit(1)
            }),
        );
    }
    if !std::env::args().any(|a| a == "--no-explore") {
        let case = xplace_bench::explore::committed_case();
        eprintln!(
            "measuring the exploration bench ({}, {} members)...",
            case.spec.name,
            xplace_bench::explore::EXPLORE_MEMBERS
        );
        let comparison =
            xplace_bench::explore::measure_explore(&case, xplace_bench::default_workers())
                .unwrap_or_else(|e| {
                    eprintln!("error: exploration bench failed: {e}");
                    std::process::exit(1)
                });
        report.explore = Some(comparison.metrics);
    }
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
    std::fs::write(&out, report.to_json_string()).unwrap_or_else(|e| {
        eprintln!("error: cannot write {}: {e}", out.display());
        std::process::exit(1)
    });
    println!("report written to {}", out.display());
}
