//! Regenerates Table 3 of the paper: the ablation of the four
//! operator-level optimization techniques (OR, OC, OE, OS), measured as
//! mean modeled GPU time per global-placement iteration, expressed as a
//! percentage of the fully optimized Xplace configuration (= 100%), plus
//! the DREAMPlace-like baseline row.
//!
//! Each configuration runs `XPLACE_ABLATION_ITERS` (default 400) GP
//! iterations of the real optimization loop on every ISPD 2005-like
//! design (enough that the <100-iteration skipping window is a minority
//! share, as it is in a full run). Expected shape (paper Table 3): time ratios shrink
//! monotonically as techniques are added; operator reduction dominates on
//! smaller designs while combination/extraction/skipping matter more on
//! the larger ones; the DREAMPlace row is around 2-4x.
//!
//! Environment: `XPLACE_SCALE` (default 0.02), `XPLACE_ABLATION_ITERS`.

use xplace_bench::{default_workers, env_parse, fmt, TextTable};
use xplace_core::{GlobalPlacer, XplaceConfig};
use xplace_db::suites::ispd2005_like;
use xplace_db::synthesis::synthesize;

fn run_config(entry: &xplace_db::suites::SuiteEntry, mut cfg: XplaceConfig, iters: usize) -> f64 {
    cfg.schedule.max_iterations = iters;
    cfg.schedule.stop_overflow = 1e-12; // never stop early: equal iteration counts
    let mut design = synthesize(&entry.spec).expect("synthesis succeeds");
    let report = GlobalPlacer::new(cfg)
        .place(&mut design)
        .expect("placement succeeds");
    report.modeled_ms_per_iter()
}

fn main() {
    let scale = env_parse("XPLACE_SCALE", 0.02);
    let iters: usize = env_parse("XPLACE_ABLATION_ITERS", 400);
    let suite = ispd2005_like(scale);

    // (label, reduction, combination, extraction, skipping)
    let rows: Vec<(&str, XplaceConfig)> = vec![
        ("none", XplaceConfig::ablation(false, false, false, false)),
        ("OR", XplaceConfig::ablation(true, false, false, false)),
        ("OR+OC", XplaceConfig::ablation(true, true, false, false)),
        ("OR+OC+OE", XplaceConfig::ablation(true, true, true, false)),
        (
            "Xplace (all)",
            XplaceConfig::ablation(true, true, true, true),
        ),
        ("DREAMPlace", XplaceConfig::dreamplace_like()),
    ];

    // Collect per-design ms/iter for every configuration, in parallel
    // (each job is an independent placement run).
    let jobs: Vec<(usize, usize)> = (0..rows.len())
        .flat_map(|ri| (0..suite.len()).map(move |di| (ri, di)))
        .collect();
    eprintln!(
        "running {} ablation jobs on {} workers...",
        jobs.len(),
        default_workers()
    );
    let results = xplace_parallel::global().run(jobs.len(), default_workers(), |j| {
        let (ri, di) = jobs[j];
        run_config(&suite[di], rows[ri].1.clone(), iters)
    });
    let mut ms: Vec<Vec<f64>> = vec![vec![0.0; suite.len()]; rows.len()];
    for (&(ri, di), value) in jobs.iter().zip(results) {
        ms[ri][di] = value;
    }
    let xplace_row = 4; // "Xplace (all)"

    let mut header: Vec<&str> = vec!["method"];
    let names: Vec<String> = suite.iter().map(|e| e.name().to_string()).collect();
    header.extend(names.iter().map(String::as_str));
    header.push("Avg");
    let mut table = TextTable::new(&header);

    for ((label, _), row) in rows.iter().zip(&ms) {
        let mut cells = vec![label.to_string()];
        let mut ratio_sum = 0.0;
        for (value, reference) in row.iter().zip(&ms[xplace_row]) {
            let ratio = 100.0 * value / reference;
            ratio_sum += ratio;
            cells.push(format!("{}%", fmt(ratio, 0)));
        }
        cells.push(format!("{}%", fmt(ratio_sum / suite.len() as f64, 0)));
        table.row(cells);
    }
    // Absolute per-iteration times for the reference rows.
    for (label, ri) in [("Xplace ms/iter", xplace_row), ("DREAMPlace ms/iter", 5)] {
        let mut cells = vec![label.to_string()];
        let mut sum = 0.0;
        for &value in &ms[ri] {
            sum += value;
            cells.push(fmt(value, 3));
        }
        cells.push(fmt(sum / suite.len() as f64, 3));
        table.row(cells);
    }

    println!(
        "\nTable 3: ablation of the operator-level optimizations \
         (modeled GPU time per GP iteration, % of full Xplace; {iters} iterations per run)\n"
    );
    println!("{}", table.render());
}
