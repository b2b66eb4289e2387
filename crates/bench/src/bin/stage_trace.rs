//! Reproduces the in-text observations of §3.1.4 and §3.2: the gradient
//! ratio `r = lambda|gradD| / |gradWL|` is ultra-small in the early
//! placement stage (justifying operator skipping), and the precondition
//! weighted ratio `omega` traverses the three placement stages
//! (wirelength-dominated < 0.05, spreading, final > 0.95).
//!
//! Prints a per-iteration CSV to stdout plus a stage summary.
//!
//! Environment: `XPLACE_CELLS` (default 2000), `XPLACE_MAX_ITERS`
//! (default 1200).

use xplace_bench::env_parse;
use xplace_core::{GlobalPlacer, Recorder, XplaceConfig};
use xplace_db::synthesis::{synthesize, SynthesisSpec};

fn main() {
    let cells: usize = env_parse("XPLACE_CELLS", 2000);
    let max_iters = env_parse("XPLACE_MAX_ITERS", 1200);

    let spec = SynthesisSpec::new("stage_trace", cells, cells + cells / 20).with_seed(42);
    let mut design = synthesize(&spec).expect("synthesis succeeds");
    let mut cfg = XplaceConfig::xplace();
    cfg.schedule.max_iterations = max_iters;
    let mut recorder = Recorder::new();
    let report = GlobalPlacer::new(cfg)
        .place_traced(&mut design, &mut recorder)
        .expect("placement succeeds");

    println!("{}", recorder.to_csv());

    let records = recorder.records();
    // The skip-eligible window: how long r stays below the 0.01 threshold
    // of SS3.1.4 (the paper caps the technique at iteration 100).
    let r_window = records.iter().take_while(|r| r.r_ratio < 0.01).count();
    let r_at_10 = records.get(10).map(|r| r.r_ratio).unwrap_or(0.0);
    let skipped_early = records
        .iter()
        .take(100.min(records.len()))
        .filter(|r| r.density_skipped)
        .count();
    let omega_start = records.first().map(|r| r.omega).unwrap_or(0.0);
    let omega_end = records.last().map(|r| r.omega).unwrap_or(0.0);
    let crossed_mid = records.iter().any(|r| r.omega > 0.5 && r.omega < 0.95);

    eprintln!("--- stage summary ---");
    eprintln!("iterations:             {}", report.iterations);
    eprintln!("converged:              {}", report.converged);
    eprintln!("r at iteration 10:      {r_at_10:.3e}  (paper: ultra-small early)");
    eprintln!("iterations with r<0.01: {r_window} (skip-eligible window; paper caps at 100)");
    eprintln!("density ops skipped:    {skipped_early} of the first 100 iterations");
    eprintln!("omega start -> end:     {omega_start:.4} -> {omega_end:.4}");
    eprintln!("entered mid stage:      {crossed_mid} (0.5 < omega < 0.95)");
    eprintln!(
        "final overflow / HPWL:  {:.4} / {:.1}",
        report.final_overflow, report.final_hpwl
    );
}
