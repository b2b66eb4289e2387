//! Standalone spectral microbench: per-iteration transform cost at
//! production grid sizes, written as a gateable JSON report.
//!
//! ```text
//! spectral_bench [--smoke] [--reps N] [--out results/spectral_bench.json]
//! ```
//!
//! The output is a bare spectral report (`{"grids":[...]}`), the same
//! shape as the `spectral` section of a [`RunReport`] baseline —
//! `check_regression` accepts it directly against `BENCH_baseline.json`.
//! `--smoke` drops to one repetition per timing for CI; the grid set is
//! unchanged so the gate's grid-set check still applies.

use xplace_bench::spectral::{measure_spectral, SPECTRAL_GRIDS};
use xplace_bench::{argv_parse, fmt, TextTable};
use xplace_telemetry::ToJson;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let default_reps = if smoke { 1 } else { 5 };
    let reps: usize = argv_parse("--reps", default_reps);
    let out = xplace_bench::argv_flag("--out")
        .unwrap_or_else(|| "results/spectral_bench.json".to_string());

    eprintln!(
        "spectral microbench: grids {SPECTRAL_GRIDS:?}, {reps} rep(s){}",
        if smoke { " [smoke]" } else { "" }
    );
    let metrics = measure_spectral(&SPECTRAL_GRIDS, reps);

    let mut table = TextTable::new(&["grid", "modeled us", "solve us"]);
    for g in &metrics.grids {
        table.row(vec![
            format!("{n}x{n}", n = g.n),
            fmt(g.modeled_ns as f64 / 1e3, 1),
            fmt(g.solve_wall_ns as f64 / 1e3, 1),
        ]);
    }
    print!("{}", table.render());

    let path = std::path::Path::new(&out);
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(path, metrics.to_json().render()).expect("write report");
    eprintln!("wrote {out}");
}
