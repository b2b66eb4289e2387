//! Coarsening smoke: builds the full coarsening hierarchy of a design too
//! large to place in CI.
//!
//! ```text
//! scaling_bench --coarsen-smoke CELLS [--topology systolic]
//! ```
//!
//! Synthesizes a design at that size and builds the hierarchy without
//! placing, exiting non-zero unless it reduces below half the input — the
//! CI leg that proves 1M-cell coarsening completes. The gated scaling
//! points (per-cell modeled GP cost, flat vs multilevel) are measured by
//! `run_report`.

use xplace_bench::scaling::coarsen_smoke;
use xplace_bench::{argv_flag, argv_parse};
use xplace_db::synthesis::Topology;

fn main() {
    let Some(cells) = argv_flag("--coarsen-smoke") else {
        eprintln!("usage: scaling_bench --coarsen-smoke CELLS [--topology systolic]");
        std::process::exit(2)
    };
    let cells: usize = cells.parse().unwrap_or_else(|e| {
        eprintln!("error: invalid --coarsen-smoke cell count: {e}");
        std::process::exit(2)
    });
    let topology = argv_parse("--topology", "systolic".to_string());
    let topology = Topology::parse(&topology).unwrap_or_else(|| {
        eprintln!("error: unknown topology '{topology}' (random|systolic|butterfly)");
        std::process::exit(2)
    });
    eprintln!(
        "coarsening smoke: {cells} cells, {} topology...",
        topology.name()
    );
    let smoke = coarsen_smoke(cells, topology).unwrap_or_else(|e| {
        eprintln!("error: coarsening smoke failed: {e}");
        std::process::exit(1)
    });
    println!(
        "coarsened {} cells through {:?} in {:.2}s (synth {:.2}s, coarsen {:.2}s)",
        smoke.cells,
        smoke.level_cells,
        smoke.wall_seconds,
        smoke.synth_seconds,
        smoke.coarsen_seconds
    );
    let coarsest = smoke.level_cells.last().copied().unwrap_or(smoke.cells);
    if coarsest >= smoke.cells / 2 {
        eprintln!(
            "error: hierarchy barely coarsened ({} -> {coarsest})",
            smoke.cells
        );
        std::process::exit(1)
    }
}
