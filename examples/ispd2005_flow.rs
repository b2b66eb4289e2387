//! The paper's Table-2 flow on one ISPD 2005-like design: run the
//! DREAMPlace-like baseline and Xplace on the same instance, push both
//! results through the same legalizer + detailed placer, compare, and
//! export the Xplace result as a Bookshelf benchmark.
//!
//! Run with: `cargo run --example ispd2005_flow --release`

use xplace::core::{GlobalPlacer, XplaceConfig};
use xplace::db::suites::ispd2005_like;
use xplace::db::synthesis::synthesize;
use xplace::db::{bookshelf, DesignStats};
use xplace::sched::finish_flow;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // adaptec1 at 1% scale (set scale to 1.0 for the full contest size).
    let entry = &ispd2005_like(0.01)[0];
    println!(
        "design: {} (published size: {}k cells / {}k nets)",
        entry.name(),
        entry.published_cells / 1000,
        entry.published_nets / 1000
    );

    let mut results = Vec::new();
    for (label, config) in [
        ("DREAMPlace-like", XplaceConfig::dreamplace_like()),
        ("Xplace", XplaceConfig::xplace()),
    ] {
        let mut design = synthesize(&entry.spec)?;
        if results.is_empty() {
            println!("instance: {}", DesignStats::of(&design));
        }
        let gp = GlobalPlacer::new(config.clone()).place(&mut design)?;
        let run = finish_flow(&mut design, &config, &gp)?;
        if let (Some(lg), Some(dp)) = (&run.lg, &run.dp) {
            println!(
                "{label:>16}: HPWL {:.0}, GP {:.3} s modeled ({} iters, {:.3} ms/iter), \
                 LG+DP {:.2} s wall",
                dp.final_hpwl,
                gp.modeled_gp_seconds(),
                gp.iterations,
                gp.modeled_ms_per_iter(),
                lg.wall_seconds + dp.wall_seconds,
            );
        }
        results.push((label, design, run.final_hpwl(), gp.modeled_gp_seconds()));
    }

    let (_, xp_design, xp_hpwl, xp_gp) = &results[1];
    let (_, _, base_hpwl, base_gp) = &results[0];
    println!(
        "\nXplace vs baseline: {:.2}x faster GP, HPWL ratio {:.4}",
        base_gp / xp_gp,
        xp_hpwl / base_hpwl
    );

    // Export the placed Xplace result as Bookshelf (what the paper hands
    // to NTUPlace3).
    let out_dir = std::env::temp_dir().join("xplace_ispd2005_flow");
    let aux = bookshelf::write_design(xp_design, &out_dir)?;
    println!("Bookshelf export written to {}", aux.display());
    Ok(())
}
