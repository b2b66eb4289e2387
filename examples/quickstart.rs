//! Quickstart: place a small synthetic design end to end.
//!
//! Run with: `cargo run --example quickstart --release`

use xplace::core::{GlobalPlacer, XplaceConfig};
use xplace::db::synthesis::{synthesize, SynthesisSpec};
use xplace::db::DesignStats;
use xplace::sched::finish_flow;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A 2000-cell synthetic design (use xplace::db::bookshelf::read_aux
    //    or xplace::db::def::parse_def for real benchmark data).
    let spec = SynthesisSpec::new("quickstart", 2_000, 2_100)
        .with_seed(42)
        .with_macro_count(4);
    let mut design = synthesize(&spec)?;
    println!("design: {}", DesignStats::of(&design));

    // 2. Global placement with the full Xplace configuration.
    let config = XplaceConfig::xplace();
    let report = GlobalPlacer::new(config.clone()).place(&mut design)?;
    println!(
        "global placement: {} iterations, overflow {:.3} -> {:.3}, HPWL {:.0} -> {:.0}",
        report.iterations,
        report.initial_overflow,
        report.final_overflow,
        report.initial_hpwl,
        report.final_hpwl
    );
    println!(
        "  modeled GPU time {:.3} s ({:.3} ms/iter), wall {:.2} s, {} kernel launches",
        report.modeled_gp_seconds(),
        report.modeled_ms_per_iter(),
        report.wall_seconds,
        report.profile.launches
    );

    // 3. Legalization, detailed placement, legality check and congestion
    //    estimate: the back half every placement flow shares.
    let run = finish_flow(&mut design, &config, &report)?;
    if let (Some(lg), Some(dp), Some(route)) = (&run.lg, &run.dp, &run.route) {
        println!(
            "legalization: HPWL {:.0} -> {:.0}, mean displacement {:.2}",
            lg.initial_hpwl, lg.final_hpwl, lg.mean_displacement
        );
        println!(
            "detailed placement: HPWL {:.0} -> {:.0} ({} slides, {} reorders, {} swaps)",
            dp.initial_hpwl, dp.final_hpwl, dp.slides, dp.reorders, dp.swaps
        );
        println!(
            "routability: top5 overflow {:.2}, max utilization {:.2}",
            route.top5_overflow, route.max_utilization
        );
    }

    // 4. `finish_flow` returns only after the legality check passed.
    println!(
        "final placement is legal; total HPWL = {:.0}",
        design.total_hpwl()
    );
    Ok(())
}
