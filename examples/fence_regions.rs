//! Fence regions (the constraint the paper defers to future work): confine
//! named groups of cells to rectangles through the whole GP -> LG -> DP
//! flow.
//!
//! Run with: `cargo run --example fence_regions --release`

use xplace::core::{GlobalPlacer, XplaceConfig};
use xplace::db::synthesis::{synthesize, SynthesisSpec};
use xplace::sched::finish_flow;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Three fences along the top edge, each owning ~3% of the cells.
    let spec = SynthesisSpec::new("fenced_demo", 1_200, 1_260)
        .with_seed(7)
        .with_fences(3);
    let mut design = synthesize(&spec)?;
    for fence in design.fences() {
        println!(
            "fence `{}`: {} members confined to {}",
            fence.name(),
            fence.members().len(),
            fence.bounding_box()
        );
    }

    let config = XplaceConfig::xplace();
    let gp = GlobalPlacer::new(config.clone()).place(&mut design)?;
    println!(
        "\nGP: {} iterations, overflow {:.3}, HPWL {:.0}",
        gp.iterations, gp.final_overflow, gp.final_hpwl
    );

    // LG -> DP -> legality check (which includes fence containment).
    finish_flow(&mut design, &config, &gp)?;
    println!("final placement is legal, all fence members contained");

    // Show where the members ended up.
    for fence in design.fences() {
        let bb = fence.bounding_box();
        let inside = fence
            .members()
            .iter()
            .filter(|&&m| bb.contains(design.position(m)))
            .count();
        println!(
            "fence `{}`: {}/{} members inside {}",
            fence.name(),
            inside,
            fence.members().len(),
            bb
        );
    }
    Ok(())
}
