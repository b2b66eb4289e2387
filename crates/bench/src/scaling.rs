//! The scaling bench: per-cell modeled GP cost at the sizes the paper's
//! headline claim lives at, flat vs multilevel.
//!
//! Each case synthesizes a design at a fixed seed, runs global placement
//! only (no LG/DP — scaling is a GP property) and records one
//! [`ScalingPoint`]. The gated quantity is `modeled_ns / (cells *
//! iterations)`: the per-cell, per-iteration cost under the device model,
//! which is pure arithmetic and therefore identical on every machine.
//! Wall-clock is recorded but only ever warns.
//!
//! The smoke set (a 10k-cell flat anchor plus a 100k-cell systolic
//! multilevel run) is what `run_report` embeds into `BENCH_baseline.json`
//! and what CI gates. [`coarsen_smoke`] exercises coarsening alone at
//! sizes too large to place in CI (the 1M-cell leg of `scaling_bench`).

use xplace_core::{GlobalPlacer, XplaceConfig};
use xplace_db::cluster::{build_hierarchy, HierarchyOptions};
use xplace_db::synthesis::{synthesize, SynthesisSpec, Topology};
use xplace_telemetry::{ScalingMetrics, ScalingPoint};

/// Seed shared by every scaling case (the golden seed, so the bench and
/// the canonical flow stress the same RNG stream).
pub const SCALING_SEED: u64 = 20_220_714;

/// One scaling-bench case: a design size/topology and a placer mode.
#[derive(Debug, Clone)]
pub struct ScalingCase {
    /// Standard-cell count to synthesize.
    pub cells: usize,
    /// Synthesis topology.
    pub topology: Topology,
    /// Run the multilevel (coarsen/uncoarsen) phase.
    pub multilevel: bool,
    /// Iteration cap of the final (finest) level.
    pub max_iterations: usize,
    /// Iteration cap per coarse level (`None` keeps the config default).
    pub coarse_max_iterations: Option<usize>,
}

/// The gated smoke set, committed inside `BENCH_baseline.json`: a
/// 10k-cell flat anchor, and a 100k-cell systolic multilevel run whose
/// per-cell modeled cost must stay at or below the anchor's — the
/// framework's scaling claim, pinned into the regression gate. (A
/// same-size multilevel run can never beat flat: small grids are
/// launch-latency-bound, so the modeled per-iteration cost is flat in
/// cell count and extra coarse iterations only add to it. The payoff is
/// per-cell amortization at scale.)
pub fn smoke_cases() -> Vec<ScalingCase> {
    vec![
        ScalingCase {
            cells: 10_000,
            topology: Topology::Random,
            multilevel: false,
            max_iterations: 60,
            coarse_max_iterations: None,
        },
        ScalingCase {
            cells: 100_000,
            topology: Topology::SystolicGrid,
            multilevel: true,
            max_iterations: 40,
            coarse_max_iterations: Some(60),
        },
    ]
}

fn spec_for(case: &ScalingCase) -> SynthesisSpec {
    let name = format!(
        "scale-{}k-{}",
        case.cells / 1000,
        if case.multilevel { "ml" } else { "flat" }
    );
    SynthesisSpec::new(name, case.cells, case.cells + case.cells / 20)
        .with_seed(SCALING_SEED)
        .with_topology(case.topology)
}

/// Measures one scaling case: synthesize, place (GP only), record.
///
/// # Errors
///
/// Propagates synthesis and placement failures.
pub fn measure_case(case: &ScalingCase) -> Result<ScalingPoint, Box<dyn std::error::Error>> {
    let mut design = synthesize(&spec_for(case))?;
    let mut config = XplaceConfig::xplace();
    config.schedule.max_iterations = case.max_iterations;
    config.multilevel.enabled = case.multilevel;
    if let Some(cap) = case.coarse_max_iterations {
        config.multilevel.coarse_max_iterations = cap;
    }
    let cells = design.netlist().num_cells();
    let nets = design.netlist().num_nets();
    let start = std::time::Instant::now();
    let report = GlobalPlacer::new(config).place(&mut design)?;
    Ok(ScalingPoint {
        cells,
        nets,
        topology: case.topology.name().to_string(),
        multilevel: case.multilevel,
        iterations: report.iterations,
        modeled_ns: report.profile.modeled_ns(),
        final_overflow: report.final_overflow,
        wall_seconds: start.elapsed().as_secs_f64(),
    })
}

/// Runs the bench over `cases` in order.
///
/// # Errors
///
/// Fails on the first case that cannot synthesize or place.
pub fn measure_scaling(
    cases: &[ScalingCase],
) -> Result<ScalingMetrics, Box<dyn std::error::Error>> {
    let mut points = Vec::with_capacity(cases.len());
    for case in cases {
        points.push(measure_case(case)?);
    }
    Ok(ScalingMetrics { points })
}

/// Result of a coarsening-only smoke at a size too large to place in CI.
#[derive(Debug, Clone)]
pub struct CoarsenSmoke {
    /// Cell count of the synthesized design.
    pub cells: usize,
    /// Cell count at each hierarchy level, coarsest last.
    pub level_cells: Vec<usize>,
    /// Wall-clock seconds for synthesis alone.
    pub synth_seconds: f64,
    /// Wall-clock seconds for hierarchy construction alone.
    pub coarsen_seconds: f64,
    /// Wall-clock seconds for synthesis + hierarchy construction.
    pub wall_seconds: f64,
}

/// Synthesizes `cells` cells of `topology` and builds the full coarsening
/// hierarchy without placing — the 1M-cell CI smoke.
///
/// # Errors
///
/// Propagates synthesis and coarsening failures.
pub fn coarsen_smoke(
    cells: usize,
    topology: Topology,
) -> Result<CoarsenSmoke, Box<dyn std::error::Error>> {
    let spec = SynthesisSpec::new("coarsen-smoke", cells, cells + cells / 20)
        .with_seed(SCALING_SEED)
        .with_topology(topology);
    let start = std::time::Instant::now();
    let design = synthesize(&spec)?;
    let synth_seconds = start.elapsed().as_secs_f64();
    let total = design.netlist().num_cells();
    let coarsen_start = std::time::Instant::now();
    let levels = build_hierarchy(&design, &HierarchyOptions::default())?;
    Ok(CoarsenSmoke {
        cells: total,
        level_cells: levels
            .iter()
            .map(|l| l.design.netlist().num_cells())
            .collect(),
        synth_seconds,
        coarsen_seconds: coarsen_start.elapsed().as_secs_f64(),
        wall_seconds: start.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_flat() -> ScalingCase {
        ScalingCase {
            cells: 600,
            topology: Topology::Random,
            multilevel: false,
            max_iterations: 30,
            coarse_max_iterations: None,
        }
    }

    #[test]
    fn modeled_cost_is_deterministic_and_positive() {
        let a = measure_case(&tiny_flat()).unwrap();
        let b = measure_case(&tiny_flat()).unwrap();
        assert_eq!(a.modeled_ns, b.modeled_ns);
        assert_eq!(a.iterations, b.iterations);
        assert!(a.modeled_ns > 0);
        assert!(a.ns_per_cell_iter() > 0.0);
        assert!(a.wall_seconds > 0.0);
    }

    #[test]
    fn measure_scaling_preserves_case_order() {
        let mut small = tiny_flat();
        small.max_iterations = 10;
        let mut structured = small.clone();
        structured.topology = Topology::SystolicGrid;
        let m = measure_scaling(&[small, structured]).unwrap();
        assert_eq!(m.points.len(), 2);
        assert_eq!(m.points[0].topology, "random");
        assert_eq!(m.points[1].topology, "systolic");
    }

    #[test]
    fn coarsen_smoke_reduces_and_terminates() {
        let smoke = coarsen_smoke(20_000, Topology::SystolicGrid).unwrap();
        assert!(smoke.cells >= 20_000);
        assert!(!smoke.level_cells.is_empty());
        let coarsest = *smoke.level_cells.last().unwrap();
        assert!(coarsest < smoke.cells / 2, "hierarchy barely coarsened");
    }
}
