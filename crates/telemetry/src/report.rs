//! The machine-readable summary of one full placement run.

use crate::{ConfigEcho, GatedSection};
use xplace_testkit::json::{FromJson, Json, JsonError, ToJson};

/// Global-placement metrics of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct GpMetrics {
    /// Iterations executed.
    pub iterations: usize,
    /// HPWL at the initial (clustered) state.
    pub initial_hpwl: f64,
    /// HPWL of the final placement.
    pub final_hpwl: f64,
    /// Overflow ratio at the initial state.
    pub initial_overflow: f64,
    /// Overflow ratio at the final state.
    pub final_overflow: f64,
    /// Whether the overflow target was reached.
    pub converged: bool,
    /// Total modeled GPU time (ns) — deterministic.
    pub modeled_ns: u64,
    /// Total kernel launches — deterministic.
    pub launches: u64,
    /// Total host synchronizations — deterministic.
    pub syncs: u64,
    /// Wall-clock seconds — machine-dependent, never gated on.
    pub wall_seconds: f64,
}

impl GpMetrics {
    /// Modeled GPU time in seconds (the paper's "GP/s" column).
    pub fn modeled_seconds(&self) -> f64 {
        self.modeled_ns as f64 / 1e9
    }

    /// Mean modeled time per iteration in milliseconds (Table 3's
    /// "GP / Iter Time").
    pub fn modeled_ms_per_iter(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.modeled_ns as f64 / 1e6 / self.iterations as f64
        }
    }
}

/// Legalization metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct LgMetrics {
    /// HPWL before legalization.
    pub initial_hpwl: f64,
    /// HPWL after legalization.
    pub final_hpwl: f64,
    /// Mean displacement of movable cells.
    pub mean_displacement: f64,
    /// Maximum displacement of a movable cell.
    pub max_displacement: f64,
    /// Wall-clock seconds.
    pub wall_seconds: f64,
}

/// Detailed-placement metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct DpMetrics {
    /// HPWL before detailed placement.
    pub initial_hpwl: f64,
    /// HPWL after detailed placement.
    pub final_hpwl: f64,
    /// Applied intra-row slides.
    pub slides: usize,
    /// Applied adjacent reorders.
    pub reorders: usize,
    /// Applied global swaps.
    pub swaps: usize,
    /// Wall-clock seconds.
    pub wall_seconds: f64,
}

/// Routability metrics from the RUDY congestion estimator.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteMetrics {
    /// Mean utilization of the top-5% most congested gcells.
    pub top5_overflow: f64,
    /// Maximum gcell utilization.
    pub max_utilization: f64,
}

/// One grid size of the spectral microbench: the per-iteration transform
/// cost of the electrostatic Poisson solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SpectralGrid {
    /// Grid edge length (the solve covers an `n x n` grid).
    pub n: usize,
    /// Modeled device time (ns) of the two spectral kernels — deterministic
    /// (pure cost-model arithmetic) and therefore gated.
    pub modeled_ns: u64,
    /// Wall-clock ns per full `solve_into` — machine-dependent, warn-only.
    pub solve_wall_ns: u64,
    /// Wall-clock ns for a row batch of packed-real DCT transforms —
    /// informational evidence for the real-vs-complex speedup.
    pub real_wall_ns: u64,
    /// Wall-clock ns for the same batch through the retained complex-FFT
    /// reference path — informational.
    pub complex_wall_ns: u64,
}

/// The spectral-microbench section of a report: one entry per grid size.
#[derive(Debug, Clone, PartialEq)]
pub struct SpectralMetrics {
    /// Per-grid measurements, ascending by `n`.
    pub grids: Vec<SpectralGrid>,
}

impl SpectralMetrics {
    /// The entry for grid size `n`, if measured.
    pub fn grid(&self, n: usize) -> Option<&SpectralGrid> {
        self.grids.iter().find(|g| g.n == n)
    }
}

/// One design size of the scaling bench: the per-cell modeled cost of a
/// global-placement run at that scale, flat or multilevel.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingPoint {
    /// Movable + fixed cell count of the synthesized design.
    pub cells: usize,
    /// Net count of the synthesized design.
    pub nets: usize,
    /// Synthesis topology name (`random` / `systolic` / `butterfly`).
    pub topology: String,
    /// Whether the run used the multilevel (coarsen/uncoarsen) phase.
    pub multilevel: bool,
    /// Total GP iterations (multilevel runs include coarse-level
    /// iterations) — deterministic.
    pub iterations: usize,
    /// Total modeled GPU time (ns) of the run — deterministic.
    pub modeled_ns: u64,
    /// Final density overflow — deterministic, informational.
    pub final_overflow: f64,
    /// Wall-clock seconds — machine-dependent, warn-only.
    pub wall_seconds: f64,
}

impl ScalingPoint {
    /// Modeled ns per cell per GP iteration — the gated per-cell cost.
    /// Coarse-level iterations of a multilevel run touch fewer cells and
    /// are charged against the full cell count, so multilevel runs must
    /// come out *at or below* the flat path at the same size.
    pub fn ns_per_cell_iter(&self) -> f64 {
        let denom = (self.cells * self.iterations.max(1)) as f64;
        self.modeled_ns as f64 / denom.max(1.0)
    }

    /// A stable identity for point-set matching across reports.
    pub fn key(&self) -> (usize, String, bool) {
        (self.cells, self.topology.clone(), self.multilevel)
    }
}

/// The scaling-bench section of a report: one entry per (size, topology,
/// multilevel) case.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingMetrics {
    /// Per-case measurements, in recorded order.
    pub points: Vec<ScalingPoint>,
}

impl ScalingMetrics {
    /// The entry for `cells` with the given multilevel setting, if
    /// measured (topology-agnostic lookup).
    pub fn point(&self, cells: usize, multilevel: bool) -> Option<&ScalingPoint> {
        self.points
            .iter()
            .find(|p| p.cells == cells && p.multilevel == multilevel)
    }
}

/// One population member's standing at an exploration generation
/// barrier.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreMember {
    /// Member slot index (slot 0 carries the unperturbed base seed).
    pub member: usize,
    /// HPWL at the generation boundary — deterministic.
    pub hpwl: f64,
    /// Density overflow at the boundary — deterministic.
    pub overflow: f64,
    /// Selection score (lower is better); ties resolve to the lower
    /// member index.
    pub score: f64,
    /// Whether this member was culled at this barrier.
    pub culled: bool,
    /// When this slot was refilled at the start of the generation: the
    /// member whose snapshot it branched from.
    pub branched_from: Option<usize>,
    /// Perturbation seed of the branch (lineage replay needs it).
    pub perturbation_seed: Option<u64>,
}

/// One generation of the exploration loop: the population evaluated at a
/// fixed checkpoint barrier.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreGeneration {
    /// Generation number, 0-based.
    pub generation: usize,
    /// GP iteration of the barrier (members paused/finished here).
    pub iteration: usize,
    /// Every member's standing, ascending by slot index.
    pub members: Vec<ExploreMember>,
    /// Best member at this barrier.
    pub best: usize,
}

/// The exploration section of a report: the full population history of a
/// `--explore K` run. Everything here is deterministic (same seed ⇒ same
/// lineage at any thread count), so the regression gate compares it
/// hard. The lineage — which member branched from which snapshot with
/// which perturbation seed at which generation — is replayable from
/// this section alone.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreMetrics {
    /// Population size K.
    pub members: usize,
    /// Survivors kept at each cull.
    pub keep: usize,
    /// Per-generation population history.
    pub generations: Vec<ExploreGeneration>,
    /// Winning member slot.
    pub winner: usize,
    /// The winner's ancestor slot at each generation, oldest first —
    /// the trace-stitching path.
    pub winner_lineage: Vec<usize>,
    /// Final GP HPWL of the winner — deterministic, gated.
    pub winner_hpwl: f64,
    /// Total modeled device time across every member and generation —
    /// the exploration budget actually spent, deterministic, gated.
    pub total_modeled_ns: u64,
}

/// The single-JSON report of one full GP → LG → DP run: the artifact
/// `xplace place --report` and the bench binaries write, and the unit
/// `scripts/check_regression.sh` compares.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Design name.
    pub design: String,
    /// Total cells.
    pub cells: usize,
    /// Nets.
    pub nets: usize,
    /// Configuration echo (see [`ConfigEcho`] for why it excludes the
    /// thread count).
    pub config: ConfigEcho,
    /// Worker-thread count of the run (wall-clock only; all metrics are
    /// thread-count-invariant).
    pub threads: usize,
    /// Global placement.
    pub gp: GpMetrics,
    /// Legalization (absent for GP-only runs).
    pub lg: Option<LgMetrics>,
    /// Detailed placement (absent for GP-only runs).
    pub dp: Option<DpMetrics>,
    /// Routability estimate (absent when not computed).
    pub route: Option<RouteMetrics>,
    /// Spectral microbench (absent unless the run recorded it). Reports
    /// written before this field existed parse as `None`.
    pub spectral: Option<SpectralMetrics>,
    /// Scaling bench (absent unless the run recorded it). Reports written
    /// before this field existed parse as `None`.
    pub scaling: Option<ScalingMetrics>,
    /// Exploration section (absent unless the run used `--explore`).
    /// Reports written before this field existed parse as `None`.
    pub explore: Option<ExploreMetrics>,
    /// A trace-sink I/O failure observed during the run (e.g. the disk
    /// behind `--trace` filled up). The placement result is still valid
    /// but the trace file is incomplete, so drivers must treat this as a
    /// run failure. Reports written before this field existed parse as
    /// `None`.
    pub trace_error: Option<String>,
}

impl RunReport {
    /// The HPWL of the most downstream stage the run executed
    /// (DP, else LG, else GP).
    pub fn final_hpwl(&self) -> f64 {
        self.dp
            .as_ref()
            .map(|d| d.final_hpwl)
            .or_else(|| self.lg.as_ref().map(|l| l.final_hpwl))
            .unwrap_or(self.gp.final_hpwl)
    }
}

impl ToJson for GpMetrics {
    fn to_json(&self) -> Json {
        Json::obj([
            ("iterations", self.iterations.to_json()),
            ("initial_hpwl", self.initial_hpwl.to_json()),
            ("final_hpwl", self.final_hpwl.to_json()),
            ("initial_overflow", self.initial_overflow.to_json()),
            ("final_overflow", self.final_overflow.to_json()),
            ("converged", self.converged.to_json()),
            ("modeled_ns", self.modeled_ns.to_json()),
            ("launches", self.launches.to_json()),
            ("syncs", self.syncs.to_json()),
            ("wall_seconds", self.wall_seconds.to_json()),
        ])
    }
}

impl FromJson for GpMetrics {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(GpMetrics {
            iterations: usize::from_json(value.field("iterations")?)?,
            initial_hpwl: f64::from_json(value.field("initial_hpwl")?)?,
            final_hpwl: f64::from_json(value.field("final_hpwl")?)?,
            initial_overflow: f64::from_json(value.field("initial_overflow")?)?,
            final_overflow: f64::from_json(value.field("final_overflow")?)?,
            converged: bool::from_json(value.field("converged")?)?,
            modeled_ns: u64::from_json(value.field("modeled_ns")?)?,
            launches: u64::from_json(value.field("launches")?)?,
            syncs: u64::from_json(value.field("syncs")?)?,
            wall_seconds: f64::from_json(value.field("wall_seconds")?)?,
        })
    }
}

impl ToJson for LgMetrics {
    fn to_json(&self) -> Json {
        Json::obj([
            ("initial_hpwl", self.initial_hpwl.to_json()),
            ("final_hpwl", self.final_hpwl.to_json()),
            ("mean_displacement", self.mean_displacement.to_json()),
            ("max_displacement", self.max_displacement.to_json()),
            ("wall_seconds", self.wall_seconds.to_json()),
        ])
    }
}

impl FromJson for LgMetrics {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(LgMetrics {
            initial_hpwl: f64::from_json(value.field("initial_hpwl")?)?,
            final_hpwl: f64::from_json(value.field("final_hpwl")?)?,
            mean_displacement: f64::from_json(value.field("mean_displacement")?)?,
            max_displacement: f64::from_json(value.field("max_displacement")?)?,
            wall_seconds: f64::from_json(value.field("wall_seconds")?)?,
        })
    }
}

impl ToJson for DpMetrics {
    fn to_json(&self) -> Json {
        Json::obj([
            ("initial_hpwl", self.initial_hpwl.to_json()),
            ("final_hpwl", self.final_hpwl.to_json()),
            ("slides", self.slides.to_json()),
            ("reorders", self.reorders.to_json()),
            ("swaps", self.swaps.to_json()),
            ("wall_seconds", self.wall_seconds.to_json()),
        ])
    }
}

impl FromJson for DpMetrics {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(DpMetrics {
            initial_hpwl: f64::from_json(value.field("initial_hpwl")?)?,
            final_hpwl: f64::from_json(value.field("final_hpwl")?)?,
            slides: usize::from_json(value.field("slides")?)?,
            reorders: usize::from_json(value.field("reorders")?)?,
            swaps: usize::from_json(value.field("swaps")?)?,
            wall_seconds: f64::from_json(value.field("wall_seconds")?)?,
        })
    }
}

impl ToJson for RouteMetrics {
    fn to_json(&self) -> Json {
        Json::obj([
            ("top5_overflow", self.top5_overflow.to_json()),
            ("max_utilization", self.max_utilization.to_json()),
        ])
    }
}

impl FromJson for RouteMetrics {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(RouteMetrics {
            top5_overflow: f64::from_json(value.field("top5_overflow")?)?,
            max_utilization: f64::from_json(value.field("max_utilization")?)?,
        })
    }
}

impl ToJson for SpectralGrid {
    fn to_json(&self) -> Json {
        Json::obj([
            ("n", self.n.to_json()),
            ("modeled_ns", self.modeled_ns.to_json()),
            ("solve_wall_ns", self.solve_wall_ns.to_json()),
            ("real_wall_ns", self.real_wall_ns.to_json()),
            ("complex_wall_ns", self.complex_wall_ns.to_json()),
        ])
    }
}

impl FromJson for SpectralGrid {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(SpectralGrid {
            n: usize::from_json(value.field("n")?)?,
            modeled_ns: u64::from_json(value.field("modeled_ns")?)?,
            solve_wall_ns: u64::from_json(value.field("solve_wall_ns")?)?,
            real_wall_ns: u64::from_json(value.field("real_wall_ns")?)?,
            complex_wall_ns: u64::from_json(value.field("complex_wall_ns")?)?,
        })
    }
}

impl ToJson for SpectralMetrics {
    fn to_json(&self) -> Json {
        Json::obj([("grids", self.grids.to_json())])
    }
}

impl FromJson for SpectralMetrics {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(SpectralMetrics {
            grids: Vec::<SpectralGrid>::from_json(value.field("grids")?)?,
        })
    }
}

impl ToJson for ScalingPoint {
    fn to_json(&self) -> Json {
        Json::obj([
            ("cells", self.cells.to_json()),
            ("nets", self.nets.to_json()),
            ("topology", self.topology.to_json()),
            ("multilevel", self.multilevel.to_json()),
            ("iterations", self.iterations.to_json()),
            ("modeled_ns", self.modeled_ns.to_json()),
            ("final_overflow", self.final_overflow.to_json()),
            ("wall_seconds", self.wall_seconds.to_json()),
        ])
    }
}

impl FromJson for ScalingPoint {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(ScalingPoint {
            cells: usize::from_json(value.field("cells")?)?,
            nets: usize::from_json(value.field("nets")?)?,
            topology: String::from_json(value.field("topology")?)?,
            multilevel: bool::from_json(value.field("multilevel")?)?,
            iterations: usize::from_json(value.field("iterations")?)?,
            modeled_ns: u64::from_json(value.field("modeled_ns")?)?,
            final_overflow: f64::from_json(value.field("final_overflow")?)?,
            wall_seconds: f64::from_json(value.field("wall_seconds")?)?,
        })
    }
}

impl ToJson for ScalingMetrics {
    fn to_json(&self) -> Json {
        Json::obj([("points", self.points.to_json())])
    }
}

impl FromJson for ScalingMetrics {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(ScalingMetrics {
            points: Vec::<ScalingPoint>::from_json(value.field("points")?)?,
        })
    }
}

impl ToJson for ExploreMember {
    fn to_json(&self) -> Json {
        Json::obj([
            ("member", self.member.to_json()),
            ("hpwl", self.hpwl.to_json()),
            ("overflow", self.overflow.to_json()),
            ("score", self.score.to_json()),
            ("culled", self.culled.to_json()),
            ("branched_from", self.branched_from.to_json()),
            ("perturbation_seed", self.perturbation_seed.to_json()),
        ])
    }
}

impl FromJson for ExploreMember {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(ExploreMember {
            member: usize::from_json(value.field("member")?)?,
            hpwl: f64::from_json(value.field("hpwl")?)?,
            overflow: f64::from_json(value.field("overflow")?)?,
            score: f64::from_json(value.field("score")?)?,
            culled: bool::from_json(value.field("culled")?)?,
            branched_from: Option::<usize>::from_json(value.field("branched_from")?)?,
            perturbation_seed: Option::<u64>::from_json(value.field("perturbation_seed")?)?,
        })
    }
}

impl ToJson for ExploreGeneration {
    fn to_json(&self) -> Json {
        Json::obj([
            ("generation", self.generation.to_json()),
            ("iteration", self.iteration.to_json()),
            ("members", self.members.to_json()),
            ("best", self.best.to_json()),
        ])
    }
}

impl FromJson for ExploreGeneration {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(ExploreGeneration {
            generation: usize::from_json(value.field("generation")?)?,
            iteration: usize::from_json(value.field("iteration")?)?,
            members: Vec::<ExploreMember>::from_json(value.field("members")?)?,
            best: usize::from_json(value.field("best")?)?,
        })
    }
}

impl ToJson for ExploreMetrics {
    fn to_json(&self) -> Json {
        Json::obj([
            ("members", self.members.to_json()),
            ("keep", self.keep.to_json()),
            ("generations", self.generations.to_json()),
            ("winner", self.winner.to_json()),
            ("winner_lineage", self.winner_lineage.to_json()),
            ("winner_hpwl", self.winner_hpwl.to_json()),
            ("total_modeled_ns", self.total_modeled_ns.to_json()),
        ])
    }
}

impl FromJson for ExploreMetrics {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(ExploreMetrics {
            members: usize::from_json(value.field("members")?)?,
            keep: usize::from_json(value.field("keep")?)?,
            generations: Vec::<ExploreGeneration>::from_json(value.field("generations")?)?,
            winner: usize::from_json(value.field("winner")?)?,
            winner_lineage: Vec::<usize>::from_json(value.field("winner_lineage")?)?,
            winner_hpwl: f64::from_json(value.field("winner_hpwl")?)?,
            total_modeled_ns: u64::from_json(value.field("total_modeled_ns")?)?,
        })
    }
}

impl ToJson for RunReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("design", self.design.to_json()),
            ("cells", self.cells.to_json()),
            ("nets", self.nets.to_json()),
            ("config", self.config.to_json()),
            ("threads", self.threads.to_json()),
            ("gp", self.gp.to_json()),
            ("lg", self.lg.to_json()),
            ("dp", self.dp.to_json()),
            ("route", self.route.to_json()),
            (SpectralMetrics::KEY, self.spectral.to_json()),
            (ScalingMetrics::KEY, self.scaling.to_json()),
            (ExploreMetrics::KEY, self.explore.to_json()),
            ("trace_error", self.trace_error.to_json()),
        ])
    }
}

impl FromJson for RunReport {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(RunReport {
            design: String::from_json(value.field("design")?)?,
            cells: usize::from_json(value.field("cells")?)?,
            nets: usize::from_json(value.field("nets")?)?,
            config: ConfigEcho::from_json(value.field("config")?)?,
            threads: usize::from_json(value.field("threads")?)?,
            gp: GpMetrics::from_json(value.field("gp")?)?,
            lg: Option::<LgMetrics>::from_json(value.field("lg")?)?,
            dp: Option::<DpMetrics>::from_json(value.field("dp")?)?,
            route: Option::<RouteMetrics>::from_json(value.field("route")?)?,
            spectral: optional(value, SpectralMetrics::KEY)?,
            scaling: optional(value, ScalingMetrics::KEY)?,
            explore: optional(value, ExploreMetrics::KEY)?,
            trace_error: optional(value, "trace_error")?,
        })
    }
}

/// Reads the optional field `key`, treating an absent key like `null`:
/// reports written before the field existed still parse.
fn optional<T: FromJson>(value: &Json, key: &str) -> Result<Option<T>, JsonError> {
    value.get(key).map_or(Ok(None), Option::<T>::from_json)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn sample_report() -> RunReport {
        RunReport {
            design: "golden".into(),
            cells: 500,
            nets: 525,
            config: ConfigEcho {
                framework: "xplace".into(),
                reduction: true,
                combination: true,
                extraction: true,
                skipping: true,
                stage_aware: true,
                max_iterations: 400,
                stop_overflow: 0.1,
                seed: 20_220_714,
                grid: None,
                multilevel: false,
            },
            threads: 4,
            gp: GpMetrics {
                iterations: 400,
                initial_hpwl: 4000.0,
                final_hpwl: 14026.78,
                initial_overflow: 0.98,
                final_overflow: 0.2219,
                converged: false,
                modeled_ns: 987_654_321,
                launches: 6_800,
                syncs: 400,
                wall_seconds: 1.25,
            },
            lg: Some(LgMetrics {
                initial_hpwl: 14026.78,
                final_hpwl: 14500.0,
                mean_displacement: 1.2,
                max_displacement: 9.5,
                wall_seconds: 0.01,
            }),
            dp: Some(DpMetrics {
                initial_hpwl: 14500.0,
                final_hpwl: 14100.0,
                slides: 120,
                reorders: 30,
                swaps: 4,
                wall_seconds: 0.02,
            }),
            route: Some(RouteMetrics {
                top5_overflow: 42.0,
                max_utilization: 1.4,
            }),
            spectral: Some(SpectralMetrics {
                grids: vec![
                    SpectralGrid {
                        n: 256,
                        modeled_ns: 12_000,
                        solve_wall_ns: 300_000,
                        real_wall_ns: 90_000,
                        complex_wall_ns: 160_000,
                    },
                    SpectralGrid {
                        n: 512,
                        modeled_ns: 40_000,
                        solve_wall_ns: 1_400_000,
                        real_wall_ns: 420_000,
                        complex_wall_ns: 760_000,
                    },
                ],
            }),
            scaling: Some(ScalingMetrics {
                points: vec![
                    ScalingPoint {
                        cells: 10_000,
                        nets: 10_500,
                        topology: "random".into(),
                        multilevel: false,
                        iterations: 60,
                        modeled_ns: 3_600_000,
                        final_overflow: 0.6,
                        wall_seconds: 0.8,
                    },
                    ScalingPoint {
                        cells: 100_000,
                        nets: 105_000,
                        topology: "systolic".into(),
                        multilevel: true,
                        iterations: 340,
                        modeled_ns: 20_400_000,
                        final_overflow: 0.5,
                        wall_seconds: 30.0,
                    },
                ],
            }),
            explore: Some(ExploreMetrics {
                members: 4,
                keep: 2,
                generations: vec![
                    ExploreGeneration {
                        generation: 0,
                        iteration: 100,
                        members: vec![
                            ExploreMember {
                                member: 0,
                                hpwl: 15000.0,
                                overflow: 0.42,
                                score: 21300.0,
                                culled: false,
                                branched_from: None,
                                perturbation_seed: None,
                            },
                            ExploreMember {
                                member: 1,
                                hpwl: 15400.0,
                                overflow: 0.55,
                                score: 23870.0,
                                culled: true,
                                branched_from: None,
                                perturbation_seed: None,
                            },
                        ],
                        best: 0,
                    },
                    ExploreGeneration {
                        generation: 1,
                        iteration: 200,
                        members: vec![
                            ExploreMember {
                                member: 0,
                                hpwl: 14300.0,
                                overflow: 0.25,
                                score: 17875.0,
                                culled: false,
                                branched_from: None,
                                perturbation_seed: None,
                            },
                            ExploreMember {
                                member: 1,
                                hpwl: 14200.0,
                                overflow: 0.27,
                                score: 18034.0,
                                culled: false,
                                branched_from: Some(0),
                                perturbation_seed: Some(11),
                            },
                        ],
                        best: 0,
                    },
                ],
                winner: 0,
                winner_lineage: vec![0, 0],
                winner_hpwl: 14026.78,
                total_modeled_ns: 3_950_617_284,
            }),
            trace_error: None,
        }
    }

    #[test]
    fn run_report_round_trips() {
        let report = sample_report();
        let text = report.to_json_string();
        let back = RunReport::from_json_str(&text).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn optional_stages_round_trip_as_null() {
        let mut report = sample_report();
        report.lg = None;
        report.dp = None;
        report.route = None;
        let text = report.to_json_string();
        assert!(text.contains("\"lg\":null"));
        let back = RunReport::from_json_str(&text).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.final_hpwl(), report.gp.final_hpwl);
    }

    #[test]
    fn final_hpwl_prefers_the_most_downstream_stage() {
        let mut report = sample_report();
        assert_eq!(report.final_hpwl(), 14100.0); // DP
        report.dp = None;
        assert_eq!(report.final_hpwl(), 14500.0); // LG
    }

    #[test]
    fn derived_gp_quantities() {
        let gp = sample_report().gp;
        assert!((gp.modeled_seconds() - 0.987654321).abs() < 1e-12);
        assert!((gp.modeled_ms_per_iter() - 987.654321 / 400.0).abs() < 1e-9);
    }

    #[test]
    fn missing_fields_are_named() {
        let err = RunReport::from_json_str("{}").unwrap_err();
        assert!(err.to_string().contains("missing field `design`"));
    }

    /// Reports written before section `S` existed have no key for it at
    /// all (not even null) — they must parse as `None`.
    fn parses_without_the_key<S: GatedSection>() {
        let mut report = sample_report();
        *S::of_mut(&mut report) = None;
        let text = report.to_json_string();
        let stripped = text.replace(&format!(",\"{}\":null", S::KEY), "");
        assert_ne!(stripped, text, "fixture must contain the null key");
        assert_eq!(RunReport::from_json_str(&stripped).unwrap(), report);
    }

    #[test]
    fn reports_without_a_gated_section_key_still_parse() {
        parses_without_the_key::<SpectralMetrics>();
        parses_without_the_key::<ScalingMetrics>();
        parses_without_the_key::<ExploreMetrics>();
    }

    #[test]
    fn explore_section_round_trips_with_lineage() {
        let report = sample_report();
        let text = report.to_json_string();
        let back = RunReport::from_json_str(&text).unwrap();
        let explore = back.explore.expect("fixture has an explore section");
        assert_eq!(explore.members, 4);
        assert_eq!(explore.generations.len(), 2);
        assert_eq!(explore.generations[1].members[1].branched_from, Some(0));
        assert_eq!(
            explore.generations[1].members[1].perturbation_seed,
            Some(11)
        );
        assert!(explore.generations[0].members[1].culled);
        assert_eq!(explore.winner_lineage, vec![0, 0]);
    }

    #[test]
    fn trace_error_round_trips_and_old_reports_parse() {
        let mut report = sample_report();
        report.trace_error = Some("injected write fault".into());
        let text = report.to_json_string();
        assert!(text.contains("\"trace_error\":\"injected write fault\""));
        let back = RunReport::from_json_str(&text).unwrap();
        assert_eq!(back, report);
        // Reports written before the field existed have no key at all.
        report.trace_error = None;
        let stripped = report.to_json_string().replace(",\"trace_error\":null", "");
        let back = RunReport::from_json_str(&stripped).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn scaling_point_lookup_and_per_cell_cost() {
        let report = sample_report();
        let scaling = report.scaling.as_ref().unwrap();
        let flat = scaling.point(10_000, false).unwrap();
        let ml = scaling.point(100_000, true).unwrap();
        assert!((flat.ns_per_cell_iter() - 6.0).abs() < 1e-12);
        assert!((ml.ns_per_cell_iter() - 0.6).abs() < 1e-12);
        assert!(scaling.point(10_000, true).is_none());
        assert_ne!(flat.key(), ml.key());
    }

    #[test]
    fn scaling_per_cell_cost_survives_zero_iterations() {
        let mut p = sample_report().scaling.unwrap().points[0].clone();
        p.iterations = 0;
        assert!(p.ns_per_cell_iter().is_finite());
    }

    #[test]
    fn spectral_grid_lookup_finds_by_size() {
        let report = sample_report();
        let spectral = report.spectral.as_ref().unwrap();
        assert_eq!(spectral.grid(512).unwrap().modeled_ns, 40_000);
        assert!(spectral.grid(1024).is_none());
    }
}
