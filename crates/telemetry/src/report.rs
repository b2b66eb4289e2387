//! The machine-readable summary of one full placement run.

use crate::ConfigEcho;
use xplace_legal::{DpReport, LegalizeReport};
use xplace_testkit::json_struct;

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
    pub lg: Option<LegalizeReport>,
    /// Detailed placement (absent for GP-only runs).
    pub dp: Option<DpReport>,
    /// Routability estimate (absent when not computed).
    pub route: Option<RouteMetrics>,
    /// Spectral microbench (absent unless the run recorded it). Reports
    /// written before this field existed parse as `None`.
    pub spectral: Option<SpectralMetrics>,
    /// Scaling bench (absent unless the run recorded it). Reports written
    /// before this field existed parse as `None`.
    pub scaling: Option<ScalingMetrics>,
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

json_struct!(GpMetrics {
    iterations,
    initial_hpwl,
    final_hpwl,
    initial_overflow,
    final_overflow,
    converged,
    modeled_ns,
    launches,
    syncs,
    wall_seconds,
});

json_struct!(RouteMetrics {
    top5_overflow,
    max_utilization,
});

json_struct!(SpectralGrid {
    n,
    modeled_ns,
    solve_wall_ns,
});

json_struct!(SpectralMetrics { grids });

json_struct!(ScalingPoint {
    cells,
    nets,
    topology,
    multilevel,
    iterations,
    modeled_ns,
    final_overflow,
    wall_seconds,
});

json_struct!(ScalingMetrics { points });

// The gated sections and `trace_error` arrived after the first reports
// were written; an absent key reads as `None`. Each section's key is its
// `GatedSection::KEY`.
json_struct!(RunReport {
    design,
    cells,
    nets,
    config,
    threads,
    gp,
    lg,
    dp,
    route,
    spectral = None,
    scaling = None,
    trace_error = None,
});

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{FromJson, GatedSection, ToJson};

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
            lg: Some(LegalizeReport {
                initial_hpwl: 14026.78,
                final_hpwl: 14500.0,
                mean_displacement: 1.2,
                max_displacement: 9.5,
                wall_seconds: 0.01,
            }),
            dp: Some(DpReport {
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
                    },
                    SpectralGrid {
                        n: 512,
                        modeled_ns: 40_000,
                        solve_wall_ns: 1_400_000,
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
        // Without a default, an empty stage is `null`, never absent.
        let stripped = text.replace(",\"lg\":null", "");
        let err = RunReport::from_json_str(&stripped).unwrap_err();
        assert!(err.to_string().contains("missing field `lg`"), "{err}");
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
