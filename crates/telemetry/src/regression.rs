//! The regression comparator behind `scripts/check_regression.sh`.
//!
//! Everything the device model produces is deterministic (modeled time,
//! launch counts, HPWL, iteration counts), so regressions in those
//! quantities hard-fail: there is no run-to-run noise to absorb. Only
//! wall-clock times are machine-dependent, and those merely warn.
//!
//! Every gated quantity goes through one of three [`Comparison`] rules:
//! `bound` (fail past a percentage bound, note an improvement), `wall`
//! (warn past [`WALL_WARN_PCT`]) and `same` (fail on any change, for
//! structure and iteration counts), so a new gated quantity is one call.

use crate::{ExploreMetrics, RunReport, ScalingMetrics, SpectralMetrics};
use std::fmt::Debug;

/// Maximum final-HPWL regression (%).
pub const HPWL_PCT: f64 = 2.0;
/// Maximum modeled-GPU-time regression (%).
pub const MODELED_TIME_PCT: f64 = 5.0;
/// Maximum kernel-launch-count growth (%).
pub const LAUNCHES_PCT: f64 = 2.0;
/// Wall-clock growth (%) beyond which a *warning* is raised.
pub const WALL_WARN_PCT: f64 = 50.0;

/// Outcome of comparing a fresh [`RunReport`] against a baseline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Comparison {
    /// Hard failures: structure mismatches and deterministic-quantity
    /// regressions beyond tolerance.
    pub failures: Vec<String>,
    /// Soft signals: wall-clock drift and other machine-dependent deltas.
    pub warnings: Vec<String>,
    /// Informational lines (improvements, matched quantities).
    pub notes: Vec<String>,
}

impl Comparison {
    /// `true` when no hard failure was found.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Renders the comparison as a human-readable block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.failures {
            out.push_str(&format!("FAIL  {f}\n"));
        }
        for w in &self.warnings {
            out.push_str(&format!("warn  {w}\n"));
        }
        for n in &self.notes {
            out.push_str(&format!("      {n}\n"));
        }
        out
    }

    /// Gates a deterministic quantity: a failure when `cur` exceeds
    /// `base` by more than `pct` percent, a note when it improved.
    fn bound(&mut self, label: &str, base: f64, cur: f64, pct: f64) {
        let delta = pct_change(base, cur);
        let change = format!("{delta:+.2}% ({} -> {})", num(base), num(cur));
        if delta > pct {
            self.failures
                .push(format!("{label} regressed {change}, tolerance {pct}%"));
        } else if delta < -0.01 {
            self.notes.push(format!("{label} improved {change}"));
        }
    }

    /// Warns when a wall-clock quantity grew past [`WALL_WARN_PCT`].
    fn wall(&mut self, label: &str, base: f64, cur: f64) {
        let delta = pct_change(base, cur);
        if delta > WALL_WARN_PCT {
            self.warnings.push(format!(
                "{label} {delta:+.1}% ({} -> {}) — machine-dependent, not gated",
                num(base),
                num(cur)
            ));
        }
    }

    /// Fails when a value that must not move did; `true` when it held.
    fn same<T: PartialEq + Debug>(&mut self, label: &str, base: &T, cur: &T) -> bool {
        if base != cur {
            let failure = format!("{label} changed: baseline {base:?} vs current {cur:?}");
            self.failures.push(failure);
        }
        base == cur
    }
}

fn pct_change(baseline: f64, current: f64) -> f64 {
    if baseline == 0.0 {
        if current == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (current - baseline) / baseline * 100.0
    }
}

/// `v` to three decimals with trailing zeros dropped.
fn num(v: f64) -> String {
    let s = format!("{v:.3}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

/// A report section the regression gate compares as a unit. Spectral,
/// scaling and explore sections implement it; `visit_sections` lists
/// them, so [`compare_reports`] gates every impl the same way and
/// [`inject_regression`] resolves its `--inject` name.
pub trait GatedSection: Sized {
    /// The section's key in a [`RunReport`] (and its `--inject` name).
    const KEY: &'static str;
    /// How comparison messages name the section.
    const LABEL: &'static str;

    /// The section `report` recorded, if any.
    fn of(report: &RunReport) -> Option<&Self>;

    /// The section slot of `report`.
    fn of_mut(report: &mut RunReport) -> &mut Option<Self>;

    /// Compares two sections into `cmp`.
    fn compare(baseline: &Self, current: &Self, cmp: &mut Comparison);

    /// Self-test hook: fakes a regression of the section's gated metric
    /// by `factor`, so CI can prove the gate fails when it should.
    fn inject(&mut self, factor: f64);
}

/// Something done once per [`GatedSection`] type.
trait SectionVisitor {
    fn visit<S: GatedSection>(&mut self);
}

/// Visits every gated section in report order: the one list of sections
/// that [`compare_reports`] and [`inject_regression`] both walk.
fn visit_sections(visitor: &mut impl SectionVisitor) {
    visitor.visit::<SpectralMetrics>();
    visitor.visit::<ScalingMetrics>();
    visitor.visit::<ExploreMetrics>();
}

/// Gates each section of two run reports: compared when both carry it, a
/// failure when the current run lost it, a note when it is new.
struct CompareSections<'a> {
    baseline: &'a RunReport,
    current: &'a RunReport,
    cmp: &'a mut Comparison,
}

impl SectionVisitor for CompareSections<'_> {
    fn visit<S: GatedSection>(&mut self) {
        match (S::of(self.baseline), S::of(self.current)) {
            (Some(base), Some(cur)) => S::compare(base, cur, self.cmp),
            (Some(_), None) => self.cmp.failures.push(format!(
                "{} missing from current report (baseline has one) — coverage was lost",
                S::LABEL
            )),
            (None, Some(_)) => self
                .cmp
                .notes
                .push(format!("{} added (baseline has none)", S::LABEL)),
            (None, None) => {}
        }
    }
}

/// Compares `current` against `baseline`.
///
/// Structure (design identity, netlist size, configuration echo) and the
/// iteration count must match exactly; HPWL, modeled time and launch
/// counts may regress up to their bound ([`HPWL_PCT`],
/// [`MODELED_TIME_PCT`], [`LAUNCHES_PCT`]); improvements are noted;
/// wall-clock drift only warns.
pub fn compare_reports(baseline: &RunReport, current: &RunReport) -> Comparison {
    let mut cmp = Comparison::default();

    // --- Structure: metric deltas across different experiments mean
    // nothing. `&` rather than `&&`, so every mismatch is reported. ---
    let netlist = |r: &RunReport| (r.cells, r.nets);
    let same_experiment = cmp.same("design", &baseline.design, &current.design)
        & cmp.same("netlist", &netlist(baseline), &netlist(current))
        & cmp.same("config echo", &baseline.config, &current.config);
    if !same_experiment {
        return cmp;
    }

    // --- Determinism and gated metrics: the same experiment takes the
    // same trajectory, so regressions hard-fail. ---
    let (base, cur) = (&baseline.gp, &current.gp);
    cmp.same("iteration count", &base.iterations, &cur.iterations);
    cmp.bound(
        "HPWL",
        baseline.final_hpwl(),
        current.final_hpwl(),
        HPWL_PCT,
    );
    cmp.bound(
        "modeled GP time",
        base.modeled_ns as f64,
        cur.modeled_ns as f64,
        MODELED_TIME_PCT,
    );
    cmp.bound(
        "kernel launches",
        base.launches as f64,
        cur.launches as f64,
        LAUNCHES_PCT,
    );
    cmp.wall("GP wall time", base.wall_seconds, cur.wall_seconds);

    // --- Gated sections (each compared when the baseline recorded it). ---
    visit_sections(&mut CompareSections {
        baseline,
        current,
        cmp: &mut cmp,
    });

    if cmp.passed() {
        cmp.notes.push(format!(
            "HPWL {:.1}, modeled GP {:.3}s, {} launches — within tolerance of baseline",
            current.final_hpwl(),
            cur.modeled_seconds(),
            cur.launches
        ));
    }
    cmp
}

/// Applies `--inject S=…` to the section whose key is `name`.
struct InjectSection<'a> {
    report: &'a mut RunReport,
    name: &'a str,
    factor: f64,
    keys: Vec<&'static str>,
    outcome: Option<Result<(), String>>,
}

impl SectionVisitor for InjectSection<'_> {
    fn visit<S: GatedSection>(&mut self) {
        self.keys.push(S::KEY);
        if S::KEY == self.name {
            self.outcome = Some(match S::of_mut(self.report) {
                Some(section) => {
                    section.inject(self.factor);
                    Ok(())
                }
                None => Err(format!(
                    "the current run report has no {} section to inject into",
                    S::KEY
                )),
            });
        }
    }
}

/// The `--inject NAME=PCT` self-test hook: fakes a regression in `report`
/// by `factor`, so CI can prove the gate fails when it should. `hpwl`
/// inflates the final GP, LG and DP HPWL; a [`GatedSection`] key applies
/// that section's [`GatedSection::inject`].
///
/// # Errors
///
/// An unknown `name`, or a section `report` did not record.
pub fn inject_regression(report: &mut RunReport, name: &str, factor: f64) -> Result<(), String> {
    if name == "hpwl" {
        report.gp.final_hpwl *= factor;
        if let Some(lg) = report.lg.as_mut() {
            lg.final_hpwl *= factor;
        }
        if let Some(dp) = report.dp.as_mut() {
            dp.final_hpwl *= factor;
        }
        return Ok(());
    }
    let mut inject = InjectSection {
        report,
        name,
        factor,
        keys: vec!["hpwl"],
        outcome: None,
    };
    visit_sections(&mut inject);
    inject.outcome.unwrap_or_else(|| {
        Err(format!(
            "unknown --inject section '{name}' ({})",
            inject.keys.join("|")
        ))
    })
}

impl GatedSection for SpectralMetrics {
    const KEY: &'static str = "spectral";
    const LABEL: &'static str = "spectral microbench";

    fn of(report: &RunReport) -> Option<&Self> {
        report.spectral.as_ref()
    }

    fn of_mut(report: &mut RunReport) -> &mut Option<Self> {
        &mut report.spectral
    }

    /// Compares two spectral-microbench sections into `cmp`.
    ///
    /// The grid set must match exactly (dropping a grid silently would hide a
    /// regression). Per grid, `modeled_ns` is deterministic cost-model output
    /// and hard-gates at [`MODELED_TIME_PCT`]; `solve_wall_ns` is
    /// machine-dependent and warns at [`WALL_WARN_PCT`].
    fn compare(baseline: &Self, current: &Self, cmp: &mut Comparison) {
        let grids = |s: &Self| s.grids.iter().map(|g| g.n).collect::<Vec<_>>();
        if !cmp.same("spectral grid set", &grids(baseline), &grids(current)) {
            return;
        }
        for (base, cur) in baseline.grids.iter().zip(&current.grids) {
            let label = format!("spectral {n}x{n}", n = base.n);
            cmp.bound(
                &format!("{label} modeled transform time"),
                base.modeled_ns as f64,
                cur.modeled_ns as f64,
                MODELED_TIME_PCT,
            );
            cmp.wall(
                &format!("{label} solve wall"),
                base.solve_wall_ns as f64,
                cur.solve_wall_ns as f64,
            );
        }
    }

    /// Inflates every grid's modeled transform time.
    fn inject(&mut self, factor: f64) {
        for grid in &mut self.grids {
            grid.modeled_ns = (grid.modeled_ns as f64 * factor) as u64;
        }
    }
}

impl GatedSection for ScalingMetrics {
    const KEY: &'static str = "scaling";
    const LABEL: &'static str = "scaling bench";

    fn of(report: &RunReport) -> Option<&Self> {
        report.scaling.as_ref()
    }

    fn of_mut(report: &mut RunReport) -> &mut Option<Self> {
        &mut report.scaling
    }

    /// Compares two scaling-bench sections into `cmp`.
    ///
    /// The point set — (cells, topology, multilevel), in order — and each
    /// point's iteration count must match exactly; per point, the per-cell
    /// modeled cost hard-gates at [`MODELED_TIME_PCT`] and wall time warns.
    /// Every multilevel point of the current report must also stay within
    /// [`MODELED_TIME_PCT`] of the smallest flat point's per-cell cost (the
    /// anchor): small grids are launch-latency-bound, and the multilevel
    /// phase exists to keep per-cell cost amortized at the 100k–1M scale.
    fn compare(baseline: &Self, current: &Self, cmp: &mut Comparison) {
        let keys = |s: &Self| s.points.iter().map(|p| p.key()).collect::<Vec<_>>();
        if !cmp.same("scaling point set", &keys(baseline), &keys(current)) {
            return;
        }
        for (base, cur) in baseline.points.iter().zip(&current.points) {
            let ml = if base.multilevel { "/multilevel" } else { "" };
            let point = format!("scaling {}c/{}{ml}", base.cells, base.topology);
            let label = |what: &str| format!("{point} {what}");
            if !cmp.same(&label("iteration count"), &base.iterations, &cur.iterations) {
                continue;
            }
            cmp.bound(
                &label("per-cell modeled cost"),
                base.ns_per_cell_iter(),
                cur.ns_per_cell_iter(),
                MODELED_TIME_PCT,
            );
            cmp.wall(&label("wall time"), base.wall_seconds, cur.wall_seconds);
        }
        // The multilevel-vs-flat-anchor invariant, checked on the current
        // report alone: per-cell cost at scale must not exceed the flat one.
        let flat = current.points.iter().filter(|p| !p.multilevel);
        let Some(anchor) = flat.min_by_key(|p| p.cells) else {
            return;
        };
        for ml in current.points.iter().filter(|p| p.multilevel) {
            let (a, m) = (anchor.ns_per_cell_iter(), ml.ns_per_cell_iter());
            let delta = pct_change(a, m);
            if delta > MODELED_TIME_PCT {
                cmp.failures.push(format!(
                    "scaling {}c: multilevel per-cell modeled cost exceeds the flat {}c anchor \
                     {delta:+.2}% ({m:.3} vs {a:.3} ns/cell/iter), tolerance {MODELED_TIME_PCT}%",
                    ml.cells, anchor.cells
                ));
            } else {
                cmp.notes.push(format!(
                    "scaling {}c: multilevel per-cell modeled cost {m:.3} vs flat {}c anchor \
                     {a:.3} ns/cell/iter ({delta:+.2}%)",
                    ml.cells, anchor.cells
                ));
            }
        }
    }

    /// Inflates every point's modeled GP time (hence its per-cell cost).
    fn inject(&mut self, factor: f64) {
        for point in &mut self.points {
            point.modeled_ns = (point.modeled_ns as f64 * factor) as u64;
        }
    }
}

impl GatedSection for ExploreMetrics {
    const KEY: &'static str = "explore";
    const LABEL: &'static str = "exploration section";

    fn of(report: &RunReport) -> Option<&Self> {
        report.explore.as_ref()
    }

    fn of_mut(report: &mut RunReport) -> &mut Option<Self> {
        &mut report.explore
    }

    /// Compares two exploration sections into `cmp`.
    ///
    /// The population shape — (members, keep, generation count, winner,
    /// winner lineage) — is deterministic output of the seeded culling
    /// schedule and must match exactly. The winner's HPWL hard-gates at
    /// [`HPWL_PCT`] and the total modeled exploration cost at
    /// [`MODELED_TIME_PCT`].
    fn compare(baseline: &Self, current: &Self, cmp: &mut Comparison) {
        let shape = |s: &Self| {
            (
                s.members,
                s.keep,
                s.generations.len(),
                s.winner,
                s.winner_lineage.clone(),
            )
        };
        if !cmp.same("exploration structure", &shape(baseline), &shape(current)) {
            return;
        }
        cmp.bound(
            "exploration winner HPWL",
            baseline.winner_hpwl,
            current.winner_hpwl,
            HPWL_PCT,
        );
        cmp.bound(
            "exploration total modeled time",
            baseline.total_modeled_ns as f64,
            current.total_modeled_ns as f64,
            MODELED_TIME_PCT,
        );
    }

    /// Inflates the population winner's HPWL.
    fn inject(&mut self, factor: f64) {
        self.winner_hpwl *= factor;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::sample_report;

    #[test]
    fn identical_reports_pass() {
        let base = sample_report();
        let cmp = compare_reports(&base, &base.clone());
        assert!(cmp.passed(), "{:?}", cmp.failures);
        assert!(cmp.warnings.is_empty());
    }

    #[test]
    fn hpwl_regression_beyond_tolerance_fails() {
        let base = sample_report();
        let mut cur = base.clone();
        // final_hpwl() reads the DP stage.
        cur.dp.as_mut().unwrap().final_hpwl *= 1.10;
        let cmp = compare_reports(&base, &cur);
        assert!(!cmp.passed());
        assert!(
            cmp.failures[0].contains("HPWL regressed"),
            "{:?}",
            cmp.failures
        );
    }

    #[test]
    fn hpwl_improvement_is_a_note_not_a_failure() {
        let base = sample_report();
        let mut cur = base.clone();
        cur.dp.as_mut().unwrap().final_hpwl *= 0.90;
        let cmp = compare_reports(&base, &cur);
        assert!(cmp.passed());
        assert!(cmp.notes.iter().any(|n| n.contains("HPWL improved")));
    }

    #[test]
    fn modeled_time_regression_fails() {
        let base = sample_report();
        let mut cur = base.clone();
        cur.gp.modeled_ns = (cur.gp.modeled_ns as f64 * 1.2) as u64;
        let cmp = compare_reports(&base, &cur);
        assert!(!cmp.passed());
        assert!(cmp
            .failures
            .iter()
            .any(|f| f.contains("modeled GP time regressed")));
    }

    #[test]
    fn launch_growth_fails() {
        let base = sample_report();
        let mut cur = base.clone();
        cur.gp.launches += cur.gp.launches / 10;
        let cmp = compare_reports(&base, &cur);
        assert!(!cmp.passed());
        assert!(cmp
            .failures
            .iter()
            .any(|f| f.contains("kernel launches regressed")));
    }

    #[test]
    fn wall_clock_drift_only_warns() {
        let base = sample_report();
        let mut cur = base.clone();
        cur.gp.wall_seconds *= 3.0; // a slower machine, not a regression
        let cmp = compare_reports(&base, &cur);
        assert!(cmp.passed());
        assert!(!cmp.warnings.is_empty());
        assert!(cmp.render().contains("warn"));
    }

    #[test]
    fn each_bound_passes_just_under_and_fails_just_over() {
        type Scale = fn(&mut RunReport, f64);
        let base = sample_report();
        let scaled = |pct: f64, scale: Scale| {
            let mut cur = base.clone();
            scale(&mut cur, 1.0 + pct / 100.0);
            compare_reports(&base, &cur)
        };
        // Every `bound` call: its label, its bound and how to scale it.
        let gated: [(&str, f64, Scale); 7] = [
            ("HPWL", HPWL_PCT, |r, f| {
                r.dp.as_mut().unwrap().final_hpwl *= f
            }),
            ("modeled GP time", MODELED_TIME_PCT, |r, f| {
                r.gp.modeled_ns = (r.gp.modeled_ns as f64 * f) as u64
            }),
            ("kernel launches", LAUNCHES_PCT, |r, f| {
                r.gp.launches = (r.gp.launches as f64 * f).round() as u64
            }),
            (
                "spectral 256x256 modeled transform time",
                MODELED_TIME_PCT,
                |r, f| {
                    for grid in &mut r.spectral.as_mut().unwrap().grids {
                        grid.modeled_ns = (grid.modeled_ns as f64 * f) as u64;
                    }
                },
            ),
            (
                "scaling 10000c/random per-cell modeled cost",
                MODELED_TIME_PCT,
                |r, f| {
                    for point in &mut r.scaling.as_mut().unwrap().points {
                        point.modeled_ns = (point.modeled_ns as f64 * f) as u64;
                    }
                },
            ),
            ("exploration winner HPWL", HPWL_PCT, |r, f| {
                r.explore.as_mut().unwrap().winner_hpwl *= f
            }),
            (
                "exploration total modeled time",
                MODELED_TIME_PCT,
                |r, f| {
                    let explore = r.explore.as_mut().unwrap();
                    explore.total_modeled_ns = (explore.total_modeled_ns as f64 * f) as u64;
                },
            ),
        ];
        for (label, bound, scale) in gated {
            let under = scaled(bound - 0.05, scale);
            assert!(under.passed(), "{label}: {:?}", under.failures);
            let over = scaled(bound + 0.05, scale);
            let failure = format!("{label} regressed");
            assert!(
                over.failures.iter().any(|f| f.starts_with(&failure)),
                "{label}: {:?}",
                over.failures
            );
            let better = scaled(-bound, scale);
            assert!(better.passed(), "{label}: {:?}", better.failures);
            let note = format!("{label} improved");
            assert!(
                better.notes.iter().any(|n| n.starts_with(&note)),
                "{label}: {:?}",
                better.notes
            );
        }

        let wall: Scale = |r, f| r.gp.wall_seconds *= f;
        let under = scaled(WALL_WARN_PCT - 0.05, wall);
        assert!(under.warnings.is_empty(), "{:?}", under.warnings);
        let over = scaled(WALL_WARN_PCT + 0.05, wall);
        assert!(over.passed(), "{:?}", over.failures);
        assert!(over.warnings.iter().any(|w| w.contains("GP wall time")));
    }

    #[test]
    fn structure_mismatch_fails_before_metrics() {
        let base = sample_report();
        let mut cur = base.clone();
        cur.design = "other".into();
        cur.dp.as_mut().unwrap().final_hpwl *= 2.0;
        let cmp = compare_reports(&base, &cur);
        assert_eq!(cmp.failures.len(), 1, "{:?}", cmp.failures);
        assert!(cmp.failures[0].contains("design changed"));
    }

    #[test]
    fn iteration_count_change_fails() {
        let base = sample_report();
        let mut cur = base.clone();
        cur.gp.iterations += 1;
        let cmp = compare_reports(&base, &cur);
        assert!(cmp
            .failures
            .iter()
            .any(|f| f.contains("iteration count changed")));
    }

    #[test]
    fn spectral_modeled_regression_fails() {
        let base = sample_report();
        let mut cur = base.clone();
        let grid = &mut cur.spectral.as_mut().unwrap().grids[1];
        grid.modeled_ns = (grid.modeled_ns as f64 * 1.10) as u64;
        let cmp = compare_reports(&base, &cur);
        assert!(!cmp.passed());
        assert!(
            cmp.failures
                .iter()
                .any(|f| f.contains("spectral 512x512 modeled transform time regressed")),
            "{:?}",
            cmp.failures
        );
    }

    #[test]
    fn spectral_modeled_improvement_is_a_note() {
        let base = sample_report();
        let mut cur = base.clone();
        for g in &mut cur.spectral.as_mut().unwrap().grids {
            g.modeled_ns = (g.modeled_ns as f64 * 0.8) as u64;
        }
        let cmp = compare_reports(&base, &cur);
        assert!(cmp.passed(), "{:?}", cmp.failures);
        assert!(cmp
            .notes
            .iter()
            .any(|n| n.contains("spectral 256x256 modeled transform time improved")));
    }

    #[test]
    fn spectral_wall_drift_only_warns() {
        let base = sample_report();
        let mut cur = base.clone();
        cur.spectral.as_mut().unwrap().grids[0].solve_wall_ns *= 3;
        let cmp = compare_reports(&base, &cur);
        assert!(cmp.passed(), "{:?}", cmp.failures);
        assert!(cmp
            .warnings
            .iter()
            .any(|w| w.contains("spectral 256x256 solve wall")));
    }

    #[test]
    fn changing_the_spectral_grid_set_fails() {
        let base = sample_report();
        let mut cur = base.clone();
        cur.spectral.as_mut().unwrap().grids.pop();
        let cmp = compare_reports(&base, &cur);
        assert!(!cmp.passed());
        assert!(cmp
            .failures
            .iter()
            .any(|f| f.contains("spectral grid set changed")));
    }

    #[test]
    fn scaling_per_cell_regression_fails() {
        let base = sample_report();
        let mut cur = base.clone();
        let point = &mut cur.scaling.as_mut().unwrap().points[0];
        point.modeled_ns = (point.modeled_ns as f64 * 1.10) as u64;
        let cmp = compare_reports(&base, &cur);
        assert!(!cmp.passed());
        assert!(
            cmp.failures
                .iter()
                .any(|f| f.contains("scaling 10000c/random per-cell modeled cost regressed")),
            "{:?}",
            cmp.failures
        );
    }

    #[test]
    fn scaling_improvement_is_a_note() {
        let base = sample_report();
        let mut cur = base.clone();
        for p in &mut cur.scaling.as_mut().unwrap().points {
            p.modeled_ns = (p.modeled_ns as f64 * 0.8) as u64;
        }
        let cmp = compare_reports(&base, &cur);
        assert!(cmp.passed(), "{:?}", cmp.failures);
        assert!(cmp
            .notes
            .iter()
            .any(|n| n.contains("per-cell modeled cost improved")));
    }

    #[test]
    fn scaling_iteration_change_fails() {
        let base = sample_report();
        let mut cur = base.clone();
        cur.scaling.as_mut().unwrap().points[1].iterations += 1;
        let cmp = compare_reports(&base, &cur);
        assert!(!cmp.passed());
        assert!(cmp
            .failures
            .iter()
            .any(|f| f.contains("scaling 100000c/systolic/multilevel iteration count changed")));
    }

    #[test]
    fn scaling_wall_drift_only_warns() {
        let base = sample_report();
        let mut cur = base.clone();
        cur.scaling.as_mut().unwrap().points[0].wall_seconds *= 3.0;
        let cmp = compare_reports(&base, &cur);
        assert!(cmp.passed(), "{:?}", cmp.failures);
        assert!(cmp.warnings.iter().any(|w| w.contains("scaling 10000c")));
    }

    #[test]
    fn changing_the_scaling_point_set_fails() {
        let base = sample_report();
        let mut cur = base.clone();
        cur.scaling.as_mut().unwrap().points.pop();
        let cmp = compare_reports(&base, &cur);
        assert!(!cmp.passed());
        assert!(cmp
            .failures
            .iter()
            .any(|f| f.contains("scaling point set changed")));
    }

    #[test]
    fn multilevel_costlier_than_flat_fails_even_when_matching_its_baseline() {
        // The multilevel-vs-flat invariant is an absolute property of the
        // current report: it must fail even when baseline and current agree.
        let mut base = sample_report();
        {
            let points = &mut base.scaling.as_mut().unwrap().points;
            // Make the multilevel per-cell cost 2x the flat anchor's in
            // *both* reports (anchor is 6.0 ns/cell/iter).
            let ml = &mut points[1];
            ml.modeled_ns = (ml.cells * ml.iterations) as u64 * 12;
        }
        let cur = base.clone();
        let cmp = compare_reports(&base, &cur);
        assert!(!cmp.passed());
        assert!(
            cmp.failures
                .iter()
                .any(|f| f.contains("multilevel per-cell modeled cost exceeds the flat")),
            "{:?}",
            cmp.failures
        );
    }

    #[test]
    fn explore_winner_hpwl_regression_fails() {
        let base = sample_report();
        let mut cur = base.clone();
        cur.explore.as_mut().unwrap().winner_hpwl *= 1.10;
        let cmp = compare_reports(&base, &cur);
        assert!(!cmp.passed());
        assert!(
            cmp.failures
                .iter()
                .any(|f| f.contains("exploration winner HPWL regressed")),
            "{:?}",
            cmp.failures
        );
    }

    #[test]
    fn explore_improvement_is_a_note() {
        let base = sample_report();
        let mut cur = base.clone();
        {
            let explore = cur.explore.as_mut().unwrap();
            explore.winner_hpwl *= 0.9;
            explore.total_modeled_ns = (explore.total_modeled_ns as f64 * 0.8) as u64;
        }
        let cmp = compare_reports(&base, &cur);
        assert!(cmp.passed(), "{:?}", cmp.failures);
        assert!(cmp
            .notes
            .iter()
            .any(|n| n.contains("exploration winner HPWL improved")));
        assert!(cmp
            .notes
            .iter()
            .any(|n| n.contains("exploration total modeled time improved")));
    }

    #[test]
    fn explore_modeled_time_regression_fails() {
        let base = sample_report();
        let mut cur = base.clone();
        let explore = cur.explore.as_mut().unwrap();
        explore.total_modeled_ns = (explore.total_modeled_ns as f64 * 1.2) as u64;
        let cmp = compare_reports(&base, &cur);
        assert!(!cmp.passed());
        assert!(cmp
            .failures
            .iter()
            .any(|f| f.contains("exploration total modeled time regressed")));
    }

    #[test]
    fn explore_structure_change_fails() {
        let base = sample_report();
        let mut cur = base.clone();
        cur.explore.as_mut().unwrap().winner_lineage = vec![0, 1];
        let cmp = compare_reports(&base, &cur);
        assert!(!cmp.passed());
        assert!(cmp
            .failures
            .iter()
            .any(|f| f.contains("exploration structure changed")));
    }

    /// The contract every [`GatedSection`] impl shares, checked through
    /// [`compare_reports`] on the sample report.
    fn gated_section_contract<S: GatedSection>() {
        let base = sample_report();
        let cmp = compare_reports(&base, &base.clone());
        assert!(cmp.passed(), "{}: identical: {:?}", S::KEY, cmp.failures);

        let mut inflated = base.clone();
        inject_regression(&mut inflated, S::KEY, 1.10).unwrap();
        let cmp = compare_reports(&base, &inflated);
        assert!(!cmp.passed(), "{}: an injected +10% must fail", S::KEY);

        let mut dropped = base.clone();
        *S::of_mut(&mut dropped) = None;
        assert_eq!(
            inject_regression(&mut dropped.clone(), S::KEY, 1.10),
            Err(format!(
                "the current run report has no {} section to inject into",
                S::KEY
            ))
        );
        let cmp = compare_reports(&base, &dropped);
        let missing = format!("{} missing", S::LABEL);
        assert!(
            cmp.failures.iter().any(|f| f.contains(&missing)),
            "{}: {:?}",
            S::KEY,
            cmp.failures
        );

        let cmp = compare_reports(&dropped, &base);
        assert!(cmp.passed(), "{}: adding: {:?}", S::KEY, cmp.failures);
        let added = format!("{} added", S::LABEL);
        assert!(cmp.notes.iter().any(|n| n.contains(&added)), "{}", S::KEY);
    }

    #[test]
    fn every_gated_section_passes_identity_and_fails_injection_and_loss() {
        struct Contract(Vec<&'static str>);
        impl SectionVisitor for Contract {
            fn visit<S: GatedSection>(&mut self) {
                gated_section_contract::<S>();
                self.0.push(S::KEY);
            }
        }
        let mut checked = Contract(Vec::new());
        visit_sections(&mut checked);
        assert_eq!(checked.0, ["spectral", "scaling", "explore"]);
    }

    #[test]
    fn hpwl_injection_fails_the_gate_and_unknown_names_are_listed() {
        let base = sample_report();
        let mut inflated = base.clone();
        inject_regression(&mut inflated, "hpwl", 1.10).unwrap();
        let cmp = compare_reports(&base, &inflated);
        assert!(cmp.failures.iter().any(|f| f.contains("HPWL regressed")));

        let err = inject_regression(&mut base.clone(), "wirelength", 1.10).unwrap_err();
        assert_eq!(
            err,
            "unknown --inject section 'wirelength' (hpwl|spectral|scaling|explore)"
        );
    }
}
