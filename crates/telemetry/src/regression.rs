//! The regression comparator behind `scripts/check_regression.sh`.
//!
//! Everything the device model produces is deterministic (modeled time,
//! launch counts, HPWL, iteration counts), so regressions in those
//! quantities hard-fail: there is no run-to-run noise to absorb. Only
//! wall-clock times are machine-dependent, and those merely warn.

use crate::{ExploreMetrics, RunReport, ScalingMetrics, SpectralMetrics};

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
/// Structure (design identity, configuration echo, iteration count) must
/// match exactly; HPWL, modeled time and launch counts may regress up to
/// their bound ([`HPWL_PCT`], [`MODELED_TIME_PCT`], [`LAUNCHES_PCT`]);
/// improvements are noted; wall-clock drift only warns.
pub fn compare_reports(baseline: &RunReport, current: &RunReport) -> Comparison {
    let mut cmp = Comparison::default();

    // --- Structure: the runs must be the same experiment. ---
    if baseline.design != current.design {
        cmp.failures.push(format!(
            "design mismatch: baseline `{}` vs current `{}`",
            baseline.design, current.design
        ));
    }
    if (baseline.cells, baseline.nets) != (current.cells, current.nets) {
        cmp.failures.push(format!(
            "netlist mismatch: baseline {}c/{}n vs current {}c/{}n",
            baseline.cells, baseline.nets, current.cells, current.nets
        ));
    }
    if baseline.config != current.config {
        cmp.failures
            .push("config echo mismatch: the runs used different placer configurations".into());
    }
    if !cmp.failures.is_empty() {
        // Metric deltas are meaningless across different experiments.
        return cmp;
    }

    // --- Determinism: same experiment must take the same trajectory. ---
    if baseline.gp.iterations != current.gp.iterations {
        cmp.failures.push(format!(
            "iteration count changed: {} -> {} (the flow is deterministic; \
             re-record the baseline if this is intentional)",
            baseline.gp.iterations, current.gp.iterations
        ));
    }

    // --- Gated metrics (deterministic, so regressions hard-fail). ---
    let hpwl = pct_change(baseline.final_hpwl(), current.final_hpwl());
    if hpwl > HPWL_PCT {
        cmp.failures.push(format!(
            "HPWL regressed {hpwl:+.2}% ({:.1} -> {:.1}), tolerance {}%",
            baseline.final_hpwl(),
            current.final_hpwl(),
            HPWL_PCT
        ));
    } else if hpwl < -0.01 {
        cmp.notes.push(format!(
            "HPWL improved {hpwl:+.2}% ({:.1} -> {:.1})",
            baseline.final_hpwl(),
            current.final_hpwl()
        ));
    }

    let modeled = pct_change(baseline.gp.modeled_ns as f64, current.gp.modeled_ns as f64);
    if modeled > MODELED_TIME_PCT {
        cmp.failures.push(format!(
            "modeled GP time regressed {modeled:+.2}% ({:.3}s -> {:.3}s), tolerance {}%",
            baseline.gp.modeled_seconds(),
            current.gp.modeled_seconds(),
            MODELED_TIME_PCT
        ));
    } else if modeled < -0.01 {
        cmp.notes.push(format!(
            "modeled GP time improved {modeled:+.2}% ({:.3}s -> {:.3}s)",
            baseline.gp.modeled_seconds(),
            current.gp.modeled_seconds()
        ));
    }

    let launches = pct_change(baseline.gp.launches as f64, current.gp.launches as f64);
    if launches > LAUNCHES_PCT {
        cmp.failures.push(format!(
            "kernel launches grew {launches:+.2}% ({} -> {}), tolerance {}%",
            baseline.gp.launches, current.gp.launches, LAUNCHES_PCT
        ));
    }

    // --- Wall clock: machine-dependent, warn only. ---
    let wall = pct_change(baseline.gp.wall_seconds, current.gp.wall_seconds);
    if wall > WALL_WARN_PCT {
        cmp.warnings.push(format!(
            "GP wall time {wall:+.1}% ({:.2}s -> {:.2}s) — machine-dependent, not gated",
            baseline.gp.wall_seconds, current.gp.wall_seconds
        ));
    }

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
            current.gp.modeled_seconds(),
            current.gp.launches
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
        let base_grids: Vec<usize> = baseline.grids.iter().map(|g| g.n).collect();
        let cur_grids: Vec<usize> = current.grids.iter().map(|g| g.n).collect();
        if base_grids != cur_grids {
            cmp.failures.push(format!(
                "spectral grid set changed: baseline {base_grids:?} vs current {cur_grids:?} \
                 (re-record the baseline if intentional)"
            ));
            return;
        }
        for (base, cur) in baseline.grids.iter().zip(&current.grids) {
            let modeled = pct_change(base.modeled_ns as f64, cur.modeled_ns as f64);
            if modeled > MODELED_TIME_PCT {
                cmp.failures.push(format!(
                    "spectral {n}x{n} modeled transform time regressed {modeled:+.2}% \
                     ({} -> {} ns/iter), tolerance {}%",
                    base.modeled_ns,
                    cur.modeled_ns,
                    MODELED_TIME_PCT,
                    n = base.n
                ));
            } else if modeled < -0.01 {
                cmp.notes.push(format!(
                    "spectral {n}x{n} modeled transform time improved {modeled:+.2}% \
                     ({} -> {} ns/iter)",
                    base.modeled_ns,
                    cur.modeled_ns,
                    n = base.n
                ));
            }
            let wall = pct_change(base.solve_wall_ns as f64, cur.solve_wall_ns as f64);
            if wall > WALL_WARN_PCT {
                cmp.warnings.push(format!(
                    "spectral {n}x{n} solve wall {wall:+.1}% ({} -> {} ns) — \
                     machine-dependent, not gated",
                    base.solve_wall_ns,
                    cur.solve_wall_ns,
                    n = base.n
                ));
            }
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
    /// The point set — identified by (cells, topology, multilevel) — must
    /// match exactly in order (dropping a size silently would hide a
    /// regression). Per point, the iteration count must match exactly (the
    /// flow is deterministic) and the per-cell modeled cost hard-gates at
    /// [`MODELED_TIME_PCT`]; wall-clock drift warns at [`WALL_WARN_PCT`].
    /// Additionally, whenever the current report carries a flat point, every
    /// multilevel point's per-cell cost must stay at or below the *smallest*
    /// flat point's (the anchor) beyond tolerance — small grids are
    /// launch-latency-bound, so per-cell cost can only be amortized by
    /// growing the design; the multilevel phase exists to keep that
    /// amortization alive at the 100k–1M scale, and this pins the claim into
    /// the gate.
    fn compare(baseline: &Self, current: &Self, cmp: &mut Comparison) {
        let base_keys: Vec<_> = baseline.points.iter().map(|p| p.key()).collect();
        let cur_keys: Vec<_> = current.points.iter().map(|p| p.key()).collect();
        if base_keys != cur_keys {
            cmp.failures.push(format!(
                "scaling point set changed: baseline {base_keys:?} vs current {cur_keys:?} \
                 (re-record the baseline if intentional)"
            ));
            return;
        }
        for (base, cur) in baseline.points.iter().zip(&current.points) {
            let label = format!(
                "scaling {}c/{}{}",
                base.cells,
                base.topology,
                if base.multilevel { "/multilevel" } else { "" }
            );
            if base.iterations != cur.iterations {
                cmp.failures.push(format!(
                    "{label} iteration count changed: {} -> {} (the flow is deterministic; \
                     re-record the baseline if this is intentional)",
                    base.iterations, cur.iterations
                ));
                continue;
            }
            let per_cell = pct_change(base.ns_per_cell_iter(), cur.ns_per_cell_iter());
            if per_cell > MODELED_TIME_PCT {
                cmp.failures.push(format!(
                    "{label} per-cell modeled cost regressed {per_cell:+.2}% \
                     ({:.3} -> {:.3} ns/cell/iter), tolerance {}%",
                    base.ns_per_cell_iter(),
                    cur.ns_per_cell_iter(),
                    MODELED_TIME_PCT
                ));
            } else if per_cell < -0.01 {
                cmp.notes.push(format!(
                    "{label} per-cell modeled cost improved {per_cell:+.2}% \
                     ({:.3} -> {:.3} ns/cell/iter)",
                    base.ns_per_cell_iter(),
                    cur.ns_per_cell_iter()
                ));
            }
            let wall = pct_change(base.wall_seconds, cur.wall_seconds);
            if wall > WALL_WARN_PCT {
                cmp.warnings.push(format!(
                    "{label} wall time {wall:+.1}% ({:.2}s -> {:.2}s) — \
                     machine-dependent, not gated",
                    base.wall_seconds, cur.wall_seconds
                ));
            }
        }
        // The multilevel-vs-flat-anchor invariant, checked on the current
        // report: per-cell cost at scale must not exceed the flat baseline.
        let anchor = current
            .points
            .iter()
            .filter(|p| !p.multilevel)
            .min_by_key(|p| p.cells);
        if let Some(anchor) = anchor {
            for ml in current.points.iter().filter(|p| p.multilevel) {
                let delta = pct_change(anchor.ns_per_cell_iter(), ml.ns_per_cell_iter());
                if delta > MODELED_TIME_PCT {
                    cmp.failures.push(format!(
                        "scaling {}c: multilevel per-cell modeled cost exceeds the flat \
                         {}c anchor {delta:+.2}% ({:.3} vs {:.3} ns/cell/iter), tolerance {}%",
                        ml.cells,
                        anchor.cells,
                        ml.ns_per_cell_iter(),
                        anchor.ns_per_cell_iter(),
                        MODELED_TIME_PCT
                    ));
                } else {
                    cmp.notes.push(format!(
                        "scaling {}c: multilevel per-cell modeled cost {:.3} vs flat {}c \
                         anchor {:.3} ns/cell/iter ({delta:+.2}%)",
                        ml.cells,
                        ml.ns_per_cell_iter(),
                        anchor.cells,
                        anchor.ns_per_cell_iter()
                    ));
                }
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
    /// The population shape — member count, survivor count, generation count,
    /// winner index and winner lineage — is deterministic output of the seeded
    /// culling schedule and must match exactly (a shifted lineage means the
    /// population took a different trajectory). The winner's HPWL hard-gates at
    /// [`HPWL_PCT`] and the total modeled exploration cost at
    /// [`MODELED_TIME_PCT`]; improvements are noted.
    fn compare(baseline: &Self, current: &Self, cmp: &mut Comparison) {
        let base_shape = (
            baseline.members,
            baseline.keep,
            baseline.generations.len(),
            baseline.winner,
            &baseline.winner_lineage,
        );
        let cur_shape = (
            current.members,
            current.keep,
            current.generations.len(),
            current.winner,
            &current.winner_lineage,
        );
        if base_shape != cur_shape {
            cmp.failures.push(format!(
                "exploration structure changed: baseline {}m/keep{}/{}gen winner {} lineage {:?} \
                 vs current {}m/keep{}/{}gen winner {} lineage {:?} \
                 (re-record the baseline if intentional)",
                baseline.members,
                baseline.keep,
                baseline.generations.len(),
                baseline.winner,
                baseline.winner_lineage,
                current.members,
                current.keep,
                current.generations.len(),
                current.winner,
                current.winner_lineage,
            ));
            return;
        }
        let hpwl = pct_change(baseline.winner_hpwl, current.winner_hpwl);
        if hpwl > HPWL_PCT {
            cmp.failures.push(format!(
                "exploration winner HPWL regressed {hpwl:+.2}% ({:.1} -> {:.1}), tolerance {}%",
                baseline.winner_hpwl, current.winner_hpwl, HPWL_PCT
            ));
        } else if hpwl < -0.01 {
            cmp.notes.push(format!(
                "exploration winner HPWL improved {hpwl:+.2}% ({:.1} -> {:.1})",
                baseline.winner_hpwl, current.winner_hpwl
            ));
        }
        let modeled = pct_change(
            baseline.total_modeled_ns as f64,
            current.total_modeled_ns as f64,
        );
        if modeled > MODELED_TIME_PCT {
            cmp.failures.push(format!(
                "exploration total modeled time regressed {modeled:+.2}% \
                 ({:.3}s -> {:.3}s), tolerance {}%",
                baseline.total_modeled_ns as f64 / 1e9,
                current.total_modeled_ns as f64 / 1e9,
                MODELED_TIME_PCT
            ));
        } else if modeled < -0.01 {
            cmp.notes.push(format!(
                "exploration total modeled time improved {modeled:+.2}% ({:.3}s -> {:.3}s)",
                baseline.total_modeled_ns as f64 / 1e9,
                current.total_modeled_ns as f64 / 1e9
            ));
        }
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
        assert!(cmp.failures.iter().any(|f| f.contains("launches grew")));
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
        let gated: [(&str, f64, Scale); 3] = [
            ("HPWL regressed", HPWL_PCT, |r, f| {
                r.dp.as_mut().unwrap().final_hpwl *= f
            }),
            ("modeled GP time regressed", MODELED_TIME_PCT, |r, f| {
                r.gp.modeled_ns = (r.gp.modeled_ns as f64 * f) as u64
            }),
            ("kernel launches grew", LAUNCHES_PCT, |r, f| {
                r.gp.launches = (r.gp.launches as f64 * f).round() as u64
            }),
        ];
        for (failure, bound, scale) in gated {
            let under = scaled(bound - 0.05, scale);
            assert!(under.passed(), "{failure}: {:?}", under.failures);
            let over = scaled(bound + 0.05, scale);
            assert!(
                over.failures.iter().any(|f| f.contains(failure)),
                "{failure}: {:?}",
                over.failures
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
        assert!(cmp.failures[0].contains("design mismatch"));
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
