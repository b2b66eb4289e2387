//! Population-exploration bench: proves `--explore K` beats a single
//! run of equal total modeled budget, and produces the gateable
//! [`ExploreMetrics`] section for `BENCH_baseline.json`.
//!
//! `run_report` measures the whole of [`suite_cases`] and exits non-zero
//! unless [`suite_verdict`] passes; the committed case (see
//! [`committed_case`]) is the one it embeds into the report for the
//! regression gate, and the other two designs exist to prove the quality
//! win is not a single lucky design.
//!
//! The comparison is budget-fair: the single-run reference gets the
//! population's whole iteration budget (`members x max_iterations`), so
//! its modeled cost is at least the population's total unless it
//! converges first — in which case extra budget could not have helped
//! it. "Population wins" therefore means: best-of-K under the same
//! total modeled spend strictly beats one run that was never starved.

use xplace_core::{GlobalPlacer, XplaceConfig};
use xplace_db::synthesis::{synthesize, SynthesisSpec};
use xplace_sched::{run_population, PopulationOptions};
use xplace_telemetry::ExploreMetrics;

/// Population size of the committed bench (`--explore 8`).
pub const EXPLORE_MEMBERS: usize = 8;
/// Generations (culling barriers) of the committed bench.
pub const EXPLORE_GENERATIONS: usize = 4;
/// Survivors per cull in the committed bench.
pub const EXPLORE_KEEP: usize = 4;

/// One exploration bench case: a synthetic design plus the base seed
/// and per-member iteration cap the population runs under.
#[derive(Debug, Clone)]
pub struct ExploreCase {
    /// The design to synthesize.
    pub spec: SynthesisSpec,
    /// Base placement seed (slot 0 runs it unperturbed).
    pub seed: u64,
    /// Per-member GP iteration cap.
    pub max_iterations: usize,
}

/// The case whose [`ExploreMetrics`] is committed in
/// `BENCH_baseline.json` — every quantity it produces is deterministic,
/// so re-measuring it must reproduce the section exactly (up to the
/// gate tolerances).
pub fn committed_case() -> ExploreCase {
    ExploreCase {
        spec: SynthesisSpec::new("explore-a", 320, 340).with_seed(11),
        seed: 0xe8a,
        // High enough that every member *converges* during the final
        // generation (stop_overflow, not the cap, ends the run): HPWL is
        // only comparable between runs at comparable density overflow.
        max_iterations: 800,
    }
}

/// The three-design suite the win condition is checked over. Index 0 is
/// always [`committed_case`].
pub fn suite_cases() -> Vec<ExploreCase> {
    vec![
        committed_case(),
        ExploreCase {
            spec: SynthesisSpec::new("explore-b", 360, 380).with_seed(12),
            seed: 0xe8b,
            max_iterations: 800,
        },
        ExploreCase {
            spec: SynthesisSpec::new("explore-c", 300, 330).with_seed(13),
            seed: 0xe8c,
            max_iterations: 800,
        },
    ]
}

/// Result of one case: the population's lineage metrics next to the
/// budget-matched single-run reference.
#[derive(Debug, Clone)]
pub struct ExploreComparison {
    /// Design name.
    pub name: String,
    /// Single-run final GP HPWL (the quantity the population must beat).
    pub single_hpwl: f64,
    /// Single-run final density overflow.
    pub single_overflow: f64,
    /// Single-run modeled GP cost.
    pub single_modeled_ns: u64,
    /// Whether the single run converged before exhausting its budget.
    pub single_converged: bool,
    /// The population's recorded metrics (winner HPWL, lineage, total
    /// modeled cost).
    pub metrics: ExploreMetrics,
}

impl ExploreComparison {
    /// The win condition: the population winner's GP HPWL is strictly
    /// below the single run's.
    pub fn population_wins(&self) -> bool {
        self.metrics.winner_hpwl < self.single_hpwl
    }

    /// The budget-fairness invariant: the single run either converged on
    /// its own or spent at least the population's total modeled cost.
    pub fn budget_fair(&self) -> bool {
        self.single_converged || self.single_modeled_ns >= self.metrics.total_modeled_ns
    }

    /// The winner's final density overflow (from the last generation's
    /// recorded member entries).
    pub fn winner_overflow(&self) -> f64 {
        let last = self
            .metrics
            .generations
            .last()
            .expect("generations recorded");
        last.members[self.metrics.winner].overflow
    }

    /// The quality-fairness invariant: HPWL is only comparable at
    /// comparable density, so the winner must have spread at least as
    /// far as the single run (up to 5% slack) — a winner that "won" by
    /// stopping early at high overflow does not count.
    pub fn quality_fair(&self) -> bool {
        self.winner_overflow() <= self.single_overflow * 1.05 + 1e-9
    }
}

/// The fewest designs of the suite the population must win on.
pub const MIN_WINS: usize = 2;

/// The suite's verdict: every comparison must be budget-fair and
/// quality-fair, and the population must win on at least [`MIN_WINS`]
/// designs. The error names the offending design(s).
///
/// # Errors
///
/// The first unfair comparison, or too few wins.
pub fn suite_verdict(comparisons: &[ExploreComparison]) -> Result<(), String> {
    for c in comparisons {
        if !c.budget_fair() {
            return Err(format!(
                "{}: single run stopped early without converging \
                 ({} modeled ns < population's {})",
                c.name, c.single_modeled_ns, c.metrics.total_modeled_ns
            ));
        }
        if !c.quality_fair() {
            return Err(format!(
                "{}: winner stopped at overflow {:.3} vs the single run's {:.3} — \
                 its HPWL is not comparable",
                c.name,
                c.winner_overflow(),
                c.single_overflow
            ));
        }
    }
    let lost: Vec<&str> = comparisons
        .iter()
        .filter(|c| !c.population_wins())
        .map(|c| c.name.as_str())
        .collect();
    let wins = comparisons.len() - lost.len();
    if wins < MIN_WINS {
        return Err(format!(
            "the population beat the single run on only {wins}/{} design(s) \
             (needs at least {MIN_WINS}); it lost on {}",
            comparisons.len(),
            lost.join(", ")
        ));
    }
    Ok(())
}

/// Runs one case: the `--explore 8` population and the budget-matched
/// single run, over a pool of `threads` workers (wall-clock only; every
/// reported quantity is thread-count-independent).
///
/// # Errors
///
/// Propagates synthesis and placement failures with case context.
pub fn measure_explore(case: &ExploreCase, threads: usize) -> Result<ExploreComparison, String> {
    let design =
        synthesize(&case.spec).map_err(|e| format!("synthesizing {}: {e}", case.spec.name))?;
    let mut config = XplaceConfig::xplace().with_seed(case.seed);
    config.schedule.max_iterations = case.max_iterations;

    let options = PopulationOptions {
        members: EXPLORE_MEMBERS,
        generations: EXPLORE_GENERATIONS,
        keep: EXPLORE_KEEP,
        threads,
    };
    let outcome = run_population(&design, &config, &options)
        .map_err(|e| format!("population on {}: {e}", case.spec.name))?;
    let metrics = outcome
        .report
        .explore
        .ok_or_else(|| "population report lost its explore section".to_string())?;

    // The single-run reference: one seed, the whole population's
    // iteration budget.
    let mut single_config = config.clone();
    single_config.schedule.max_iterations = case.max_iterations * EXPLORE_MEMBERS;
    let mut single_design = design.clone();
    let single = GlobalPlacer::new(single_config)
        .place(&mut single_design)
        .map_err(|e| format!("single run on {}: {e}", case.spec.name))?;

    Ok(ExploreComparison {
        name: case.spec.name.clone(),
        single_hpwl: single.final_hpwl,
        single_overflow: single.final_overflow,
        single_modeled_ns: single.gp_metrics().modeled_ns,
        single_converged: single.converged,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xplace_telemetry::{ExploreGeneration, ExploreMember};

    #[test]
    fn the_committed_case_heads_the_suite() {
        let committed = committed_case();
        let cases = suite_cases();
        assert_eq!(cases.len(), 3);
        assert_eq!(cases[0].spec.name, committed.spec.name);
        assert_eq!(cases[0].seed, committed.seed);
        // The suite keeps the committed sizes exactly — that is what the
        // baseline section is recorded from.
        assert_eq!(cases[0].spec.num_cells, committed.spec.num_cells);
    }

    /// A comparison whose population winner reaches `winner_hpwl` at
    /// overflow 0.1, against a converged single run at HPWL 100 and
    /// overflow 0.1.
    fn comparison(name: &str, winner_hpwl: f64) -> ExploreComparison {
        let member = ExploreMember {
            member: 0,
            hpwl: winner_hpwl,
            overflow: 0.1,
            score: winner_hpwl,
            culled: false,
            branched_from: None,
            perturbation_seed: None,
        };
        ExploreComparison {
            name: name.into(),
            single_hpwl: 100.0,
            single_overflow: 0.1,
            single_modeled_ns: 1_000,
            single_converged: true,
            metrics: ExploreMetrics {
                members: 1,
                keep: 1,
                generations: vec![ExploreGeneration {
                    generation: 0,
                    iteration: 800,
                    members: vec![member],
                    best: 0,
                }],
                winner: 0,
                winner_lineage: vec![0],
                winner_hpwl,
                total_modeled_ns: 1_000,
            },
        }
    }

    fn suite(winner_hpwls: [f64; 3]) -> Vec<ExploreComparison> {
        ["explore-a", "explore-b", "explore-c"]
            .into_iter()
            .zip(winner_hpwls)
            .map(|(name, hpwl)| comparison(name, hpwl))
            .collect()
    }

    #[test]
    fn a_suite_won_on_every_design_passes() {
        assert_eq!(suite_verdict(&suite([90.0, 95.0, 99.0])), Ok(()));
    }

    #[test]
    fn a_suite_won_on_one_design_fails_naming_the_losses() {
        let err = suite_verdict(&suite([90.0, 100.0, 110.0])).unwrap_err();
        assert!(err.contains("only 1/3"), "{err}");
        assert!(err.contains("explore-b, explore-c"), "{err}");
    }

    #[test]
    fn a_budget_unfair_case_fails_naming_the_design() {
        let mut cases = suite([90.0, 95.0, 99.0]);
        cases[1].single_converged = false;
        cases[1].single_modeled_ns = 999;
        let err = suite_verdict(&cases).unwrap_err();
        assert!(
            err.starts_with("explore-b: single run stopped early"),
            "{err}"
        );
    }

    #[test]
    fn a_quality_unfair_case_fails_naming_the_design() {
        let mut cases = suite([90.0, 95.0, 99.0]);
        cases[2].metrics.generations[0].members[0].overflow = 0.2;
        let err = suite_verdict(&cases).unwrap_err();
        assert!(
            err.starts_with("explore-c: winner stopped at overflow 0.200"),
            "{err}"
        );
    }
}
