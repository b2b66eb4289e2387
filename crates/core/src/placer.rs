//! The global-placement driver: wires the gradient engine, optimizer,
//! scheduler and telemetry sink (the recorder) together (Figure 1 of the
//! paper).

use crate::engine::unit_hash;
use crate::params::{gamma_for, update_period, MIN_ITERATIONS, PLATEAU_WINDOW};
use crate::{
    Checkpoint, CheckpointOptions, DensityGuidance, Framework, GradientEngine, IterationRecord,
    LoopState, NesterovOptimizer, PlaceError, XplaceConfig,
};
use std::time::Instant;
use xplace_db::Design;
use xplace_device::{Device, ProfileSnapshot};
use xplace_ops::{precond, PlacementModel};
use xplace_telemetry::{stage_of, GpMetrics, NullSink, TelemetryEvent, TelemetrySink};

/// Relaxed overflow stop for coarse multilevel levels; the effective
/// coarse target is `max(COARSE_STOP_OVERFLOW, schedule.stop_overflow)`.
const COARSE_STOP_OVERFLOW: f64 = 0.15;

/// Outcome of a global-placement run.
#[derive(Debug)]
pub struct PlacementReport {
    /// Design name.
    pub design: String,
    /// Iterations executed.
    pub iterations: usize,
    /// HPWL at the initial (clustered) state.
    pub initial_hpwl: f64,
    /// HPWL of the final placement (exact, recomputed on the design).
    pub final_hpwl: f64,
    /// Overflow ratio at the initial state.
    pub initial_overflow: f64,
    /// Overflow ratio at the final state.
    pub final_overflow: f64,
    /// Whether the overflow target was reached (vs hitting the iteration
    /// cap or the plateau window).
    pub converged: bool,
    /// Whether the run paused at [`CheckpointOptions::stop_at`] instead
    /// of finishing: the loop state was snapshotted to the store, no
    /// `run_end` was emitted, and the quality fields describe the paused
    /// (not final) state.
    pub paused: bool,
    /// Best overflow seen during the run (the reported placement is the
    /// snapshot at this point when the run did not converge).
    pub best_overflow: f64,
    /// Cumulative modeled-GPU profile of the whole run.
    pub profile: ProfileSnapshot,
    /// Wall-clock CPU time of the run in seconds.
    pub wall_seconds: f64,
}

impl PlacementReport {
    /// Modeled GPU time of the whole run in seconds (the paper's "GP/s"
    /// column, under the device model).
    pub fn modeled_gp_seconds(&self) -> f64 {
        self.profile.modeled_ns() as f64 / 1e9
    }

    /// Mean modeled time per iteration in milliseconds (Table 3's
    /// "GP / Iter Time").
    pub fn modeled_ms_per_iter(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.profile.modeled_ns() as f64 / 1e6 / self.iterations as f64
        }
    }

    /// The telemetry [`GpMetrics`] of this report (the GP block of a
    /// [`xplace_telemetry::RunReport`]).
    pub fn gp_metrics(&self) -> GpMetrics {
        GpMetrics {
            iterations: self.iterations,
            initial_hpwl: self.initial_hpwl,
            final_hpwl: self.final_hpwl,
            initial_overflow: self.initial_overflow,
            final_overflow: self.final_overflow,
            converged: self.converged,
            modeled_ns: self.profile.modeled_ns(),
            launches: self.profile.launches,
            syncs: self.profile.syncs,
            wall_seconds: self.wall_seconds,
        }
    }
}

/// The Xplace global placer.
///
/// See the crate-level example. Construct with a [`XplaceConfig`] preset,
/// optionally install a [`DensityGuidance`], then call
/// [`GlobalPlacer::place`] on a design.
#[derive(Debug)]
pub struct GlobalPlacer {
    config: XplaceConfig,
    guidance: Option<Box<dyn DensityGuidance>>,
}

impl GlobalPlacer {
    /// Creates a placer from a configuration.
    pub fn new(config: XplaceConfig) -> Self {
        GlobalPlacer {
            config,
            guidance: None,
        }
    }

    /// Installs a neural density guidance (the Xplace-NN extension of
    /// §3.3). The guidance is consumed by the next [`GlobalPlacer::place`]
    /// call.
    pub fn with_guidance(mut self, guidance: Box<dyn DensityGuidance>) -> Self {
        self.guidance = Some(guidance);
        self
    }

    /// The configuration.
    pub fn config(&self) -> &XplaceConfig {
        &self.config
    }

    /// Runs global placement, updating the design's movable-cell positions
    /// in place and returning the run report.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError::InvalidConfig`] for inconsistent
    /// configurations, [`PlaceError::Ops`] when the design cannot be
    /// modeled, and [`PlaceError::Diverged`] if the optimization produces
    /// non-finite values.
    pub fn place(&mut self, design: &mut Design) -> Result<PlacementReport, PlaceError> {
        self.place_traced(design, &mut NullSink)
    }

    /// Runs global placement like [`GlobalPlacer::place`], additionally
    /// emitting the telemetry event stream (run header/footer, one
    /// [`xplace_telemetry::IterationRecord`] per iteration with its
    /// modeled-device delta, ω-stage transitions, skip-window flips, λ
    /// updates and rollbacks) into `sink`.
    ///
    /// Event construction is guarded by [`TelemetrySink::enabled`], so
    /// passing a [`NullSink`] costs nothing in the hot loop. Traces carry
    /// no wall-clock quantities: same-seed runs are byte-identical, for
    /// any thread count.
    ///
    /// # Errors
    ///
    /// Same contract as [`GlobalPlacer::place`], plus
    /// [`PlaceError::Coarsening`] when multilevel clustering fails.
    pub fn place_traced(
        &mut self,
        design: &mut Design,
        sink: &mut dyn TelemetrySink,
    ) -> Result<PlacementReport, PlaceError> {
        self.place_traced_opts(design, sink, CheckpointOptions::none())
    }

    /// Runs global placement like [`GlobalPlacer::place_traced`] with
    /// checkpoint/resume control.
    ///
    /// With `ckpt.every > 0` and a store, the full Nesterov loop state is
    /// snapshotted every `every` iterations ([`Checkpoint`]); saving emits
    /// no telemetry, so the trace stays byte-identical to an unmonitored
    /// run. With `ckpt.resume`, the loop restarts from the snapshot and —
    /// this is the determinism contract CI pins — emits a trace whose
    /// post-`run_start` lines are an exact byte suffix of the
    /// uninterrupted run's trace, with a bit-identical final placement,
    /// at any `--threads`. Resume goes straight to the flat loop: the
    /// snapshot already carries post-coarsening positions, so multilevel
    /// coarse levels are not replayed (the coarse iteration/profile
    /// totals are carried inside the snapshot's profile instead).
    ///
    /// # Errors
    ///
    /// Same contract as [`GlobalPlacer::place_traced`], plus
    /// [`PlaceError::Checkpoint`] when a snapshot cannot be saved or a
    /// resume snapshot does not match the design/configuration.
    pub fn place_traced_opts(
        &mut self,
        design: &mut Design,
        sink: &mut dyn TelemetrySink,
        ckpt: CheckpointOptions<'_>,
    ) -> Result<PlacementReport, PlaceError> {
        self.config.validate()?;
        if ckpt.every > 0 && ckpt.store.is_none() {
            return Err(PlaceError::InvalidConfig(
                "checkpoint cadence set but no checkpoint store given".into(),
            ));
        }
        if ckpt.stop_at.is_some() && ckpt.store.is_none() {
            return Err(PlaceError::InvalidConfig(
                "pause iteration set but no checkpoint store given".into(),
            ));
        }
        let ml = self.config.multilevel;
        if ckpt.resume.is_some() {
            self.place_flat(design, sink, ckpt)
        } else if ml.enabled && design.netlist().num_movable() > ml.min_cells {
            self.place_multilevel(design, sink, ckpt)
        } else {
            self.place_flat(design, sink, ckpt)
        }
    }

    /// Multilevel driver: coarsen, place the hierarchy coarsest-first with
    /// the short relaxed schedule, seed each finer level from the coarser
    /// solution ([`crate::seed_from_coarse`]), then run the full configured
    /// schedule on the original netlist — the only traced run, so the
    /// event schema is identical to flat placement. The returned report
    /// covers the whole multilevel run: iterations and the modeled-device
    /// profile accumulate across levels, while the quality fields
    /// (HPWL/overflow) are those of the final full-netlist run.
    fn place_multilevel(
        &mut self,
        design: &mut Design,
        sink: &mut dyn TelemetrySink,
        ckpt: CheckpointOptions<'_>,
    ) -> Result<PlacementReport, PlaceError> {
        let ml = self.config.multilevel;
        let opts = xplace_db::HierarchyOptions {
            min_cells: ml.min_cells,
            max_levels: ml.max_levels,
            ..xplace_db::HierarchyOptions::default()
        };
        let mut levels = xplace_db::build_hierarchy(design, &opts)
            .map_err(|e| PlaceError::Coarsening(e.to_string()))?;

        let mut coarse_iterations = 0usize;
        let mut coarse_profile = ProfileSnapshot::default();
        for li in (0..levels.len()).rev() {
            let mut cfg = self.config.clone();
            cfg.multilevel.enabled = false;
            cfg.fault = xplace_fault::GpFault::NONE;
            cfg.schedule.max_iterations = ml.coarse_max_iterations;
            cfg.schedule.stop_overflow =
                COARSE_STOP_OVERFLOW.max(self.config.schedule.stop_overflow);
            let report = GlobalPlacer::new(cfg).place_flat(
                &mut levels[li].design,
                &mut NullSink,
                CheckpointOptions::none(),
            )?;
            coarse_iterations += report.iterations;
            coarse_profile += report.profile;

            if li == 0 {
                let level = &levels[0];
                crate::seed_from_coarse(design, &level.design, &level.map, self.config.seed);
            } else {
                let (finer, coarser) = levels.split_at_mut(li);
                crate::seed_from_coarse(
                    &mut finer[li - 1].design,
                    &coarser[0].design,
                    &coarser[0].map,
                    self.config.seed,
                );
            }
        }

        let mut report = self.place_flat(design, sink, ckpt)?;
        report.iterations += coarse_iterations;
        report.profile += coarse_profile;
        Ok(report)
    }

    /// Single-level global placement. The caller has validated the
    /// configuration.
    fn place_flat(
        &mut self,
        design: &mut Design,
        sink: &mut dyn TelemetrySink,
        ckpt: CheckpointOptions<'_>,
    ) -> Result<PlacementReport, PlaceError> {
        if let Some(cp) = ckpt.resume {
            cp.validate(design, &self.config)?;
        }
        let tracing = sink.enabled();
        if tracing {
            sink.emit(&TelemetryEvent::RunStart {
                design: design.name().to_string(),
                cells: design.netlist().num_cells(),
                nets: design.netlist().num_nets(),
                movable: design.netlist().num_movable(),
                config: self.config.echo(),
            });
        }
        let start = Instant::now();
        let device = Device::new(self.config.device);
        let mut model =
            PlacementModel::from_design_with(design, self.config.grid, true, self.config.seed)?;
        model.clamp_to_region();

        // Symmetry breaking (DREAMPlace adds init noise for the same
        // reason): cells at exactly coincident positions receive identical
        // gradients and would move in lockstep forever. A deterministic,
        // sub-bin jitter separates them without perturbing real starts.
        // A resumed run skips it: the snapshot positions overwrite the
        // fresh model below.
        if ckpt.resume.is_none() {
            let bin = 0.5 * (model.bin_w() + model.bin_h());
            // Degenerate inputs (everything in a couple of bins) need a
            // jitter large enough that cells land in *different* bins and
            // see different field samples; healthy inputs only need noise.
            let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
            let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
            for i in 0..model.num_movable() {
                min_x = min_x.min(model.x[i]);
                max_x = max_x.max(model.x[i]);
                min_y = min_y.min(model.y[i]);
                max_y = max_y.max(model.y[i]);
            }
            let spread = (max_x - min_x).max(max_y - min_y);
            let amp = if spread < 4.0 * bin {
                4.0 * bin
            } else {
                0.02 * bin
            };
            for i in 0..model.num_movable() {
                model.x[i] += amp * unit_hash(i, self.config.seed);
                model.y[i] += amp * unit_hash(i, self.config.seed ^ 0xabcd);
            }
            model.clamp_to_region();
            model.clamp_to_fences();
        }

        let mut engine = GradientEngine::new(self.config.framework, self.config.operators, &model)?;
        engine.set_threads(self.config.threads);
        if let Some(g) = self.guidance.take() {
            engine.set_guidance(g);
        }

        let schedule = self.config.schedule;
        let bin_size = 0.5 * (model.bin_w() + model.bin_h());
        let fused_optimizer =
            self.config.framework == Framework::Xplace && self.config.operators.reduction;

        // The loop's cross-iteration values, fresh or from the snapshot.
        // A resumed run also starts at the snapshot's iteration and adds
        // the modeled profile the interrupted run had already accumulated
        // (this run's device starts from zero).
        let (mut state, start_iter, profile_base) = match ckpt.resume {
            Some(cp) => {
                cp.check_shape(&model)?;
                model.x.copy_from_slice(&cp.x);
                model.y.copy_from_slice(&cp.y);
                engine.restore_state(&cp.engine)?;
                (cp.state.clone(), cp.iteration, cp.profile)
            }
            None => (LoopState::new(bin_size), 0, ProfileSnapshot::default()),
        };
        let mut converged = false;
        let mut iterations = start_iter;
        let mut paused = false;

        for iter in start_iter..schedule.max_iterations {
            let pause_here = ckpt.stop_at == Some(iter);
            let cadence_save =
                ckpt.every > 0 && iter > start_iter && iter.is_multiple_of(ckpt.every);
            if pause_here || cadence_save {
                if let Some(store) = ckpt.store {
                    let mut profile = profile_base;
                    profile += device.profile();
                    let snapshot = Checkpoint {
                        design: design.name().to_string(),
                        cells: design.netlist().num_cells(),
                        movable: design.netlist().num_movable(),
                        config: self.config.echo(),
                        iteration: iter,
                        x: model.x.clone(),
                        y: model.y.clone(),
                        state: state.clone(),
                        engine: engine.state(),
                        profile,
                    };
                    store.save(snapshot).map_err(|e| {
                        PlaceError::Checkpoint(format!("save at iteration {iter}: {e}"))
                    })?;
                }
            }
            if pause_here {
                // Generation barrier: the snapshot above carries the whole
                // loop state; stop without rollback or `run_end` so a
                // resume continues the trace byte-identically.
                paused = true;
                break;
            }
            if self.config.fault.panic_at == Some(iter) {
                // Injected fault (resolved from a fault plan): simulates a
                // design crashing mid-GP so failure-isolation and retry
                // paths can be exercised.
                panic!("injected failure at GP iteration {iter}");
            }
            let (eval, prof) = {
                let (res, prof) =
                    device.scoped(|| engine.evaluate(&device, &model, &state.params, state.omega));
                (res?, prof)
            };
            if iter == 0 {
                state.initial_hpwl = eval.hpwl;
                state.initial_overflow = eval.overflow;
                state
                    .params
                    .initialize_lambda(eval.wl_grad_l1, eval.density_grad_l1);
                // γ starts from the observed overflow.
                state.params.update(bin_size, eval.overflow, eval.hpwl);
            }
            if tracing {
                sink.emit(&TelemetryEvent::Iteration {
                    record: IterationRecord {
                        iteration: iter,
                        hpwl: eval.hpwl,
                        wa: eval.wa,
                        overflow: eval.overflow,
                        lambda: state.params.lambda,
                        gamma: state.params.gamma,
                        omega: state.omega,
                        r_ratio: eval.r_ratio,
                        density_skipped: eval.density_skipped,
                        modeled_ns: prof.modeled_ns(),
                        launches: prof.launches,
                    },
                    profile: prof.into(),
                });
                if iter == 0 {
                    // The λ initialization + first scheduler update above.
                    sink.emit(&TelemetryEvent::LambdaUpdate {
                        iteration: iter,
                        lambda: state.params.lambda,
                        gamma: state.params.gamma,
                    });
                }
                if eval.skip_window != state.skip_window_open {
                    state.skip_window_open = eval.skip_window;
                    sink.emit(&TelemetryEvent::SkipWindow {
                        iteration: iter,
                        active: state.skip_window_open,
                    });
                }
            }
            iterations = iter + 1;
            state.last_eval = Some(eval);

            if eval.overflow < schedule.stop_overflow && iter >= MIN_ITERATIONS {
                converged = true;
                break;
            }
            // The plateau guard only applies once spreading is underway
            // (early WL-dominated iterations legitimately re-compact the
            // cells and raise overflow).
            if state.best_overflow < 0.5 && iter.saturating_sub(state.best_iter) > PLATEAU_WINDOW {
                break; // no overflow progress in a long time: roll back
            }

            // Gradient step at the reference solution.
            let opt = match state.optimizer.as_mut() {
                Some(o) => o,
                None => {
                    let (gx, gy) = engine.grads();
                    let mut max_g: f64 = 0.0;
                    for i in model.optimizable_indices() {
                        max_g = max_g.max(gx[i].abs()).max(gy[i].abs());
                    }
                    let step0 = if max_g > 0.0 {
                        0.5 * bin_size / max_g
                    } else {
                        1.0
                    };
                    state
                        .optimizer
                        .insert(NesterovOptimizer::new(&model, step0, 5.0 * bin_size))
                }
            };
            let (gx, gy) = engine.grads();
            opt.step(&device, &mut model, gx, gy, fused_optimizer);
            model.clamp_to_fences();
            if eval.overflow < state.best_overflow {
                state.best_overflow = eval.overflow;
                state.best_iter = iter;
                state.best_u = Some((opt.u_x.clone(), opt.u_y.clone()));
            }

            // Scheduler (Algorithm 1): stage-aware parameter cadence.
            state.omega = precond::omega(&model, state.params.lambda);
            if tracing {
                let stage = stage_of(state.omega);
                if stage != state.stage {
                    sink.emit(&TelemetryEvent::StageTransition {
                        iteration: iter,
                        from: state.stage,
                        to: stage,
                        omega: state.omega,
                    });
                    state.stage = stage;
                }
            }
            let period = update_period(schedule.stage_aware, state.omega);
            state.params.advance();
            if state.params.iteration.is_multiple_of(period) {
                state.params.update(bin_size, eval.overflow, eval.hpwl);
                if tracing {
                    sink.emit(&TelemetryEvent::LambdaUpdate {
                        iteration: iter,
                        lambda: state.params.lambda,
                        gamma: state.params.gamma,
                    });
                }
            } else {
                // γ still tracks overflow even when λ is frozen.
                state.params.gamma = gamma_for(bin_size, eval.overflow);
            }
        }

        if let Some(opt) = state.optimizer.as_mut() {
            // If the run ended worse than its best point, restore the
            // snapshot instead of the final oscillating state.
            let final_overflow = state.last_eval.map_or(1.0, |e| e.overflow);
            if !paused && !converged && final_overflow > state.best_overflow {
                if let Some((ux, uy)) = &state.best_u {
                    opt.u_x.clone_from(ux);
                    opt.u_y.clone_from(uy);
                    if tracing {
                        sink.emit(&TelemetryEvent::Rollback {
                            iteration: iterations.saturating_sub(1),
                            best_iteration: state.best_iter,
                            best_overflow: state.best_overflow,
                        });
                    }
                }
            }
            opt.write_u(&mut model);
            model.clamp_to_fences();
        }
        model.apply_to(design);
        let final_hpwl = design.total_hpwl();
        let final_overflow = state
            .last_eval
            .map(|e| e.overflow)
            .unwrap_or(1.0)
            .min(state.best_overflow);

        // Whole-run profile: what this process ran plus whatever the
        // interrupted run had accumulated before the resume point — so a
        // resumed run's `run_end` totals match the uninterrupted run's.
        let mut total_profile = profile_base;
        total_profile += device.profile();

        if tracing && !paused {
            sink.emit(&TelemetryEvent::RunEnd {
                iterations,
                converged,
                final_hpwl,
                final_overflow,
                best_overflow: if state.best_overflow.is_finite() {
                    state.best_overflow
                } else {
                    final_overflow
                },
                modeled_ns: total_profile.modeled_ns(),
                launches: total_profile.launches,
            });
        }

        Ok(PlacementReport {
            design: design.name().to_string(),
            iterations,
            initial_hpwl: state.initial_hpwl,
            final_hpwl,
            initial_overflow: state.initial_overflow,
            final_overflow,
            converged,
            paused,
            best_overflow: state.best_overflow,
            profile: total_profile,
            wall_seconds: start.elapsed().as_secs_f64(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xplace_db::synthesis::{synthesize, SynthesisSpec};

    fn small_design(seed: u64) -> Design {
        synthesize(&SynthesisSpec::new("gp", 400, 420).with_seed(seed)).unwrap()
    }

    #[test]
    fn xplace_spreads_cells_and_reduces_overflow() {
        let mut design = small_design(7);
        let mut cfg = XplaceConfig::xplace();
        cfg.schedule.max_iterations = 700;
        let report = GlobalPlacer::new(cfg).place(&mut design).unwrap();
        assert!(
            report.final_overflow < 0.25,
            "overflow {}",
            report.final_overflow
        );
        assert!(
            report.final_overflow < report.initial_overflow * 0.5,
            "overflow {} -> {}",
            report.initial_overflow,
            report.final_overflow
        );
        assert!(report.final_hpwl.is_finite() && report.final_hpwl > 0.0);
        // The cells must actually have left the center cluster.
        let r = design.region();
        let nl = design.netlist();
        let spread = nl
            .cell_ids()
            .filter(|&c| nl.cell(c).is_movable())
            .filter(|&c| {
                let p = design.position(c);
                (p.x - r.center().x).abs() > r.width() * 0.1
                    || (p.y - r.center().y).abs() > r.height() * 0.1
            })
            .count();
        assert!(spread > 100, "only {spread} cells left the center");
    }

    #[test]
    fn placement_is_deterministic() {
        let mut d1 = small_design(9);
        let mut d2 = small_design(9);
        let mut cfg = XplaceConfig::xplace();
        cfg.schedule.max_iterations = 120;
        let r1 = GlobalPlacer::new(cfg.clone()).place(&mut d1).unwrap();
        let r2 = GlobalPlacer::new(cfg).place(&mut d2).unwrap();
        assert_eq!(r1.iterations, r2.iterations);
        assert_eq!(r1.final_hpwl, r2.final_hpwl);
        assert_eq!(d1.positions(), d2.positions());
    }

    #[test]
    fn baseline_and_xplace_reach_similar_quality() {
        let mut cfg_x = XplaceConfig::xplace();
        cfg_x.schedule.max_iterations = 700;
        let mut cfg_d = XplaceConfig::dreamplace_like();
        cfg_d.schedule.max_iterations = 700;
        let mut dx = small_design(11);
        let mut dd = small_design(11);
        let rx = GlobalPlacer::new(cfg_x).place(&mut dx).unwrap();
        let rd = GlobalPlacer::new(cfg_d).place(&mut dd).unwrap();
        let ratio = rx.final_hpwl / rd.final_hpwl;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "HPWL ratio {ratio}: xplace {} vs baseline {}",
            rx.final_hpwl,
            rd.final_hpwl
        );
        // Xplace must be faster per modeled iteration.
        assert!(
            rx.modeled_ms_per_iter() < rd.modeled_ms_per_iter(),
            "xplace {} ms vs baseline {} ms",
            rx.modeled_ms_per_iter(),
            rd.modeled_ms_per_iter()
        );
    }

    #[test]
    fn sink_iterations_capture_every_iteration() {
        let mut cfg = XplaceConfig::xplace();
        cfg.schedule.max_iterations = 50;
        let mut sink = xplace_telemetry::VecSink::new();
        let report = GlobalPlacer::new(cfg)
            .place_traced(&mut small_design(13), &mut sink)
            .unwrap();
        let records = sink.iterations();
        assert_eq!(records.len(), report.iterations);
        // r starts ultra-small (§3.1.4 observation).
        let early_r = records[1].r_ratio;
        assert!(early_r < 0.01, "early r = {early_r}");
        // Early iterations skip density under full optimization.
        assert!(records.iter().take(20).any(|r| r.density_skipped));
    }

    #[test]
    fn invalid_config_is_rejected_before_work() {
        let mut design = small_design(17);
        let mut cfg = XplaceConfig::xplace();
        cfg.schedule.max_iterations = 0;
        let err = GlobalPlacer::new(cfg).place(&mut design).unwrap_err();
        assert!(matches!(err, PlaceError::InvalidConfig(_)));
    }

    #[test]
    fn plateau_rollback_reports_the_best_solution() {
        // An unreachable overflow target: the plateau window stops the run
        // before the iteration cap and it must roll back to its best
        // snapshot.
        let mut design = small_design(21);
        let mut cfg = XplaceConfig::xplace();
        cfg.schedule.max_iterations = 1000;
        cfg.schedule.stop_overflow = 1e-6;
        let report = GlobalPlacer::new(cfg).place(&mut design).unwrap();
        assert!(!report.converged);
        assert!(report.iterations < 1000, "{}", report.iterations);
        // The reported overflow is the best seen, not the last (possibly
        // worse) state.
        assert!(report.final_overflow <= report.best_overflow + 1e-12);
        assert!(report.final_hpwl.is_finite());
        // The design's positions are the rolled-back snapshot: finite and
        // inside the region.
        let r = design.region();
        for p in design.positions() {
            assert!(p.x.is_finite() && p.y.is_finite());
            assert!(p.x >= r.lx - 1e-6 && p.x <= r.ux + 1e-6);
        }
    }

    #[test]
    fn best_overflow_never_exceeds_final_overflow_on_converged_runs() {
        let mut design = small_design(23);
        let mut cfg = XplaceConfig::xplace();
        cfg.schedule.max_iterations = 900;
        let report = GlobalPlacer::new(cfg).place(&mut design).unwrap();
        assert!(report.converged);
        assert!(report.best_overflow >= report.final_overflow - 0.05);
    }

    #[test]
    fn traced_run_emits_a_well_formed_event_stream() {
        use xplace_telemetry::VecSink;

        let mut design = small_design(27);
        let mut cfg = XplaceConfig::xplace();
        cfg.schedule.max_iterations = 120;
        let mut sink = VecSink::new();
        let report = GlobalPlacer::new(cfg)
            .place_traced(&mut design, &mut sink)
            .unwrap();

        let events = sink.events();
        assert!(matches!(
            events.first(),
            Some(TelemetryEvent::RunStart { .. })
        ));
        assert!(matches!(events.last(), Some(TelemetryEvent::RunEnd { .. })));

        // One iteration event per placer iteration, numbered contiguously.
        let iters: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                TelemetryEvent::Iteration { record, .. } => Some(record.iteration),
                _ => None,
            })
            .collect();
        assert_eq!(iters.len(), report.iterations);
        assert!(iters.iter().enumerate().all(|(i, &it)| i == it));

        // The skip window opens at least once under full optimization, and
        // λ is logged at initialization.
        assert!(events
            .iter()
            .any(|e| matches!(e, TelemetryEvent::SkipWindow { active: true, .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, TelemetryEvent::LambdaUpdate { iteration: 0, .. })));

        // The end marker agrees with the report.
        if let Some(TelemetryEvent::RunEnd {
            iterations,
            final_hpwl,
            ..
        }) = events.last()
        {
            assert_eq!(*iterations, report.iterations);
            assert_eq!(*final_hpwl, report.final_hpwl);
        }
    }

    #[test]
    fn traces_are_byte_identical_across_runs_and_thread_counts() {
        let mut cfg = XplaceConfig::xplace();
        cfg.schedule.max_iterations = 90;

        let trace_with = |threads: usize| {
            let mut design = small_design(29);
            let mut sink = xplace_telemetry::VecSink::new();
            GlobalPlacer::new(cfg.clone().with_threads(threads))
                .place_traced(&mut design, &mut sink)
                .unwrap();
            sink.to_jsonl()
        };

        let a = trace_with(1);
        let b = trace_with(1);
        assert_eq!(a, b, "same-seed traces differ");
        let c = trace_with(4);
        assert_eq!(a, c, "threads=4 trace differs from threads=1");
    }

    #[test]
    fn gp_panic_fault_fires_at_the_requested_iteration() {
        let mut design = small_design(31);
        let mut cfg = XplaceConfig::xplace();
        cfg.schedule.max_iterations = 50;
        cfg.fault.panic_at = Some(5);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            GlobalPlacer::new(cfg).place(&mut design)
        }))
        .unwrap_err();
        let msg = xplace_parallel::panic_message(err.as_ref());
        assert!(
            msg.contains("injected failure at GP iteration 5"),
            "unexpected panic message: {msg}"
        );
    }

    fn multilevel_cfg(max_final_iters: usize) -> XplaceConfig {
        let mut cfg = XplaceConfig::xplace();
        cfg.multilevel.enabled = true;
        cfg.multilevel.min_cells = 300;
        cfg.multilevel.coarse_max_iterations = 60;
        cfg.schedule.max_iterations = max_final_iters;
        cfg
    }

    #[test]
    fn multilevel_places_a_design_end_to_end() {
        let mut design = synthesize(&SynthesisSpec::new("ml", 1500, 1600).with_seed(41)).unwrap();
        let report = GlobalPlacer::new(multilevel_cfg(400))
            .place(&mut design)
            .unwrap();
        assert!(report.final_hpwl.is_finite() && report.final_hpwl > 0.0);
        assert!(
            report.final_overflow < 0.35,
            "overflow {}",
            report.final_overflow
        );
        // The reported iterations include the coarse levels, so they
        // exceed the final-level cap only when coarse work happened; at
        // minimum they exceed the flat minimum.
        assert!(report.iterations > 0);
        // All cells inside the region.
        let r = design.region();
        for p in design.positions() {
            assert!(p.x.is_finite() && p.y.is_finite());
            assert!(p.x >= r.lx - 1e-6 && p.x <= r.ux + 1e-6);
            assert!(p.y >= r.ly - 1e-6 && p.y <= r.uy + 1e-6);
        }
    }

    #[test]
    fn multilevel_traces_are_byte_identical_across_thread_counts() {
        let trace_with = |threads: usize| {
            let mut design =
                synthesize(&SynthesisSpec::new("ml", 1200, 1300).with_seed(43)).unwrap();
            let mut sink = xplace_telemetry::VecSink::new();
            GlobalPlacer::new(multilevel_cfg(80).with_threads(threads))
                .place_traced(&mut design, &mut sink)
                .unwrap();
            (sink.to_jsonl(), design.positions().to_vec())
        };
        let (t1, p1) = trace_with(1);
        let (t4, p4) = trace_with(4);
        assert_eq!(t1, t4, "multilevel trace differs across thread counts");
        assert_eq!(p1, p4, "multilevel positions differ across thread counts");
        // The trace records that multilevel ran, with the flat event schema.
        assert!(t1.contains("\"multilevel\":true"));
    }

    #[test]
    fn small_designs_place_flat_even_when_multilevel_is_enabled() {
        // Below the hierarchy floor the multilevel path must not perturb
        // results at all.
        let run = |enabled: bool| {
            let mut design = small_design(47);
            let mut cfg = XplaceConfig::xplace();
            cfg.schedule.max_iterations = 90;
            cfg.multilevel.enabled = enabled; // min_cells default 5000 > 400
            GlobalPlacer::new(cfg).place(&mut design).unwrap();
            design.positions().to_vec()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn checkpointing_does_not_perturb_the_trace() {
        use crate::MemoryCheckpointStore;
        let run = |every: usize| {
            let mut design = small_design(51);
            let mut cfg = XplaceConfig::xplace();
            cfg.schedule.max_iterations = 80;
            let store = MemoryCheckpointStore::new();
            let mut sink = xplace_telemetry::VecSink::new();
            GlobalPlacer::new(cfg)
                .place_traced_opts(
                    &mut design,
                    &mut sink,
                    CheckpointOptions {
                        every,
                        store: if every > 0 { Some(&store) } else { None },
                        resume: None,
                        stop_at: None,
                    },
                )
                .unwrap();
            (sink.to_jsonl(), store.saves())
        };
        let (plain, saves0) = run(0);
        let (monitored, saves25) = run(25);
        assert_eq!(saves0, 0);
        assert!(saves25 >= 2, "expected saves at 25/50/75, got {saves25}");
        assert_eq!(plain, monitored, "checkpoint saves perturbed the trace");
    }

    #[test]
    fn a_failing_checkpoint_store_fails_the_run_naming_the_iteration() {
        struct FullDisk;
        impl crate::CheckpointStore for FullDisk {
            fn save(&self, _: Checkpoint) -> std::io::Result<()> {
                Err(std::io::Error::other("disk full"))
            }
        }
        let mut design = small_design(51);
        let mut cfg = XplaceConfig::xplace();
        cfg.schedule.max_iterations = 80;
        let err = GlobalPlacer::new(cfg)
            .place_traced_opts(
                &mut design,
                &mut xplace_telemetry::VecSink::new(),
                CheckpointOptions {
                    every: 25,
                    store: Some(&FullDisk),
                    ..CheckpointOptions::none()
                },
            )
            .unwrap_err();
        match err {
            PlaceError::Checkpoint(msg) => {
                assert_eq!(msg, "save at iteration 25: disk full")
            }
            other => panic!("expected a checkpoint error, got {other}"),
        }
    }

    /// The resume determinism contract: a run killed at iteration N and
    /// resumed from its last checkpoint emits a trace whose
    /// post-`run_start` lines are an exact byte suffix of the
    /// uninterrupted run's trace, and lands on a bit-identical placement.
    fn assert_resume_suffix(threads: usize) {
        use crate::MemoryCheckpointStore;
        let mut cfg = XplaceConfig::xplace().with_threads(threads);
        cfg.schedule.max_iterations = 90;

        // Uninterrupted run, checkpointing every 20 iterations.
        let store = MemoryCheckpointStore::new();
        let mut full_design = small_design(53);
        let mut full_sink = xplace_telemetry::VecSink::new();
        let full_report = GlobalPlacer::new(cfg.clone())
            .place_traced_opts(
                &mut full_design,
                &mut full_sink,
                CheckpointOptions {
                    every: 20,
                    store: Some(&store),
                    resume: None,
                    stop_at: None,
                },
            )
            .unwrap();
        let full_trace = full_sink.to_jsonl();
        let (at, checkpoint) = store.latest().unwrap().unwrap();
        assert!(at >= 40, "expected a late checkpoint, got {at}");

        // Resume from the snapshot ("the machine died" — the design is
        // reloaded from scratch, positions come from the checkpoint).
        let mut resumed_design = small_design(53);
        let mut resumed_sink = xplace_telemetry::VecSink::new();
        let resumed_report = GlobalPlacer::new(cfg)
            .place_traced_opts(
                &mut resumed_design,
                &mut resumed_sink,
                CheckpointOptions {
                    every: 0,
                    store: None,
                    resume: Some(&checkpoint),
                    stop_at: None,
                },
            )
            .unwrap();
        let resumed_trace = resumed_sink.to_jsonl();

        // The resumed trace re-emits run_start, then replays the tail.
        let resumed_lines: Vec<&str> = resumed_trace.lines().collect();
        let full_lines: Vec<&str> = full_trace.lines().collect();
        assert!(resumed_lines[0].contains("run_start"));
        assert_eq!(resumed_lines[0], full_lines[0], "run_start differs");
        let tail = &resumed_lines[1..];
        assert!(
            tail.len() < full_lines.len(),
            "resume replayed the whole run"
        );
        assert_eq!(
            &full_lines[full_lines.len() - tail.len()..],
            tail,
            "resumed trace is not a byte suffix of the full trace"
        );
        assert_eq!(
            full_report.final_hpwl.to_bits(),
            resumed_report.final_hpwl.to_bits()
        );
        assert_eq!(full_design.positions(), resumed_design.positions());
    }

    #[test]
    fn resume_replays_a_byte_identical_trace_suffix_single_threaded() {
        assert_resume_suffix(1);
    }

    #[test]
    fn resume_replays_a_byte_identical_trace_suffix_multi_threaded() {
        assert_resume_suffix(4);
    }

    #[test]
    fn resume_rejects_a_mismatched_design_or_config() {
        use crate::MemoryCheckpointStore;
        let mut cfg = XplaceConfig::xplace();
        cfg.schedule.max_iterations = 40;
        let store = MemoryCheckpointStore::new();
        let mut design = small_design(57);
        GlobalPlacer::new(cfg.clone())
            .place_traced_opts(
                &mut design,
                &mut NullSink,
                CheckpointOptions {
                    every: 10,
                    store: Some(&store),
                    resume: None,
                    stop_at: None,
                },
            )
            .unwrap();
        let (_, checkpoint) = store.latest().unwrap().unwrap();

        // Different seed => different config echo => refused.
        let mut other = small_design(57);
        let err = GlobalPlacer::new(cfg.clone().with_seed(4242))
            .place_traced_opts(
                &mut other,
                &mut NullSink,
                CheckpointOptions {
                    every: 0,
                    store: None,
                    resume: Some(&checkpoint),
                    stop_at: None,
                },
            )
            .unwrap_err();
        assert!(matches!(err, PlaceError::Checkpoint(_)), "{err}");

        // Different design => refused.
        let mut other = synthesize(&SynthesisSpec::new("other", 300, 320).with_seed(5)).unwrap();
        let err = GlobalPlacer::new(cfg)
            .place_traced_opts(
                &mut other,
                &mut NullSink,
                CheckpointOptions {
                    every: 0,
                    store: None,
                    resume: Some(&checkpoint),
                    stop_at: None,
                },
            )
            .unwrap_err();
        assert!(matches!(err, PlaceError::Checkpoint(_)), "{err}");
    }

    /// Resume checks every snapshot vector against the model before the
    /// loop runs: a short `x`, optimizer `u_x` or `best_u` half is a
    /// checkpoint error that names the field, not a panic. The short
    /// `best_u` comes with `best_overflow = 0`, so the rollback would
    /// fire on it.
    #[test]
    fn resume_rejects_a_snapshot_of_the_wrong_shape() {
        use crate::MemoryCheckpointStore;
        let mut cfg = XplaceConfig::xplace();
        cfg.schedule.max_iterations = 60;
        let store = MemoryCheckpointStore::new();
        GlobalPlacer::new(cfg.clone())
            .place_traced_opts(
                &mut small_design(71),
                &mut NullSink,
                CheckpointOptions {
                    store: Some(&store),
                    stop_at: Some(40),
                    ..CheckpointOptions::none()
                },
            )
            .unwrap();
        let (_, snapshot) = store.latest().unwrap().unwrap();
        assert!(snapshot.state.optimizer.is_some() && snapshot.state.best_u.is_some());

        let mut short_x = snapshot.clone();
        short_x.x.pop();
        let mut short_u = snapshot.clone();
        short_u.state.optimizer.as_mut().unwrap().u_x.pop();
        let mut short_best = snapshot;
        short_best.state.best_u.as_mut().unwrap().0.pop();
        short_best.state.best_overflow = 0.0;
        for (field, cp) in [("x", short_x), ("u_x", short_u), ("best_u_x", short_best)] {
            let err = GlobalPlacer::new(cfg.clone())
                .place_traced_opts(
                    &mut small_design(71),
                    &mut NullSink,
                    CheckpointOptions {
                        resume: Some(&cp),
                        ..CheckpointOptions::none()
                    },
                )
                .unwrap_err();
            match err {
                PlaceError::Checkpoint(msg) => assert!(
                    msg.starts_with(&format!("checkpoint {field} has ")),
                    "{field}: {msg}"
                ),
                other => panic!("{field}: expected a checkpoint error, got {other}"),
            }
        }
    }

    #[test]
    fn checkpoint_cadence_without_a_store_is_rejected() {
        let mut design = small_design(59);
        let err = GlobalPlacer::new(XplaceConfig::xplace())
            .place_traced_opts(
                &mut design,
                &mut NullSink,
                CheckpointOptions {
                    every: 10,
                    store: None,
                    resume: None,
                    stop_at: None,
                },
            )
            .unwrap_err();
        assert!(matches!(err, PlaceError::InvalidConfig(_)));
    }

    /// The pause contract behind the exploration layer's generation
    /// barriers: a run stopped at iteration N via `stop_at`, then resumed
    /// from the pause snapshot, replays the identical remainder — so the
    /// paused segment's trace plus the resumed trace (minus its repeated
    /// `run_start`) are byte-for-byte the uninterrupted run's trace, and
    /// the final placement is bit-identical.
    #[test]
    fn pause_and_resume_stitch_into_the_uninterrupted_trace() {
        use crate::MemoryCheckpointStore;
        let mut cfg = XplaceConfig::xplace();
        cfg.schedule.max_iterations = 90;

        let mut full_design = small_design(61);
        let mut full_sink = xplace_telemetry::VecSink::new();
        let full_report = GlobalPlacer::new(cfg.clone())
            .place_traced(&mut full_design, &mut full_sink)
            .unwrap();
        let full_trace = full_sink.to_jsonl();

        let store = MemoryCheckpointStore::new();
        let mut paused_design = small_design(61);
        let mut paused_sink = xplace_telemetry::VecSink::new();
        let paused_report = GlobalPlacer::new(cfg.clone())
            .place_traced_opts(
                &mut paused_design,
                &mut paused_sink,
                CheckpointOptions {
                    every: 0,
                    store: Some(&store),
                    resume: None,
                    stop_at: Some(40),
                },
            )
            .unwrap();
        assert!(paused_report.paused);
        assert_eq!(paused_report.iterations, 40);
        let (at, checkpoint) = store.latest().unwrap().unwrap();
        assert_eq!(at, 40);

        let mut resumed_design = small_design(61);
        let mut resumed_sink = xplace_telemetry::VecSink::new();
        let resumed_report = GlobalPlacer::new(cfg)
            .place_traced_opts(
                &mut resumed_design,
                &mut resumed_sink,
                CheckpointOptions {
                    every: 0,
                    store: None,
                    resume: Some(&checkpoint),
                    stop_at: None,
                },
            )
            .unwrap();
        assert!(!resumed_report.paused);

        // Stitch: paused segment + resumed segment without its run_start.
        let resumed_trace = resumed_sink.to_jsonl();
        let resumed_lines: Vec<&str> = resumed_trace.lines().collect();
        assert!(resumed_lines[0].contains("run_start"));
        let mut stitched: Vec<String> = paused_sink
            .to_jsonl()
            .lines()
            .map(|l| l.to_string())
            .collect();
        stitched.extend(resumed_lines[1..].iter().map(|l| l.to_string()));
        let full_lines: Vec<String> = full_trace.lines().map(|l| l.to_string()).collect();
        assert_eq!(
            stitched, full_lines,
            "stitched trace differs from the uninterrupted run"
        );
        assert_eq!(
            full_report.final_hpwl.to_bits(),
            resumed_report.final_hpwl.to_bits()
        );
        assert_eq!(full_design.positions(), resumed_design.positions());
    }

    #[test]
    fn pause_without_a_store_is_rejected() {
        let mut design = small_design(63);
        let err = GlobalPlacer::new(XplaceConfig::xplace())
            .place_traced_opts(
                &mut design,
                &mut NullSink,
                CheckpointOptions {
                    every: 0,
                    store: None,
                    resume: None,
                    stop_at: Some(10),
                },
            )
            .unwrap_err();
        assert!(matches!(err, PlaceError::InvalidConfig(_)));
    }

    /// Branch determinism: two members branched from the same snapshot
    /// with the same perturbation seed replay byte-identical traces, and
    /// a different seed diverges.
    #[test]
    fn same_perturbation_seed_branches_byte_identically() {
        use crate::{MemoryCheckpointStore, Perturbation};
        let mut cfg = XplaceConfig::xplace();
        cfg.schedule.max_iterations = 80;

        let store = MemoryCheckpointStore::new();
        let mut design = small_design(67);
        GlobalPlacer::new(cfg.clone())
            .place_traced_opts(
                &mut design,
                &mut NullSink,
                CheckpointOptions {
                    every: 0,
                    store: Some(&store),
                    resume: None,
                    stop_at: Some(30),
                },
            )
            .unwrap();
        let (_, snapshot) = store.latest().unwrap().unwrap();

        let branch_trace = |seed: u64| {
            let mut cp = snapshot.branch_for(&cfg);
            cp.perturb(&Perturbation::with_seed(seed));
            let mut d = small_design(67);
            let mut sink = xplace_telemetry::VecSink::new();
            GlobalPlacer::new(cfg.clone())
                .place_traced_opts(
                    &mut d,
                    &mut sink,
                    CheckpointOptions {
                        every: 0,
                        store: None,
                        resume: Some(&cp),
                        stop_at: None,
                    },
                )
                .unwrap();
            sink.to_jsonl()
        };
        let a = branch_trace(77);
        let b = branch_trace(77);
        assert_eq!(a, b, "same perturbation seed produced different traces");
        let c = branch_trace(78);
        assert_ne!(a, c, "different perturbation seeds did not diversify");
    }

    #[test]
    fn hpwl_grows_from_cluster_but_stays_reasonable() {
        // Spreading necessarily increases HPWL from the degenerate
        // all-at-center start; it must not explode.
        let mut design = small_design(19);
        let mut cfg = XplaceConfig::xplace();
        cfg.schedule.max_iterations = 700;
        let report = GlobalPlacer::new(cfg).place(&mut design).unwrap();
        let region_half_perimeter = design.region().width() + design.region().height();
        let nets = design.netlist().num_nets() as f64;
        assert!(
            report.final_hpwl < nets * region_half_perimeter * 0.5,
            "HPWL {} implausibly large",
            report.final_hpwl
        );
    }
}
