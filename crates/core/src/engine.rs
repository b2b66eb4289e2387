//! The gradient engine (the core of Figure 1): evaluates the
//! preconditioned placement gradient through one of the operator streams
//! selected by [`Framework`] and [`OperatorConfig`].

use crate::{DensityGuidance, Framework, OperatorConfig, Parameters, PlaceError};
use xplace_db::Design;
use xplace_device::{Device, KernelInfo};
use xplace_ops::{
    density::DensityOp,
    precond,
    wirelength::{self, WaWorkspace},
    PlacementModel,
};

/// Scalar results of one gradient evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalResult {
    /// WA smoothed wirelength (Eq. 6).
    pub wa: f64,
    /// Exact HPWL (Eq. 2).
    pub hpwl: f64,
    /// Overflow ratio (Eq. 7); reused from cache on skipped iterations.
    pub overflow: f64,
    /// L1 norm of the wirelength gradient over movable cells.
    pub wl_grad_l1: f64,
    /// L1 norm of the unit-λ density gradient over movable cells.
    pub density_grad_l1: f64,
    /// The skip ratio `r = λ |∇D| / |∇WL|` of §3.1.4.
    pub r_ratio: f64,
    /// Whether the density operators were skipped this iteration.
    pub density_skipped: bool,
    /// Whether the §3.1.4 skip window is open at this iteration: skipping
    /// enabled, `r` below threshold and the iteration below the cap.
    /// (`density_skipped` is false on the periodic refresh iterations
    /// *inside* an open window; telemetry reports window transitions.)
    pub skip_window: bool,
}

/// Evaluates wirelength + density gradients with operator-level control.
///
/// Owns the gradient buffers and the [`DensityOp`] (bin grids, spectral
/// solver, cached field). The engine is deliberately *stream-shaped*: the
/// same math runs under every configuration, only the kernel granularity,
/// traffic, autograd usage, synchronization placement and density cadence
/// change — which is exactly the paper's §3.1 experiment.
pub struct GradientEngine {
    framework: Framework,
    ops: OperatorConfig,
    density: DensityOp,
    /// Gradient buffers over all nodes (wirelength writes movable, density
    /// writes movable + fillers).
    grad_x: Vec<f64>,
    grad_y: Vec<f64>,
    cached_overflow: f64,
    field_age: usize,
    has_field: bool,
    last_r: f64,
    guidance: Option<Box<dyn DensityGuidance>>,
    /// CPU launch width for the heavy kernel bodies (pool-scheduled;
    /// results are width-invariant).
    threads: usize,
    /// Reusable per-block scratch for the fused wirelength kernel.
    wa_workspace: WaWorkspace,
}

impl std::fmt::Debug for GradientEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GradientEngine")
            .field("framework", &self.framework)
            .field("ops", &self.ops)
            .field("has_field", &self.has_field)
            .field(
                "guidance",
                &self.guidance.as_ref().map(|g| g.name().to_string()),
            )
            .finish()
    }
}

/// A plain-data snapshot of the engine's cross-iteration state used by
/// GP checkpoints: skip-window bookkeeping plus the cached electrostatic
/// field it serves gradients from on skipped iterations.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineState {
    /// Skip ratio `r` of the previous evaluation.
    pub last_r: f64,
    /// Iterations the cached field has served.
    pub field_age: usize,
    /// Whether a cached field exists.
    pub has_field: bool,
    /// Overflow ratio of the last fresh density evaluation.
    pub cached_overflow: f64,
    /// Cached field x-component, row-major over the density grid.
    pub field_x: Vec<f64>,
    /// Cached field y-component.
    pub field_y: Vec<f64>,
}

/// How many iterations a cached field may serve under operator skipping.
const SKIP_PERIOD: usize = 20;
/// Operator skipping only applies below this iteration (§3.1.4).
const SKIP_MAX_ITER: usize = 100;
/// ... and only while `r` is below this threshold.
const SKIP_R_THRESHOLD: f64 = 0.01;

impl GradientEngine {
    /// Creates the engine for a model.
    ///
    /// # Errors
    ///
    /// Propagates [`PlaceError::Ops`] if the density operator cannot be
    /// constructed for the model's grid.
    pub fn new(
        framework: Framework,
        ops: OperatorConfig,
        model: &PlacementModel,
    ) -> Result<Self, PlaceError> {
        let density = DensityOp::new(model)?;
        let n = model.num_nodes();
        Ok(GradientEngine {
            framework,
            ops,
            density,
            grad_x: vec![0.0; n],
            grad_y: vec![0.0; n],
            cached_overflow: 1.0,
            field_age: 0,
            has_field: false,
            last_r: 0.0,
            guidance: None,
            threads: 1,
            wa_workspace: WaWorkspace::new(),
        })
    }

    /// Sets the CPU launch width for the heavy kernel bodies: the fused
    /// wirelength kernel, density accumulation and (through [`DensityOp`])
    /// the spectral Poisson solve. The blocked decompositions are fixed by
    /// the design, so results are bit-identical for every width.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
        self.density.set_threads(self.threads);
    }

    /// Installs a neural density guidance (the Xplace-NN extension).
    pub fn set_guidance(&mut self, guidance: Box<dyn DensityGuidance>) {
        self.guidance = Some(guidance);
    }

    /// The gradient buffers of the last evaluation.
    pub fn grads(&self) -> (&[f64], &[f64]) {
        (&self.grad_x, &self.grad_y)
    }

    /// Snapshots the cross-iteration engine state for checkpointing: the
    /// §3.1.4 skip-window bookkeeping plus the cached field it serves
    /// gradients from. Resuming inside a skip window must replay the same
    /// cached field the interrupted run held, or the resumed trace would
    /// diverge from the uninterrupted one.
    pub fn state(&self) -> EngineState {
        let field = self.density.field();
        EngineState {
            last_r: self.last_r,
            field_age: self.field_age,
            has_field: self.has_field,
            cached_overflow: self.cached_overflow,
            field_x: field.field_x.as_slice().to_vec(),
            field_y: field.field_y.as_slice().to_vec(),
        }
    }

    /// Restores the cross-iteration state captured by [`Self::state`].
    ///
    /// # Errors
    ///
    /// Propagates [`PlaceError::Ops`] if the field snapshot does not
    /// match this engine's density grid.
    pub fn restore_state(&mut self, state: &EngineState) -> Result<(), PlaceError> {
        self.density.restore_field(&state.field_x, &state.field_y)?;
        self.last_r = state.last_r;
        self.field_age = state.field_age;
        self.has_field = state.has_field;
        self.cached_overflow = state.cached_overflow;
        Ok(())
    }

    fn effective_ops(&self) -> OperatorConfig {
        match self.framework {
            Framework::Xplace => self.ops,
            // DREAMPlace merges the WA objective+gradient (that much is
            // from [1]) but has none of Xplace's other optimizations.
            Framework::DreamplaceLike => OperatorConfig {
                reduction: false,
                combination: false,
                extraction: false,
                skipping: false,
            },
        }
    }

    fn zero_grads(&mut self, device: &Device, model: &PlacementModel, reduction: bool) {
        let n = model.num_nodes() as u64;
        if reduction {
            let kernel = KernelInfo::new("zero_grad").bytes(n * 16);
            device.launch(kernel, || {
                self.grad_x.fill(0.0);
                self.grad_y.fill(0.0);
            });
        } else {
            // PyTorch zero_grad: one out-of-place op per tensor.
            let kernel = KernelInfo::new("zero_grad_x").bytes(n * 8).out_of_place();
            device.launch(kernel, || self.grad_x.fill(0.0));
            let kernel = KernelInfo::new("zero_grad_y").bytes(n * 8).out_of_place();
            device.launch(kernel, || self.grad_y.fill(0.0));
        }
    }

    fn wl_grad_norm(&self, model: &PlacementModel) -> f64 {
        (0..model.num_movable())
            .map(|i| self.grad_x[i].abs() + self.grad_y[i].abs())
            .sum()
    }

    /// Evaluates the full preconditioned gradient at the model's current
    /// positions. `omega` is the precondition weighted ratio computed by
    /// the caller from the *previous* λ (used for guidance blending).
    ///
    /// # Errors
    ///
    /// Propagates spectral failures and reports divergence via
    /// [`PlaceError::Diverged`] when the objective becomes non-finite.
    pub fn evaluate(
        &mut self,
        device: &Device,
        model: &PlacementModel,
        params: &Parameters,
        omega: f64,
    ) -> Result<EvalResult, PlaceError> {
        let ops = self.effective_ops();
        let dreamplace = self.framework == Framework::DreamplaceLike;

        self.zero_grads(device, model, ops.reduction);

        // --- Wirelength operators. ---
        let (wa, hpwl) = if ops.reduction && ops.combination {
            let out = wirelength::wa_fused_mt_ws(
                device,
                model,
                params.gamma,
                &mut self.grad_x,
                &mut self.grad_y,
                self.threads,
                xplace_parallel::global(),
                &mut self.wa_workspace,
            );
            (out.wa, out.hpwl)
        } else if ops.reduction {
            let wa = wirelength::wa_with_grad(
                device,
                model,
                params.gamma,
                &mut self.grad_x,
                &mut self.grad_y,
            );
            let h = wirelength::hpwl(device, model);
            (wa, h)
        } else if dreamplace {
            // DREAMPlace's merged objective+gradient kernel, separate HPWL,
            // host reads after each (per-op synchronization).
            let wa = wirelength::wa_with_grad(
                device,
                model,
                params.gamma,
                &mut self.grad_x,
                &mut self.grad_y,
            );
            device.synchronize();
            let h = wirelength::hpwl(device, model);
            device.synchronize();
            (wa, h)
        } else {
            // Autograd mode: the forward launch is followed by a separately
            // launched out-of-place backward op that recomputes the exponent
            // sums and accumulates the gradient — the doubled operator
            // stream of §3.1.3.
            let wa = wirelength::wa_forward(device, model, params.gamma);
            device.synchronize();
            wirelength::wa_backward(
                device,
                model,
                params.gamma,
                &mut self.grad_x,
                &mut self.grad_y,
            );
            let h = wirelength::hpwl(device, model);
            device.synchronize();
            (wa, h)
        };
        if !wa.is_finite() || !hpwl.is_finite() {
            return Err(PlaceError::Diverged {
                iteration: params.iteration,
            });
        }

        let wl_grad_l1 = if ops.combination {
            // Folded into the fused kernel (no extra launch).
            self.wl_grad_norm(model)
        } else {
            let n = model.num_movable() as u64;
            device.launch(
                KernelInfo::new("wl_grad_norm").bytes(n * 16).flops(n * 2),
                || self.wl_grad_norm(model),
            )
        };

        // --- Density operators (with §3.1.4 skipping). ---
        let skip_window =
            ops.skipping && self.last_r < SKIP_R_THRESHOLD && params.iteration < SKIP_MAX_ITER;
        let skip = skip_window && self.has_field && self.field_age < SKIP_PERIOD;
        let mut density_skipped = false;
        if skip {
            self.field_age += 1;
            density_skipped = true;
        } else {
            if ops.extraction {
                self.density.accumulate_movable(device, model);
                self.density.accumulate_fillers(device, model);
                self.density.combine_total(device);
            } else {
                self.density.accumulate_all(device, model);
                self.density.accumulate_movable(device, model);
            }
            self.density.solve_field(device)?;
            self.cached_overflow = self.density.overflow(device, model);
            if dreamplace || !ops.reduction {
                device.synchronize();
            }
            self.field_age = 0;
            self.has_field = true;

            // Neural guidance: blend predicted fields after a fresh solve.
            if let Some(guidance) = self.guidance.as_mut() {
                // σ(ω) gives the stage weight; the paper additionally
                // describes σ tracking |∇WL/∇D| (the inverse of r) — the
                // prediction provides *global* guidance while wirelength
                // dominates and hands over to the numerical field once the
                // density force has caught up. Gate on both.
                let r_gate = 1.0 / (1.0 + (self.last_r / 0.05).powi(2));
                let sigma = crate::sigma_blend(omega) * r_gate;
                if sigma > 1e-4 {
                    let (nx, ny) = self.density.grid_dims();
                    let nn_kernel = KernelInfo::new("nn_field_predict")
                        .bytes((nx * ny) as u64 * 8 * 20)
                        .flops((nx * ny) as u64 * 2_000);
                    let total = self.density.total_map.clone();
                    let (mut px, mut py) = device.launch(nn_kernel, || guidance.predict(&total));
                    // Safety clip: an out-of-distribution prediction must
                    // not inject forces far beyond the analytic field's
                    // scale (the guidance is a *hint*, Eq. 14).
                    let rms = |g: &xplace_fft::Grid2| {
                        if g.is_empty() {
                            0.0
                        } else {
                            (g.as_slice().iter().map(|v| v * v).sum::<f64>() / g.len() as f64)
                                .sqrt()
                        }
                    };
                    let analytic =
                        rms(&self.density.field().field_x) + rms(&self.density.field().field_y);
                    let predicted = rms(&px) + rms(&py);
                    if predicted > 2.0 * analytic && predicted > 0.0 {
                        let scale = 2.0 * analytic / predicted;
                        px.scale(scale);
                        py.scale(scale);
                    }
                    self.density.blend_field(device, &px, &py, sigma);
                }
            }
        }

        // --- Density gradient + preconditioner. ---
        // The unit-λ density gradient norm comes from the gradient kernel's
        // own field samples; at λ = 0 nothing is launched and the host
        // reads it back from the cached field.
        let density_grad_l1 = if params.lambda > 0.0 {
            self.density.accumulate_gradient_l1(
                device,
                model,
                params.lambda,
                &mut self.grad_x,
                &mut self.grad_y,
            )
        } else {
            self.density.gradient_l1_norm(model)
        };
        if !ops.reduction {
            // Autograd accumulation of the two gradient sources is two
            // extra out-of-place adds in PyTorch.
            let n = model.num_nodes() as u64;
            device.launch(
                KernelInfo::new("grad_add_x").bytes(n * 24).out_of_place(),
                || {},
            );
            device.launch(
                KernelInfo::new("grad_add_y").bytes(n * 24).out_of_place(),
                || {},
            );
        }
        precond::apply(
            device,
            model,
            params.lambda,
            &mut self.grad_x,
            &mut self.grad_y,
        );

        if dreamplace {
            // PyTorch framework glue per iteration: parameter-group walks,
            // scalar tensor updates, host-side bookkeeping kernels.
            for name in [
                "glue_detach",
                "glue_mul_scalar",
                "glue_add_scalar",
                "glue_copy",
                "glue_item",
                "glue_clamp",
            ] {
                device.launch(KernelInfo::new(name).bytes(4096).out_of_place(), || {});
            }
            device.synchronize();
        }

        // Deferred end-of-iteration synchronization (operator reduction
        // moves all host readbacks here — one sync instead of several).
        if ops.reduction {
            device.synchronize();
        }

        let r_ratio = if wl_grad_l1 > 0.0 {
            params.lambda * density_grad_l1 / wl_grad_l1
        } else {
            0.0
        };
        self.last_r = r_ratio;

        Ok(EvalResult {
            wa,
            hpwl,
            overflow: self.cached_overflow,
            wl_grad_l1,
            density_grad_l1,
            r_ratio,
            density_skipped,
            skip_window,
        })
    }
}

/// Deterministic splitmix-style hash of `(i, salt)` into `[-0.5, 0.5)`: the
/// one source of seeded jitter (the placer's symmetry-breaking noise and
/// uncoarsening seeds).
pub(crate) fn unit_hash(i: usize, salt: u64) -> f64 {
    let mut h = (i as u64 ^ salt).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5
}

/// Seeds a finer level's movable cells from a coarser placed solution.
///
/// Each movable cell starts at its cluster's position (`map[cell]` indexes
/// the coarse design, as produced by [`xplace_db::coarsen`]), displaced by
/// a deterministic hash jitter of up to half a row height so co-clustered
/// cells separate immediately instead of sharing identical gradients.
/// Fixed cells and terminals keep their own positions. Results depend only
/// on `(finer, coarse, map, seed)` — never on thread count.
pub fn seed_from_coarse(finer: &mut Design, coarse: &Design, map: &[u32], seed: u64) {
    let amp = finer.rows().first().map_or(1.0, |r| r.height) * 0.5;
    let region = finer.region();
    let movable: Vec<usize> = {
        let nl = finer.netlist();
        (0..nl.num_cells())
            .filter(|&i| nl.cells()[i].is_movable())
            .collect()
    };
    let positions = finer.positions_mut();
    for i in movable {
        let target = coarse.position(xplace_db::CellId(map[i]));
        positions[i] = region.clamp_point(xplace_db::Point::new(
            target.x + amp * unit_hash(i, seed ^ 0x756e_636f),
            target.y + amp * unit_hash(i, seed ^ 0x6172_7365),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xplace_db::synthesis::{synthesize, SynthesisSpec};
    use xplace_device::DeviceConfig;

    fn setup(
        framework: Framework,
        ops: OperatorConfig,
    ) -> (PlacementModel, GradientEngine, Device) {
        let design = synthesize(&SynthesisSpec::new("e", 300, 320).with_seed(41)).unwrap();
        let model = PlacementModel::from_design(&design).unwrap();
        let engine = GradientEngine::new(framework, ops, &model).unwrap();
        (model, engine, Device::new(DeviceConfig::rtx3090()))
    }

    fn params(model: &PlacementModel) -> Parameters {
        let mut p = Parameters::new(model.bin_w());
        p.initialize_lambda(100.0, 100.0);
        p
    }

    #[test]
    fn all_streams_compute_identical_scalars() {
        let configs = [
            (Framework::Xplace, OperatorConfig::all()),
            (Framework::Xplace, OperatorConfig::none()),
            (
                Framework::Xplace,
                OperatorConfig {
                    reduction: true,
                    combination: false,
                    extraction: true,
                    skipping: false,
                },
            ),
            (Framework::DreamplaceLike, OperatorConfig::none()),
        ];
        let mut results = Vec::new();
        for (fw, ops) in configs {
            let (model, mut engine, device) = setup(fw, ops);
            let p = params(&model);
            let r = engine.evaluate(&device, &model, &p, 0.0).unwrap();
            results.push(r);
        }
        for r in &results[1..] {
            assert!((r.wa - results[0].wa).abs() < 1e-9 * results[0].wa.abs().max(1.0));
            assert!((r.hpwl - results[0].hpwl).abs() < 1e-9 * results[0].hpwl.max(1.0));
            assert!((r.overflow - results[0].overflow).abs() < 1e-9);
        }
    }

    #[test]
    fn all_streams_compute_identical_gradients() {
        let (model, mut e1, d1) = setup(Framework::Xplace, OperatorConfig::all());
        let (_, mut e2, d2) = setup(Framework::DreamplaceLike, OperatorConfig::none());
        let p = params(&model);
        e1.evaluate(&d1, &model, &p, 0.0).unwrap();
        e2.evaluate(&d2, &model, &p, 0.0).unwrap();
        let (gx1, gy1) = e1.grads();
        let (gx2, gy2) = e2.grads();
        for i in 0..model.num_nodes() {
            assert!((gx1[i] - gx2[i]).abs() < 1e-12, "gx mismatch at {i}");
            assert!((gy1[i] - gy2[i]).abs() < 1e-12, "gy mismatch at {i}");
        }
    }

    #[test]
    fn density_gradient_norm_is_fused_only_when_lambda_is_positive() {
        // λ > 0 forms the norm inside the density-gradient launch; λ = 0
        // reads it on the host and launches nothing for the gradient.
        let (model, mut at_zero, device) = setup(Framework::Xplace, OperatorConfig::all());
        let (_, mut at_lambda, _) = setup(Framework::Xplace, OperatorConfig::all());
        let zero = Parameters::new(model.bin_w());
        assert_eq!(zero.lambda, 0.0);
        let (r0, p0) = device.scoped(|| at_zero.evaluate(&device, &model, &zero, 0.0).unwrap());
        let (r1, p1) = device.scoped(|| {
            at_lambda
                .evaluate(&device, &model, &params(&model), 0.0)
                .unwrap()
        });
        assert!(r0.density_grad_l1 > 0.0);
        assert_eq!(r0.density_grad_l1.to_bits(), r1.density_grad_l1.to_bits());
        assert_eq!(p1.launches, p0.launches + 1);
    }

    #[test]
    fn launch_counts_order_by_optimization_level() {
        let levels = [
            OperatorConfig::none(),
            OperatorConfig {
                reduction: true,
                combination: false,
                extraction: false,
                skipping: false,
            },
            OperatorConfig {
                reduction: true,
                combination: true,
                extraction: false,
                skipping: false,
            },
            OperatorConfig {
                reduction: true,
                combination: true,
                extraction: true,
                skipping: false,
            },
        ];
        let mut launches = Vec::new();
        for ops in levels {
            let (model, mut engine, device) = setup(Framework::Xplace, ops);
            let p = params(&model);
            let (_, prof) = device.scoped(|| {
                engine.evaluate(&device, &model, &p, 0.0).unwrap();
            });
            launches.push(prof.launches);
        }
        // Reduction strictly cuts launches; combination cuts one more.
        assert!(launches[1] < launches[0], "{launches:?}");
        assert!(launches[2] < launches[1], "{launches:?}");
        // Extraction trades 2 heavy launches for 3 (one cheap); launches
        // may rise but modeled time must not (checked elsewhere).
        let (model, mut engine, device) = setup(Framework::DreamplaceLike, OperatorConfig::none());
        let p = params(&model);
        let (_, dream) = device.scoped(|| {
            engine.evaluate(&device, &model, &p, 0.0).unwrap();
        });
        assert!(
            dream.launches > launches[0],
            "DREAMPlace stream must be the heaviest"
        );
    }

    #[test]
    fn modeled_time_improves_with_each_technique() {
        // Extraction trades a third (cheap) launch for one fewer heavy
        // accumulation pass, so its benefit shows in the execution-bound
        // regime — exactly what the paper reports ("operator combination,
        // extraction and skipping mainly boost the larger cases"). Use a
        // larger design and a low launch latency to be exec-bound.
        let design = synthesize(&SynthesisSpec::new("big", 3000, 3100).with_seed(43)).unwrap();
        let model = PlacementModel::from_design(&design).unwrap();
        let device = Device::new(DeviceConfig::rtx3090().with_launch_latency_ns(200));
        let levels = [
            OperatorConfig::none(),
            OperatorConfig {
                reduction: true,
                combination: false,
                extraction: false,
                skipping: false,
            },
            OperatorConfig {
                reduction: true,
                combination: true,
                extraction: false,
                skipping: false,
            },
            OperatorConfig {
                reduction: true,
                combination: true,
                extraction: true,
                skipping: false,
            },
        ];
        let mut times = Vec::new();
        for ops in levels {
            let mut engine = GradientEngine::new(Framework::Xplace, ops, &model).unwrap();
            let p = params(&model);
            let (_, prof) = device.scoped(|| {
                engine.evaluate(&device, &model, &p, 0.0).unwrap();
            });
            times.push(prof.modeled_ns());
        }
        for w in times.windows(2) {
            assert!(w[1] <= w[0], "modeled time must not regress: {times:?}");
        }
        assert!(
            times[3] < times[0],
            "full optimization must beat none: {times:?}"
        );
    }

    #[test]
    fn skipping_reuses_the_cached_field() {
        let ops = OperatorConfig::all();
        let (model, mut engine, device) = setup(Framework::Xplace, ops);
        // Initialize λ from the real gradient norms, as the placer does.
        let mut p = Parameters::new(model.bin_w());
        let warm = engine.evaluate(&device, &model, &p, 0.0).unwrap();
        p.initialize_lambda(warm.wl_grad_l1, warm.density_grad_l1);
        p.advance();
        // Next iteration: r reflects the freshly initialized λ.
        let r0 = engine.evaluate(&device, &model, &p, 0.0).unwrap();
        assert!(
            r0.r_ratio < 0.01,
            "r should start ultra-small, got {}",
            r0.r_ratio
        );
        p.advance();
        let (r1, prof) = {
            let (r, prof) = device.scoped(|| engine.evaluate(&device, &model, &p, 0.0).unwrap());
            (r, prof)
        };
        assert!(
            r1.density_skipped,
            "second early iteration should skip density"
        );
        // Skipped iterations launch far fewer kernels.
        assert!(
            prof.launches <= 6,
            "skipped iteration launched {}",
            prof.launches
        );
        // Overflow is served from cache.
        assert_eq!(r1.overflow, r0.overflow);
    }

    #[test]
    fn skipping_refreshes_after_the_period() {
        let ops = OperatorConfig::all();
        let (model, mut engine, device) = setup(Framework::Xplace, ops);
        let mut p = params(&model);
        let mut skipped = 0;
        let mut full = 0;
        for _ in 0..SKIP_PERIOD + 2 {
            let r = engine.evaluate(&device, &model, &p, 0.0).unwrap();
            if r.density_skipped {
                skipped += 1;
            } else {
                full += 1;
            }
            p.advance();
        }
        assert!(
            full >= 2,
            "density must refresh at least twice in {} iters",
            SKIP_PERIOD + 2
        );
        assert_eq!(skipped + full, SKIP_PERIOD + 2);
    }

    #[test]
    fn divergence_is_detected() {
        let (mut model, mut engine, device) = setup(Framework::Xplace, OperatorConfig::all());
        let p = params(&model);
        model.x[0] = f64::NAN;
        let err = engine.evaluate(&device, &model, &p, 0.0).unwrap_err();
        assert!(matches!(err, PlaceError::Diverged { .. }));
    }

    #[test]
    fn guidance_hook_is_invoked_and_blends() {
        #[derive(Debug)]
        struct ConstGuidance(std::sync::Arc<std::sync::atomic::AtomicUsize>);
        impl DensityGuidance for ConstGuidance {
            fn predict(
                &mut self,
                density: &xplace_fft::Grid2,
            ) -> (xplace_fft::Grid2, xplace_fft::Grid2) {
                self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let mut gx = xplace_fft::Grid2::new(density.nx(), density.ny());
                gx.fill(1.0);
                (gx, xplace_fft::Grid2::new(density.nx(), density.ny()))
            }
        }
        let calls = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let (model, mut engine, device) = setup(
            Framework::Xplace,
            OperatorConfig {
                skipping: false,
                ..OperatorConfig::all()
            },
        );
        engine.set_guidance(Box::new(ConstGuidance(calls.clone())));
        let p = params(&model);
        // omega = 0 -> sigma ~ 0.93: prediction must be requested.
        engine.evaluate(&device, &model, &p, 0.0).unwrap();
        assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), 1);
        // omega = 0.9 -> sigma ~ 0: prediction skipped.
        engine.evaluate(&device, &model, &p, 0.9).unwrap();
        assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), 1);
    }
}
