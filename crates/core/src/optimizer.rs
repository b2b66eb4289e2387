//! Nesterov accelerated gradient with Barzilai–Borwein step prediction.
//!
//! This is the optimizer of ePlace (and therefore of DREAMPlace and
//! Xplace): the gradient is evaluated at the *reference* solution `v`, the
//! main solution `u` takes the gradient step, and `v` extrapolates with
//! the Nesterov momentum coefficient. The step length is predicted by the
//! Barzilai–Borwein rule `|Δv| / |Δg|`, which removes the need for an
//! explicit Lipschitz constant.

use std::ops::Range;
use xplace_device::{Device, KernelInfo};
use xplace_ops::PlacementModel;

/// Nesterov optimizer state over the optimizable nodes (movable cells and
/// fillers, in [`PlacementModel::optimizable_indices`] order) of a
/// [`PlacementModel`].
///
/// The model's `x`/`y` arrays always hold the reference solution `v` — the
/// point the gradient engine evaluates at. The struct holds no field
/// derived from the model, so it is its own checkpoint snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct NesterovOptimizer {
    /// Main solution x over optimizable nodes.
    pub u_x: Vec<f64>,
    /// Main solution y over optimizable nodes.
    pub u_y: Vec<f64>,
    /// Previous reference-point x (BB numerator).
    pub prev_v_x: Vec<f64>,
    /// Previous reference-point y.
    pub prev_v_y: Vec<f64>,
    /// Previous gradient x (BB denominator).
    pub prev_g_x: Vec<f64>,
    /// Previous gradient y.
    pub prev_g_y: Vec<f64>,
    /// Nesterov momentum scalar `a`.
    pub a: f64,
    /// Whether a previous reference point/gradient is stored.
    pub have_prev: bool,
    /// First-step length before BB prediction kicks in.
    pub initial_step: f64,
    /// Per-iteration displacement cap.
    pub max_disp: f64,
    /// The last step length used.
    pub last_step: f64,
}

impl NesterovOptimizer {
    /// Creates the optimizer for a model. `initial_step` is the first
    /// step length (before BB prediction kicks in) and `max_disp` caps the
    /// per-iteration displacement of any node (a stability guard).
    pub fn new(model: &PlacementModel, initial_step: f64, max_disp: f64) -> Self {
        let n = model.optimizable_indices().count();
        let gather =
            |src: &[f64]| -> Vec<f64> { model.optimizable_indices().map(|i| src[i]).collect() };
        NesterovOptimizer {
            u_x: gather(&model.x),
            u_y: gather(&model.y),
            prev_v_x: vec![0.0; n],
            prev_v_y: vec![0.0; n],
            prev_g_x: vec![0.0; n],
            prev_g_y: vec![0.0; n],
            a: 1.0,
            have_prev: false,
            initial_step,
            max_disp,
            last_step: initial_step,
        }
    }

    /// Barzilai–Borwein step prediction from the stored previous
    /// reference point and gradient.
    fn predict_step(&self, model: &PlacementModel, gx: &[f64], gy: &[f64]) -> f64 {
        if !self.have_prev {
            return self.initial_step;
        }
        let mut dv2 = 0.0;
        let mut dg2 = 0.0;
        for (nodes, slots) in runs(model) {
            for (k, i) in slots.zip(nodes) {
                let dvx = model.x[i] - self.prev_v_x[k];
                let dvy = model.y[i] - self.prev_v_y[k];
                let dgx = gx[i] - self.prev_g_x[k];
                let dgy = gy[i] - self.prev_g_y[k];
                dv2 += dvx * dvx + dvy * dvy;
                dg2 += dgx * dgx + dgy * dgy;
            }
        }
        if dg2 <= 0.0 || !dv2.is_finite() || !dg2.is_finite() {
            self.initial_step
        } else {
            (dv2 / dg2).sqrt()
        }
    }

    /// Performs one Nesterov step given the (preconditioned) gradient
    /// evaluated at the current reference solution held in `model`.
    ///
    /// With `fused = true` (operator reduction on) the whole update is one
    /// in-place kernel launch; with `fused = false` it is issued as the
    /// six separate out-of-place tensor ops a PyTorch optimizer performs.
    ///
    /// # Panics
    ///
    /// Panics if the gradient slices are shorter than the node count.
    pub fn step(
        &mut self,
        device: &Device,
        model: &mut PlacementModel,
        gx: &[f64],
        gy: &[f64],
        fused: bool,
    ) {
        assert!(gx.len() >= model.num_nodes() && gy.len() >= model.num_nodes());
        let mut step = self.predict_step(model, gx, gy);
        // Displacement cap.
        let mut max_g: f64 = 0.0;
        for (nodes, _) in runs(model) {
            for i in nodes {
                max_g = max_g.max(gx[i].abs()).max(gy[i].abs());
            }
        }
        if max_g * step > self.max_disp {
            step = self.max_disp / max_g;
        }
        self.last_step = step;

        let n = self.u_x.len() as u64;
        if !fused {
            // PyTorch-style: each tensor op is its own out-of-place kernel.
            for name in [
                "opt_dv",
                "opt_dg",
                "opt_axpy_u",
                "opt_momentum",
                "opt_axpy_v",
            ] {
                device.launch(KernelInfo::new(name).bytes(n * 32).out_of_place(), || {});
            }
        }
        let kernel_name = if fused { "nesterov_fused" } else { "opt_apply" };
        let kernel = KernelInfo::new(kernel_name).bytes(n * 96).flops(n * 12);
        let a_new = 0.5 * (1.0 + (4.0 * self.a * self.a + 1.0).sqrt());
        let coef = (self.a - 1.0) / a_new;
        device.launch(kernel, || {
            // Per-run slices: indexing the whole vectors by node and slot
            // instead measured about 30% slower on a 66k-node step.
            for (nodes, slots) in runs(model) {
                let (x, y) = (&mut model.x[nodes.clone()], &mut model.y[nodes.clone()]);
                let (gx, gy) = (&gx[nodes.clone()], &gy[nodes]);
                let (ux, uy) = (&mut self.u_x[slots.clone()], &mut self.u_y[slots.clone()]);
                let (pvx, pvy) = (
                    &mut self.prev_v_x[slots.clone()],
                    &mut self.prev_v_y[slots.clone()],
                );
                let (pgx, pgy) = (&mut self.prev_g_x[slots.clone()], &mut self.prev_g_y[slots]);
                for j in 0..x.len() {
                    // Save the reference point and gradient for BB.
                    pvx[j] = x[j];
                    pvy[j] = y[j];
                    pgx[j] = gx[j];
                    pgy[j] = gy[j];
                    // u_{k+1} = v_k - step * g(v_k)
                    let ux_new = x[j] - step * gx[j];
                    let uy_new = y[j] - step * gy[j];
                    // v_{k+1} = u_{k+1} + coef * (u_{k+1} - u_k)
                    x[j] = ux_new + coef * (ux_new - ux[j]);
                    y[j] = uy_new + coef * (uy_new - uy[j]);
                    ux[j] = ux_new;
                    uy[j] = uy_new;
                }
            }
        });
        self.a = a_new;
        self.have_prev = true;
        model.clamp_to_region();
    }

    /// Copies the main solution `u` (not the lookahead `v`) into the
    /// model — call once after the final iteration so the reported
    /// placement is the converged solution.
    pub fn write_u(&self, model: &mut PlacementModel) {
        for (nodes, slots) in runs(model) {
            model.x[nodes.clone()].copy_from_slice(&self.u_x[slots.clone()]);
            model.y[nodes].copy_from_slice(&self.u_y[slots]);
        }
        model.clamp_to_region();
    }
}

/// The optimizable nodes as two runs — movable cells, then fillers —
/// each as its model index range and its slot range in the optimizer's
/// vectors.
fn runs(model: &PlacementModel) -> [(Range<usize>, Range<usize>); 2] {
    let r = model.ranges();
    let (nm, nf) = (r.movable.len(), r.filler.len());
    [(r.movable, 0..nm), (r.filler, nm..nm + nf)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use xplace_db::synthesis::{synthesize, SynthesisSpec};
    use xplace_device::DeviceConfig;

    fn tiny_model() -> PlacementModel {
        let design = synthesize(&SynthesisSpec::new("opt", 40, 45).with_seed(1)).unwrap();
        PlacementModel::from_design(&design).unwrap()
    }

    /// Quadratic bowl: f = 0.5 * sum((x - tx)^2 + (y - ty)^2).
    fn quad_grad(model: &PlacementModel, tx: f64, ty: f64, gx: &mut [f64], gy: &mut [f64]) {
        for g in gx.iter_mut().chain(gy.iter_mut()) {
            *g = 0.0;
        }
        for i in model.optimizable_indices() {
            gx[i] = model.x[i] - tx;
            gy[i] = model.y[i] - ty;
        }
    }

    #[test]
    fn converges_on_a_quadratic_bowl() {
        let mut model = tiny_model();
        let device = Device::new(DeviceConfig::instant());
        let c = model.region().center();
        let (tx, ty) = (c.x + 3.0, c.y - 2.0);
        let mut opt = NesterovOptimizer::new(&model, 0.1, model.region().width());
        let n = model.num_nodes();
        let (mut gx, mut gy) = (vec![0.0; n], vec![0.0; n]);
        for _ in 0..200 {
            quad_grad(&model, tx, ty, &mut gx, &mut gy);
            opt.step(&device, &mut model, &gx, &gy, true);
        }
        opt.write_u(&mut model);
        for i in model.optimizable_indices() {
            // Cells can't all reach the exact target (region clamp keeps
            // their rectangles inside), so allow the half-size slack.
            let slack = model.w[i] * 0.5 + model.h[i] * 0.5 + 0.3;
            assert!(
                (model.x[i] - tx).abs() < slack && (model.y[i] - ty).abs() < slack,
                "node {i} at ({}, {}) far from ({tx}, {ty})",
                model.x[i],
                model.y[i]
            );
        }
    }

    #[test]
    fn bb_step_adapts_to_curvature() {
        let mut model = tiny_model();
        let device = Device::new(DeviceConfig::instant());
        let c = model.region().center();
        let mut opt = NesterovOptimizer::new(&model, 0.001, model.region().width());
        let n = model.num_nodes();
        let (mut gx, mut gy) = (vec![0.0; n], vec![0.0; n]);
        quad_grad(&model, c.x, c.y, &mut gx, &mut gy);
        opt.step(&device, &mut model, &gx, &gy, true);
        assert_eq!(opt.last_step, 0.001);
        quad_grad(&model, c.x, c.y, &mut gx, &mut gy);
        opt.step(&device, &mut model, &gx, &gy, true);
        // For a unit-curvature quadratic the BB step approaches 1.
        assert!(
            opt.last_step > 0.5,
            "BB step {} should approach 1",
            opt.last_step
        );
    }

    #[test]
    fn displacement_cap_limits_movement() {
        let mut model = tiny_model();
        let device = Device::new(DeviceConfig::instant());
        let mut opt = NesterovOptimizer::new(&model, 1000.0, 2.0);
        let n = model.num_nodes();
        let (mut gx, mut gy) = (vec![0.0; n], vec![0.0; n]);
        let before: Vec<f64> = model.x.clone();
        quad_grad(
            &model,
            model.region().center().x + 500.0,
            0.0,
            &mut gx,
            &mut gy,
        );
        opt.step(&device, &mut model, &gx, &gy, true);
        for i in model.optimizable_indices() {
            // First step has no momentum, so displacement <= cap.
            assert!((model.x[i] - before[i]).abs() <= 2.0 + 1e-9);
        }
    }

    #[test]
    fn launch_counts_reflect_fusion() {
        let mut model = tiny_model();
        let device = Device::new(DeviceConfig::rtx3090());
        let mut opt = NesterovOptimizer::new(&model, 0.1, 10.0);
        let n = model.num_nodes();
        let (gx, gy) = (vec![0.1; n], vec![0.1; n]);
        let (_, fused) = device.scoped(|| opt.step(&device, &mut model, &gx, &gy, true));
        assert_eq!(fused.launches, 1);
        let (_, split) = device.scoped(|| opt.step(&device, &mut model, &gx, &gy, false));
        assert_eq!(split.launches, 6);
    }

    #[test]
    fn positions_stay_in_region() {
        let mut model = tiny_model();
        let device = Device::new(DeviceConfig::instant());
        let mut opt = NesterovOptimizer::new(&model, 50.0, 1e9);
        let n = model.num_nodes();
        let (mut gx, mut gy) = (vec![0.0; n], vec![0.0; n]);
        for i in model.optimizable_indices() {
            gx[i] = -1e6; // try to fling everything out of the region
            gy[i] = 1e6;
        }
        opt.step(&device, &mut model, &gx, &gy, true);
        let r = model.region();
        for i in model.optimizable_indices() {
            assert!(model.x[i] >= r.lx - 1e-9 && model.x[i] <= r.ux + 1e-9);
            assert!(model.y[i] >= r.ly - 1e-9 && model.y[i] <= r.uy + 1e-9);
        }
    }

    #[test]
    fn write_u_reports_main_solution() {
        let mut model = tiny_model();
        let device = Device::new(DeviceConfig::instant());
        let mut opt = NesterovOptimizer::new(&model, 0.5, 100.0);
        let n = model.num_nodes();
        let (mut gx, mut gy) = (vec![0.0; n], vec![0.0; n]);
        let c = model.region().center();
        quad_grad(&model, c.x + 1.0, c.y, &mut gx, &mut gy);
        opt.step(&device, &mut model, &gx, &gy, true);
        opt.write_u(&mut model);
        // Every optimizable node now sits at its main solution `u`.
        for (k, i) in model.optimizable_indices().enumerate() {
            assert_eq!(model.x[i], opt.u_x[k], "node {i} x is not u");
            assert_eq!(model.y[i], opt.u_y[k], "node {i} y is not u");
        }
    }
}
