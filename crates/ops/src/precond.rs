//! The diagonal preconditioner and the placement-stage ratio ω (§3.2).
//!
//! ePlace-family placers divide the gradient by
//! `H~ = H_W + lambda * H_D` with `H_W = diag(|S_i|)` (nets per cell) and
//! `H_D = diag(A_i)` (cell areas), clamped at 1 to avoid amplifying tiny
//! rows. Xplace additionally reads the *precondition weighted ratio*
//!
//! ```text
//!   omega = lambda |H_D| / (|H_W| + lambda |H_D|)   in [0, 1]
//! ```
//!
//! off the same diagonals and uses it to detect the placement stage
//! (wirelength-dominated < 0.05, spreading, final > 0.95).

use crate::PlacementModel;
use xplace_device::{Device, KernelInfo};

/// Applies the preconditioner in place:
/// `g_i /= max(1, |S_i| + lambda A_i)` for every optimizable node (one
/// kernel). Fillers have `|S_i| = 0` and are preconditioned by area only.
///
/// # Panics
///
/// Panics if the gradient slices are shorter than the node count.
pub fn apply(
    device: &Device,
    model: &PlacementModel,
    lambda: f64,
    grad_x: &mut [f64],
    grad_y: &mut [f64],
) {
    assert!(grad_x.len() >= model.num_nodes() && grad_y.len() >= model.num_nodes());
    let n = (model.num_movable() + model.num_fillers()) as u64;
    let kernel = KernelInfo::new("precondition").bytes(n * 40).flops(n * 6);
    device.launch(kernel, || {
        for i in model.optimizable_indices() {
            let h = (model.node_degree[i] as f64 + lambda * model.node_area(i)).max(1.0);
            grad_x[i] /= h;
            grad_y[i] /= h;
        }
    });
}

/// The precondition weighted ratio ω over movable cells (Eq. in §3.2).
///
/// Returns a value in `[0, 1]`; 0 when `lambda = 0`.
pub fn omega(model: &PlacementModel, lambda: f64) -> f64 {
    let (hw, hd) = (model.movable_degree(), model.movable_area());
    let weighted = lambda * hd;
    if hw + weighted == 0.0 {
        0.0
    } else {
        weighted / (hw + weighted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xplace_db::synthesis::{synthesize, SynthesisSpec};
    use xplace_device::DeviceConfig;

    fn model() -> PlacementModel {
        let design = synthesize(&SynthesisSpec::new("p", 200, 210).with_seed(31)).unwrap();
        PlacementModel::from_design(&design).unwrap()
    }

    #[test]
    fn preconditioner_divides_by_degree_plus_area() {
        let m = model();
        let device = Device::new(DeviceConfig::instant());
        let n = m.num_nodes();
        let (mut gx, mut gy) = (vec![2.0; n], vec![-4.0; n]);
        let lambda = 0.5;
        apply(&device, &m, lambda, &mut gx, &mut gy);
        for i in m.optimizable_indices() {
            let h = (m.node_degree[i] as f64 + lambda * m.node_area(i)).max(1.0);
            assert!((gx[i] - 2.0 / h).abs() < 1e-12);
            assert!((gy[i] + 4.0 / h).abs() < 1e-12);
        }
        // Fixed nodes are untouched.
        for i in m.ranges().fixed {
            assert_eq!(gx[i], 2.0);
        }
    }

    #[test]
    fn clamp_prevents_amplification() {
        let m = model();
        let device = Device::new(DeviceConfig::instant());
        let n = m.num_nodes();
        let (mut gx, mut gy) = (vec![1.0; n], vec![1.0; n]);
        // lambda = 0 and some node with degree 0 (a filler) would divide
        // by 0 without the clamp.
        apply(&device, &m, 0.0, &mut gx, &mut gy);
        for i in m.ranges().filler {
            assert_eq!(gx[i], 1.0, "filler gradient must not be amplified");
        }
    }

    #[test]
    fn omega_is_monotone_in_lambda_and_bounded() {
        let m = model();
        assert_eq!(omega(&m, 0.0), 0.0);
        let mut prev = 0.0;
        for lambda in [1e-6, 1e-4, 1e-2, 1.0, 100.0, 1e6] {
            let w = omega(&m, lambda);
            assert!((0.0..=1.0).contains(&w));
            assert!(w >= prev, "omega must grow with lambda");
            prev = w;
        }
        assert!(prev > 0.99, "omega should approach 1 for huge lambda");
    }

    #[test]
    fn omega_crosses_stage_thresholds() {
        let m = model();
        // Find lambdas that put omega below 0.05 and above 0.95; the
        // schedule in the paper keys off exactly these thresholds.
        assert!(omega(&m, 1e-9) < 0.05);
        assert!(omega(&m, 1e9) > 0.95);
    }
}
