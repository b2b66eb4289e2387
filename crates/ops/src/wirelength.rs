//! Wirelength operators: HPWL and the stable weighted-average wirelength.
//!
//! Three operator granularities are provided, matching the paper's
//! operator-combination story (§3.1.1):
//!
//! * [`hpwl`] — the exact half-perimeter wirelength, one kernel,
//! * [`wa_with_grad`] — the merged WA-objective-and-gradient kernel of
//!   DREAMPlace (computes the per-net min/max internally),
//! * [`wa_fused`] — Xplace's combined kernel: WA wirelength, WA gradient
//!   **and** HPWL in a single pass sharing one min/max computation,
//! * [`wa_forward`] / [`wa_backward`] — the split pair used when the
//!   autograd tape drives the backward pass (operator reduction *off*).
//!
//! All WA math uses the numerically stable form of Eq. (6): exponents are
//! shifted by the per-net extrema so they never overflow.

use crate::PlacementModel;
use xplace_device::{Device, KernelInfo};
use xplace_parallel::WorkerPool;

/// Reusable per-block scratch for [`wa_fused_blocked_ws`].
///
/// The blocked kernel needs two `num_movable`-long gradient accumulators per
/// net block. Allocating them fresh on every call puts two `Vec` allocations
/// per block on the hottest path of every GP iteration; a workspace hoists
/// them into slots that persist across calls (task `b` always uses slot `b`,
/// zero-filled before each pass, so reuse is bitwise-identical to fresh
/// buffers).
#[derive(Debug, Clone, Default)]
pub struct WaWorkspace {
    /// One `(grad_x, grad_y)` accumulator pair per net block, grown on demand.
    slots: Vec<(Vec<f64>, Vec<f64>)>,
}

impl WaWorkspace {
    /// Creates an empty workspace; slots are allocated on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures at least `blocks` slots of length `nm` each.
    fn prepare(&mut self, blocks: usize, nm: usize) {
        if self.slots.len() < blocks {
            self.slots.resize_with(blocks, Default::default);
        }
        for (gx, gy) in &mut self.slots[..blocks] {
            gx.resize(nm, 0.0);
            gy.resize(nm, 0.0);
        }
    }
}

/// Result of the fused wirelength kernel.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FusedWirelength {
    /// Weighted-average smoothed wirelength (Eq. 6), summed over nets.
    pub wa: f64,
    /// Exact HPWL (Eq. 2), summed over nets.
    pub hpwl: f64,
}

#[inline]
fn net_range(model: &PlacementModel, e: usize) -> (usize, usize) {
    (model.net_start[e] as usize, model.net_start[e + 1] as usize)
}

#[inline]
fn pin_pos(model: &PlacementModel, p: usize) -> (f64, f64) {
    let n = model.pin_node[p] as usize;
    (model.x[n] + model.pin_dx[p], model.y[n] + model.pin_dy[p])
}

fn bounds_of_net(model: &PlacementModel, s: usize, t: usize) -> (f64, f64, f64, f64) {
    let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
    for p in s..t {
        let (px, py) = pin_pos(model, p);
        min_x = min_x.min(px);
        max_x = max_x.max(px);
        min_y = min_y.min(py);
        max_y = max_y.max(py);
    }
    (min_x, max_x, min_y, max_y)
}

/// Exact total HPWL, as one kernel launch.
pub fn hpwl(device: &Device, model: &PlacementModel) -> f64 {
    let kernel = KernelInfo::new("hpwl")
        .bytes(model.num_pins() as u64 * 24)
        .flops(model.num_pins() as u64 * 8);
    device.launch(kernel, || {
        let mut total = 0.0;
        for e in 0..model.num_nets() {
            let (s, t) = net_range(model, e);
            if t - s < 2 {
                continue;
            }
            let (min_x, max_x, min_y, max_y) = bounds_of_net(model, s, t);
            total += model.net_weight[e] * ((max_x - min_x) + (max_y - min_y));
        }
        total
    })
}

/// Per-net WA accumulation for one coordinate; returns the net's WA value
/// and writes per-pin gradient contributions through `grad`.
#[inline]
fn wa_net_coord(
    s: usize,
    t: usize,
    gamma: f64,
    min_v: f64,
    max_v: f64,
    coord: impl Fn(usize) -> f64,
    mut grad: impl FnMut(usize, f64),
) -> f64 {
    // Stable WA (Eq. 6): exponents shifted by the net extrema.
    let inv_gamma = 1.0 / gamma;
    let (mut s_pos, mut su_pos, mut s_neg, mut su_neg) = (0.0, 0.0, 0.0, 0.0);
    for p in s..t {
        let v = coord(p);
        let a_pos = ((v - max_v) * inv_gamma).exp();
        let a_neg = ((min_v - v) * inv_gamma).exp();
        s_pos += a_pos;
        su_pos += v * a_pos;
        s_neg += a_neg;
        su_neg += v * a_neg;
    }
    let wl_pos = su_pos / s_pos;
    let wl_neg = su_neg / s_neg;
    for p in s..t {
        let v = coord(p);
        let a_pos = ((v - max_v) * inv_gamma).exp();
        let a_neg = ((min_v - v) * inv_gamma).exp();
        let d_pos = a_pos / s_pos * (1.0 + (v - wl_pos) * inv_gamma);
        let d_neg = a_neg / s_neg * (1.0 - (v - wl_neg) * inv_gamma);
        grad(p, d_pos - d_neg);
    }
    wl_pos - wl_neg
}

/// Receives the per-node gradient terms of a [`wa_pass`]. The pass is
/// monomorphized per sink, so the forward-only `()` sink compiles the
/// gradient scatter away and the accumulating sink pays no per-pin branch.
trait GradSink {
    fn add_x(&mut self, node: usize, d: f64);
    fn add_y(&mut self, node: usize, d: f64);
}

impl GradSink for () {
    #[inline]
    fn add_x(&mut self, _: usize, _: f64) {}
    #[inline]
    fn add_y(&mut self, _: usize, _: f64) {}
}

impl GradSink for (&mut [f64], &mut [f64]) {
    #[inline]
    fn add_x(&mut self, node: usize, d: f64) {
        self.0[node] += d;
    }
    #[inline]
    fn add_y(&mut self, node: usize, d: f64) {
        self.1[node] += d;
    }
}

/// The one WA net loop: a serial pass over the nets in `nets`, returning
/// their WA wirelength and HPWL and scattering movable-node gradients into
/// `grad`.
fn wa_pass(
    model: &PlacementModel,
    gamma: f64,
    nets: std::ops::Range<usize>,
    mut grad: impl GradSink,
) -> FusedWirelength {
    let nm = model.num_movable();
    let mut out = FusedWirelength::default();
    for e in nets {
        let (s, t) = net_range(model, e);
        if t - s < 2 {
            continue;
        }
        let weight = model.net_weight[e];
        let (min_x, max_x, min_y, max_y) = bounds_of_net(model, s, t);
        out.hpwl += weight * ((max_x - min_x) + (max_y - min_y));
        let wx = wa_net_coord(
            s,
            t,
            gamma,
            min_x,
            max_x,
            |p| pin_pos(model, p).0,
            |p, d| {
                let n = model.pin_node[p] as usize;
                if n < nm {
                    grad.add_x(n, weight * d);
                }
            },
        );
        let wy = wa_net_coord(
            s,
            t,
            gamma,
            min_y,
            max_y,
            |p| pin_pos(model, p).1,
            |p, d| {
                let n = model.pin_node[p] as usize;
                if n < nm {
                    grad.add_y(n, weight * d);
                }
            },
        );
        out.wa += weight * (wx + wy);
    }
    out
}

/// The merged WA-objective-and-gradient kernel (DREAMPlace's granularity):
/// computes the WA wirelength and accumulates `d WA / d x_i` into
/// `grad_x`/`grad_y` for movable nodes, in one launch. HPWL is **not**
/// produced; DREAMPlace launches [`hpwl`] separately.
///
/// # Panics
///
/// Panics if the gradient slices are shorter than the movable-node count.
pub fn wa_with_grad(
    device: &Device,
    model: &PlacementModel,
    gamma: f64,
    grad_x: &mut [f64],
    grad_y: &mut [f64],
) -> f64 {
    assert!(grad_x.len() >= model.num_movable() && grad_y.len() >= model.num_movable());
    let kernel = KernelInfo::new("wa_with_grad")
        .bytes(model.num_pins() as u64 * 56)
        .flops(model.num_pins() as u64 * 60);
    device.launch(kernel, || {
        wa_pass(model, gamma, 0..model.num_nets(), (grad_x, grad_y)).wa
    })
}

/// Xplace's combined kernel (§3.1.1): WA wirelength, WA gradient and HPWL
/// share a single pass and a single min/max computation.
///
/// # Panics
///
/// Panics if the gradient slices are shorter than the movable-node count.
pub fn wa_fused(
    device: &Device,
    model: &PlacementModel,
    gamma: f64,
    grad_x: &mut [f64],
    grad_y: &mut [f64],
) -> FusedWirelength {
    assert!(grad_x.len() >= model.num_movable() && grad_y.len() >= model.num_movable());
    let kernel = KernelInfo::new("wa_fused")
        .bytes(model.num_pins() as u64 * 56)
        .flops(model.num_pins() as u64 * 68);
    device.launch(kernel, || {
        wa_pass(model, gamma, 0..model.num_nets(), (grad_x, grad_y))
    })
}

/// Fixed net-block size for the blocked parallel wirelength decomposition.
///
/// The block grid depends only on the model size — never the thread count —
/// so the per-block partials and their fixed-order merge are identical for
/// every `threads` value: changing `threads` changes scheduling, not
/// arithmetic.
pub const NET_BLOCK: usize = 2048;

/// Multithreaded variant of [`wa_fused`]: the same single fused kernel,
/// with its body decomposed into fixed [`NET_BLOCK`]-net blocks executed on
/// `pool` — the zero-allocation form used by the gradient engine's hot
/// loop. Each block accumulates into private gradient buffers held in `ws`,
/// merged in block order afterwards, so the result is bit-identical for
/// **any** thread count; designs that fit in one block take the plain
/// serial [`wa_fused`] path.
///
/// # Panics
///
/// Panics if the gradient slices are shorter than the movable-node count.
#[allow(clippy::too_many_arguments)]
pub fn wa_fused_mt_ws(
    device: &Device,
    model: &PlacementModel,
    gamma: f64,
    grad_x: &mut [f64],
    grad_y: &mut [f64],
    threads: usize,
    pool: &WorkerPool,
    ws: &mut WaWorkspace,
) -> FusedWirelength {
    wa_fused_blocked_ws(
        device, model, gamma, grad_x, grad_y, threads, NET_BLOCK, pool, ws,
    )
}

/// [`wa_fused_mt_ws`] with an explicit block size — the deterministic
/// blocked core. Exposed so tests and benchmarks can force multi-block
/// decompositions on small designs. The per-block gradient accumulators
/// live in the caller-owned [`WaWorkspace`] instead of being allocated per
/// call; slot `b` is zero-filled before block `b`'s pass, so a reused
/// workspace produces bit-identical results to a fresh one.
///
/// # Panics
///
/// Panics if the gradient slices are shorter than the movable-node count or
/// `net_block` is zero.
#[allow(clippy::too_many_arguments)]
pub fn wa_fused_blocked_ws(
    device: &Device,
    model: &PlacementModel,
    gamma: f64,
    grad_x: &mut [f64],
    grad_y: &mut [f64],
    threads: usize,
    net_block: usize,
    pool: &WorkerPool,
    ws: &mut WaWorkspace,
) -> FusedWirelength {
    assert!(net_block > 0, "net_block must be nonzero");
    let num_nets = model.num_nets();
    let blocks = num_nets.div_ceil(net_block).max(1);
    if blocks == 1 {
        return wa_fused(device, model, gamma, grad_x, grad_y);
    }
    assert!(grad_x.len() >= model.num_movable() && grad_y.len() >= model.num_movable());
    let kernel = KernelInfo::new("wa_fused")
        .bytes(model.num_pins() as u64 * 56)
        .flops(model.num_pins() as u64 * 68);
    device.launch(kernel, || {
        let nm = model.num_movable();
        ws.prepare(blocks, nm);
        let partials = pool.run_mut(&mut ws.slots[..blocks], threads.max(1), |b, slot| {
            let lo = b * net_block;
            let hi = (lo + net_block).min(num_nets);
            let (gx, gy) = slot;
            gx.fill(0.0);
            gy.fill(0.0);
            wa_pass(model, gamma, lo..hi, (gx.as_mut_slice(), gy.as_mut_slice()))
        });
        // Merge in block order: fixed reduction order for any thread count.
        let mut total = FusedWirelength::default();
        for (out, (gx, gy)) in partials.iter().zip(&ws.slots[..blocks]) {
            total.wa += out.wa;
            total.hpwl += out.hpwl;
            for i in 0..nm {
                grad_x[i] += gx[i];
                grad_y[i] += gy[i];
            }
        }
        total
    })
}

/// Forward-only WA wirelength (autograd mode): one launch, no gradient.
pub fn wa_forward(device: &Device, model: &PlacementModel, gamma: f64) -> f64 {
    let kernel = KernelInfo::new("wa_forward")
        .bytes(model.num_pins() as u64 * 40)
        .flops(model.num_pins() as u64 * 40)
        .out_of_place();
    device.launch(kernel, || wa_pass(model, gamma, 0..model.num_nets(), ()).wa)
}

/// Device-free WA gradient accumulation, for use *inside* an already
/// launched kernel (e.g. an autograd-tape backward replay, which performs
/// its own launch accounting).
///
/// # Panics
///
/// Panics if the gradient slices are shorter than the movable-node count.
pub fn wa_grad_into(model: &PlacementModel, gamma: f64, grad_x: &mut [f64], grad_y: &mut [f64]) {
    assert!(grad_x.len() >= model.num_movable() && grad_y.len() >= model.num_movable());
    wa_pass(model, gamma, 0..model.num_nets(), (grad_x, grad_y));
}

/// Backward WA kernel (autograd mode): recomputes the exponent sums and
/// accumulates the gradient, as the tape-driven backward op would.
///
/// # Panics
///
/// Panics if the gradient slices are shorter than the movable-node count.
pub fn wa_backward(
    device: &Device,
    model: &PlacementModel,
    gamma: f64,
    grad_x: &mut [f64],
    grad_y: &mut [f64],
) {
    assert!(grad_x.len() >= model.num_movable() && grad_y.len() >= model.num_movable());
    let kernel = KernelInfo::new("wa_backward")
        .bytes(model.num_pins() as u64 * 56)
        .flops(model.num_pins() as u64 * 60)
        .out_of_place();
    device.launch(kernel, || {
        wa_pass(model, gamma, 0..model.num_nets(), (grad_x, grad_y));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use xplace_db::synthesis::{synthesize, SynthesisSpec};
    use xplace_device::DeviceConfig;

    fn setup(cells: usize) -> (PlacementModel, Device) {
        let design =
            synthesize(&SynthesisSpec::new("wl", cells, cells + 20).with_seed(11)).unwrap();
        let mut model = PlacementModel::from_design(&design).unwrap();
        // Spread the cells so nets have nonzero extent.
        let r = model.region();
        for i in 0..model.num_movable() {
            model.x[i] = r.lx + (i as f64 * 0.618).fract() * r.width();
            model.y[i] = r.ly + (i as f64 * 0.414).fract() * r.height();
        }
        (model, Device::new(DeviceConfig::instant()))
    }

    #[test]
    fn hpwl_matches_design_convention() {
        let design = synthesize(&SynthesisSpec::new("h", 200, 220).with_seed(3)).unwrap();
        let model = PlacementModel::from_design(&design).unwrap();
        let device = Device::new(DeviceConfig::instant());
        let fast = hpwl(&device, &model);
        assert!((fast - design.total_hpwl()).abs() < 1e-6 * fast.max(1.0));
    }

    #[test]
    fn wa_lower_bounds_hpwl_and_converges_as_gamma_shrinks() {
        let (model, device) = setup(300);
        let exact = hpwl(&device, &model);
        let mut prev_err = f64::INFINITY;
        for gamma in [50.0, 10.0, 1.0, 0.1] {
            let wa = wa_forward(&device, &model, gamma);
            assert!(wa <= exact + 1e-6, "WA {wa} should not exceed HPWL {exact}");
            let err = exact - wa;
            assert!(err <= prev_err + 1e-9, "error should shrink with gamma");
            prev_err = err;
        }
        assert!(
            prev_err < exact * 0.01,
            "gamma=0.1 should be within 1% of HPWL"
        );
    }

    #[test]
    fn fused_kernel_agrees_with_split_kernels() {
        let (model, device) = setup(250);
        let gamma = 5.0;
        let nm = model.num_movable();
        let (mut gx1, mut gy1) = (vec![0.0; nm], vec![0.0; nm]);
        let (mut gx2, mut gy2) = (vec![0.0; nm], vec![0.0; nm]);
        let fused = wa_fused(&device, &model, gamma, &mut gx1, &mut gy1);
        let wa_split = wa_with_grad(&device, &model, gamma, &mut gx2, &mut gy2);
        let hpwl_split = hpwl(&device, &model);
        assert!((fused.wa - wa_split).abs() < 1e-9 * fused.wa.abs().max(1.0));
        assert!((fused.hpwl - hpwl_split).abs() < 1e-9 * fused.hpwl.max(1.0));
        for i in 0..nm {
            assert!((gx1[i] - gx2[i]).abs() < 1e-12);
            assert!((gy1[i] - gy2[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let (mut model, device) = setup(60);
        let gamma = 8.0;
        let nm = model.num_movable();
        let (mut gx, mut gy) = (vec![0.0; nm], vec![0.0; nm]);
        wa_fused(&device, &model, gamma, &mut gx, &mut gy);
        let eps = 1e-5;
        for &i in &[0usize, 7, 23, nm - 1] {
            let x0 = model.x[i];
            model.x[i] = x0 + eps;
            let plus = wa_forward(&device, &model, gamma);
            model.x[i] = x0 - eps;
            let minus = wa_forward(&device, &model, gamma);
            model.x[i] = x0;
            let fd = (plus - minus) / (2.0 * eps);
            assert!(
                (gx[i] - fd).abs() < 1e-5 * fd.abs().max(1.0),
                "node {i}: analytic {} vs fd {fd}",
                gx[i]
            );
        }
    }

    #[test]
    fn backward_accumulates_same_gradient_as_merged() {
        let (model, device) = setup(150);
        let nm = model.num_movable();
        let (mut gx1, mut gy1) = (vec![0.0; nm], vec![0.0; nm]);
        let (mut gx2, mut gy2) = (vec![0.0; nm], vec![0.0; nm]);
        wa_with_grad(&device, &model, 4.0, &mut gx1, &mut gy1);
        wa_backward(&device, &model, 4.0, &mut gx2, &mut gy2);
        assert_eq!(gx1, gx2);
        assert_eq!(gy1, gy2);
    }

    #[test]
    fn coincident_pins_produce_finite_zero_gradient() {
        let (mut model, device) = setup(50);
        let c = model.region().center();
        for i in 0..model.num_nodes() {
            model.x[i] = c.x;
            model.y[i] = c.y;
        }
        // Zero the pin offsets so every pin is exactly coincident.
        for d in model.pin_dx.iter_mut().chain(model.pin_dy.iter_mut()) {
            *d = 0.0;
        }
        let nm = model.num_movable();
        let (mut gx, mut gy) = (vec![0.0; nm], vec![0.0; nm]);
        let out = wa_fused(&device, &model, 1.0, &mut gx, &mut gy);
        assert!(out.wa.abs() < 1e-9);
        assert!(out.hpwl.abs() < 1e-9);
        for i in 0..nm {
            assert!(gx[i].is_finite() && gx[i].abs() < 1e-9);
            assert!(gy[i].is_finite() && gy[i].abs() < 1e-9);
        }
    }

    #[test]
    fn tiny_gamma_does_not_overflow() {
        let (model, device) = setup(100);
        let nm = model.num_movable();
        let (mut gx, mut gy) = (vec![0.0; nm], vec![0.0; nm]);
        let out = wa_fused(&device, &model, 1e-3, &mut gx, &mut gy);
        assert!(out.wa.is_finite());
        assert!(gx.iter().all(|g| g.is_finite()));
        assert!(gy.iter().all(|g| g.is_finite()));
    }

    #[test]
    fn launch_counts_match_operator_granularity() {
        let (model, device) = setup(80);
        let nm = model.num_movable();
        let (mut gx, mut gy) = (vec![0.0; nm], vec![0.0; nm]);
        let before = device.profile();
        wa_fused(&device, &model, 2.0, &mut gx, &mut gy);
        assert_eq!((device.profile() - before).launches, 1);
        let before = device.profile();
        wa_with_grad(&device, &model, 2.0, &mut gx, &mut gy);
        hpwl(&device, &model);
        assert_eq!((device.profile() - before).launches, 2);
        let before = device.profile();
        wa_forward(&device, &model, 2.0);
        wa_backward(&device, &model, 2.0, &mut gx, &mut gy);
        hpwl(&device, &model);
        assert_eq!((device.profile() - before).launches, 3);
    }

    #[test]
    fn net_weights_scale_objective_and_gradient() {
        let (model, device) = setup(120);
        let mut heavy = model.clone();
        for w in heavy.net_weight.iter_mut() {
            *w = 2.5;
        }
        let nm = model.num_movable();
        let (mut gx1, mut gy1) = (vec![0.0; nm], vec![0.0; nm]);
        let (mut gx2, mut gy2) = (vec![0.0; nm], vec![0.0; nm]);
        let base = wa_fused(&device, &model, 4.0, &mut gx1, &mut gy1);
        let scaled = wa_fused(&device, &heavy, 4.0, &mut gx2, &mut gy2);
        assert!((scaled.wa - 2.5 * base.wa).abs() < 1e-9 * base.wa.abs().max(1.0));
        assert!((scaled.hpwl - 2.5 * base.hpwl).abs() < 1e-9 * base.hpwl.max(1.0));
        for i in 0..nm {
            assert!((gx2[i] - 2.5 * gx1[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn moving_a_cell_toward_its_net_reduces_wa() {
        let (mut model, device) = setup(120);
        let nm = model.num_movable();
        let (mut gx, mut gy) = (vec![0.0; nm], vec![0.0; nm]);
        let before = wa_forward(&device, &model, 3.0);
        wa_fused(&device, &model, 3.0, &mut gx, &mut gy);
        // Take a small step along the negative gradient.
        for i in 0..nm {
            model.x[i] -= 0.05 * gx[i];
            model.y[i] -= 0.05 * gy[i];
        }
        let after = wa_forward(&device, &model, 3.0);
        assert!(
            after < before,
            "gradient step should reduce WA: {after} vs {before}"
        );
    }
}
