//! Wirelength operators: HPWL and the stable weighted-average wirelength.
//!
//! Four operator granularities are provided, matching the paper's
//! operator-combination story (§3.1.1):
//!
//! * [`hpwl`] — the exact half-perimeter wirelength, one kernel,
//! * [`wa_with_grad`] — the merged WA-objective-and-gradient kernel of
//!   DREAMPlace (computes the per-net min/max internally),
//! * [`wa_fused`] — Xplace's combined kernel: WA wirelength, WA gradient
//!   **and** HPWL in a single pass sharing one min/max computation,
//! * [`wa_forward`] / [`wa_backward`] — the split pair launched one after
//!   the other when autograd drives the backward pass (operator reduction
//!   *off*).
//!
//! All WA math uses the numerically stable form of Eq. (6): exponents are
//! shifted by the per-net extrema so they never overflow. Every WA kernel
//! runs one net loop, `wa_pass`, which reads each pin once into a per-net
//! scratch and evaluates each exponential once (see [`WaWorkspace`]); a
//! two-pin net skips the scratch and needs one exponential per coordinate.

use crate::PlacementModel;
use xplace_device::{Device, KernelInfo};
use xplace_parallel::WorkerPool;

/// Reusable per-block scratch for [`wa_fused_blocked_ws`].
///
/// Each net block owns one slot: gradient accumulators over the movable
/// nodes its pins touch (multi-block passes only) and the per-net pin
/// scratch of `wa_pass`, which holds one net's gathered pin positions and
/// both shifted exponentials of every pin. Allocating these fresh on every
/// call would put allocations on the hottest path of every GP iteration; a
/// workspace hoists them into slots that persist across calls (task `b`
/// always uses slot `b`, gradients zero-filled before each pass, pin scratch
/// fully rewritten per net, so reuse is bitwise-identical to fresh buffers).
#[derive(Debug, Clone, Default)]
pub struct WaWorkspace {
    /// One slot per net block, grown on demand.
    slots: Vec<WaSlot>,
}

/// One net block's share of a [`WaWorkspace`].
#[derive(Debug, Clone, Default)]
struct WaSlot {
    grad_x: Vec<f64>,
    grad_y: Vec<f64>,
    pins: Vec<NetPin>,
}

impl WaWorkspace {
    /// Creates an empty workspace; slots are allocated on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The first `blocks` slots, created on first use.
    fn slots(&mut self, blocks: usize) -> &mut [WaSlot] {
        if self.slots.len() < blocks {
            self.slots.resize_with(blocks, Default::default);
        }
        &mut self.slots[..blocks]
    }
}

/// One pin of the net [`wa_pass`] is processing: its node, its `[x, y]`
/// position, and its `(a_pos, a_neg)` per coordinate. A `Vec<NetPin>` is the
/// per-net pin scratch; it is rewritten per net, so it holds at most one net
/// and stops reallocating once it has seen the largest net degree.
#[derive(Debug, Clone, Copy)]
struct NetPin {
    node: usize,
    v: [f64; 2],
    a: [(f64, f64); 2],
}

/// Copies the pins `s..t` into `pins`, returning the net bounds
/// `(min_x, max_x, min_y, max_y)` computed on the way.
fn gather_net(
    model: &PlacementModel,
    s: usize,
    t: usize,
    pins: &mut Vec<NetPin>,
) -> (f64, f64, f64, f64) {
    pins.clear();
    let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
    for p in s..t {
        let (px, py) = pin_pos(model, p);
        min_x = min_x.min(px);
        max_x = max_x.max(px);
        min_y = min_y.min(py);
        max_y = max_y.max(py);
        pins.push(NetPin {
            node: model.pin_node[p] as usize,
            v: [px, py],
            a: [(0.0, 0.0); 2],
        });
    }
    (min_x, max_x, min_y, max_y)
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

/// Exact total HPWL, as one kernel launch.
pub fn hpwl(device: &Device, model: &PlacementModel) -> f64 {
    let kernel = KernelInfo::new("hpwl")
        .bytes(model.num_pins() as u64 * 24)
        .flops(model.num_pins() as u64 * 8);
    let mut pins = Vec::new();
    device.launch(kernel, || {
        let mut total = 0.0;
        for e in 0..model.num_nets() {
            let (s, t) = net_range(model, e);
            if t - s < 2 {
                continue;
            }
            let (min_x, max_x, min_y, max_y) = gather_net(model, s, t, &mut pins);
            total += model.net_weight[e] * ((max_x - min_x) + (max_y - min_y));
        }
        total
    })
}

/// One coordinate of a net's stable WA (Eq. 6): the exponent sums and the
/// two weighted averages, exponents shifted by the net extrema.
struct WaCoord {
    inv_gamma: f64,
    s_pos: f64,
    s_neg: f64,
    wl_pos: f64,
    wl_neg: f64,
}

impl WaCoord {
    /// Evaluates `a_pos = exp((v − max_v)·inv_γ)` and
    /// `a_neg = exp((min_v − v)·inv_γ)` once per pin, for coordinate `c`
    /// (0 = x, 1 = y), storing each pair in the pin for [`WaCoord::grad`],
    /// and forms the sums.
    #[inline]
    fn eval(pins: &mut [NetPin], c: usize, min_v: f64, max_v: f64, inv_gamma: f64) -> Self {
        let (mut s_pos, mut su_pos, mut s_neg, mut su_neg) = (0.0, 0.0, 0.0, 0.0);
        for pin in pins {
            let v = pin.v[c];
            let a_pos = ((v - max_v) * inv_gamma).exp();
            let a_neg = ((min_v - v) * inv_gamma).exp();
            s_pos += a_pos;
            su_pos += v * a_pos;
            s_neg += a_neg;
            su_neg += v * a_neg;
            pin.a[c] = (a_pos, a_neg);
        }
        Self::from_sums(inv_gamma, s_pos, su_pos, s_neg, su_neg)
    }

    /// [`WaCoord::eval`] for a two-pin net at the finite positions `v`,
    /// with a finite `inv_gamma`: one `exp` instead of four, same bits.
    ///
    /// The pin at the max has `a_pos = exp(±0) = 1` and the pin at the min
    /// `a_neg = 1`. For `v0 < v1`, `min`/`max` return the bits of `v0`/`v1`,
    /// so the two exponents left, `(v0 − max)·inv_γ` and `(min − v1)·inv_γ`,
    /// are both `(min − max)·inv_γ`; on a tie that is `±0` and `e = 1`. The
    /// sums then run from `0.0`, pin 0 then pin 1, as in `eval`.
    #[inline]
    fn eval_two(v: [f64; 2], min_v: f64, max_v: f64, inv_gamma: f64) -> (Self, [(f64, f64); 2]) {
        let e = ((min_v - max_v) * inv_gamma).exp();
        let pick = |below: bool| if below { e } else { 1.0 };
        let a = [
            (pick(v[0] < v[1]), pick(v[1] < v[0])),
            (pick(v[1] < v[0]), pick(v[0] < v[1])),
        ];
        let s_pos = 0.0 + a[0].0 + a[1].0;
        let su_pos = 0.0 + v[0] * a[0].0 + v[1] * a[1].0;
        let s_neg = 0.0 + a[0].1 + a[1].1;
        let su_neg = 0.0 + v[0] * a[0].1 + v[1] * a[1].1;
        (Self::from_sums(inv_gamma, s_pos, su_pos, s_neg, su_neg), a)
    }

    /// The coordinate's two weighted averages from its exponent sums.
    #[inline]
    fn from_sums(inv_gamma: f64, s_pos: f64, su_pos: f64, s_neg: f64, su_neg: f64) -> Self {
        Self {
            inv_gamma,
            s_pos,
            s_neg,
            wl_pos: su_pos / s_pos,
            wl_neg: su_neg / s_neg,
        }
    }

    /// The net's WA extent along this coordinate.
    #[inline]
    fn wa(&self) -> f64 {
        self.wl_pos - self.wl_neg
    }

    /// `d WA / d v` of one pin at `v`, from its stored exponentials.
    #[inline]
    fn grad(&self, v: f64, (a_pos, a_neg): (f64, f64)) -> f64 {
        let d_pos = a_pos / self.s_pos * (1.0 + (v - self.wl_pos) * self.inv_gamma);
        let d_neg = a_neg / self.s_neg * (1.0 - (v - self.wl_neg) * self.inv_gamma);
        d_pos - d_neg
    }
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

/// Gradient accumulators for the nodes `base..base + x.len()`.
struct GradWindow<'a> {
    base: usize,
    x: &'a mut [f64],
    y: &'a mut [f64],
}

impl<'a> GradWindow<'a> {
    /// Accumulators indexed by node from 0.
    fn whole(x: &'a mut [f64], y: &'a mut [f64]) -> Self {
        Self { base: 0, x, y }
    }
}

impl GradSink for GradWindow<'_> {
    #[inline]
    fn add_x(&mut self, node: usize, d: f64) {
        self.x[node - self.base] += d;
    }
    #[inline]
    fn add_y(&mut self, node: usize, d: f64) {
        self.y[node - self.base] += d;
    }
}

/// The movable nodes the pins of nets `nets` touch, as one index range
/// (empty when they touch none).
fn movable_span(model: &PlacementModel, nets: std::ops::Range<usize>) -> std::ops::Range<usize> {
    let nm = model.num_movable();
    let pins = model.net_start[nets.start] as usize..model.net_start[nets.end] as usize;
    let (mut lo, mut hi) = (nm, 0);
    for &n in &model.pin_node[pins] {
        let n = n as usize;
        if n < nm {
            lo = lo.min(n);
            hi = hi.max(n + 1);
        }
    }
    lo.min(hi)..hi
}

/// The one WA net loop: a serial pass over the nets in `nets`, returning
/// their WA wirelength and HPWL and scattering movable-node gradients into
/// `grad`.
///
/// Each net reads its pins once: [`gather_net`] copies them into `pins`
/// while computing the bounds, [`WaCoord::eval`] evaluates every
/// exponential once into the scratch, and the gradient reuses the stored
/// values. A two-pin net with finite coordinates (and a finite `1/γ`)
/// skips the scratch and takes [`WaCoord::eval_two`]'s one `exp` per
/// coordinate, with the same bits.
fn wa_pass(
    model: &PlacementModel,
    gamma: f64,
    nets: std::ops::Range<usize>,
    pins: &mut Vec<NetPin>,
    mut grad: impl GradSink,
) -> FusedWirelength {
    let nm = model.num_movable();
    let inv_gamma = 1.0 / gamma;
    let two_pin_exact = inv_gamma.is_finite();
    let mut out = FusedWirelength::default();
    for e in nets {
        let (s, t) = net_range(model, e);
        if t - s < 2 {
            continue;
        }
        let weight = model.net_weight[e];
        if t - s == 2 && two_pin_exact {
            let ((x0, y0), (x1, y1)) = (pin_pos(model, s), pin_pos(model, s + 1));
            if [x0, y0, x1, y1].iter().all(|v| v.is_finite()) {
                let (min_x, max_x) = (
                    f64::INFINITY.min(x0).min(x1),
                    f64::NEG_INFINITY.max(x0).max(x1),
                );
                let (min_y, max_y) = (
                    f64::INFINITY.min(y0).min(y1),
                    f64::NEG_INFINITY.max(y0).max(y1),
                );
                out.hpwl += weight * ((max_x - min_x) + (max_y - min_y));
                let (wx, ax) = WaCoord::eval_two([x0, x1], min_x, max_x, inv_gamma);
                let (wy, ay) = WaCoord::eval_two([y0, y1], min_y, max_y, inv_gamma);
                for (k, (vx, vy)) in [(x0, y0), (x1, y1)].into_iter().enumerate() {
                    let node = model.pin_node[s + k] as usize;
                    if node < nm {
                        grad.add_x(node, weight * wx.grad(vx, ax[k]));
                        grad.add_y(node, weight * wy.grad(vy, ay[k]));
                    }
                }
                out.wa += weight * (wx.wa() + wy.wa());
                continue;
            }
        }
        let (min_x, max_x, min_y, max_y) = gather_net(model, s, t, pins);
        out.hpwl += weight * ((max_x - min_x) + (max_y - min_y));
        let wx = WaCoord::eval(pins, 0, min_x, max_x, inv_gamma);
        let wy = WaCoord::eval(pins, 1, min_y, max_y, inv_gamma);
        for pin in pins.iter() {
            if pin.node < nm {
                grad.add_x(pin.node, weight * wx.grad(pin.v[0], pin.a[0]));
                grad.add_y(pin.node, weight * wy.grad(pin.v[1], pin.a[1]));
            }
        }
        out.wa += weight * (wx.wa() + wy.wa());
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
    let grad = GradWindow::whole(grad_x, grad_y);
    device.launch(kernel, || {
        wa_pass(model, gamma, 0..model.num_nets(), &mut Vec::new(), grad).wa
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
    wa_fused_serial(device, model, gamma, grad_x, grad_y, &mut Vec::new())
}

/// The launch descriptor shared by every form of the fused kernel.
fn wa_fused_kernel(model: &PlacementModel) -> KernelInfo {
    KernelInfo::new("wa_fused")
        .bytes(model.num_pins() as u64 * 56)
        .flops(model.num_pins() as u64 * 68)
}

/// [`wa_fused`] with caller-owned pin scratch.
fn wa_fused_serial(
    device: &Device,
    model: &PlacementModel,
    gamma: f64,
    grad_x: &mut [f64],
    grad_y: &mut [f64],
    pins: &mut Vec<NetPin>,
) -> FusedWirelength {
    assert!(grad_x.len() >= model.num_movable() && grad_y.len() >= model.num_movable());
    let grad = GradWindow::whole(grad_x, grad_y);
    device.launch(wa_fused_kernel(model), || {
        wa_pass(model, gamma, 0..model.num_nets(), pins, grad)
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
/// serial [`wa_fused`] pass, with its pin scratch held in `ws` too.
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
/// decompositions on small designs. The per-block gradient accumulators and
/// pin scratch live in the caller-owned [`WaWorkspace`] instead of being
/// allocated per call; slot `b` is zero-filled before block `b`'s pass, so a
/// reused workspace produces bit-identical results to a fresh one.
///
/// A block's accumulators cover only the window of movable nodes its pins
/// touch, and it merges over that window alone. Outside it the block's
/// partial is `+0.0`, whose addition changes no bit of a gradient entry
/// other than a `-0.0` (the engine zero-fills with `+0.0`). On designs whose
/// nets connect nearby nodes, such as systolic grids, the windows are short
/// and the zero-fill and merge shrink with them.
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
        let pins = &mut ws.slots(1)[0].pins;
        return wa_fused_serial(device, model, gamma, grad_x, grad_y, pins);
    }
    assert!(grad_x.len() >= model.num_movable() && grad_y.len() >= model.num_movable());
    device.launch(wa_fused_kernel(model), || {
        let slots = ws.slots(blocks);
        let partials = pool.run_mut(slots, threads.max(1), |b, slot| {
            let lo = b * net_block;
            let nets = lo..(lo + net_block).min(num_nets);
            let span = movable_span(model, nets.clone());
            for g in [&mut slot.grad_x, &mut slot.grad_y] {
                g.clear();
                g.resize(span.len(), 0.0);
            }
            let grad = GradWindow {
                base: span.start,
                x: &mut slot.grad_x,
                y: &mut slot.grad_y,
            };
            (wa_pass(model, gamma, nets, &mut slot.pins, grad), span)
        });
        // Merge in block order: fixed reduction order for any thread count.
        let mut total = FusedWirelength::default();
        for ((out, span), slot) in partials.iter().zip(slots.iter()) {
            total.wa += out.wa;
            total.hpwl += out.hpwl;
            for (g, d) in grad_x[span.clone()].iter_mut().zip(&slot.grad_x) {
                *g += d;
            }
            for (g, d) in grad_y[span.clone()].iter_mut().zip(&slot.grad_y) {
                *g += d;
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
    device.launch(kernel, || {
        wa_pass(model, gamma, 0..model.num_nets(), &mut Vec::new(), ()).wa
    })
}

/// Backward WA kernel (autograd mode): recomputes the exponent sums and
/// accumulates the gradient in its own launch, as autograd's backward op
/// would.
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
    let grad = GradWindow::whole(grad_x, grad_y);
    device.launch(kernel, || {
        wa_pass(model, gamma, 0..model.num_nets(), &mut Vec::new(), grad);
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
        // Every path runs the same net loop, so they agree to the bit.
        assert_eq!(fused.wa.to_bits(), wa_split.to_bits());
        assert_eq!(fused.hpwl.to_bits(), hpwl_split.to_bits());
        for i in 0..nm {
            assert_eq!(gx1[i].to_bits(), gx2[i].to_bits(), "gx at {i}");
            assert_eq!(gy1[i].to_bits(), gy2[i].to_bits(), "gy at {i}");
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
    fn two_pin_net_with_a_non_finite_coordinate_has_non_finite_wa() {
        let (mut model, device) = setup(60);
        // Re-cut the pins into two-pin nets, so every net takes the two-pin
        // path unless a coordinate is not finite.
        let pins = model.num_pins();
        model.net_start = (0..pins as u32).step_by(2).chain([pins as u32]).collect();
        model.net_weight = vec![1.0; model.net_start.len() - 1];
        let nm = model.num_movable();
        let node = model.pin_node[1] as usize;
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for coord in [0, 1] {
                let mut m = model.clone();
                [&mut m.x, &mut m.y][coord][node] = bad;
                let (mut gx, mut gy) = (vec![0.0; nm], vec![0.0; nm]);
                let fused = wa_fused(&device, &m, 2.0, &mut gx, &mut gy);
                assert!(!fused.wa.is_finite(), "{bad} in coordinate {coord}");
                assert!(!wa_forward(&device, &m, 2.0).is_finite());
            }
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
