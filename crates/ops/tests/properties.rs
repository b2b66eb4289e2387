//! Property-based tests of the placement operators.

use std::ops::Range;

use xplace_db::synthesis::{synthesize, SynthesisSpec};
use xplace_device::{Device, DeviceConfig};
use xplace_fft::Grid2;
use xplace_ops::{density::DensityOp, precond, wirelength, PlacementModel};
use xplace_testkit::prop::Config;
use xplace_testkit::{prop_assert, prop_assert_eq, props};

fn scattered_model(cells: usize, seed: u64, spread_seed: u64) -> PlacementModel {
    let design = synthesize(&SynthesisSpec::new("prop", cells, cells + 10).with_seed(seed))
        .expect("synthesis");
    let mut m = PlacementModel::from_design(&design).expect("model");
    let r = m.region();
    let ranges = m.ranges();
    for i in ranges.movable.chain(ranges.filler) {
        let fx = (((i as u64).wrapping_mul(0x9e37_79b9) ^ spread_seed) % 10_007) as f64 / 10_007.0;
        let fy = (((i as u64).wrapping_mul(0x517c_c1b7) ^ spread_seed) % 10_007) as f64 / 10_007.0;
        m.x[i] = r.lx + fx * r.width();
        m.y[i] = r.ly + fy * r.height();
    }
    m.clamp_to_region();
    m
}

/// The blocked fused wirelength kernel at a 32-net block size (a genuine
/// multi-block decomposition on these small models) with a fresh workspace.
fn wa_blocked(
    device: &Device,
    m: &PlacementModel,
    gx: &mut [f64],
    gy: &mut [f64],
    threads: usize,
) -> wirelength::FusedWirelength {
    let mut ws = wirelength::WaWorkspace::new();
    let pool = xplace_parallel::global();
    wirelength::wa_fused_blocked_ws(device, m, 5.0, gx, gy, threads, 32, pool, &mut ws)
}

/// `scattered_model` with its nets re-cut over the same pin array: one net
/// of `big` pins, then nets cycling through degrees 2, 1, 2, 3, 5, 2, 4 (a
/// degree-1 net is skipped by every kernel), with non-uniform weights.
fn recut_model(cells: usize, seed: u64, big: usize) -> PlacementModel {
    let mut m = scattered_model(cells, seed, seed ^ 0x3c);
    let pins = m.num_pins();
    assert!(pins > big, "{pins} pins cannot hold a {big}-pin net");
    let mut net_start = vec![0, big as u32];
    let mut at = big;
    for degree in [2, 1, 2, 3, 5, 2, 4].into_iter().cycle() {
        at = (at + degree).min(pins);
        net_start.push(at as u32);
        if at == pins {
            break;
        }
    }
    m.net_weight = (0..net_start.len() - 1)
        .map(|e| 0.5 + (e % 7) as f64 * 0.25)
        .collect();
    m.net_start = net_start;
    m
}

/// The extent, in x, of every eighth net of [`two_pin_model`]; its y extent
/// is twice as large.
const TWO_PIN_SPAN: f64 = 90.0;
/// A γ at which `exp(−TWO_PIN_SPAN / γ) = exp(−720)` is subnormal.
const GAMMA_SUBNORMAL: f64 = 0.125;
/// A γ at which `exp(−TWO_PIN_SPAN / γ) = exp(−900)` underflows to 0.
const GAMMA_UNDERFLOW: f64 = 0.1;

/// `scattered_model` re-cut into two-pin nets over the same pin array, on a
/// 1/8-unit grid so that pin offsets can place pins exactly. The nets cycle
/// through eight shapes: both pins on one node; coincident pins on two
/// nodes; both pins on one node at one offset; a `(−0, −0)` pin against a
/// `(+0, −0)` pin on a fixed terminal; one pin on a fixed node; both on
/// fixed nodes; a `(−0, +0)` pin against a scattered one; and a net spanning
/// exactly [`TWO_PIN_SPAN`] by twice that.
fn two_pin_model(cells: usize, seed: u64) -> PlacementModel {
    let mut m = scattered_model(cells, seed, seed ^ 0x2b);
    let snap = |v: &mut f64| *v = (*v * 8.0).round() / 8.0;
    m.x.iter_mut()
        .chain(m.y.iter_mut())
        .chain(m.pin_dx.iter_mut())
        .chain(m.pin_dy.iter_mut())
        .for_each(snap);
    let fixed = m.ranges().fixed;
    assert!(fixed.len() >= 2, "the model needs two fixed nodes");
    let (zero, terminal) = (0, fixed.start);
    (m.x[zero], m.y[zero]) = (-0.0, -0.0);
    (m.x[terminal], m.y[terminal]) = (0.0, -0.0);
    let pins = m.num_pins();
    m.net_start = (0..pins as u32).step_by(2).chain([pins as u32]).collect();
    m.net_weight = (0..m.net_start.len() - 1)
        .map(|e| 0.5 + (e % 5) as f64 * 0.25)
        .collect();
    for e in 0..pins / 2 {
        let (a, b) = (2 * e, 2 * e + 1);
        let node_of = |m: &PlacementModel, p: usize| m.pin_node[p] as usize;
        // Offsets that put pin `b` at pin `a`'s position plus `(dx, dy)`,
        // exact on the 1/8 grid.
        let place_b = |m: &mut PlacementModel, dx: f64, dy: f64| {
            let (na, nb) = (node_of(m, a), node_of(m, b));
            m.pin_dx[b] = m.x[na] + m.pin_dx[a] + dx - m.x[nb];
            m.pin_dy[b] = m.y[na] + m.pin_dy[a] + dy - m.y[nb];
        };
        match e % 8 {
            0 => {
                m.pin_node[b] = m.pin_node[a];
                m.pin_dx[b] = m.pin_dx[a] + 0.5;
            }
            1 => place_b(&mut m, 0.0, 0.0),
            2 => {
                m.pin_node[b] = m.pin_node[a];
                (m.pin_dx[b], m.pin_dy[b]) = (m.pin_dx[a], m.pin_dy[a]);
            }
            3 => {
                (m.pin_node[a], m.pin_dx[a], m.pin_dy[a]) = (zero as u32, -0.0, -0.0);
                (m.pin_node[b], m.pin_dx[b], m.pin_dy[b]) = (terminal as u32, 0.0, -0.0);
            }
            4 => m.pin_node[b] = fixed.end as u32 - 1,
            5 => (m.pin_node[a], m.pin_node[b]) = (terminal as u32, fixed.end as u32 - 1),
            6 => (m.pin_node[a], m.pin_dx[a], m.pin_dy[a]) = (zero as u32, -0.0, 0.0),
            _ => place_b(&mut m, TWO_PIN_SPAN, -2.0 * TWO_PIN_SPAN),
        }
    }
    m
}

/// Reference for one coordinate of a net's WA, in the two-evaluation form:
/// one pass over the pins forms the sums, and a second pass re-reads every
/// pin and re-evaluates both exponentials for the gradient. Returns the
/// net's WA extent along the coordinate.
fn reference_wa_net_coord(
    pins: Range<usize>,
    gamma: f64,
    min_v: f64,
    max_v: f64,
    coord: impl Fn(usize) -> f64,
    mut grad: impl FnMut(usize, f64),
) -> f64 {
    let inv_gamma = 1.0 / gamma;
    let (mut s_pos, mut su_pos, mut s_neg, mut su_neg) = (0.0, 0.0, 0.0, 0.0);
    for p in pins.clone() {
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
    for p in pins {
        let v = coord(p);
        let a_pos = ((v - max_v) * inv_gamma).exp();
        let a_neg = ((min_v - v) * inv_gamma).exp();
        let d_pos = a_pos / s_pos * (1.0 + (v - wl_pos) * inv_gamma);
        let d_neg = a_neg / s_neg * (1.0 - (v - wl_neg) * inv_gamma);
        grad(p, d_pos - d_neg);
    }
    wl_pos - wl_neg
}

/// The reference net loop over `nets`: returns `(wa, hpwl)` and adds the
/// movable-node gradient into `gx`/`gy`.
fn reference_wa_pass(
    m: &PlacementModel,
    gamma: f64,
    nets: Range<usize>,
    gx: &mut [f64],
    gy: &mut [f64],
) -> (f64, f64) {
    let nm = m.num_movable();
    let pos = |p: usize| {
        let n = m.pin_node[p] as usize;
        (m.x[n] + m.pin_dx[p], m.y[n] + m.pin_dy[p])
    };
    let (mut wa, mut hpwl) = (0.0, 0.0);
    for e in nets {
        let pins = m.net_start[e] as usize..m.net_start[e + 1] as usize;
        if pins.len() < 2 {
            continue;
        }
        let weight = m.net_weight[e];
        let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
        for p in pins.clone() {
            let (px, py) = pos(p);
            min_x = min_x.min(px);
            max_x = max_x.max(px);
            min_y = min_y.min(py);
            max_y = max_y.max(py);
        }
        hpwl += weight * ((max_x - min_x) + (max_y - min_y));
        let node = |p: usize| m.pin_node[p] as usize;
        let wx = reference_wa_net_coord(
            pins.clone(),
            gamma,
            min_x,
            max_x,
            |p| pos(p).0,
            |p, d| {
                if node(p) < nm {
                    gx[node(p)] += weight * d;
                }
            },
        );
        let wy = reference_wa_net_coord(
            pins,
            gamma,
            min_y,
            max_y,
            |p| pos(p).1,
            |p, d| {
                if node(p) < nm {
                    gy[node(p)] += weight * d;
                }
            },
        );
        wa += weight * (wx + wy);
    }
    (wa, hpwl)
}

/// The reference for the blocked kernel: one block accumulates straight
/// into `gx`/`gy`; several accumulate into zeroed per-block gradients that
/// merge in block order.
fn reference_wa_blocked(
    m: &PlacementModel,
    gamma: f64,
    net_block: usize,
    gx: &mut [f64],
    gy: &mut [f64],
) -> (f64, f64) {
    let num_nets = m.num_nets();
    if num_nets.div_ceil(net_block) <= 1 {
        return reference_wa_pass(m, gamma, 0..num_nets, gx, gy);
    }
    let nm = m.num_movable();
    let (mut wa, mut hpwl) = (0.0, 0.0);
    for lo in (0..num_nets).step_by(net_block) {
        let (mut bx, mut by) = (vec![0.0; nm], vec![0.0; nm]);
        let (w, h) = reference_wa_pass(
            m,
            gamma,
            lo..(lo + net_block).min(num_nets),
            &mut bx,
            &mut by,
        );
        wa += w;
        hpwl += h;
        for i in 0..nm {
            gx[i] += bx[i];
            gy[i] += by[i];
        }
    }
    (wa, hpwl)
}

/// The first index at which `a` and `b` hold different bits, if any.
fn first_bit_diff(a: &[f64], b: &[f64]) -> Option<usize> {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .position(|(x, y)| x.to_bits() != y.to_bits())
}

/// The WA wirelength never exceeds HPWL and tightens monotonically as
/// gamma shrinks, for the given cell arrangement.
fn check_wa_bounds_hpwl(seed: u64, spread: u64) {
    let m = scattered_model(120, seed, spread);
    let device = Device::new(DeviceConfig::instant());
    let exact = wirelength::hpwl(&device, &m);
    let mut prev = f64::NEG_INFINITY;
    for gamma in [100.0, 10.0, 1.0, 0.1] {
        let wa = wirelength::wa_forward(&device, &m, gamma);
        assert!(
            wa <= exact + 1e-6,
            "WA {wa} > HPWL {exact} (seed {seed}, spread {spread})"
        );
        assert!(
            wa >= prev - 1e-9,
            "WA must grow as gamma shrinks (seed {seed}, spread {spread})"
        );
        prev = wa;
    }
}

/// Density accumulation conserves total area for the given arrangement,
/// and the two §3.1.2 execution paths agree exactly.
fn check_density_conservation_and_extraction(seed: u64, spread: u64) {
    let m = scattered_model(150, seed, spread);
    let device = Device::new(DeviceConfig::instant());
    let mut op = DensityOp::new(&m).expect("density op");
    // Extraction path.
    op.accumulate_movable(&device, &m);
    op.accumulate_fillers(&device, &m);
    op.combine_total(&device);
    let extracted = op.total_map.clone();
    let bin_area = m.bin_w() * m.bin_h();
    // Conservation: total mapped area tracks movable + filler area.
    // Cells hugging the region boundary lose part of their sqrt(2)-bin
    // smoothing footprint to clipping (as in ePlace), so allow a few
    // percent of perimeter loss but require the bulk to be conserved
    // and never over-counted.
    let ranges = m.ranges();
    let opt_area: f64 = ranges
        .movable
        .chain(ranges.filler)
        .map(|i| m.node_area(i))
        .sum();
    let mapped = extracted.sum() * bin_area;
    assert!(
        mapped >= opt_area * 0.93,
        "mapped {mapped} vs optimizable area {opt_area}"
    );
    assert!(
        mapped <= opt_area * 1.02 + m.region().area() * 0.5,
        "mapped {mapped} overshoots (movable+filler {opt_area} + clipped fixed)"
    );
    // Direct path agrees.
    op.accumulate_all(&device, &m);
    assert!(op.total_map.max_abs_diff(&extracted) < 1e-9);
}

/// Whether two grids hold the same bits in every sample (`-0.0` and
/// `+0.0` differ, as do NaN payloads).
fn bits_equal(a: &Grid2, b: &Grid2) -> bool {
    a.dims() == b.dims()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A model with two fixed macros whose movable cells and fillers are
/// scattered, with every fifth of them (and the first macro) centred on or
/// past the region edge, so footprints overhang it on every side.
fn edge_model(cells: usize, seed: u64) -> PlacementModel {
    let design = synthesize(
        &SynthesisSpec::new("edge", cells, cells + 10)
            .with_seed(seed)
            .with_macro_count(2),
    )
    .expect("synthesis");
    let mut m = PlacementModel::from_design(&design).expect("model");
    let r = m.region();
    let ranges = m.ranges();
    for i in ranges.movable.chain(ranges.filler) {
        let h = (i as u64).wrapping_mul(0x9e37_79b9) ^ seed;
        let fx = (h % 10_007) as f64 / 10_007.0;
        let fy = ((h >> 16) % 10_009) as f64 / 10_009.0;
        m.x[i] = r.lx + fx * r.width();
        m.y[i] = r.ly + fy * r.height();
        if i % 5 == 0 {
            let out = m.w[i] * ((h >> 32) % 3) as f64 * 0.5;
            match (h >> 40) % 4 {
                0 => m.x[i] = r.lx - out,
                1 => m.x[i] = r.ux + out,
                2 => m.y[i] = r.ly - out,
                _ => m.y[i] = r.uy + out,
            }
        }
    }
    let first_macro = m
        .ranges()
        .fixed
        .find(|&i| m.w[i] > 0.0 && m.h[i] > 0.0)
        .expect("a fixed macro");
    m.x[first_macro] = r.ux;
    m.y[first_macro] = r.ly;
    m
}

/// One density accumulation pass of [`DensityOp`].
#[derive(Debug, Clone, Copy)]
enum Pass {
    Movable,
    Fillers,
    All,
}

impl Pass {
    /// The node ranges the pass covers, in the operator's order.
    fn ranges(self, m: &PlacementModel) -> Vec<Range<usize>> {
        let r = m.ranges();
        match self {
            Pass::Movable => vec![r.movable, r.fixed],
            Pass::Fillers => vec![r.filler],
            Pass::All => vec![r.movable, r.fixed, r.filler],
        }
    }

    /// Runs the pass and returns a copy of the map it writes.
    fn run(self, op: &mut DensityOp, device: &Device, m: &PlacementModel) -> Grid2 {
        match self {
            Pass::Movable => {
                op.accumulate_movable(device, m);
                op.movable_map.clone()
            }
            Pass::Fillers => {
                op.accumulate_fillers(device, m);
                op.filler_map.clone()
            }
            Pass::All => {
                op.accumulate_all(device, m);
                op.total_map.clone()
            }
        }
    }
}

/// The density map as accumulated before bin stripes: per node, the scalar
/// footprint stamp; per node block, a sparse partial of the `(bin, value)`
/// pairs the block touched, in first-touch order; the partials merged into
/// a zeroed map in block order; a pass that fits one block accumulated
/// straight into the map. Kept as a test-only copy so the striped map is
/// pinned to the bits the code had before it, not only to itself.
mod sparse_reference {
    use super::Pass;
    use std::ops::Range;
    use xplace_fft::Grid2;
    use xplace_ops::PlacementModel;

    fn floor_idx(v: f64) -> usize {
        v as usize
    }

    fn ceil_idx(v: f64) -> usize {
        let t = v as usize;
        if (t as f64) < v {
            t.saturating_add(1)
        } else {
            t
        }
    }

    /// Calls `add(bx * ny + by, value)` for every bin node `i` overlaps.
    fn accumulate_node(m: &PlacementModel, i: usize, mut add: impl FnMut(usize, f64)) {
        let (w, h) = (m.w[i], m.h[i]);
        if w <= 0.0 || h <= 0.0 {
            return;
        }
        let (bin_w, bin_h, region) = (m.bin_w(), m.bin_h(), m.region());
        let (nx, ny) = m.grid_dims();
        let ranges = m.ranges();
        let smoothed = ranges.movable.contains(&i) || i >= ranges.filler.start;
        let (we, he, scale) = if smoothed {
            let we = w.max(std::f64::consts::SQRT_2 * bin_w);
            let he = h.max(std::f64::consts::SQRT_2 * bin_h);
            (we, he, (w * h) / (we * he))
        } else {
            (w, h, m.target_density())
        };
        let inv_bin_area = 1.0 / (bin_w * bin_h);
        let lx = m.x[i] - we * 0.5;
        let ux = m.x[i] + we * 0.5;
        let ly = m.y[i] - he * 0.5;
        let uy = m.y[i] + he * 0.5;
        let bx0 = floor_idx((lx - region.lx) / bin_w);
        let bx1 = ceil_idx((ux - region.lx) / bin_w).min(nx);
        let by0 = floor_idx((ly - region.ly) / bin_h);
        let by1 = ceil_idx((uy - region.ly) / bin_h).min(ny);
        for bx in bx0..bx1 {
            let b_lx = region.lx + bx as f64 * bin_w;
            let ox = (ux.min(b_lx + bin_w) - lx.max(b_lx)).max(0.0);
            if ox == 0.0 {
                continue;
            }
            for by in by0..by1 {
                let b_ly = region.ly + by as f64 * bin_h;
                let oy = (uy.min(b_ly + bin_h) - ly.max(b_ly)).max(0.0);
                if oy > 0.0 {
                    add(bx * ny + by, ox * oy * scale * inv_bin_area);
                }
            }
        }
    }

    /// Block `block`'s sparse partial, summed on `scratch` (all `+0.0` on
    /// entry and on return).
    fn sparse_partial(
        m: &PlacementModel,
        block: Range<usize>,
        scratch: &mut [f64],
    ) -> Vec<(usize, f64)> {
        let mut partial = Vec::new();
        for i in block {
            accumulate_node(m, i, |k, v| {
                let old = scratch[k];
                scratch[k] = old + v;
                if old == 0.0 && scratch[k] != 0.0 {
                    partial.push((k, 0.0));
                }
            });
        }
        for (k, v) in partial.iter_mut() {
            *v = std::mem::replace(&mut scratch[*k], 0.0);
        }
        partial
    }

    /// The map of `pass` at node-block size `node_block`.
    pub fn map(m: &PlacementModel, pass: Pass, node_block: usize) -> Grid2 {
        let (nx, ny) = m.grid_dims();
        let mut map = Grid2::new(nx, ny);
        let cells = map.as_mut_slice();
        let ranges = pass.ranges(m);
        if ranges.iter().all(|r| r.len() <= node_block) {
            for i in ranges.into_iter().flatten() {
                accumulate_node(m, i, |k, v| cells[k] += v);
            }
            return map;
        }
        let mut scratch = vec![0.0; nx * ny];
        for r in ranges {
            for lo in r.clone().step_by(node_block) {
                for (k, v) in sparse_partial(m, lo..(lo + node_block).min(r.end), &mut scratch) {
                    cells[k] += v;
                }
            }
        }
        map
    }
}

/// [`edge_model`] with hostile positions and shapes: a run of coincident
/// movable cells, signed-zero and region-corner positions, NaN and ±inf
/// coordinates on movable cells and fillers, a NaN-width cell on a column
/// it overlaps by zero (see [`zero_overlap_x`]), and the second fixed macro
/// made taller than eight bins (twelve and a half) and moved inside.
fn hostile_model(cells: usize, seed: u64) -> PlacementModel {
    let mut m = edge_model(cells, seed);
    let r = m.region();
    let ranges = m.ranges();
    let (mv, fl) = (ranges.movable.start, ranges.filler.start);
    for i in mv + 1..mv + 5 {
        (m.x[i], m.y[i]) = (m.x[mv], m.y[mv]);
    }
    (m.x[mv + 5], m.y[mv + 5]) = (-0.0, -0.0);
    (m.x[mv + 6], m.y[mv + 6]) = (0.0, -0.0);
    (m.x[mv + 7], m.y[mv + 7]) = (r.lx, r.ly);
    (m.x[fl], m.y[fl]) = (-0.0, r.uy);
    let (nan, inf) = (f64::NAN, f64::INFINITY);
    for (k, (x, y)) in [
        (nan, 1.0),
        (1.0, nan),
        (inf, 1.0),
        (1.0, -inf),
        (-inf, inf),
        (nan, nan),
    ]
    .into_iter()
    .enumerate()
    {
        (m.x[mv + 10 + k], m.y[mv + 10 + k]) = (r.lx + x * r.width(), r.ly + y * r.height());
        (m.x[fl + 1 + k], m.y[fl + 1 + k]) = (r.lx + y * r.width(), r.ly + x * r.height());
    }
    if let Some(x) = zero_overlap_x(&m) {
        (m.x[mv + 20], m.w[mv + 20]) = (x, f64::NAN);
    }
    let tall = m
        .ranges()
        .fixed
        .filter(|&i| m.w[i] > 0.0 && m.h[i] > 0.0)
        .nth(1)
        .expect("a second fixed macro");
    (m.w[tall], m.h[tall]) = (3.3 * m.bin_w(), 12.5 * m.bin_h());
    (m.x[tall], m.y[tall]) = (r.lx + 0.37 * r.width(), r.ly + 0.55 * r.height());
    m
}

/// An `x` for a movable cell of width NaN (so its charge scale is NaN) at
/// which its smoothed footprint's first or last column overlaps it by
/// `ox == 0`: the bin index of an edge rounds past the edge. The stamp
/// skips such a column; stamping it would add `0 * NaN` there. Bin widths
/// that round exactly have no such `x`.
fn zero_overlap_x(m: &PlacementModel) -> Option<f64> {
    let (lx0, bin_w) = (m.region().lx, m.bin_w());
    let we = f64::NAN.max(std::f64::consts::SQRT_2 * bin_w);
    let nx = m.grid_dims().0;
    let overlap = |bx: usize, lx: f64, ux: f64| {
        let b_lx = lx0 + bx as f64 * bin_w;
        (ux.min(b_lx + bin_w) - lx.max(b_lx)).max(0.0)
    };
    for k in 2..nx - 2 {
        let edge = lx0 + k as f64 * bin_w;
        for t in -64i64..=64 {
            for x in [edge - we * 0.5, edge + we * 0.5] {
                let x = f64::from_bits((x.to_bits() as i64 + t) as u64);
                let (lx, ux) = (x - we * 0.5, x + we * 0.5);
                let bx0 = ((lx - lx0) / bin_w) as usize;
                let bx1 = ((ux - lx0) / bin_w).ceil() as usize;
                if bx0 < bx1 && (overlap(bx0, lx, ux) == 0.0 || overlap(bx1 - 1, lx, ux) == 0.0) {
                    return Some(x);
                }
            }
        }
    }
    None
}

/// [`scattered_model`] with every movable cell and filler squeezed into two
/// grid columns, so wide launches have more stripes than occupied columns.
fn narrow_model(cells: usize, seed: u64) -> PlacementModel {
    let mut m = scattered_model(cells, seed, seed ^ 0x6d);
    let (r, bin_w) = (m.region(), m.bin_w());
    let ranges = m.ranges();
    for i in ranges.movable.chain(ranges.filler) {
        m.x[i] = r.lx + 5.0 * bin_w + (m.x[i] - r.lx) / r.width() * 1.5 * bin_w;
    }
    m
}

/// Whether two grids agree sample for sample: the same bits, or NaN on
/// both sides (Rust fixes no NaN payload).
fn same_bits_or_nan(a: &Grid2, b: &Grid2) -> Option<usize> {
    assert_eq!(a.dims(), b.dims());
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .position(|(x, y)| x.to_bits() != y.to_bits() && !(x.is_nan() && y.is_nan()))
}

/// Historic proptest counterexample (`seed = 963, spread = 896`, from the
/// retired `properties.proptest-regressions` file): a scattering that once
/// broke the WA/HPWL bound. Kept as a pinned case.
#[test]
fn regression_wa_bounds_hpwl_seed_963_spread_896() {
    check_wa_bounds_hpwl(963, 896);
}

/// The same historic counterexample against the density invariants, which
/// share the scattering (boundary-hugging cells stress the clipping
/// accounting).
#[test]
fn regression_density_conservation_seed_963_spread_896() {
    check_density_conservation_and_extraction(963, 896);
}

props! {
    config = Config::with_cases(16);

    /// The WA wirelength never exceeds HPWL and tightens monotonically as
    /// gamma shrinks, for any cell arrangement.
    fn wa_bounds_hpwl(seed in 0u64..1000, spread in 0u64..1000) {
        check_wa_bounds_hpwl(seed, spread);
    }

    /// The fused kernel always agrees with the split kernels (same math,
    /// different operator stream).
    fn fused_equals_split(seed in 0u64..1000, gamma in 0.5..50.0f64) {
        let m = scattered_model(100, seed, seed ^ 0xabc);
        let device = Device::new(DeviceConfig::instant());
        let n = m.num_nodes();
        let (mut gx1, mut gy1) = (vec![0.0; n], vec![0.0; n]);
        let (mut gx2, mut gy2) = (vec![0.0; n], vec![0.0; n]);
        let fused = wirelength::wa_fused(&device, &m, gamma, &mut gx1, &mut gy1);
        let wa = wirelength::wa_with_grad(&device, &m, gamma, &mut gx2, &mut gy2);
        let h = wirelength::hpwl(&device, &m);
        prop_assert!((fused.wa - wa).abs() < 1e-9 * wa.abs().max(1.0));
        prop_assert!((fused.hpwl - h).abs() < 1e-9 * h.max(1.0));
        for i in 0..n {
            prop_assert!((gx1[i] - gx2[i]).abs() < 1e-12);
            prop_assert!((gy1[i] - gy2[i]).abs() < 1e-12);
        }
    }

    /// Density accumulation conserves total area no matter where the
    /// cells sit, and the two §3.1.2 execution paths agree exactly.
    fn density_conservation_and_extraction(seed in 0u64..1000, spread in 0u64..1000) {
        check_density_conservation_and_extraction(seed, spread);
    }

    /// The overflow ratio is within [0, 1 + eps] and zero for a uniform
    /// enough spread at low utilization.
    fn overflow_is_bounded(seed in 0u64..1000) {
        let m = scattered_model(200, seed, seed ^ 0x77);
        let device = Device::new(DeviceConfig::instant());
        let mut op = DensityOp::new(&m).expect("density op");
        op.accumulate_movable(&device, &m);
        let ovfl = op.overflow(&device, &m);
        prop_assert!(ovfl >= 0.0);
        prop_assert!(ovfl <= 1.5, "overflow {} implausible", ovfl);
    }

    /// The blocked fused wirelength kernel agrees with the serial one
    /// (small block size forces a genuine multi-block decomposition on
    /// these 200-cell models; differences are bounded by the block-merge
    /// summation-order change).
    fn wa_fused_blocked_matches_serial(seed in 0u64..500, threads in 2usize..5) {
        let m = scattered_model(200, seed, seed ^ 0x55);
        let device = Device::new(DeviceConfig::instant());
        let n = m.num_nodes();
        let (mut gx1, mut gy1) = (vec![0.0; n], vec![0.0; n]);
        let (mut gx2, mut gy2) = (vec![0.0; n], vec![0.0; n]);
        let serial = wirelength::wa_fused(&device, &m, 5.0, &mut gx1, &mut gy1);
        let parallel = wa_blocked(&device, &m, &mut gx2, &mut gy2, threads);
        prop_assert!((serial.wa - parallel.wa).abs() < 1e-9 * serial.wa.abs().max(1.0));
        prop_assert!((serial.hpwl - parallel.hpwl).abs() < 1e-9 * serial.hpwl.max(1.0));
        for i in 0..n {
            prop_assert!((gx1[i] - gx2[i]).abs() < 1e-10, "gx at {}", i);
            prop_assert!((gy1[i] - gy2[i]).abs() < 1e-10, "gy at {}", i);
        }
    }

    /// The blocked fused wirelength kernel is bit-identical across thread
    /// counts: the decomposition is fixed by the model, threads only
    /// reschedule it.
    fn wa_fused_blocked_is_thread_count_invariant(seed in 0u64..500, threads in 2usize..6) {
        let m = scattered_model(200, seed, seed ^ 0x5a);
        let device = Device::new(DeviceConfig::instant());
        let n = m.num_nodes();
        let (mut gx1, mut gy1) = (vec![0.0; n], vec![0.0; n]);
        let (mut gx2, mut gy2) = (vec![0.0; n], vec![0.0; n]);
        let one = wa_blocked(&device, &m, &mut gx1, &mut gy1, 1);
        let many = wa_blocked(&device, &m, &mut gx2, &mut gy2, threads);
        prop_assert!(one.wa.to_bits() == many.wa.to_bits());
        prop_assert!(one.hpwl.to_bits() == many.hpwl.to_bits());
        for i in 0..n {
            prop_assert!(gx1[i].to_bits() == gx2[i].to_bits(), "gx at {}", i);
            prop_assert!(gy1[i].to_bits() == gy2[i].to_bits(), "gy at {}", i);
        }
    }

    /// Every WA kernel matches the two-evaluation reference to the bit:
    /// storing each pin's exponentials, and the two-pin path's one `exp`
    /// per coordinate, change how often they are evaluated, never an
    /// expression or its order. The models include a net of more than 100
    /// pins and degree-2 nets, the gradients start nonzero, and one
    /// workspace serves every model, so its pin scratch grows on the big
    /// nets and is reused on the smaller ones. The all-two-pin model holds
    /// ties, signed zeros, shared nodes and fixed terminals, and also runs
    /// at a γ whose exponential is subnormal, one where it underflows to 0
    /// and γ = 0 (an infinite `1/γ`, which keeps the general path).
    fn wa_kernels_match_two_pass_reference_bitwise(seed in 0u64..500, gamma in 0.5..50.0f64) {
        let device = Device::new(DeviceConfig::instant());
        let pool = xplace_parallel::global();
        let mut ws = wirelength::WaWorkspace::new();
        assert!((-TWO_PIN_SPAN / GAMMA_SUBNORMAL).exp().is_subnormal());
        assert_eq!((-TWO_PIN_SPAN / GAMMA_UNDERFLOW).exp(), 0.0);
        let two_pin = two_pin_model(160, seed);
        let cases = [
            (recut_model(150, seed, 120), gamma),
            (scattered_model(100, seed, seed ^ 0x42), gamma),
            (recut_model(200, seed ^ 0x1, 101), gamma),
            (two_pin.clone(), gamma),
            (two_pin.clone(), GAMMA_SUBNORMAL),
            (two_pin.clone(), GAMMA_UNDERFLOW),
            (two_pin, 0.0),
        ];
        for (m, gamma) in &cases {
            let gamma = *gamma;
            let nm = m.num_movable();
            let init_x: Vec<f64> = (0..nm).map(|i| (i % 13) as f64 * 0.125 - 0.75).collect();
            let init_y: Vec<f64> = (0..nm).map(|i| (i % 7) as f64 * 0.3 - 1.1).collect();
            let (mut rx, mut ry) = (init_x.clone(), init_y.clone());
            let (wa, hpwl) = reference_wa_pass(m, gamma, 0..m.num_nets(), &mut rx, &mut ry);

            let (mut gx, mut gy) = (init_x.clone(), init_y.clone());
            let fused = wirelength::wa_fused(&device, m, gamma, &mut gx, &mut gy);
            prop_assert!(fused.wa.to_bits() == wa.to_bits(), "wa_fused wa");
            prop_assert!(fused.hpwl.to_bits() == hpwl.to_bits(), "wa_fused hpwl");
            prop_assert_eq!(first_bit_diff(&gx, &rx), None);
            prop_assert_eq!(first_bit_diff(&gy, &ry), None);

            let (mut gx, mut gy) = (init_x.clone(), init_y.clone());
            let merged = wirelength::wa_with_grad(&device, m, gamma, &mut gx, &mut gy);
            prop_assert!(merged.to_bits() == wa.to_bits(), "wa_with_grad wa");
            prop_assert_eq!(first_bit_diff(&gx, &rx), None);
            prop_assert_eq!(first_bit_diff(&gy, &ry), None);

            let (mut gx, mut gy) = (init_x.clone(), init_y.clone());
            let forward = wirelength::wa_forward(&device, m, gamma);
            wirelength::wa_backward(&device, m, gamma, &mut gx, &mut gy);
            prop_assert!(forward.to_bits() == wa.to_bits(), "wa_forward wa");
            prop_assert_eq!(first_bit_diff(&gx, &rx), None);
            prop_assert_eq!(first_bit_diff(&gy, &ry), None);

            for net_block in [32, usize::MAX] {
                let (mut rx, mut ry) = (init_x.clone(), init_y.clone());
                let (wa, hpwl) = reference_wa_blocked(m, gamma, net_block, &mut rx, &mut ry);
                for threads in 1..=4 {
                    let (mut gx, mut gy) = (init_x.clone(), init_y.clone());
                    let out = wirelength::wa_fused_blocked_ws(
                        &device, m, gamma, &mut gx, &mut gy, threads, net_block, pool, &mut ws,
                    );
                    prop_assert!(out.wa.to_bits() == wa.to_bits(), "blocked wa, width {}", threads);
                    prop_assert!(out.hpwl.to_bits() == hpwl.to_bits(), "blocked hpwl, width {}", threads);
                    prop_assert_eq!(first_bit_diff(&gx, &rx), None);
                    prop_assert_eq!(first_bit_diff(&gy, &ry), None);
                }
            }
        }
    }

    /// A reused [`wirelength::WaWorkspace`] produces gradients bit-identical
    /// to fresh per-call buffers: the workspace hoist is a pure allocation
    /// optimization, never an arithmetic change. The workspace is driven
    /// through three models of different sizes so slot reuse (including
    /// shrinking `nm`) is exercised, then the original model is re-run and
    /// compared bitwise against the allocate-per-call path.
    fn wa_workspace_reuse_is_bitwise_equal(seed in 0u64..500, threads in 1usize..5) {
        let m = scattered_model(200, seed, seed ^ 0x31);
        let device = Device::new(DeviceConfig::instant());
        let n = m.num_nodes();
        let (mut gx1, mut gy1) = (vec![0.0; n], vec![0.0; n]);
        let fresh = wa_blocked(&device, &m, &mut gx1, &mut gy1, threads);
        let mut ws = wirelength::WaWorkspace::new();
        let pool = xplace_parallel::global();
        for dirty_cells in [120, 260] {
            let dirty = scattered_model(dirty_cells, seed ^ 0x7, seed ^ 0x13);
            let nd = dirty.num_nodes();
            let (mut dx, mut dy) = (vec![0.0; nd], vec![0.0; nd]);
            wirelength::wa_fused_blocked_ws(
                &device, &dirty, 5.0, &mut dx, &mut dy, threads, 32, pool, &mut ws,
            );
        }
        let (mut gx2, mut gy2) = (vec![0.0; n], vec![0.0; n]);
        let reused = wirelength::wa_fused_blocked_ws(
            &device, &m, 5.0, &mut gx2, &mut gy2, threads, 32, pool, &mut ws,
        );
        prop_assert!(fresh.wa.to_bits() == reused.wa.to_bits());
        prop_assert!(fresh.hpwl.to_bits() == reused.hpwl.to_bits());
        for i in 0..n {
            prop_assert!(gx1[i].to_bits() == gx2[i].to_bits(), "gx at {}", i);
            prop_assert!(gy1[i].to_bits() == gy2[i].to_bits(), "gy at {}", i);
        }
    }

    /// Blocked density accumulation agrees with serial (small node block
    /// forces a multi-block decomposition).
    fn density_blocked_matches_serial(seed in 0u64..500, threads in 2usize..5) {
        let m = scattered_model(200, seed, seed ^ 0x99);
        let device = Device::new(DeviceConfig::instant());
        let mut serial_op = DensityOp::new(&m).expect("density op");
        serial_op.accumulate_all(&device, &m);
        let mut mt_op = DensityOp::new(&m).expect("density op");
        mt_op.set_node_block(64);
        mt_op.set_threads(threads);
        mt_op.accumulate_all(&device, &m);
        prop_assert!(mt_op.total_map.max_abs_diff(&serial_op.total_map) < 1e-10);
    }

    /// Blocked density accumulation is bit-identical across thread counts.
    fn density_blocked_is_thread_count_invariant(seed in 0u64..500, threads in 2usize..6) {
        let m = scattered_model(200, seed, seed ^ 0x9a);
        let device = Device::new(DeviceConfig::instant());
        let mut one_op = DensityOp::new(&m).expect("density op");
        one_op.set_node_block(64);
        one_op.set_threads(1);
        one_op.accumulate_all(&device, &m);
        let mut mt_op = DensityOp::new(&m).expect("density op");
        mt_op.set_node_block(64);
        mt_op.set_threads(threads);
        mt_op.accumulate_all(&device, &m);
        prop_assert!(bits_equal(&mt_op.total_map, &one_op.total_map));
    }

    /// omega is monotone in lambda for every design.
    fn omega_monotone(seed in 0u64..1000) {
        let m = scattered_model(80, seed, 0);
        let mut prev = -1.0;
        for lambda in [0.0, 1e-6, 1e-3, 1.0, 1e3] {
            let w = precond::omega(&m, lambda);
            prop_assert!((0.0..=1.0).contains(&w));
            prop_assert!(w >= prev);
            prev = w;
        }
    }
}

props! {
    // A sign-of-zero or ordering fault can hide in a few cases of this
    // test: it runs more of them than the other density tests.
    config = Config::with_cases(256);

    /// The striped map reproduces the pre-stripe sparse-partial map bit for
    /// bit, for every pass, node-block size (1, 7, 64 and a single block of
    /// 2048), launch width 1 to 5, on models with fixed macros taller than
    /// eight bins, footprints overhanging the region edge, coincident,
    /// signed-zero, NaN and ±inf positions, and on one whose nodes occupy
    /// fewer columns than the widest launch has stripes. One operator
    /// serves every run, so its reused stripe scratch must come back all
    /// zero after each block.
    fn density_map_matches_sparse_partial_reference(seed in 0u64..500) {
        let device = Device::new(DeviceConfig::instant());
        for m in [hostile_model(150, seed), narrow_model(120, seed)] {
            let mut op = DensityOp::new(&m).expect("density op");
            for pass in [Pass::Movable, Pass::Fillers, Pass::All] {
                for node_block in [1, 7, 64, 2048] {
                    let reference = sparse_reference::map(&m, pass, node_block);
                    for threads in 1..=5 {
                        op.set_node_block(node_block);
                        op.set_threads(threads);
                        let got = pass.run(&mut op, &device, &m);
                        let diff = same_bits_or_nan(&got, &reference);
                        prop_assert!(
                            diff.is_none(),
                            "{:?} node_block {} threads {}: bin {:?}",
                            pass,
                            node_block,
                            threads,
                            diff
                        );
                    }
                }
            }
        }
    }
}
