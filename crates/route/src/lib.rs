//! Routing-congestion estimation for placement evaluation.
//!
//! The paper reports routability on the ISPD 2015 suite as *top5
//! overflow*: the average overflow of the 5 % most congested global-routing
//! gcells, as measured by NCTUgr after NTUplace4dr. That router is not
//! redistributable, so this crate provides the documented substitution: a
//! **RUDY** (Rectangular Uniform wire DensitY) congestion estimator —
//! each net smears its expected wirelength demand uniformly over its
//! bounding box, split into horizontal and vertical components — against a
//! per-gcell track capacity. RUDY is the standard fast congestion proxy in
//! placement literature and preserves *relative* comparisons between two
//! placements of the same netlist, which is all Table 4 uses the metric
//! for.
//!
//! # Example
//!
//! ```
//! use xplace_db::synthesis::{synthesize, SynthesisSpec};
//! use xplace_route::{estimate_congestion, RouteConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = synthesize(&SynthesisSpec::new("r", 300, 320).with_seed(2))?;
//! let map = estimate_congestion(&design, &RouteConfig::default());
//! let top5 = map.top_overflow(0.05);
//! assert!(top5.is_finite() && top5 >= 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use xplace_db::Design;
use xplace_fft::Grid2;

/// Configuration of the congestion estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteConfig {
    /// Gcell grid dimension along each axis (the grid is `n x n`).
    pub gcells: usize,
    /// Routing-track supply per gcell per direction, in wirelength units
    /// per gcell area (tracks x pitch). Larger = more routing capacity.
    pub capacity: f64,
    /// Minimum net bounding-box span (in gcell units) used when smearing
    /// degenerate (zero-extent) nets.
    pub min_span_gcells: f64,
}

impl Default for RouteConfig {
    fn default() -> Self {
        // ~12 track-lengths of supply per gcell per direction lands the
        // top5-overflow metric in the same numeric range the paper's
        // NCTUgr runs report (tens), easing side-by-side reading.
        RouteConfig {
            gcells: 64,
            capacity: 12.0,
            min_span_gcells: 1.0,
        }
    }
}

/// Per-gcell demand/capacity maps produced by [`estimate_congestion`].
#[derive(Debug, Clone, PartialEq)]
pub struct CongestionMap {
    /// Horizontal routing demand per gcell (utilization units; 1.0 means
    /// exactly at capacity).
    pub demand_h: Grid2,
    /// Vertical routing demand per gcell.
    pub demand_v: Grid2,
}

impl CongestionMap {
    /// Combined utilization (max of the two directions) per gcell,
    /// flattened.
    fn utilizations(&self) -> Vec<f64> {
        self.demand_h
            .as_slice()
            .iter()
            .zip(self.demand_v.as_slice())
            .map(|(h, v)| h.max(*v))
            .collect()
    }

    /// The paper's top-k overflow metric: the mean utilization (x100, a
    /// percentage) of the `frac` most congested gcells.
    ///
    /// # Panics
    ///
    /// Panics if `frac` is not in `(0, 1]`.
    pub fn top_overflow(&self, frac: f64) -> f64 {
        assert!(frac > 0.0 && frac <= 1.0, "fraction must be in (0, 1]");
        let mut u = self.utilizations();
        if u.is_empty() {
            return 0.0;
        }
        u.sort_by(|a, b| b.partial_cmp(a).expect("finite utilizations"));
        let k = ((u.len() as f64 * frac).ceil() as usize).max(1);
        100.0 * u[..k].iter().sum::<f64>() / k as f64
    }

    /// Maximum gcell utilization (x100).
    pub fn max_utilization(&self) -> f64 {
        100.0 * self.utilizations().iter().copied().fold(0.0, f64::max)
    }
}

/// Estimates routing congestion of a placement with RUDY.
///
/// For every net with at least two pins, the horizontal demand `w` and
/// vertical demand `h` of its bounding box are smeared uniformly over the
/// box (each covered gcell receives the demand times its overlap
/// fraction), normalized by the configured capacity.
pub fn estimate_congestion(design: &Design, config: &RouteConfig) -> CongestionMap {
    let n = config.gcells.max(1);
    let region = design.region();
    let gw = region.width() / n as f64;
    let gh = region.height() / n as f64;
    let mut demand_h = Grid2::new(n, n);
    let mut demand_v = Grid2::new(n, n);
    let nl = design.netlist();

    for net_id in nl.net_ids() {
        let net = nl.net(net_id);
        if net.degree() < 2 {
            continue;
        }
        let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
        for pid in net.pins() {
            let p = design.pin_position(pid);
            min_x = min_x.min(p.x);
            max_x = max_x.max(p.x);
            min_y = min_y.min(p.y);
            max_y = max_y.max(p.y);
        }
        // Degenerate boxes still occupy at least a fraction of a gcell.
        let span_x = (max_x - min_x).max(config.min_span_gcells * gw);
        let span_y = (max_y - min_y).max(config.min_span_gcells * gh);
        let lx = min_x.clamp(region.lx, region.ux);
        let ly = min_y.clamp(region.ly, region.uy);
        let ux = (min_x + span_x).clamp(region.lx, region.ux);
        let uy = (min_y + span_y).clamp(region.ly, region.uy);
        if ux <= lx || uy <= ly {
            continue;
        }
        // RUDY densities: horizontal wire demand = weight * span_x spread
        // over the box area, measured against per-gcell capacity.
        let area = (ux - lx) * (uy - ly);
        let dh = net.weight() * span_x / area / config.capacity * gw;
        let dv = net.weight() * span_y / area / config.capacity * gh;

        let bx0 = (((lx - region.lx) / gw).floor().max(0.0)) as usize;
        let bx1 = ((((ux - region.lx) / gw).ceil()) as usize).min(n);
        let by0 = (((ly - region.ly) / gh).floor().max(0.0)) as usize;
        let by1 = ((((uy - region.ly) / gh).ceil()) as usize).min(n);
        for bx in bx0..bx1 {
            let cell_lx = region.lx + bx as f64 * gw;
            let fx = ((ux.min(cell_lx + gw) - lx.max(cell_lx)) / gw).max(0.0);
            if fx == 0.0 {
                continue;
            }
            for by in by0..by1 {
                let cell_ly = region.ly + by as f64 * gh;
                let fy = ((uy.min(cell_ly + gh) - ly.max(cell_ly)) / gh).max(0.0);
                if fy > 0.0 {
                    demand_h[(bx, by)] += dh * fx * fy;
                    demand_v[(bx, by)] += dv * fx * fy;
                }
            }
        }
    }
    CongestionMap { demand_h, demand_v }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xplace_db::synthesis::{synthesize, SynthesisSpec};
    use xplace_db::Point;

    fn spread(design: &mut Design, scale: f64) {
        let r = design.region();
        let nl = design.netlist();
        let c = r.center();
        let mut pos = design.positions().to_vec();
        for (k, id) in nl.cell_ids().enumerate() {
            if nl.cell(id).is_movable() {
                let fx = ((k as f64) * 0.7548).fract() - 0.5;
                let fy = ((k as f64) * 0.5698).fract() - 0.5;
                pos[id.index()] =
                    Point::new(c.x + fx * r.width() * scale, c.y + fy * r.height() * scale);
            }
        }
        design.set_positions(pos);
    }

    #[test]
    fn clustered_placement_is_more_congested_than_spread() {
        let mut d = synthesize(&SynthesisSpec::new("c", 500, 520).with_seed(3)).unwrap();
        let cfg = RouteConfig::default();
        spread(&mut d, 0.2); // tight cluster
        let tight = estimate_congestion(&d, &cfg).top_overflow(0.05);
        spread(&mut d, 0.95); // full spread
        let loose = estimate_congestion(&d, &cfg).top_overflow(0.05);
        assert!(
            tight > loose * 1.5,
            "clustered top5 {tight} should far exceed spread top5 {loose}"
        );
    }

    #[test]
    fn demand_scales_inversely_with_capacity() {
        let d = synthesize(&SynthesisSpec::new("cap", 200, 210).with_seed(5)).unwrap();
        let lo = estimate_congestion(
            &d,
            &RouteConfig {
                capacity: 1.0,
                ..Default::default()
            },
        );
        let hi = estimate_congestion(
            &d,
            &RouteConfig {
                capacity: 2.0,
                ..Default::default()
            },
        );
        let ratio = lo.top_overflow(0.05) / hi.top_overflow(0.05);
        assert!((ratio - 2.0).abs() < 1e-6, "ratio {ratio}");
    }

    #[test]
    fn top_overflow_is_monotone_in_fraction() {
        let d = synthesize(&SynthesisSpec::new("m", 300, 320).with_seed(7)).unwrap();
        let map = estimate_congestion(&d, &RouteConfig::default());
        let t1 = map.top_overflow(0.01);
        let t5 = map.top_overflow(0.05);
        let t100 = map.top_overflow(1.0);
        assert!(t1 >= t5 && t5 >= t100);
        let u = map.utilizations();
        let mean = 100.0 * u.iter().sum::<f64>() / u.len() as f64;
        assert!((t100 - mean).abs() < 1e-9);
        assert!(map.max_utilization() >= t1 - 1e-9);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn zero_fraction_panics() {
        let d = synthesize(&SynthesisSpec::new("z", 50, 60).with_seed(9)).unwrap();
        estimate_congestion(&d, &RouteConfig::default()).top_overflow(0.0);
    }

    #[test]
    fn single_pin_nets_are_ignored() {
        use xplace_db::netlist::{CellKind, NetlistBuilder};
        use xplace_db::Rect;
        let mut b = NetlistBuilder::new();
        let a = b.add_cell("a", 1.0, 1.0, CellKind::Movable);
        b.add_net("n", vec![(a, Point::default())]).unwrap();
        let nl = b.finish().unwrap();
        let d = xplace_db::Design::new(
            "s",
            nl,
            Rect::new(0.0, 0.0, 10.0, 10.0),
            vec![],
            0.9,
            vec![Point::new(5.0, 5.0)],
        )
        .unwrap();
        let map = estimate_congestion(&d, &RouteConfig::default());
        assert_eq!(map.max_utilization(), 0.0);
    }

    #[test]
    fn demand_concentrates_under_the_net_box() {
        use xplace_db::netlist::{CellKind, NetlistBuilder};
        use xplace_db::Rect;
        let mut b = NetlistBuilder::new();
        let a = b.add_cell("a", 1.0, 1.0, CellKind::Movable);
        let c = b.add_cell("c", 1.0, 1.0, CellKind::Movable);
        b.add_net("n", vec![(a, Point::default()), (c, Point::default())])
            .unwrap();
        let nl = b.finish().unwrap();
        let d = xplace_db::Design::new(
            "box",
            nl,
            Rect::new(0.0, 0.0, 64.0, 64.0),
            vec![],
            0.9,
            vec![Point::new(8.0, 8.0), Point::new(24.0, 24.0)],
        )
        .unwrap();
        let map = estimate_congestion(
            &d,
            &RouteConfig {
                gcells: 16,
                capacity: 1.0,
                min_span_gcells: 1.0,
            },
        );
        // Demand inside the bbox, none far outside.
        assert!(map.demand_h[(3, 3)] > 0.0);
        assert_eq!(map.demand_h[(12, 12)], 0.0);
        assert_eq!(map.demand_v[(1, 12)], 0.0);
    }

    #[test]
    fn estimator_is_deterministic() {
        let d = synthesize(&SynthesisSpec::new("det", 150, 160).with_seed(11)).unwrap();
        let a = estimate_congestion(&d, &RouteConfig::default());
        let b = estimate_congestion(&d, &RouteConfig::default());
        assert_eq!(a, b);
    }
}
