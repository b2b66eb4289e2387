//! HPWL-driven detailed placement on a legalized design.
//!
//! Three classic local moves, applied in passes:
//!
//! 1. **intra-row slide** — move a cell inside the free gap between its
//!    row neighbours toward the median of its nets' other pins,
//! 2. **adjacent reorder** — swap two neighbouring cells in a row when
//!    that shortens their nets,
//! 3. **global swap** — exchange two same-footprint cells anywhere on the
//!    die when the total HPWL improves.
//!
//! Every move preserves legality by construction (cells stay inside their
//! gaps / exchange exact footprints), which the tests verify with
//! [`crate::check_legality`].

use crate::rows::build_rows;
use std::time::Instant;
use xplace_db::{CellId, Design, NetId, Point};
use xplace_testkit::{json_struct, Rng};

/// Detailed-placement knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpConfig {
    /// Number of full passes over the design.
    pub passes: usize,
    /// Global-swap attempts per pass, as a multiple of the cell count.
    pub swap_trials_per_cell: f64,
    /// RNG seed for the global-swap sampling.
    pub seed: u64,
}

impl Default for DpConfig {
    fn default() -> Self {
        DpConfig {
            passes: 2,
            swap_trials_per_cell: 2.0,
            seed: 0xd95eed,
        }
    }
}

/// Outcome of a detailed-placement run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpReport {
    /// HPWL before detailed placement.
    pub initial_hpwl: f64,
    /// HPWL after detailed placement (never worse).
    pub final_hpwl: f64,
    /// Applied intra-row slides.
    pub slides: usize,
    /// Applied adjacent reorders.
    pub reorders: usize,
    /// Applied global swaps.
    pub swaps: usize,
    /// Wall-clock seconds.
    pub wall_seconds: f64,
}

// The `dp` section of a run report: these keys, in this order.
json_struct!(DpReport {
    initial_hpwl,
    final_hpwl,
    slides,
    reorders,
    swaps,
    wall_seconds,
});

struct DpState<'a> {
    design: &'a Design,
    positions: Vec<Point>,
    /// Nets touching each cell (deduplicated).
    cell_nets: Vec<Vec<NetId>>,
    /// Movable cells per row, sorted by x.
    row_cells: Vec<Vec<CellId>>,
    /// Row index of each movable cell (usize::MAX for non-movable).
    cell_row: Vec<usize>,
}

impl<'a> DpState<'a> {
    fn net_hpwl(&self, net: NetId) -> f64 {
        let nl = self.design.netlist();
        let n = nl.net(net);
        if n.degree() < 2 {
            return 0.0;
        }
        let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
        for pid in n.pins() {
            let pin = nl.pin(pid);
            let p = self.positions[pin.cell.index()] + pin.offset;
            min_x = min_x.min(p.x);
            max_x = max_x.max(p.x);
            min_y = min_y.min(p.y);
            max_y = max_y.max(p.y);
        }
        n.weight() * ((max_x - min_x) + (max_y - min_y))
    }

    fn nets_hpwl(&self, nets: &[NetId]) -> f64 {
        nets.iter().map(|&n| self.net_hpwl(n)).sum()
    }

    /// Median x of the other pins on the cell's nets — the slide target.
    fn optimal_x(&self, cell: CellId) -> Option<f64> {
        let nl = self.design.netlist();
        let mut xs: Vec<f64> = Vec::new();
        for &net in &self.cell_nets[cell.index()] {
            for pid in nl.net(net).pins() {
                let pin = nl.pin(pid);
                if pin.cell != cell {
                    xs.push(self.positions[pin.cell.index()].x + pin.offset.x);
                }
            }
        }
        if xs.is_empty() {
            return None;
        }
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite pin positions"));
        Some(xs[xs.len() / 2])
    }
}

/// Runs detailed placement on a legalized design, improving HPWL in place.
/// The result is always at least as good as the input and remains legal.
pub fn detailed_place(design: &mut Design, config: &DpConfig) -> DpReport {
    let start = Instant::now();
    let initial_hpwl = design.total_hpwl();
    let rows = match build_rows(design) {
        Ok(r) => r,
        Err(_) => {
            return DpReport {
                initial_hpwl,
                final_hpwl: initial_hpwl,
                slides: 0,
                reorders: 0,
                swaps: 0,
                wall_seconds: start.elapsed().as_secs_f64(),
            }
        }
    };
    let nl = design.netlist();

    // Per-cell net lists.
    let mut cell_nets: Vec<Vec<NetId>> = vec![Vec::new(); nl.num_cells()];
    for id in nl.cell_ids() {
        let mut nets: Vec<NetId> = nl.pins_of_cell(id).iter().map(|&p| nl.pin(p).net).collect();
        nets.sort();
        nets.dedup();
        cell_nets[id.index()] = nets;
    }

    // Assign movable cells to rows by their bottom edge.
    let mut row_cells: Vec<Vec<CellId>> = vec![Vec::new(); rows.len()];
    let mut cell_row = vec![usize::MAX; nl.num_cells()];
    for id in nl.cell_ids() {
        let c = nl.cell(id);
        if !c.is_movable() {
            continue;
        }
        let ly = design.position(id).y - c.height() * 0.5;
        if let Some(ri) = rows.iter().position(|r| (r.y - ly).abs() < 1e-6) {
            row_cells[ri].push(id);
            cell_row[id.index()] = ri;
        }
    }
    for cells in &mut row_cells {
        cells.sort_by(|&a, &b| {
            design
                .position(a)
                .x
                .partial_cmp(&design.position(b).x)
                .expect("finite positions")
        });
    }

    let mut state = DpState {
        design,
        positions: design.positions().to_vec(),
        cell_nets,
        row_cells,
        cell_row,
    };

    let mut slides = 0usize;
    let mut reorders = 0usize;
    let mut swaps = 0usize;
    let mut rng = Rng::seed_from_u64(config.seed);

    for _pass in 0..config.passes {
        // --- 1. Intra-row slides. ---
        for (ri, row) in rows.iter().enumerate() {
            for k in 0..state.row_cells[ri].len() {
                let cell = state.row_cells[ri][k];
                if design.fence_of(cell).is_some() {
                    continue; // fenced cells hold their legalized spot
                }
                let w = nl.cell(cell).width();
                let x = state.positions[cell.index()].x;
                // Free gap between neighbours, clipped to the segment.
                let lo_neighbor = if k > 0 {
                    let p = state.row_cells[ri][k - 1];
                    state.positions[p.index()].x + nl.cell(p).width() * 0.5
                } else {
                    f64::NEG_INFINITY
                };
                let hi_neighbor = if k + 1 < state.row_cells[ri].len() {
                    let p = state.row_cells[ri][k + 1];
                    state.positions[p.index()].x - nl.cell(p).width() * 0.5
                } else {
                    f64::INFINITY
                };
                let seg = row
                    .segments
                    .iter()
                    .find(|s| x - w * 0.5 >= s.x0 - 1e-6 && x + w * 0.5 <= s.x1 + 1e-6);
                let Some(seg) = seg else { continue };
                let lo = lo_neighbor.max(seg.x0) + w * 0.5;
                let hi = hi_neighbor.min(seg.x1) - w * 0.5;
                if hi <= lo {
                    continue;
                }
                let Some(target) = state.optimal_x(cell) else {
                    continue;
                };
                let snapped = row.snap_down(target.clamp(lo, hi) - w * 0.5) + w * 0.5;
                let newx = snapped.clamp(lo, hi);
                if (newx - x).abs() < 1e-9 {
                    continue;
                }
                let nets = state.cell_nets[cell.index()].clone();
                let before = state.nets_hpwl(&nets);
                state.positions[cell.index()].x = newx;
                let after = state.nets_hpwl(&nets);
                if after < before - 1e-9 {
                    slides += 1;
                } else {
                    state.positions[cell.index()].x = x;
                }
            }
        }

        // --- 2. Adjacent reorders. ---
        for (ri, row) in rows.iter().enumerate() {
            for k in 0..state.row_cells[ri].len().saturating_sub(1) {
                let a = state.row_cells[ri][k];
                let b = state.row_cells[ri][k + 1];
                if design.fence_of(a).is_some() || design.fence_of(b).is_some() {
                    continue;
                }
                let (wa, wb) = (nl.cell(a).width(), nl.cell(b).width());
                let a_left = state.positions[a.index()].x - wa * 0.5;
                // After the swap: b starts at a's left edge, a follows b.
                let new_b = a_left + wb * 0.5;
                let new_a = a_left + wb + wa * 0.5;
                // The pair must stay left of b's old right edge — always
                // true since the combined width is unchanged; legality is
                // preserved when a and b stay inside the original span.
                let b_right = state.positions[b.index()].x + wb * 0.5;
                if new_a + wa * 0.5 > b_right + 1e-9 {
                    continue;
                }
                // a and b must share one free segment: a macro may sit
                // between row-order neighbours, and the swap must not
                // slide either cell into it.
                let same_segment = row
                    .segments
                    .iter()
                    .any(|s| a_left >= s.x0 - 1e-6 && b_right <= s.x1 + 1e-6);
                if !same_segment {
                    continue;
                }
                let mut nets = state.cell_nets[a.index()].clone();
                nets.extend_from_slice(&state.cell_nets[b.index()]);
                nets.sort();
                nets.dedup();
                let before = state.nets_hpwl(&nets);
                let (old_a, old_b) = (state.positions[a.index()].x, state.positions[b.index()].x);
                state.positions[a.index()].x = new_a;
                state.positions[b.index()].x = new_b;
                let after = state.nets_hpwl(&nets);
                if after < before - 1e-9 {
                    state.row_cells[ri].swap(k, k + 1);
                    reorders += 1;
                } else {
                    state.positions[a.index()].x = old_a;
                    state.positions[b.index()].x = old_b;
                }
            }
        }

        // --- 3. Global same-footprint swaps. ---
        let movable: Vec<CellId> = nl
            .cell_ids()
            .filter(|&c| {
                nl.cell(c).is_movable()
                    && state.cell_row[c.index()] != usize::MAX
                    && design.fence_of(c).is_none()
            })
            .collect();
        if movable.len() >= 2 {
            let trials = (movable.len() as f64 * config.swap_trials_per_cell) as usize;
            for _ in 0..trials {
                let a = movable[rng.gen_range(0..movable.len())];
                let b = movable[rng.gen_range(0..movable.len())];
                if a == b {
                    continue;
                }
                let (ca, cb) = (nl.cell(a), nl.cell(b));
                if (ca.width() - cb.width()).abs() > 1e-9
                    || (ca.height() - cb.height()).abs() > 1e-9
                {
                    continue;
                }
                let mut nets = state.cell_nets[a.index()].clone();
                nets.extend_from_slice(&state.cell_nets[b.index()]);
                nets.sort();
                nets.dedup();
                let before = state.nets_hpwl(&nets);
                let (pa, pb) = (state.positions[a.index()], state.positions[b.index()]);
                state.positions[a.index()] = pb;
                state.positions[b.index()] = pa;
                let after = state.nets_hpwl(&nets);
                if after < before - 1e-9 {
                    // Keep: fix up the row bookkeeping.
                    let (ra, rb) = (state.cell_row[a.index()], state.cell_row[b.index()]);
                    if ra != rb {
                        let ia = state.row_cells[ra].iter().position(|&c| c == a).unwrap();
                        let ib = state.row_cells[rb].iter().position(|&c| c == b).unwrap();
                        state.row_cells[ra][ia] = b;
                        state.row_cells[rb][ib] = a;
                        state.cell_row[a.index()] = rb;
                        state.cell_row[b.index()] = ra;
                    } else {
                        // Same row: order may flip.
                        state.row_cells[ra].sort_by(|&p, &q| {
                            state.positions[p.index()]
                                .x
                                .partial_cmp(&state.positions[q.index()].x)
                                .expect("finite positions")
                        });
                    }
                    swaps += 1;
                } else {
                    state.positions[a.index()] = pa;
                    state.positions[b.index()] = pb;
                }
            }
        }
    }

    let positions = state.positions.clone();
    design.set_positions(positions);
    DpReport {
        initial_hpwl,
        final_hpwl: design.total_hpwl(),
        slides,
        reorders,
        swaps,
        wall_seconds: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_legality, legalize};
    use xplace_db::synthesis::{synthesize, SynthesisSpec};

    fn legalized_design(cells: usize, seed: u64) -> Design {
        let mut d =
            synthesize(&SynthesisSpec::new("dp", cells, cells + 30).with_seed(seed)).unwrap();
        let r = d.region();
        let nl = d.netlist();
        let mut pos = d.positions().to_vec();
        for (k, id) in nl.cell_ids().enumerate() {
            if nl.cell(id).is_movable() {
                pos[id.index()] = Point::new(
                    r.lx + ((k as f64) * 0.7548).fract() * r.width(),
                    r.ly + ((k as f64) * 0.5698).fract() * r.height(),
                );
            }
        }
        d.set_positions(pos);
        legalize(&mut d).unwrap();
        d
    }

    #[test]
    fn dp_improves_hpwl_and_stays_legal() {
        let mut d = legalized_design(400, 3);
        let report = detailed_place(&mut d, &DpConfig::default());
        assert!(
            report.final_hpwl < report.initial_hpwl,
            "DP should improve HPWL: {} -> {}",
            report.initial_hpwl,
            report.final_hpwl
        );
        assert!(report.slides + report.reorders + report.swaps > 0);
        check_legality(&d).unwrap();
        assert!((d.total_hpwl() - report.final_hpwl).abs() < 1e-6);
    }

    #[test]
    fn dp_is_deterministic() {
        let mut d1 = legalized_design(200, 5);
        let mut d2 = legalized_design(200, 5);
        let r1 = detailed_place(&mut d1, &DpConfig::default());
        let r2 = detailed_place(&mut d2, &DpConfig::default());
        assert_eq!(r1.final_hpwl, r2.final_hpwl);
        assert_eq!(d1.positions(), d2.positions());
    }

    #[test]
    fn more_passes_never_hurt() {
        let mut d1 = legalized_design(200, 7);
        let mut d2 = legalized_design(200, 7);
        let one = detailed_place(
            &mut d1,
            &DpConfig {
                passes: 1,
                ..DpConfig::default()
            },
        );
        let three = detailed_place(
            &mut d2,
            &DpConfig {
                passes: 3,
                ..DpConfig::default()
            },
        );
        assert!(three.final_hpwl <= one.final_hpwl + 1e-9);
    }

    #[test]
    fn dp_with_macros_respects_blockages() {
        let mut d = synthesize(
            &SynthesisSpec::new("dpm", 300, 320)
                .with_seed(9)
                .with_macro_count(4),
        )
        .unwrap();
        legalize(&mut d).unwrap();
        detailed_place(&mut d, &DpConfig::default());
        check_legality(&d).unwrap();
    }

    #[test]
    fn dp_on_rowless_design_is_a_no_op() {
        use xplace_db::netlist::{CellKind, NetlistBuilder};
        use xplace_db::Rect;
        let mut b = NetlistBuilder::new();
        let a = b.add_cell("a", 0.0, 0.0, CellKind::Terminal);
        b.add_net("n", vec![(a, Point::default())]).unwrap();
        let nl = b.finish().unwrap();
        let mut d = Design::new(
            "empty",
            nl,
            Rect::new(0.0, 0.0, 10.0, 10.0),
            vec![],
            0.9,
            vec![Point::default()],
        )
        .unwrap();
        let report = detailed_place(&mut d, &DpConfig::default());
        assert_eq!(report.initial_hpwl, report.final_hpwl);
    }
}
