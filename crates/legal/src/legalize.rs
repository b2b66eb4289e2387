//! Tetris-style greedy legalization with Abacus least-squares refinement.

use crate::rows::{build_rows, RowModel};
use crate::LegalError;
use std::time::Instant;
use xplace_db::{CellId, Design, Point};
use xplace_testkit::json_struct;

/// Outcome of a legalization run.
#[derive(Debug, Clone, PartialEq)]
pub struct LegalizeReport {
    /// HPWL before legalization (the global-placement result).
    pub initial_hpwl: f64,
    /// HPWL after legalization.
    pub final_hpwl: f64,
    /// Mean displacement of movable cells.
    pub mean_displacement: f64,
    /// Maximum displacement of a movable cell.
    pub max_displacement: f64,
    /// Wall-clock seconds.
    pub wall_seconds: f64,
}

// The `lg` section of a run report: these keys, in this order.
json_struct!(LegalizeReport {
    initial_hpwl,
    final_hpwl,
    mean_displacement,
    max_displacement,
    wall_seconds,
});

/// Per-segment packing state used by the Tetris pass: the list of free
/// gaps (so space skipped while honouring a cell's desired position can
/// still be used by later cells).
#[derive(Debug)]
struct SegState {
    row: usize,
    seg: usize,
    gaps: Vec<(f64, f64)>,
}

/// A cell placed into a segment (left edge + desired left edge), input to
/// the Abacus refinement.
#[derive(Debug, Clone, Copy)]
struct Placed {
    cell: CellId,
    width: f64,
    desired_x: f64,
    /// Fenced cells keep their Tetris position (their segment skips the
    /// Abacus pass so the least-squares clustering cannot slide them out
    /// of the fence).
    fenced: bool,
}

/// Legalizes all movable cells of a design in place: every cell ends up
/// row-aligned, site-aligned, inside a free row segment and overlap-free.
///
/// # Errors
///
/// Returns [`LegalError::NoRows`] for designs without derivable rows and
/// [`LegalError::NoSpace`] when a cell cannot be packed anywhere (the
/// design is over-full).
pub fn legalize(design: &mut Design) -> Result<LegalizeReport, LegalError> {
    let start = Instant::now();
    let initial_hpwl = design.total_hpwl();
    let rows = build_rows(design)?;
    let nl = design.netlist();

    // Movable cells: fenced cells first (their usable space is scarce and
    // unfenced cells may otherwise squat in it), then widest first
    // (first-fit-decreasing: wide cells see the large gaps before
    // fragmentation), ties broken left-to-right.
    let mut cells: Vec<CellId> = nl.cell_ids().filter(|&c| nl.cell(c).is_movable()).collect();
    cells.sort_by(|&a, &b| {
        let fa = design.fence_of(a).is_none(); // false (fenced) sorts first
        let fb = design.fence_of(b).is_none();
        let wa = nl.cell(a).width();
        let wb = nl.cell(b).width();
        let xa = design.position(a).x - wa * 0.5;
        let xb = design.position(b).x - wb * 0.5;
        (fa, wb, xa)
            .partial_cmp(&(fb, wa, xb))
            .expect("finite positions")
    });

    // Free gaps per (row, segment).
    let mut states: Vec<SegState> = Vec::new();
    for (ri, row) in rows.iter().enumerate() {
        for (si, seg) in row.segments.iter().enumerate() {
            states.push(SegState {
                row: ri,
                seg: si,
                gaps: vec![(seg.x0, seg.x1)],
            });
        }
    }
    // Row-sorted index for the nearest-row search.
    let mut per_row_state: Vec<Vec<usize>> = vec![Vec::new(); rows.len()];
    for (k, s) in states.iter().enumerate() {
        per_row_state[s.row].push(k);
    }

    // Contents per segment for the Abacus pass.
    let mut contents: Vec<Vec<Placed>> = (0..states.len()).map(|_| Vec::new()).collect();

    let mut positions = design.positions().to_vec();
    let original = design.positions().to_vec();

    for &cell in &cells {
        let c = nl.cell(cell);
        let (w, h) = (c.width(), c.height());
        let desired = original[cell.index()];
        let desired_left = desired.x - w * 0.5;
        let fence = design.fence_of(cell).map(|fi| &design.fences()[fi]);

        // Rows sorted by |row center - desired y|; stop once the vertical
        // distance alone exceeds the best cost so far.
        let mut row_order: Vec<usize> = (0..rows.len())
            .filter(|&ri| rows[ri].height + 1e-9 >= h)
            .collect();
        if row_order.is_empty() {
            return Err(LegalError::NoSpace {
                cell: c.name().to_string(),
            });
        }
        // Fenced cells may only use rows whose band lies inside one of the
        // fence rectangles' y-range.
        if let Some(fence) = fence {
            row_order.retain(|&ri| {
                let row = &rows[ri];
                fence
                    .rects()
                    .iter()
                    .any(|fr| row.y >= fr.ly - 1e-9 && row.y + h <= fr.uy + 1e-9)
            });
            if row_order.is_empty() {
                return Err(LegalError::NoSpace {
                    cell: c.name().to_string(),
                });
            }
        }
        row_order.sort_by(|&a, &b| {
            let da = (rows[a].center_y() - desired.y).abs();
            let db = (rows[b].center_y() - desired.y).abs();
            da.partial_cmp(&db).expect("finite rows")
        });

        let mut best: Option<(usize, usize, f64, f64)> = None; // (state, gap, x, cost)
        for &ri in &row_order {
            let row = &rows[ri];
            let dy = (row.center_y() - desired.y).abs();
            if let Some((.., cost)) = best {
                if dy >= cost {
                    break;
                }
            }
            for &sk in &per_row_state[ri] {
                let st = &states[sk];
                for (gi, &(g0, g1)) in st.gaps.iter().enumerate() {
                    // Clip the usable gap to the cell's fence (the fence
                    // rect covering this row, if any).
                    let (f0, f1) = match fence {
                        Some(fence) => {
                            let covering = fence.rects().iter().find(|fr| {
                                row.y >= fr.ly - 1e-9
                                    && row.y + h <= fr.uy + 1e-9
                                    && fr.lx < g1
                                    && fr.ux > g0
                            });
                            match covering {
                                Some(fr) => (g0.max(fr.lx), g1.min(fr.ux)),
                                None => continue,
                            }
                        }
                        None => (g0, g1),
                    };
                    let lo = row.snap_up(f0);
                    let hi = row.snap_down(f1 - w);
                    if hi < lo - 1e-9 || hi + w > f1 + 1e-9 {
                        continue; // gap too small
                    }
                    let x = row.snap_down(desired_left.clamp(lo, hi)).max(lo);
                    let cost = (x - desired_left).abs() + dy;
                    if best.map(|(.., bc)| cost < bc).unwrap_or(true) {
                        best = Some((sk, gi, x, cost));
                    }
                }
            }
        }
        let (sk, gi, x, _) = best.ok_or_else(|| LegalError::NoSpace {
            cell: c.name().to_string(),
        })?;
        // Split the chosen gap around the placed cell.
        let (g0, g1) = states[sk].gaps.remove(gi);
        let site = rows[states[sk].row].site;
        if x - g0 >= site - 1e-9 {
            states[sk].gaps.insert(gi, (g0, x));
        }
        if g1 - (x + w) >= site - 1e-9 {
            let at = if x - g0 >= site - 1e-9 { gi + 1 } else { gi };
            states[sk].gaps.insert(at, (x + w, g1));
        }
        contents[sk].push(Placed {
            cell,
            width: w,
            desired_x: desired_left,
            fenced: fence.is_some(),
        });
        let row = &rows[states[sk].row];
        positions[cell.index()] = Point::new(x + w * 0.5, row.y + h * 0.5);
    }

    // Abacus refinement: per segment, least-squares clustering toward the
    // desired positions (cells keep their packing order).
    for (sk, placed) in contents.iter_mut().enumerate() {
        if placed.is_empty() || placed.iter().any(|p| p.fenced) {
            // Segments holding fenced cells keep their gap-based packing:
            // Abacus clustering could slide a member across its fence
            // boundary.
            continue;
        }
        // Abacus processes the physical left-to-right order.
        placed.sort_by(|a, b| {
            positions[a.cell.index()]
                .x
                .partial_cmp(&positions[b.cell.index()].x)
                .expect("finite positions")
        });
        let st = &states[sk];
        let row = &rows[st.row];
        let seg = row.segments[st.seg];
        let xs = abacus_segment(placed, seg.x0, seg.x1, row);
        for (p, x_left) in placed.iter().zip(xs) {
            let h = nl.cell(p.cell).height();
            positions[p.cell.index()] = Point::new(x_left + p.width * 0.5, row.y + h * 0.5);
        }
    }

    let mut mean_disp = 0.0;
    let mut max_disp: f64 = 0.0;
    let mut count = 0usize;
    for &cell in &cells {
        let d = positions[cell.index()].manhattan_distance(original[cell.index()]);
        mean_disp += d;
        max_disp = max_disp.max(d);
        count += 1;
    }
    if count > 0 {
        mean_disp /= count as f64;
    }

    design.set_positions(positions);
    Ok(LegalizeReport {
        initial_hpwl,
        final_hpwl: design.total_hpwl(),
        mean_displacement: mean_disp,
        max_displacement: max_disp,
        wall_seconds: start.elapsed().as_secs_f64(),
    })
}

/// Classic Abacus over one segment: returns the left edge of every cell
/// (in the given order), minimizing total squared displacement to
/// `desired_x` subject to non-overlap and the segment bounds. Results are
/// site-aligned.
fn abacus_segment(cells: &[Placed], x0: f64, x1: f64, row: &RowModel) -> Vec<f64> {
    #[derive(Debug, Clone, Copy)]
    struct Cluster {
        /// Number of cells.
        e: f64,
        /// Sum of (desired - offset within cluster).
        q: f64,
        /// Total width.
        w: f64,
        /// First cell index.
        first: usize,
        /// One past the last cell index.
        last: usize,
        /// Optimal (unclamped-then-clamped) left edge.
        x: f64,
    }

    let mut clusters: Vec<Cluster> = Vec::with_capacity(cells.len());
    for (i, c) in cells.iter().enumerate() {
        let mut cl = Cluster {
            e: 1.0,
            q: c.desired_x,
            w: c.width,
            first: i,
            last: i + 1,
            x: 0.0,
        };
        cl.x = cl.q.clamp(x0, (x1 - cl.w).max(x0));
        clusters.push(cl);
        // Collapse while the new cluster overlaps its predecessor.
        while clusters.len() > 1 {
            let cur = clusters[clusters.len() - 1];
            let prev = clusters[clusters.len() - 2];
            if prev.x + prev.w <= cur.x + 1e-12 {
                break;
            }
            // Merge cur into prev.
            let merged_q = prev.q + (cur.q - cur.e * prev.w);
            let merged = Cluster {
                e: prev.e + cur.e,
                q: merged_q,
                w: prev.w + cur.w,
                first: prev.first,
                last: cur.last,
                x: 0.0,
            };
            clusters.pop();
            let m = clusters.len() - 1;
            clusters[m] = merged;
            let cl = &mut clusters[m];
            cl.x = (cl.q / cl.e).clamp(x0, (x1 - cl.w).max(x0));
        }
    }

    // Emit site-aligned positions; snapping down keeps everything inside
    // because cluster widths are site multiples in our flows, and we
    // re-clamp defensively.
    let mut out = vec![0.0; cells.len()];
    for cl in &clusters {
        let mut x = row.snap_down(cl.x).max(x0);
        if x + cl.w > x1 + 1e-9 {
            x = row.snap_down(x1 - cl.w).max(x0);
        }
        for i in cl.first..cl.last {
            out[i] = x;
            x += cells[i].width;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_legality;
    use xplace_db::synthesis::{synthesize, SynthesisSpec};

    fn spread_design(cells: usize, seed: u64) -> Design {
        let mut d =
            synthesize(&SynthesisSpec::new("lg", cells, cells + 20).with_seed(seed)).unwrap();
        // Pseudo-random spread (as if a GP had run).
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
        d
    }

    #[test]
    fn legalized_result_passes_the_checker() {
        let mut d = spread_design(400, 3);
        legalize(&mut d).unwrap();
        check_legality(&d).unwrap();
    }

    #[test]
    fn legalization_respects_macro_blockages() {
        let mut d = synthesize(
            &SynthesisSpec::new("lgm", 300, 320)
                .with_seed(5)
                .with_macro_count(4),
        )
        .unwrap();
        // Cells start clustered at the center — the hardest case.
        legalize(&mut d).unwrap();
        check_legality(&d).unwrap();
    }

    #[test]
    fn displacement_is_small_for_a_spread_placement() {
        let mut d = spread_design(500, 7);
        let report = legalize(&mut d).unwrap();
        let bin = d.region().width() / 16.0;
        assert!(
            report.mean_displacement < bin,
            "mean displacement {} too large (bin {bin})",
            report.mean_displacement
        );
        assert!(report.max_displacement.is_finite());
    }

    #[test]
    fn hpwl_change_is_bounded() {
        let mut d = spread_design(400, 9);
        let report = legalize(&mut d).unwrap();
        // Legalizing a spread placement should not blow HPWL up.
        assert!(
            report.final_hpwl < report.initial_hpwl * 1.5,
            "HPWL {} -> {}",
            report.initial_hpwl,
            report.final_hpwl
        );
    }

    #[test]
    fn abacus_places_cells_at_desired_positions_when_disjoint() {
        let row = RowModel {
            y: 0.0,
            height: 12.0,
            site: 1.0,
            origin: 0.0,
            segments: vec![],
        };
        let cells = vec![
            Placed {
                cell: CellId(0),
                width: 2.0,
                desired_x: 3.0,
                fenced: false,
            },
            Placed {
                cell: CellId(1),
                width: 2.0,
                desired_x: 10.0,
                fenced: false,
            },
        ];
        let xs = abacus_segment(&cells, 0.0, 20.0, &row);
        assert_eq!(xs, vec![3.0, 10.0]);
    }

    #[test]
    fn abacus_resolves_overlap_by_least_squares() {
        let row = RowModel {
            y: 0.0,
            height: 12.0,
            site: 1.0,
            origin: 0.0,
            segments: vec![],
        };
        // Both want x = 5; least squares packs them around it.
        let cells = vec![
            Placed {
                cell: CellId(0),
                width: 2.0,
                desired_x: 5.0,
                fenced: false,
            },
            Placed {
                cell: CellId(1),
                width: 2.0,
                desired_x: 5.0,
                fenced: false,
            },
        ];
        let xs = abacus_segment(&cells, 0.0, 20.0, &row);
        assert_eq!(xs[1] - xs[0], 2.0, "cells must abut");
        // Cluster optimum is (5 + (5-2))/2 = 4.
        assert_eq!(xs[0], 4.0);
    }

    #[test]
    fn abacus_clamps_to_segment_bounds() {
        let row = RowModel {
            y: 0.0,
            height: 12.0,
            site: 1.0,
            origin: 0.0,
            segments: vec![],
        };
        let cells = vec![
            Placed {
                cell: CellId(0),
                width: 3.0,
                desired_x: -10.0,
                fenced: false,
            },
            Placed {
                cell: CellId(1),
                width: 3.0,
                desired_x: 100.0,
                fenced: false,
            },
        ];
        let xs = abacus_segment(&cells, 0.0, 10.0, &row);
        assert!(xs[0] >= 0.0);
        assert!(xs[1] + 3.0 <= 10.0 + 1e-9);
        assert!(xs[1] >= xs[0] + 3.0 - 1e-9);
    }

    #[test]
    fn overfull_design_reports_no_space() {
        use xplace_db::netlist::{CellKind, NetlistBuilder};
        use xplace_db::{Rect, Row};
        let mut b = NetlistBuilder::new();
        let mut pins = Vec::new();
        for i in 0..6 {
            let id = b.add_cell(format!("c{i}"), 4.0, 4.0, CellKind::Movable);
            pins.push((id, Point::default()));
        }
        b.add_net("n", pins).unwrap();
        let nl = b.finish().unwrap();
        // Region fits 2 cells per row x 2 rows = 4 < 6 cells, but the
        // design-level density checks pass because utilization <= 1 is
        // violated -> construct directly.
        let d = Design::new(
            "full",
            nl,
            Rect::new(0.0, 0.0, 9.0, 8.0),
            vec![
                Row {
                    y: 0.0,
                    height: 4.0,
                    x_min: 0.0,
                    x_max: 9.0,
                    site_width: 1.0,
                },
                Row {
                    y: 4.0,
                    height: 4.0,
                    x_min: 0.0,
                    x_max: 9.0,
                    site_width: 1.0,
                },
            ],
            1.0,
            vec![Point::new(4.5, 4.0); 6],
        );
        let mut d = match d {
            Ok(d) => d,
            Err(_) => return, // construction may already reject it
        };
        let result = legalize(&mut d);
        assert!(matches!(result, Err(LegalError::NoSpace { .. })));
    }
}
