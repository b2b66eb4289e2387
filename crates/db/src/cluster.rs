//! Multilevel netlist coarsening.
//!
//! Global placement at the 100k–1M-cell scale starts from a hierarchy of
//! progressively smaller netlists: deterministic heavy-edge matching pairs
//! strongly connected movable cells into clusters, aggregating area and
//! connectivity, until the coarsest level is small enough to place
//! cheaply. The placer then walks the hierarchy back down
//! (`crates/core`), seeding each finer level from the coarser solution.
//!
//! Determinism contract: coarsening consumes no RNG and visits cells and
//! pins in index order with scratch-array score accumulation, so the same
//! design always yields the identical hierarchy — independent of thread
//! count, which never enters this module.

use crate::fence::FenceRegion;
use crate::netlist::NetlistBuilder;
use crate::{CellId, CellKind, DbError, Design, Point};

/// Nets wider than this are skipped during matching: a high-degree net
/// says little about which two of its cells belong together, and walking
/// it makes matching quadratic in the worst case.
pub const MATCH_MAX_NET_DEGREE: usize = 16;

/// One coarsening step: the clustered design plus the fine→coarse cell map.
#[derive(Debug, Clone)]
pub struct CoarseLevel {
    /// The coarsened design (same die, rows, density and fences; clustered
    /// cells, aggregated nets).
    pub design: Design,
    /// `map[fine_cell] = coarse_cell` index into `design`'s netlist. Fixed
    /// cells map 1:1; matched movable pairs share a target.
    pub map: Vec<u32>,
}

/// Controls for [`build_hierarchy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchyOptions {
    /// Stop once the movable-cell count drops to this size.
    pub min_cells: usize,
    /// Hard cap on the number of coarse levels.
    pub max_levels: usize,
    /// Stop when a step keeps more than this fraction of the movable cells
    /// (matching has stalled and further levels buy nothing).
    pub stall_fraction: f64,
}

impl Default for HierarchyOptions {
    fn default() -> Self {
        HierarchyOptions {
            min_cells: 5_000,
            max_levels: 8,
            stall_fraction: 0.9,
        }
    }
}

/// Greedy deterministic heavy-edge matching over the movable cells.
///
/// Cells are visited in id order; each unmatched movable cell merges with
/// its strongest unmatched movable neighbour (connectivity score
/// `Σ weight / (degree - 1)` over shared nets of degree ≤
/// [`MATCH_MAX_NET_DEGREE`]), ties broken toward the lowest cell id.
/// Merges never cross a fence boundary: partners must share the same
/// fence, or both be unfenced.
///
/// Returns `matched[cell] = partner` (self for singletons and fixed
/// cells).
fn heavy_edge_matching(design: &Design) -> Vec<CellId> {
    let nl = design.netlist();
    let n = nl.num_cells();

    // Fence id per cell, usize::MAX for unfenced, precomputed so the inner
    // loop is O(1) per neighbour.
    let mut fence_of = vec![usize::MAX; n];
    for (fi, fence) in design.fences().iter().enumerate() {
        for &c in fence.members() {
            fence_of[c.index()] = fi;
        }
    }

    let mut matched: Vec<CellId> = (0..n as u32).map(CellId).collect();
    let mut taken = vec![false; n];
    // Scratch score accumulator + touched list: accumulation order is the
    // pin order of the netlist, so float sums are reproducible.
    let mut score = vec![0.0f64; n];
    let mut touched: Vec<usize> = Vec::new();

    for u in 0..n {
        if taken[u] || !nl.cell(CellId(u as u32)).is_movable() {
            continue;
        }
        touched.clear();
        for &p in nl.pins_of_cell(CellId(u as u32)) {
            let net = nl.pin(p).net;
            let span = nl.net_pin_range(net);
            let degree = span.len();
            if !(2..=MATCH_MAX_NET_DEGREE).contains(&degree) {
                continue;
            }
            let w = nl.net_weights()[net.index()] / (degree - 1) as f64;
            for &c in &nl.pin_cells()[span] {
                let v = c.index();
                if v == u || taken[v] || !nl.cell(c).is_movable() || fence_of[v] != fence_of[u] {
                    continue;
                }
                if score[v] == 0.0 {
                    touched.push(v);
                }
                score[v] += w;
            }
        }
        // Strongest neighbour, lowest id on ties.
        let mut best: Option<usize> = None;
        for &v in &touched {
            let better = match best {
                None => true,
                Some(b) => score[v] > score[b] || (score[v] == score[b] && v < b),
            };
            if better {
                best = Some(v);
            }
        }
        for &v in &touched {
            score[v] = 0.0;
        }
        if let Some(v) = best {
            matched[u] = CellId(v as u32);
            matched[v] = CellId(u as u32);
            taken[v] = true;
        }
        taken[u] = true;
    }
    matched
}

/// Performs one deterministic coarsening step.
///
/// Matched movable pairs become single clusters (summed area, width
/// `area / row_height` clamped to the die, area-weighted centroid
/// position); fixed cells and terminals pass through unchanged. Nets remap
/// their pins to clusters with zero offsets, drop duplicate endpoints, and
/// disappear entirely when fewer than two distinct clusters remain.
///
/// # Errors
///
/// Propagates [`DbError`] from netlist/design assembly; a validated input
/// design always coarsens cleanly.
pub fn coarsen(design: &Design) -> Result<CoarseLevel, DbError> {
    let nl = design.netlist();
    let n = nl.num_cells();
    let matched = heavy_edge_matching(design);
    let row_height = design
        .rows()
        .first()
        .map_or(1.0, |r| r.height)
        .max(f64::MIN_POSITIVE);
    let die_width = design.region().width();

    let mut builder = NetlistBuilder::with_capacity(n, nl.num_nets(), nl.num_pins());
    let mut map = vec![u32::MAX; n];
    let mut positions: Vec<Point> = Vec::new();
    for u in 0..n {
        if map[u] != u32::MAX {
            continue;
        }
        let id_u = CellId(u as u32);
        let cell = nl.cell(id_u);
        let v = matched[u].index();
        let coarse = if !cell.is_movable() || v == u {
            // Pass-through: fixed geometry keeps its exact shape; a
            // singleton cluster keeps the cell's own dimensions.
            let name = if cell.is_movable() {
                format!("c{}", builder.num_cells())
            } else {
                cell.name().to_string()
            };
            let id = builder.add_cell(name, cell.width(), cell.height(), cell.kind());
            positions.push(design.position(id_u));
            id
        } else {
            let other = nl.cell(matched[u]);
            let area = cell.area() + other.area();
            let width = (area / row_height).clamp(cell.width().max(other.width()), die_width);
            let id = builder.add_cell(
                format!("c{}", builder.num_cells()),
                width,
                row_height,
                CellKind::Movable,
            );
            let (pu, pv) = (design.position(id_u), design.position(matched[u]));
            let (au, av) = (cell.area(), other.area());
            positions.push(Point::new(
                (pu.x * au + pv.x * av) / area,
                (pu.y * au + pv.y * av) / area,
            ));
            map[v] = id.index() as u32;
            id
        };
        map[u] = coarse.index() as u32;
    }

    // Nets: remap, drop duplicate endpoints, keep only multi-cluster nets.
    let mut seen_cluster: Vec<bool> = vec![false; builder.num_cells()];
    let mut members: Vec<CellId> = Vec::new();
    for net in nl.nets() {
        members.clear();
        for &c in &nl.pin_cells()[net.pin_range()] {
            let cluster = CellId(map[c.index()]);
            if !seen_cluster[cluster.index()] {
                seen_cluster[cluster.index()] = true;
                members.push(cluster);
            }
        }
        for &m in &members {
            seen_cluster[m.index()] = false;
        }
        if members.len() < 2 {
            continue;
        }
        let pins: Vec<(CellId, Point)> = members.iter().map(|&m| (m, Point::default())).collect();
        builder.add_net_weighted(net.name().to_string(), pins, net.weight())?;
    }

    let mut coarse_design = Design::new(
        design.name().to_string(),
        builder.finish()?,
        design.region(),
        design.rows().to_vec(),
        design.target_density(),
        positions,
    )?;

    // Fences carry down: matching never crosses a fence boundary, so each
    // cluster lies wholly inside one fence (or none).
    if !design.fences().is_empty() {
        let mut fences = Vec::with_capacity(design.fences().len());
        let mut in_fence = vec![false; coarse_design.netlist().num_cells()];
        for fence in design.fences() {
            let mut members: Vec<CellId> = Vec::new();
            for &c in fence.members() {
                let cluster = CellId(map[c.index()]);
                if !in_fence[cluster.index()] {
                    in_fence[cluster.index()] = true;
                    members.push(cluster);
                }
            }
            for &m in &members {
                in_fence[m.index()] = false;
            }
            fences.push(FenceRegion::new(
                fence.name().to_string(),
                fence.rects().to_vec(),
                members,
            )?);
        }
        coarse_design.set_fences(fences)?;
    }

    Ok(CoarseLevel {
        design: coarse_design,
        map,
    })
}

/// Builds the full coarsening hierarchy, finest-derived first.
///
/// `levels[0]` is one step coarser than `design`; `levels.last()` is the
/// coarsest. Each level's `map` indexes the previous level's cells
/// (`design`'s for level 0). Stops at [`HierarchyOptions::min_cells`]
/// movable cells, after [`HierarchyOptions::max_levels`] steps, or when a
/// step retires fewer than `1 - stall_fraction` of the movable cells.
///
/// # Errors
///
/// Propagates [`DbError`] from [`coarsen`].
pub fn build_hierarchy(
    design: &Design,
    opts: &HierarchyOptions,
) -> Result<Vec<CoarseLevel>, DbError> {
    let mut levels: Vec<CoarseLevel> = Vec::new();
    let movable = |d: &Design| d.netlist().num_movable();
    let mut current = movable(design);
    while levels.len() < opts.max_levels && current > opts.min_cells {
        let level = match levels.last() {
            Some(prev) => coarsen(&prev.design)?,
            None => coarsen(design)?,
        };
        let next = movable(&level.design);
        let stalled = (next as f64) > (current as f64) * opts.stall_fraction;
        levels.push(level);
        current = next;
        if stalled {
            break;
        }
    }
    Ok(levels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesis::{synthesize, SynthesisSpec, Topology};

    fn chain_design(cells: usize) -> Design {
        synthesize(
            &SynthesisSpec::new("chain", cells, cells)
                .with_seed(71)
                .with_topology(Topology::SystolicGrid),
        )
        .unwrap()
    }

    #[test]
    fn one_step_roughly_halves_a_grid() {
        let d = chain_design(400);
        let level = coarsen(&d).unwrap();
        let before = d.netlist().num_movable();
        let after = level.design.netlist().num_movable();
        assert!(
            after <= before * 3 / 5,
            "weak reduction: {before} -> {after}"
        );
        level.design.validate().unwrap();
    }

    #[test]
    fn map_is_total_and_area_is_conserved() {
        let d = synthesize(&SynthesisSpec::new("t", 500, 520).with_seed(73)).unwrap();
        let level = coarsen(&d).unwrap();
        let coarse_cells = level.design.netlist().num_cells();
        assert_eq!(level.map.len(), d.netlist().num_cells());
        for &m in &level.map {
            assert!((m as usize) < coarse_cells);
        }
        let fine_area = d.netlist().movable_area();
        let coarse_area = level.design.netlist().movable_area();
        assert!(
            (fine_area - coarse_area).abs() < 1e-6 * fine_area,
            "area drift: {fine_area} vs {coarse_area}"
        );
    }

    #[test]
    fn fixed_cells_pass_through() {
        let d = synthesize(
            &SynthesisSpec::new("t", 300, 320)
                .with_seed(79)
                .with_macro_count(5),
        )
        .unwrap();
        let level = coarsen(&d).unwrap();
        let fine = d.netlist();
        let coarse = level.design.netlist();
        for c in fine.cell_ids() {
            if !fine.cell(c).is_movable() {
                let m = CellId(level.map[c.index()]);
                assert_eq!(coarse.cell(m).kind(), fine.cell(c).kind());
                assert_eq!(coarse.cell(m).name(), fine.cell(c).name());
                assert_eq!(level.design.position(m), d.position(c));
            }
        }
    }

    #[test]
    fn fence_members_never_merge_across_fences() {
        let d = synthesize(
            &SynthesisSpec::new("t", 600, 620)
                .with_seed(83)
                .with_fences(3),
        )
        .unwrap();
        assert_eq!(d.fences().len(), 3);
        let level = coarsen(&d).unwrap();
        // A cluster containing a member of fence i must appear only in
        // coarse fence i.
        let coarse_fences = level.design.fences();
        assert_eq!(coarse_fences.len(), 3);
        let mut owner = vec![usize::MAX; level.design.netlist().num_cells()];
        for (fi, fence) in coarse_fences.iter().enumerate() {
            for &m in fence.members() {
                assert_eq!(owner[m.index()], usize::MAX, "cluster in two fences");
                owner[m.index()] = fi;
            }
        }
        for (fi, fence) in d.fences().iter().enumerate() {
            for &c in fence.members() {
                assert_eq!(owner[level.map[c.index()] as usize], fi);
            }
        }
    }

    #[test]
    fn coarsening_is_deterministic() {
        let d = synthesize(&SynthesisSpec::new("t", 400, 410).with_seed(89)).unwrap();
        let a = coarsen(&d).unwrap();
        let b = coarsen(&d).unwrap();
        assert_eq!(a.map, b.map);
        assert_eq!(a.design.netlist(), b.design.netlist());
        assert_eq!(a.design.positions(), b.design.positions());
    }

    #[test]
    fn hierarchy_reduces_monotonically_and_terminates() {
        let d = synthesize(&SynthesisSpec::new("t", 2000, 2100).with_seed(97)).unwrap();
        let opts = HierarchyOptions {
            min_cells: 100,
            max_levels: 10,
            stall_fraction: 0.9,
        };
        let levels = build_hierarchy(&d, &opts).unwrap();
        assert!(!levels.is_empty());
        let mut prev = d.netlist().num_movable();
        for level in &levels {
            let cur = level.design.netlist().num_movable();
            assert!(cur < prev, "level did not shrink: {prev} -> {cur}");
            prev = cur;
        }
        let coarsest = levels.last().unwrap().design.netlist().num_movable();
        assert!(coarsest <= 2000 / 4, "hierarchy too shallow: {coarsest}");
    }

    #[test]
    fn coarse_nets_have_distinct_endpoints() {
        let d = chain_design(300);
        let level = coarsen(&d).unwrap();
        let nl = level.design.netlist();
        for net in nl.nets() {
            let mut cells: Vec<_> = nl.pin_cells()[net.pin_range()].to_vec();
            let before = cells.len();
            cells.sort();
            cells.dedup();
            assert_eq!(before, cells.len(), "coarse net repeats a cluster");
            assert!(before >= 2);
        }
    }
}
