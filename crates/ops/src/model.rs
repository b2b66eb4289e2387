//! The flattened placement model the operators execute on.

use crate::OpsError;
use std::ops::Range;
use xplace_db::{CellKind, Design, FenceRegion, Point, Rect};
use xplace_testkit::Rng;

/// Index ranges of the three node classes inside a [`PlacementModel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeRange {
    /// Movable standard cells `0..nm`.
    pub movable: Range<usize>,
    /// Fixed cells and terminals `nm..nm+nf`.
    pub fixed: Range<usize>,
    /// Filler cells `nm+nf..total`.
    pub filler: Range<usize>,
}

/// Array-of-structs view of a placement instance, the operand of every
/// operator in this crate.
///
/// Node ordering is `[movable | fixed+terminals | fillers]`; positions are
/// cell **centers**. Net connectivity is stored in CSR form over pins.
/// Fillers (inserted per ePlace to occupy whitespace in the electrostatic
/// system, Eq. 9-10 of the paper) have no pins.
#[derive(Debug, Clone)]
pub struct PlacementModel {
    /// Node center x coordinates.
    pub x: Vec<f64>,
    /// Node center y coordinates.
    pub y: Vec<f64>,
    /// Node widths.
    pub w: Vec<f64>,
    /// Node heights.
    pub h: Vec<f64>,
    /// Pins of net `e` occupy `net_start[e]..net_start[e+1]` in the pin
    /// arrays.
    pub net_start: Vec<u32>,
    /// Owning node of each pin.
    pub pin_node: Vec<u32>,
    /// Pin x offset from the node center.
    pub pin_dx: Vec<f64>,
    /// Pin y offset from the node center.
    pub pin_dy: Vec<f64>,
    /// Net weights.
    pub net_weight: Vec<f64>,
    /// Pins incident to each node (`|S_i|` for the preconditioner; zero
    /// for fillers).
    pub node_degree: Vec<u32>,
    /// Number of movable cells.
    num_movable: usize,
    /// Number of fixed cells + terminals.
    num_fixed: usize,
    /// Number of fillers.
    num_fillers: usize,
    /// Placement region.
    region: Rect,
    /// Density grid dimensions (power of two).
    nx: usize,
    ny: usize,
    /// Target density.
    target_density: f64,
    /// Fence index per node (`u32::MAX` = unfenced). Only movable nodes
    /// can be fenced.
    node_fence: Vec<u32>,
    /// The design's fence regions (cloned for clamping).
    fences: Vec<FenceRegion>,
}

impl PlacementModel {
    /// Builds a model from a design with default grid sizing and ePlace
    /// filler insertion (deterministic filler seeding).
    ///
    /// # Errors
    ///
    /// Returns [`OpsError::InvalidModel`] when the design has no movable
    /// cells or a degenerate region.
    pub fn from_design(design: &Design) -> Result<Self, OpsError> {
        Self::from_design_with(design, None, true, 0x5eed)
    }

    /// Builds a model with explicit options: an optional density-grid
    /// override (must be a power of two), filler insertion on/off and the
    /// RNG seed for filler spreading.
    ///
    /// # Errors
    ///
    /// Returns [`OpsError::InvalidModel`] for designs with no movable
    /// cells, degenerate regions, or grid overrides that are not a power of
    /// two or exceed [`xplace_fft::MAX_GRID_SIDE`].
    pub fn from_design_with(
        design: &Design,
        grid: Option<usize>,
        insert_fillers: bool,
        filler_seed: u64,
    ) -> Result<Self, OpsError> {
        let nl = design.netlist();
        let region = design.region();
        if region.width() <= 0.0 || region.height() <= 0.0 {
            return Err(OpsError::InvalidModel("degenerate placement region".into()));
        }

        // Partition cells: movable first, then fixed/terminals.
        let mut movable = Vec::new();
        let mut fixed = Vec::new();
        for id in nl.cell_ids() {
            match nl.cell(id).kind() {
                CellKind::Movable => movable.push(id),
                CellKind::Fixed | CellKind::Terminal => fixed.push(id),
            }
        }
        if movable.is_empty() {
            return Err(OpsError::InvalidModel("design has no movable cells".into()));
        }
        let num_movable = movable.len();
        let num_fixed = fixed.len();

        // node index per cell id.
        let mut node_of_cell = vec![u32::MAX; nl.num_cells()];
        for (i, &id) in movable.iter().chain(fixed.iter()).enumerate() {
            node_of_cell[id.index()] = i as u32;
        }

        let mut x = Vec::with_capacity(num_movable + num_fixed);
        let mut y = Vec::with_capacity(num_movable + num_fixed);
        let mut w = Vec::with_capacity(num_movable + num_fixed);
        let mut h = Vec::with_capacity(num_movable + num_fixed);
        for &id in movable.iter().chain(fixed.iter()) {
            let c = nl.cell(id);
            let p = design.position(id);
            x.push(p.x);
            y.push(p.y);
            w.push(c.width());
            h.push(c.height());
        }

        // CSR nets: the netlist is already net-major SoA, so the spans,
        // offsets and weights copy straight through; only the cell ids are
        // remapped to the movable-first node order.
        let net_start: Vec<u32> = nl.net_start().to_vec();
        let pin_node: Vec<u32> = nl
            .pin_cells()
            .iter()
            .map(|c| node_of_cell[c.index()])
            .collect();
        let pin_dx: Vec<f64> = nl.pin_dx().to_vec();
        let pin_dy: Vec<f64> = nl.pin_dy().to_vec();
        let net_weight: Vec<f64> = nl.net_weights().to_vec();

        // Grid sizing: roughly one bin per few movable cells, power of two.
        let nx = match grid {
            Some(g) => {
                if !xplace_fft::is_power_of_two(g) {
                    return Err(OpsError::InvalidModel(format!(
                        "grid override {g} is not a power of two"
                    )));
                }
                if g > xplace_fft::MAX_GRID_SIDE {
                    return Err(OpsError::InvalidModel(format!(
                        "grid override {g} exceeds the maximum of {} bins",
                        xplace_fft::MAX_GRID_SIDE
                    )));
                }
                g
            }
            None => {
                let target = (num_movable as f64).sqrt().ceil() as usize;
                xplace_fft::next_power_of_two(target).clamp(16, xplace_fft::MAX_GRID_SIDE)
            }
        };
        let ny = nx;

        // Fillers (Eq. 9): occupy target-density-scaled whitespace.
        let movable_area: f64 = (0..num_movable).map(|i| w[i] * h[i]).sum();
        let mut fixed_area = 0.0;
        for i in num_movable..num_movable + num_fixed {
            let r = Rect::from_center(Point::new(x[i], y[i]), w[i], h[i]);
            fixed_area += r.overlap_area(&region);
        }
        let mut num_fillers = 0;
        if insert_fillers {
            let free_area = (region.area() - fixed_area).max(0.0);
            let filler_total = (free_area * design.target_density() - movable_area).max(0.0);
            if filler_total > 0.0 {
                // Trimmed-mean movable footprint (DREAMPlace uses the
                // middle 80% to ignore outliers).
                let mut ws: Vec<f64> = (0..num_movable).map(|i| w[i]).collect();
                ws.sort_by(|a, b| a.partial_cmp(b).expect("cell widths are finite"));
                let lo = num_movable / 10;
                let hi = (num_movable - lo).max(lo + 1);
                let mean_w: f64 = ws[lo..hi].iter().sum::<f64>() / (hi - lo) as f64;
                let mean_h: f64 = (0..num_movable).map(|i| h[i]).sum::<f64>() / num_movable as f64;
                let filler_w = mean_w.max(1e-9);
                let filler_h = mean_h.max(1e-9);
                num_fillers = (filler_total / (filler_w * filler_h)).floor() as usize;
                let mut rng = Rng::seed_from_u64(filler_seed);
                for _ in 0..num_fillers {
                    x.push(region.lx + rng.f64() * region.width());
                    y.push(region.ly + rng.f64() * region.height());
                    w.push(filler_w);
                    h.push(filler_h);
                }
            }
        }

        let total = num_movable + num_fixed + num_fillers;
        let mut node_degree = vec![0u32; total];
        for &n in &pin_node {
            node_degree[n as usize] += 1;
        }

        // Fence assignment (movable nodes only).
        let mut node_fence = vec![u32::MAX; total];
        for (fi, fence) in design.fences().iter().enumerate() {
            for &cell in fence.members() {
                let node = node_of_cell[cell.index()];
                if node != u32::MAX && (node as usize) < num_movable {
                    node_fence[node as usize] = fi as u32;
                }
            }
        }

        Ok(PlacementModel {
            x,
            y,
            w,
            h,
            net_start,
            pin_node,
            pin_dx,
            pin_dy,
            net_weight,
            node_degree,
            num_movable,
            num_fixed,
            num_fillers,
            region,
            nx,
            ny,
            target_density: design.target_density(),
            node_fence,
            fences: design.fences().to_vec(),
        })
    }

    /// Total node count (movable + fixed + fillers).
    pub fn num_nodes(&self) -> usize {
        self.x.len()
    }

    /// Number of movable cells.
    pub fn num_movable(&self) -> usize {
        self.num_movable
    }

    /// Number of fixed cells and terminals.
    pub fn num_fixed(&self) -> usize {
        self.num_fixed
    }

    /// Number of filler cells.
    pub fn num_fillers(&self) -> usize {
        self.num_fillers
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.net_weight.len()
    }

    /// Number of pins.
    pub fn num_pins(&self) -> usize {
        self.pin_node.len()
    }

    /// The index ranges of the node classes.
    pub fn ranges(&self) -> NodeRange {
        NodeRange {
            movable: 0..self.num_movable,
            fixed: self.num_movable..self.num_movable + self.num_fixed,
            filler: self.num_movable + self.num_fixed..self.num_nodes(),
        }
    }

    /// Indices the optimizer moves: movable cells plus fillers.
    pub fn optimizable_indices(&self) -> impl Iterator<Item = usize> + '_ {
        let r = self.ranges();
        r.movable.chain(r.filler)
    }

    /// The placement region.
    pub fn region(&self) -> Rect {
        self.region
    }

    /// Density grid dimensions `(nx, ny)`.
    pub fn grid_dims(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Bin width.
    pub fn bin_w(&self) -> f64 {
        self.region.width() / self.nx as f64
    }

    /// Bin height.
    pub fn bin_h(&self) -> f64 {
        self.region.height() / self.ny as f64
    }

    /// The benchmark target density.
    pub fn target_density(&self) -> f64 {
        self.target_density
    }

    /// Total movable cell area.
    pub fn movable_area(&self) -> f64 {
        (0..self.num_movable).map(|i| self.w[i] * self.h[i]).sum()
    }

    /// Area of node `i`.
    pub fn node_area(&self, i: usize) -> f64 {
        self.w[i] * self.h[i]
    }

    /// Clamps every optimizable node center so its rectangle stays inside
    /// the region.
    pub fn clamp_to_region(&mut self) {
        let r = self.region;
        let (movable, filler) = {
            let ranges = self.ranges();
            (ranges.movable, ranges.filler)
        };
        for i in movable.chain(filler) {
            let half_w = self.w[i] * 0.5;
            let half_h = self.h[i] * 0.5;
            self.x[i] = self.x[i].clamp(r.lx + half_w, (r.ux - half_w).max(r.lx + half_w));
            self.y[i] = self.y[i].clamp(r.ly + half_h, (r.uy - half_h).max(r.ly + half_h));
        }
    }

    /// The fence index of a node (`None` when unfenced).
    pub fn fence_of_node(&self, i: usize) -> Option<usize> {
        match self.node_fence.get(i) {
            Some(&f) if f != u32::MAX => Some(f as usize),
            _ => None,
        }
    }

    /// Whether the model carries any fence constraints.
    pub fn has_fences(&self) -> bool {
        !self.fences.is_empty()
    }

    /// Clamps every fenced movable node into (the nearest rectangle of)
    /// its fence, keeping the cell's own footprint inside the rect where
    /// it fits.
    pub fn clamp_to_fences(&mut self) {
        if self.fences.is_empty() {
            return;
        }
        for i in 0..self.num_movable {
            let Some(fi) = self.fence_of_node(i) else {
                continue;
            };
            let rect = self.fences[fi].nearest_rect(self.x[i], self.y[i]);
            let half_w = (self.w[i] * 0.5).min(rect.width() * 0.5);
            let half_h = (self.h[i] * 0.5).min(rect.height() * 0.5);
            self.x[i] = self.x[i].clamp(rect.lx + half_w, rect.ux - half_w);
            self.y[i] = self.y[i].clamp(rect.ly + half_h, rect.uy - half_h);
        }
    }

    /// Writes the model's movable-cell positions back into the design.
    ///
    /// # Panics
    ///
    /// Panics if `design` is not the instance this model was built from
    /// (cell-count mismatch).
    pub fn apply_to(&self, design: &mut Design) {
        let nl = design.netlist();
        let mut movable = Vec::new();
        for id in nl.cell_ids() {
            if nl.cell(id).kind() == CellKind::Movable {
                movable.push(id);
            }
        }
        assert_eq!(
            movable.len(),
            self.num_movable,
            "design does not match model"
        );
        let mut positions = design.positions().to_vec();
        for (i, id) in movable.into_iter().enumerate() {
            positions[id.index()] = Point::new(self.x[i], self.y[i]);
        }
        design.set_positions(positions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xplace_db::synthesis::{synthesize, SynthesisSpec};

    fn model() -> (Design, PlacementModel) {
        let design = synthesize(
            &SynthesisSpec::new("m", 400, 420)
                .with_seed(5)
                .with_macro_count(3),
        )
        .unwrap();
        let model = PlacementModel::from_design(&design).unwrap();
        (design, model)
    }

    #[test]
    fn node_ordering_is_movable_fixed_filler() {
        let (design, m) = model();
        let r = m.ranges();
        assert_eq!(r.movable.len(), 400);
        assert_eq!(r.fixed.len(), design.netlist().num_cells() - 400);
        assert!(
            !r.filler.is_empty(),
            "expected fillers in a 70%-utilized design"
        );
        assert_eq!(r.filler.end, m.num_nodes());
    }

    #[test]
    fn filler_area_fills_target_density_whitespace() {
        let (design, m) = model();
        let filler_area: f64 = m.ranges().filler.map(|i| m.node_area(i)).sum();
        let free = design.region_area() - design.fixed_area_in_region();
        let expected = free * design.target_density() - m.movable_area();
        assert!(
            (filler_area - expected).abs() < expected * 0.02 + m.node_area(m.ranges().filler.start),
            "filler area {filler_area} vs expected {expected}"
        );
    }

    #[test]
    fn csr_nets_match_design_hpwl() {
        let (design, m) = model();
        // Reconstruct HPWL from the CSR arrays and compare with the design.
        let mut total = 0.0;
        for e in 0..m.num_nets() {
            let s = m.net_start[e] as usize;
            let t = m.net_start[e + 1] as usize;
            if t - s < 2 {
                continue;
            }
            let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
            let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
            for p in s..t {
                let n = m.pin_node[p] as usize;
                let px = m.x[n] + m.pin_dx[p];
                let py = m.y[n] + m.pin_dy[p];
                min_x = min_x.min(px);
                max_x = max_x.max(px);
                min_y = min_y.min(py);
                max_y = max_y.max(py);
            }
            total += m.net_weight[e] * ((max_x - min_x) + (max_y - min_y));
        }
        let expected = design.total_hpwl();
        assert!(
            (total - expected).abs() < 1e-6 * expected,
            "{total} vs {expected}"
        );
    }

    #[test]
    fn fillers_have_no_pins() {
        let (_, m) = model();
        for i in m.ranges().filler {
            assert_eq!(m.node_degree[i], 0);
        }
    }

    #[test]
    fn grid_is_power_of_two_and_scales_with_size() {
        let (_, m) = model();
        let (nx, ny) = m.grid_dims();
        assert!(xplace_fft::is_power_of_two(nx) && nx == ny);
        assert!((16..=xplace_fft::MAX_GRID_SIDE).contains(&nx));
    }

    #[test]
    fn grid_override_is_validated() {
        let (design, _) = model();
        assert!(PlacementModel::from_design_with(&design, Some(48), true, 0).is_err());
        let huge = 64 * xplace_fft::MAX_GRID_SIDE;
        assert!(PlacementModel::from_design_with(&design, Some(huge), true, 0).is_err());
        let m = PlacementModel::from_design_with(&design, Some(64), true, 0).unwrap();
        assert_eq!(m.grid_dims(), (64, 64));
    }

    #[test]
    fn clamp_keeps_nodes_inside() {
        let (_, mut m) = model();
        let r = m.region();
        m.x[0] = r.lx - 100.0;
        m.y[0] = r.uy + 100.0;
        m.clamp_to_region();
        assert!(m.x[0] - m.w[0] * 0.5 >= r.lx - 1e-9);
        assert!(m.y[0] + m.h[0] * 0.5 <= r.uy + 1e-9);
    }

    #[test]
    fn apply_to_round_trips_positions() {
        let (mut design, mut m) = model();
        m.x[7] += 3.0;
        m.y[7] -= 2.0;
        m.apply_to(&mut design);
        let m2 = PlacementModel::from_design(&design).unwrap();
        assert!((m2.x[7] - m.x[7]).abs() < 1e-12);
        assert!((m2.y[7] - m.y[7]).abs() < 1e-12);
    }

    #[test]
    fn no_fillers_when_disabled() {
        let (design, _) = model();
        let m = PlacementModel::from_design_with(&design, None, false, 0).unwrap();
        assert_eq!(m.num_fillers(), 0);
    }

    #[test]
    fn empty_movable_design_is_rejected() {
        use xplace_db::netlist::{CellKind, NetlistBuilder};
        let mut b = NetlistBuilder::new();
        let f = b.add_cell("f", 2.0, 2.0, CellKind::Fixed);
        b.add_net("n", vec![(f, Point::default()), (f, Point::new(0.5, 0.0))])
            .unwrap();
        let nl = b.finish().unwrap();
        let d = Design::new(
            "nofree",
            nl,
            Rect::new(0.0, 0.0, 10.0, 10.0),
            vec![],
            0.9,
            vec![Point::new(5.0, 5.0)],
        )
        .unwrap();
        assert!(matches!(
            PlacementModel::from_design(&d),
            Err(OpsError::InvalidModel(_))
        ));
    }

    #[test]
    fn fence_assignment_and_clamping() {
        let design = synthesize(
            &SynthesisSpec::new("mf", 300, 320)
                .with_seed(9)
                .with_fences(2),
        )
        .unwrap();
        let mut m = PlacementModel::from_design(&design).unwrap();
        assert!(m.has_fences());
        // The number of fenced nodes matches the fence member lists.
        let expected: usize = design.fences().iter().map(|f| f.members().len()).sum();
        let fenced_nodes = (0..m.num_movable())
            .filter(|&i| m.fence_of_node(i).is_some())
            .count();
        assert_eq!(fenced_nodes, expected);
        assert!(fenced_nodes > 0);
        // Teleport every fenced node out and clamp back.
        let r = m.region();
        for i in 0..m.num_movable() {
            if m.fence_of_node(i).is_some() {
                m.x[i] = r.lx;
                m.y[i] = r.ly;
            }
        }
        m.clamp_to_fences();
        for i in 0..m.num_movable() {
            if let Some(fi) = m.fence_of_node(i) {
                let bb = design.fences()[fi].bounding_box();
                assert!(
                    m.x[i] >= bb.lx - 1e-9 && m.x[i] <= bb.ux + 1e-9,
                    "node {i} x={} outside fence {bb}",
                    m.x[i]
                );
                assert!(m.y[i] >= bb.ly - 1e-9 && m.y[i] <= bb.uy + 1e-9);
            }
        }
    }

    #[test]
    fn unfenced_model_clamp_is_a_no_op() {
        let design = synthesize(&SynthesisSpec::new("mnf", 100, 110).with_seed(3)).unwrap();
        let mut m = PlacementModel::from_design(&design).unwrap();
        assert!(!m.has_fences());
        assert_eq!(m.fence_of_node(0), None);
        let snapshot = m.x.clone();
        m.clamp_to_fences();
        assert_eq!(m.x, snapshot);
    }

    #[test]
    fn filler_insertion_is_deterministic() {
        let (design, _) = model();
        let a = PlacementModel::from_design_with(&design, None, true, 7).unwrap();
        let b = PlacementModel::from_design_with(&design, None, true, 7).unwrap();
        assert_eq!(a.x, b.x);
        let c = PlacementModel::from_design_with(&design, None, true, 8).unwrap();
        assert_ne!(a.x, c.x);
    }
}
