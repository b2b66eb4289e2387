//! A complete placement instance: netlist + floorplan + cell positions.

use crate::fence::{validate_fences, FenceRegion};
use crate::{CellId, CellKind, DbError, NetId, Netlist, Point, Rect};

/// A placement row (as in a Bookshelf `.scl` `CoreRow` record).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// Lower y coordinate of the row.
    pub y: f64,
    /// Row (site) height.
    pub height: f64,
    /// Leftmost x coordinate.
    pub x_min: f64,
    /// Rightmost x coordinate.
    pub x_max: f64,
    /// Width of one placement site.
    pub site_width: f64,
}

impl Row {
    /// Number of whole sites in the row.
    pub fn num_sites(&self) -> usize {
        ((self.x_max - self.x_min) / self.site_width).floor() as usize
    }

    /// The row's bounding rectangle.
    pub fn rect(&self) -> Rect {
        Rect::new(self.x_min, self.y, self.x_max, self.y + self.height)
    }
}

/// A placement design: the netlist plus everything the placer needs to run.
///
/// Cell positions are stored as **centers** (the natural coordinate for the
/// analytic formulation); conversions to lower-left corners happen at the
/// file-format boundary.
#[derive(Debug, Clone)]
pub struct Design {
    name: String,
    netlist: Netlist,
    region: Rect,
    rows: Vec<Row>,
    target_density: f64,
    /// Cell center positions, indexed by `CellId`.
    positions: Vec<Point>,
    /// Fence regions (empty for unconstrained designs).
    fences: Vec<FenceRegion>,
}

impl Design {
    /// Assembles a design.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::InvalidDesign`] if `positions.len()` differs from
    /// the cell count, the region is degenerate or non-finite, a row has a
    /// non-finite coordinate, or `target_density` is not in `(0, 1]`.
    pub fn new(
        name: impl Into<String>,
        netlist: Netlist,
        region: Rect,
        rows: Vec<Row>,
        target_density: f64,
        positions: Vec<Point>,
    ) -> Result<Self, DbError> {
        if positions.len() != netlist.num_cells() {
            return Err(DbError::InvalidDesign(format!(
                "{} positions supplied for {} cells",
                positions.len(),
                netlist.num_cells()
            )));
        }
        if region.width() <= 0.0 || region.height() <= 0.0 {
            return Err(DbError::InvalidDesign(format!(
                "degenerate region {region}"
            )));
        }
        if !(region.width().is_finite() && region.height().is_finite()) {
            return Err(DbError::InvalidDesign(format!(
                "non-finite region {region}"
            )));
        }
        let finite_row = |r: &Row| {
            [r.y, r.y + r.height, r.x_min, r.x_max, r.site_width]
                .iter()
                .all(|v| v.is_finite())
        };
        if let Some(i) = rows.iter().position(|r| !finite_row(r)) {
            return Err(DbError::InvalidDesign(format!(
                "row {i} has a non-finite coordinate: {:?}",
                rows[i]
            )));
        }
        if !(target_density > 0.0 && target_density <= 1.0) {
            return Err(DbError::InvalidDesign(format!(
                "target density {target_density} outside (0, 1]"
            )));
        }
        Ok(Design {
            name: name.into(),
            netlist,
            region,
            rows,
            target_density,
            positions,
            fences: Vec::new(),
        })
    }

    /// Installs fence regions, replacing any existing ones.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::InvalidDesign`] when a fence references an
    /// unknown or non-movable cell, a cell belongs to two fences, or a
    /// fence rect leaves the region (see [`crate::fence::validate_fences`]).
    pub fn set_fences(&mut self, fences: Vec<FenceRegion>) -> Result<(), DbError> {
        let old = std::mem::replace(&mut self.fences, fences);
        if let Err(e) = validate_fences(self) {
            self.fences = old;
            return Err(e);
        }
        Ok(())
    }

    /// The design's fence regions.
    pub fn fences(&self) -> &[FenceRegion] {
        &self.fences
    }

    /// The index (into [`Design::fences`]) of the fence owning `cell`,
    /// if any.
    pub fn fence_of(&self, cell: CellId) -> Option<usize> {
        self.fences.iter().position(|f| f.members().contains(&cell))
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The placeable die region.
    pub fn region(&self) -> Rect {
        self.region
    }

    /// Placement rows (may be empty for purely analytic experiments).
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// The benchmark-given target density `D_t`.
    pub fn target_density(&self) -> f64 {
        self.target_density
    }

    /// All cell center positions, indexed by cell id.
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Mutable cell positions (the placer writes these).
    pub fn positions_mut(&mut self) -> &mut [Point] {
        &mut self.positions
    }

    /// Replaces all cell positions.
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the cell count.
    pub fn set_positions(&mut self, positions: Vec<Point>) {
        assert_eq!(
            positions.len(),
            self.netlist.num_cells(),
            "position count mismatch"
        );
        self.positions = positions;
    }

    /// The center position of one cell.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn position(&self, cell: CellId) -> Point {
        self.positions[cell.index()]
    }

    /// The bounding rectangle of one cell at its current position.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn cell_rect(&self, cell: CellId) -> Rect {
        let c = self.netlist.cell(cell);
        Rect::from_center(self.positions[cell.index()], c.width(), c.height())
    }

    /// Absolute position of a pin (owning cell center + offset).
    pub fn pin_position(&self, pin: crate::PinId) -> Point {
        let p = self.netlist.pin(pin);
        self.positions[p.cell.index()] + p.offset
    }

    /// Half-perimeter wirelength of one net at the current positions.
    ///
    /// Returns 0 for single-pin nets.
    pub fn net_hpwl(&self, net: NetId) -> f64 {
        let range = self.netlist.net_pin_range(net);
        self.span_hpwl(range)
    }

    /// HPWL of one net-major CSR span, streaming the flat pin arrays.
    fn span_hpwl(&self, range: std::ops::Range<usize>) -> f64 {
        if range.len() < 2 {
            return 0.0;
        }
        let cells = self.netlist.pin_cells();
        let dx = self.netlist.pin_dx();
        let dy = self.netlist.pin_dy();
        let mut min_x = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        for i in range {
            let c = self.positions[cells[i].index()];
            let x = c.x + dx[i];
            let y = c.y + dy[i];
            min_x = min_x.min(x);
            max_x = max_x.max(x);
            min_y = min_y.min(y);
            max_y = max_y.max(y);
        }
        (max_x - min_x) + (max_y - min_y)
    }

    /// Total weighted HPWL over all nets (Eq. (1a)/(2) of the paper).
    /// One contiguous pass over the net-major CSR arrays.
    pub fn total_hpwl(&self) -> f64 {
        let starts = self.netlist.net_start();
        let weights = self.netlist.net_weights();
        let mut total = 0.0;
        for e in 0..self.netlist.num_nets() {
            total += weights[e] * self.span_hpwl(starts[e] as usize..starts[e + 1] as usize);
        }
        total
    }

    /// Area of the die region.
    pub fn region_area(&self) -> f64 {
        self.region.area()
    }

    /// Total area of fixed, non-terminal cells that lies inside the region.
    pub fn fixed_area_in_region(&self) -> f64 {
        self.netlist
            .cell_ids()
            .filter(|&c| self.netlist.cell(c).kind() == CellKind::Fixed)
            .map(|c| self.cell_rect(c).overlap_area(&self.region))
            .sum()
    }

    /// Design utilization: movable area over free (non-fixed) region area.
    pub fn utilization(&self) -> f64 {
        let free = self.region_area() - self.fixed_area_in_region();
        if free <= 0.0 {
            f64::INFINITY
        } else {
            self.netlist.movable_area() / free
        }
    }

    /// Checks the structural invariants of the design.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::InvalidDesign`] when a movable cell is larger
    /// than the region, utilization exceeds 1, or the target density is
    /// below the utilization (the density constraint would be infeasible).
    pub fn validate(&self) -> Result<(), DbError> {
        for c in self.netlist.cell_ids() {
            let cell = self.netlist.cell(c);
            if cell.is_movable()
                && (cell.width() > self.region.width() || cell.height() > self.region.height())
            {
                return Err(DbError::InvalidDesign(format!(
                    "movable cell `{}` ({}x{}) exceeds the region",
                    cell.name(),
                    cell.width(),
                    cell.height()
                )));
            }
        }
        let util = self.utilization();
        if util > 1.0 {
            return Err(DbError::InvalidDesign(format!(
                "utilization {util:.3} exceeds 1"
            )));
        }
        if self.target_density < util {
            return Err(DbError::InvalidDesign(format!(
                "target density {:.3} below utilization {util:.3}",
                self.target_density
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;

    fn tiny_design() -> Design {
        let mut b = NetlistBuilder::new();
        let a = b.add_cell("a", 2.0, 2.0, CellKind::Movable);
        let c = b.add_cell("c", 2.0, 2.0, CellKind::Movable);
        let f = b.add_cell("f", 4.0, 4.0, CellKind::Fixed);
        b.add_net("n0", vec![(a, Point::default()), (c, Point::default())])
            .unwrap();
        b.add_net("n1", vec![(a, Point::new(0.5, 0.5)), (f, Point::default())])
            .unwrap();
        let nl = b.finish().unwrap();
        Design::new(
            "tiny",
            nl,
            Rect::new(0.0, 0.0, 20.0, 20.0),
            vec![Row {
                y: 0.0,
                height: 2.0,
                x_min: 0.0,
                x_max: 20.0,
                site_width: 1.0,
            }],
            0.9,
            vec![
                Point::new(5.0, 5.0),
                Point::new(8.0, 9.0),
                Point::new(15.0, 15.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn hpwl_of_two_pin_net() {
        let d = tiny_design();
        // a at (5,5), c at (8,9): HPWL = 3 + 4.
        assert_eq!(d.net_hpwl(NetId(0)), 7.0);
        // n1: pin at (5.5,5.5), f at (15,15): 9.5 + 9.5.
        assert_eq!(d.net_hpwl(NetId(1)), 19.0);
        assert_eq!(d.total_hpwl(), 26.0);
    }

    #[test]
    fn cell_rect_uses_center_convention() {
        let d = tiny_design();
        let r = d.cell_rect(CellId(0));
        assert_eq!(r, Rect::new(4.0, 4.0, 6.0, 6.0));
    }

    #[test]
    fn utilization_discounts_fixed_area() {
        let d = tiny_design();
        // region 400, fixed 16, movable 8.
        assert!((d.utilization() - 8.0 / 384.0).abs() < 1e-12);
        assert!(d.validate().is_ok());
    }

    #[test]
    fn position_count_mismatch_is_rejected() {
        let mut b = NetlistBuilder::new();
        b.add_cell("a", 1.0, 1.0, CellKind::Movable);
        let nl = b.finish().unwrap();
        let err = Design::new(
            "bad",
            nl,
            Rect::new(0.0, 0.0, 10.0, 10.0),
            vec![],
            0.9,
            vec![],
        )
        .unwrap_err();
        assert!(matches!(err, DbError::InvalidDesign(_)));
    }

    #[test]
    fn bad_target_density_is_rejected() {
        let mut b = NetlistBuilder::new();
        b.add_cell("a", 1.0, 1.0, CellKind::Movable);
        let nl = b.finish().unwrap();
        let err = Design::new(
            "bad",
            nl,
            Rect::new(0.0, 0.0, 10.0, 10.0),
            vec![],
            1.5,
            vec![Point::default()],
        )
        .unwrap_err();
        assert!(matches!(err, DbError::InvalidDesign(_)));
    }

    #[test]
    fn non_finite_region_or_row_is_rejected() {
        let design = |region: Rect, x_max: f64| {
            let mut b = NetlistBuilder::new();
            b.add_cell("a", 1.0, 1.0, CellKind::Movable);
            let row = Row {
                y: 0.0,
                height: 1.0,
                x_min: 0.0,
                x_max,
                site_width: 10.0,
            };
            Design::new(
                "inf",
                b.finish().unwrap(),
                region,
                vec![row],
                0.9,
                vec![Point::default()],
            )
        };
        // A `.scl` row `Sitewidth : 10`, `NumSites : 1e308` spans 1e309 = inf.
        let err = design(Rect::new(0.0, 0.0, f64::INFINITY, 1.0), f64::INFINITY).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid design: non-finite region [0, inf] x [0, 1]"
        );
        let err = design(Rect::new(0.0, 0.0, 20.0, 1.0), f64::INFINITY).unwrap_err();
        assert!(
            matches!(err, DbError::InvalidDesign(m) if m.starts_with("row 0 has a non-finite"))
        );
        assert!(design(Rect::new(0.0, 0.0, 20.0, 1.0), 20.0).is_ok());
    }

    #[test]
    fn oversized_movable_cell_fails_validation() {
        let mut b = NetlistBuilder::new();
        b.add_cell("huge", 50.0, 1.0, CellKind::Movable);
        let nl = b.finish().unwrap();
        let d = Design::new(
            "bad",
            nl,
            Rect::new(0.0, 0.0, 10.0, 10.0),
            vec![],
            0.9,
            vec![Point::new(5.0, 5.0)],
        )
        .unwrap();
        assert!(d.validate().is_err());
    }

    #[test]
    fn single_pin_net_has_zero_hpwl() {
        let mut b = NetlistBuilder::new();
        let a = b.add_cell("a", 1.0, 1.0, CellKind::Movable);
        b.add_net("n", vec![(a, Point::default())]).unwrap();
        let nl = b.finish().unwrap();
        let d = Design::new(
            "one",
            nl,
            Rect::new(0.0, 0.0, 10.0, 10.0),
            vec![],
            0.9,
            vec![Point::new(3.0, 3.0)],
        )
        .unwrap();
        assert_eq!(d.total_hpwl(), 0.0);
    }

    #[test]
    fn row_sites() {
        let row = Row {
            y: 0.0,
            height: 12.0,
            x_min: 10.0,
            x_max: 110.0,
            site_width: 4.0,
        };
        assert_eq!(row.num_sites(), 25);
        assert_eq!(row.rect().height(), 12.0);
    }

    #[test]
    fn set_positions_replaces() {
        let mut d = tiny_design();
        let mut ps = d.positions().to_vec();
        ps[0] = Point::new(1.0, 1.0);
        d.set_positions(ps);
        assert_eq!(d.position(CellId(0)), Point::new(1.0, 1.0));
    }
}
