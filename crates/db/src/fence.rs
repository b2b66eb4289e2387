//! Fence regions (the ISPD 2015 constraint the paper defers to future
//! work — implemented here as the framework extension it calls for).
//!
//! A fence region confines a named group of movable cells to a set of
//! rectangles. This module defines the data model and validation; the
//! placer clamps members into their fence each iteration, the legalizer
//! restricts their candidate row segments, and the legality checker
//! verifies containment (see `xplace-core` / `xplace-legal`).

use crate::{CellId, DbError, Design, Rect};

/// A named fence: member cells must be placed inside one of the rects.
#[derive(Debug, Clone, PartialEq)]
pub struct FenceRegion {
    name: String,
    rects: Vec<Rect>,
    members: Vec<CellId>,
}

impl FenceRegion {
    /// Creates a fence region.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::InvalidDesign`] for a fence with no rectangles
    /// or a degenerate rectangle.
    pub fn new(
        name: impl Into<String>,
        rects: Vec<Rect>,
        members: Vec<CellId>,
    ) -> Result<Self, DbError> {
        let name = name.into();
        if rects.is_empty() {
            return Err(DbError::InvalidDesign(format!(
                "fence `{name}` has no rectangles"
            )));
        }
        for r in &rects {
            if r.width() <= 0.0 || r.height() <= 0.0 {
                return Err(DbError::InvalidDesign(format!(
                    "fence `{name}` has a degenerate rectangle {r}"
                )));
            }
        }
        Ok(FenceRegion {
            name,
            rects,
            members,
        })
    }

    /// The fence name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The fence rectangles.
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// The member cells.
    pub fn members(&self) -> &[CellId] {
        &self.members
    }

    /// The bounding box of all fence rectangles.
    pub fn bounding_box(&self) -> Rect {
        let mut bb = self.rects[0];
        for r in &self.rects[1..] {
            bb = bb.union(r);
        }
        bb
    }

    /// Whether a rectangle lies fully inside one of the fence rects.
    pub fn contains_rect(&self, rect: &Rect) -> bool {
        self.rects.iter().any(|r| r.contains_rect(rect))
    }

    /// The fence rect whose center is nearest to `(x, y)` (used for
    /// clamping a member back inside).
    pub fn nearest_rect(&self, x: f64, y: f64) -> Rect {
        *self
            .rects
            .iter()
            .min_by(|a, b| {
                let da = (a.center().x - x).abs() + (a.center().y - y).abs();
                let db = (b.center().x - x).abs() + (b.center().y - y).abs();
                da.partial_cmp(&db).expect("finite fence geometry")
            })
            .expect("fence has at least one rect")
    }
}

/// Validates fences against a design: members exist, are movable, belong
/// to at most one fence, and every fence rect lies inside the region.
///
/// # Errors
///
/// Returns [`DbError::InvalidDesign`] describing the first violation.
pub fn validate_fences(design: &Design) -> Result<(), DbError> {
    let nl = design.netlist();
    let region = design.region();
    let mut owner = vec![false; nl.num_cells()];
    for fence in design.fences() {
        for r in fence.rects() {
            if !region.contains_rect(r) {
                return Err(DbError::InvalidDesign(format!(
                    "fence `{}` rect {r} extends outside the region",
                    fence.name()
                )));
            }
        }
        for &c in fence.members() {
            if c.index() >= nl.num_cells() {
                return Err(DbError::InvalidDesign(format!(
                    "fence `{}` references cell id {c} out of range",
                    fence.name()
                )));
            }
            if !nl.cell(c).is_movable() {
                return Err(DbError::InvalidDesign(format!(
                    "fence `{}` member `{}` is not movable",
                    fence.name(),
                    nl.cell(c).name()
                )));
            }
            if owner[c.index()] {
                return Err(DbError::InvalidDesign(format!(
                    "cell `{}` belongs to more than one fence",
                    nl.cell(c).name()
                )));
            }
            owner[c.index()] = true;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{CellKind, NetlistBuilder};
    use crate::Point;

    fn base_design() -> Design {
        let mut b = NetlistBuilder::new();
        let a = b.add_cell("a", 2.0, 4.0, CellKind::Movable);
        let c = b.add_cell("c", 2.0, 4.0, CellKind::Movable);
        let f = b.add_cell("f", 4.0, 4.0, CellKind::Fixed);
        b.add_net(
            "n",
            vec![
                (a, Point::default()),
                (c, Point::default()),
                (f, Point::default()),
            ],
        )
        .unwrap();
        let nl = b.finish().unwrap();
        Design::new(
            "fence_test",
            nl,
            Rect::new(0.0, 0.0, 40.0, 40.0),
            vec![],
            0.9,
            vec![
                Point::new(5.0, 5.0),
                Point::new(6.0, 6.0),
                Point::new(30.0, 30.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn fence_construction_and_queries() {
        let fence = FenceRegion::new(
            "f0",
            vec![
                Rect::new(0.0, 0.0, 10.0, 10.0),
                Rect::new(20.0, 20.0, 30.0, 30.0),
            ],
            vec![CellId(0)],
        )
        .unwrap();
        assert_eq!(fence.bounding_box(), Rect::new(0.0, 0.0, 30.0, 30.0));
        assert!(fence.contains_rect(&Rect::new(1.0, 1.0, 3.0, 3.0)));
        assert!(!fence.contains_rect(&Rect::new(8.0, 8.0, 22.0, 22.0)));
        // Nearest rect to a point near the second rectangle.
        assert_eq!(
            fence.nearest_rect(28.0, 28.0),
            Rect::new(20.0, 20.0, 30.0, 30.0)
        );
    }

    #[test]
    fn empty_or_degenerate_fences_are_rejected() {
        assert!(FenceRegion::new("e", vec![], vec![]).is_err());
        assert!(FenceRegion::new("d", vec![Rect::new(0.0, 0.0, 0.0, 5.0)], vec![]).is_err());
    }

    #[test]
    fn validation_accepts_good_fences() {
        let mut d = base_design();
        let fence = FenceRegion::new(
            "f0",
            vec![Rect::new(0.0, 0.0, 20.0, 20.0)],
            vec![CellId(0), CellId(1)],
        )
        .unwrap();
        d.set_fences(vec![fence]).unwrap();
        assert_eq!(d.fences().len(), 1);
        assert_eq!(d.fence_of(CellId(0)), Some(0));
        assert_eq!(d.fence_of(CellId(2)), None);
    }

    #[test]
    fn validation_rejects_fixed_members() {
        let mut d = base_design();
        let fence = FenceRegion::new(
            "f0",
            vec![Rect::new(0.0, 0.0, 20.0, 20.0)],
            vec![CellId(2)], // fixed cell
        )
        .unwrap();
        assert!(d.set_fences(vec![fence]).is_err());
    }

    #[test]
    fn validation_rejects_out_of_region_rects() {
        let mut d = base_design();
        let fence = FenceRegion::new(
            "f0",
            vec![Rect::new(30.0, 30.0, 60.0, 60.0)],
            vec![CellId(0)],
        )
        .unwrap();
        assert!(d.set_fences(vec![fence]).is_err());
    }

    #[test]
    fn validation_rejects_double_membership() {
        let mut d = base_design();
        let f0 =
            FenceRegion::new("f0", vec![Rect::new(0.0, 0.0, 20.0, 20.0)], vec![CellId(0)]).unwrap();
        let f1 = FenceRegion::new(
            "f1",
            vec![Rect::new(20.0, 0.0, 40.0, 20.0)],
            vec![CellId(0)],
        )
        .unwrap();
        assert!(d.set_fences(vec![f0, f1]).is_err());
    }
}
