//! Design statistics — the contents of the paper's Table 1.

use crate::Design;
use std::fmt;

/// Summary statistics of a placement design.
///
/// ```
/// use xplace_db::synthesis::{SynthesisSpec, synthesize};
/// use xplace_db::DesignStats;
///
/// # fn main() -> Result<(), xplace_db::DbError> {
/// let design = synthesize(&SynthesisSpec::new("demo", 300, 310).with_seed(1))?;
/// let stats = DesignStats::of(&design);
/// assert!(stats.num_cells >= 300);
/// assert!(stats.avg_net_degree >= 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DesignStats {
    /// Design name.
    pub name: String,
    /// Total cell count (movable + fixed + terminals).
    pub num_cells: usize,
    /// Movable cell count.
    pub num_movable: usize,
    /// Fixed (macro) cell count, excluding terminals.
    pub num_fixed: usize,
    /// Terminal (I/O) count.
    pub num_terminals: usize,
    /// Net count.
    pub num_nets: usize,
    /// Pin count.
    pub num_pins: usize,
    /// Mean net degree.
    pub avg_net_degree: f64,
    /// Movable-area utilization of the free region.
    pub utilization: f64,
    /// Benchmark target density.
    pub target_density: f64,
}

impl DesignStats {
    /// Computes the statistics of a design.
    pub fn of(design: &Design) -> Self {
        let nl = design.netlist();
        let mut num_fixed = 0;
        let mut num_terminals = 0;
        for c in nl.cells() {
            match c.kind() {
                crate::CellKind::Fixed => num_fixed += 1,
                crate::CellKind::Terminal => num_terminals += 1,
                crate::CellKind::Movable => {}
            }
        }
        DesignStats {
            name: design.name().to_string(),
            num_cells: nl.num_cells(),
            num_movable: nl.num_movable(),
            num_fixed,
            num_terminals,
            num_nets: nl.num_nets(),
            num_pins: nl.num_pins(),
            avg_net_degree: nl.average_net_degree(),
            utilization: design.utilization(),
            target_density: design.target_density(),
        }
    }
}

impl fmt::Display for DesignStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} cells ({} movable, {} fixed, {} terminals), {} nets, {} pins, \
             avg degree {:.2}, utilization {:.3}",
            self.name,
            self.num_cells,
            self.num_movable,
            self.num_fixed,
            self.num_terminals,
            self.num_nets,
            self.num_pins,
            self.avg_net_degree,
            self.utilization
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{CellKind, NetlistBuilder};
    use crate::{Point, Rect};

    #[test]
    fn stats_count_each_kind() {
        let mut b = NetlistBuilder::new();
        let a = b.add_cell("a", 1.0, 1.0, CellKind::Movable);
        let m = b.add_cell("m", 3.0, 3.0, CellKind::Fixed);
        let t = b.add_cell("t", 0.0, 0.0, CellKind::Terminal);
        b.add_net(
            "n",
            vec![
                (a, Point::default()),
                (m, Point::default()),
                (t, Point::default()),
            ],
        )
        .unwrap();
        let nl = b.finish().unwrap();
        let d = crate::Design::new(
            "x",
            nl,
            Rect::new(0.0, 0.0, 10.0, 10.0),
            vec![],
            0.8,
            vec![Point::new(5.0, 5.0); 3],
        )
        .unwrap();
        let s = DesignStats::of(&d);
        assert_eq!(s.num_movable, 1);
        assert_eq!(s.num_fixed, 1);
        assert_eq!(s.num_terminals, 1);
        assert_eq!(s.num_pins, 3);
        assert_eq!(s.avg_net_degree, 3.0);
        assert!(s.to_string().contains("x: 3 cells"));
    }
}
