//! The logical netlist: cells, pins and nets with typed ids.
//!
//! A [`Netlist`] is an immutable, index-based structure built once through
//! [`NetlistBuilder`] and then shared by every stage of the flow. Pin data
//! is stored struct-of-arrays in **net-major CSR form**: the pins of net
//! `e` occupy the contiguous span `net_start[e]..net_start[e+1]` of the
//! flat `pin_cell`/`pin_net`/`pin_dx`/`pin_dy` arrays, mirroring the
//! cell-major CSR (`cell_pin_start`/`cell_pin_list`) that the
//! preconditioner and legalizer walk. The wirelength and density kernels
//! stream the net-major arrays contiguously with no per-net indirection;
//! [`NetRef`] and the by-value [`Pin`] are cheap views reconstructed from
//! the arrays for call sites that want the object-shaped API.

use crate::{DbError, Point};
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

macro_rules! typed_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// The id as a `usize` index.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                $name(v)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }

    };
}

typed_id!(
    /// Identifier of a cell within a [`Netlist`].
    CellId
);
typed_id!(
    /// Identifier of a net within a [`Netlist`].
    NetId
);
typed_id!(
    /// Identifier of a pin within a [`Netlist`]. Pin ids are net-major:
    /// the pins of net `e` are the consecutive ids of its CSR span.
    PinId
);

/// How a cell participates in placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// A standard cell the placer may move.
    Movable,
    /// A fixed block (macro or pre-placed cell); contributes density but
    /// never moves.
    Fixed,
    /// An I/O terminal: fixed, and excluded from the density system
    /// (zero effective area), but its pins still pull wirelength.
    Terminal,
}

impl CellKind {
    /// Whether the placer may move this cell.
    pub fn is_movable(self) -> bool {
        matches!(self, CellKind::Movable)
    }
}

/// A placeable or fixed circuit element.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    name: String,
    width: f64,
    height: f64,
    kind: CellKind,
}

impl Cell {
    /// Creates a cell description.
    pub fn new(name: impl Into<String>, width: f64, height: f64, kind: CellKind) -> Self {
        Cell {
            name: name.into(),
            width,
            height,
            kind,
        }
    }

    /// The cell's instance name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Cell width in database units.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Cell height in database units.
    pub fn height(&self) -> f64 {
        self.height
    }

    /// Cell area.
    pub fn area(&self) -> f64 {
        self.width * self.height
    }

    /// The cell's placement role.
    pub fn kind(&self) -> CellKind {
        self.kind
    }

    /// Whether the placer may move this cell.
    pub fn is_movable(&self) -> bool {
        self.kind.is_movable()
    }
}

/// A pin: the connection point of a cell on a net.
///
/// `offset` is measured from the owning cell's **center**; the pin's
/// absolute location is `cell_center + offset`. Materialized by value
/// from the netlist's flat pin arrays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pin {
    /// Owning cell.
    pub cell: CellId,
    /// Net the pin belongs to.
    pub net: NetId,
    /// Offset from the owning cell's center.
    pub offset: Point,
}

/// A borrowed view of one net: name, weight and the CSR pin span.
#[derive(Debug, Clone, Copy)]
pub struct NetRef<'a> {
    nl: &'a Netlist,
    id: NetId,
}

impl<'a> NetRef<'a> {
    /// The net's id.
    pub fn id(&self) -> NetId {
        self.id
    }

    /// The net's name.
    pub fn name(&self) -> &'a str {
        &self.nl.net_names[self.id.index()]
    }

    /// Number of pins (the net degree).
    pub fn degree(&self) -> usize {
        self.pin_range().len()
    }

    /// The net weight (1.0 unless the benchmark specifies otherwise).
    pub fn weight(&self) -> f64 {
        self.nl.net_weight[self.id.index()]
    }

    /// The net's span in the flat pin arrays.
    pub fn pin_range(&self) -> Range<usize> {
        self.nl.net_pin_range(self.id)
    }

    /// Iterator over the net's pin ids (consecutive, net-major).
    pub fn pins(&self) -> impl ExactSizeIterator<Item = PinId> + 'a {
        self.pin_range().map(|i| PinId(i as u32))
    }
}

/// An immutable netlist in struct-of-arrays form. Construct with
/// [`NetlistBuilder`].
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    cells: Vec<Cell>,
    net_names: Vec<String>,
    net_weight: Vec<f64>,
    /// Net-major CSR starts: pins of net `e` occupy the flat-array span
    /// `net_start[e]..net_start[e+1]`. Length `num_nets() + 1`.
    net_start: Vec<u32>,
    /// Owning cell per pin, net-major.
    pin_cell: Vec<CellId>,
    /// Owning net per pin (redundant with the spans; kept so `pin()` is
    /// O(1) and the cell-major walk recovers nets without a search).
    pin_net: Vec<NetId>,
    /// Pin x-offset from the owning cell's center, net-major.
    pin_dx: Vec<f64>,
    /// Pin y-offset from the owning cell's center, net-major.
    pin_dy: Vec<f64>,
    /// Cell-major CSR starts: pins of cell `c` are
    /// `cell_pin_list[cell_pin_start[c]..cell_pin_start[c+1]]`.
    cell_pin_start: Vec<u32>,
    cell_pin_list: Vec<PinId>,
    name_to_cell: HashMap<String, CellId>,
}

impl Default for Netlist {
    fn default() -> Self {
        Netlist {
            cells: Vec::new(),
            net_names: Vec::new(),
            net_weight: Vec::new(),
            net_start: vec![0],
            pin_cell: Vec::new(),
            pin_net: Vec::new(),
            pin_dx: Vec::new(),
            pin_dy: Vec::new(),
            cell_pin_start: vec![0],
            cell_pin_list: Vec::new(),
            name_to_cell: HashMap::new(),
        }
    }
}

impl Netlist {
    /// Number of cells (movable + fixed + terminals).
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.net_names.len()
    }

    /// Number of pins.
    pub fn num_pins(&self) -> usize {
        self.pin_cell.len()
    }

    /// Number of movable cells.
    pub fn num_movable(&self) -> usize {
        self.cells.iter().filter(|c| c.is_movable()).count()
    }

    /// Borrow a cell by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// View a net by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn net(&self, id: NetId) -> NetRef<'_> {
        assert!(id.index() < self.num_nets(), "net id {id} out of range");
        NetRef { nl: self, id }
    }

    /// Materialize a pin by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn pin(&self, id: PinId) -> Pin {
        let i = id.index();
        Pin {
            cell: self.pin_cell[i],
            net: self.pin_net[i],
            offset: Point::new(self.pin_dx[i], self.pin_dy[i]),
        }
    }

    /// All cells in id order.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Iterator over net views in id order.
    pub fn nets(&self) -> impl ExactSizeIterator<Item = NetRef<'_>> {
        (0..self.num_nets() as u32).map(move |e| NetRef {
            nl: self,
            id: NetId(e),
        })
    }

    /// Iterator over cell ids.
    pub fn cell_ids(&self) -> impl Iterator<Item = CellId> + '_ {
        (0..self.cells.len() as u32).map(CellId)
    }

    /// Iterator over net ids.
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> + '_ {
        (0..self.num_nets() as u32).map(NetId)
    }

    /// The net-major CSR start offsets (length `num_nets() + 1`).
    pub fn net_start(&self) -> &[u32] {
        &self.net_start
    }

    /// The flat span of net `id` in the pin arrays.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn net_pin_range(&self, id: NetId) -> Range<usize> {
        self.net_start[id.index()] as usize..self.net_start[id.index() + 1] as usize
    }

    /// Owning cell per pin, net-major.
    pub fn pin_cells(&self) -> &[CellId] {
        &self.pin_cell
    }

    /// Owning net per pin, net-major.
    pub fn pin_nets(&self) -> &[NetId] {
        &self.pin_net
    }

    /// Pin x-offsets from the owning cell's center, net-major.
    pub fn pin_dx(&self) -> &[f64] {
        &self.pin_dx
    }

    /// Pin y-offsets from the owning cell's center, net-major.
    pub fn pin_dy(&self) -> &[f64] {
        &self.pin_dy
    }

    /// Per-net weights in id order.
    pub fn net_weights(&self) -> &[f64] {
        &self.net_weight
    }

    /// The pins attached to a cell.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn pins_of_cell(&self, id: CellId) -> &[PinId] {
        let s = self.cell_pin_start[id.index()] as usize;
        let e = self.cell_pin_start[id.index() + 1] as usize;
        &self.cell_pin_list[s..e]
    }

    /// Looks up a cell id by instance name.
    pub fn cell_by_name(&self, name: &str) -> Option<CellId> {
        self.name_to_cell.get(name).copied()
    }

    /// Total area of movable cells.
    pub fn movable_area(&self) -> f64 {
        self.cells
            .iter()
            .filter(|c| c.is_movable())
            .map(Cell::area)
            .sum()
    }

    /// Average degree over all nets.
    pub fn average_net_degree(&self) -> f64 {
        if self.num_nets() == 0 {
            0.0
        } else {
            self.num_pins() as f64 / self.num_nets() as f64
        }
    }
}

/// Incrementally builds a [`Netlist`].
///
/// ```
/// use xplace_db::netlist::{CellKind, NetlistBuilder};
/// use xplace_db::Point;
///
/// # fn main() -> Result<(), xplace_db::DbError> {
/// let mut b = NetlistBuilder::new();
/// let a = b.add_cell("a", 2.0, 1.0, CellKind::Movable);
/// let c = b.add_cell("c", 3.0, 1.0, CellKind::Fixed);
/// b.add_net("n1", vec![(a, Point::default()), (c, Point::new(0.5, 0.0))])?;
/// let netlist = b.finish()?;
/// assert_eq!(netlist.num_cells(), 2);
/// assert_eq!(netlist.net(xplace_db::NetId(0)).degree(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct NetlistBuilder {
    cells: Vec<Cell>,
    net_names: Vec<String>,
    net_weight: Vec<f64>,
    net_start: Vec<u32>,
    pin_cell: Vec<CellId>,
    pin_net: Vec<NetId>,
    pin_dx: Vec<f64>,
    pin_dy: Vec<f64>,
    name_to_cell: HashMap<String, CellId>,
}

impl Default for NetlistBuilder {
    fn default() -> Self {
        Self::with_capacity(0, 0, 0)
    }
}

impl NetlistBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with capacity hints.
    pub fn with_capacity(cells: usize, nets: usize, pins: usize) -> Self {
        let mut net_start = Vec::with_capacity(nets + 1);
        net_start.push(0);
        NetlistBuilder {
            cells: Vec::with_capacity(cells),
            net_names: Vec::with_capacity(nets),
            net_weight: Vec::with_capacity(nets),
            net_start,
            pin_cell: Vec::with_capacity(pins),
            pin_net: Vec::with_capacity(pins),
            pin_dx: Vec::with_capacity(pins),
            pin_dy: Vec::with_capacity(pins),
            name_to_cell: HashMap::with_capacity(cells),
        }
    }

    /// Number of cells added so far.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Adds a cell and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a cell with the same name already exists.
    pub fn add_cell(
        &mut self,
        name: impl Into<String>,
        width: f64,
        height: f64,
        kind: CellKind,
    ) -> CellId {
        let name = name.into();
        let id = CellId(self.cells.len() as u32);
        let prev = self.name_to_cell.insert(name.clone(), id);
        assert!(prev.is_none(), "duplicate cell name `{name}`");
        self.cells.push(Cell {
            name,
            width,
            height,
            kind,
        });
        id
    }

    /// Adds a weighted net connecting `(cell, pin_offset)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownCell`] if any cell id is out of range and
    /// [`DbError::InvalidDesign`] for a net with no pins.
    pub fn add_net_weighted(
        &mut self,
        name: impl Into<String>,
        pins: Vec<(CellId, Point)>,
        weight: f64,
    ) -> Result<NetId, DbError> {
        let name = name.into();
        if pins.is_empty() {
            return Err(DbError::InvalidDesign(format!("net `{name}` has no pins")));
        }
        for (cell, _) in &pins {
            if cell.index() >= self.cells.len() {
                return Err(DbError::UnknownCell(format!(
                    "cell id {cell} in net `{name}`"
                )));
            }
        }
        let net_id = NetId(self.net_names.len() as u32);
        for (cell, offset) in pins {
            self.pin_cell.push(cell);
            self.pin_net.push(net_id);
            self.pin_dx.push(offset.x);
            self.pin_dy.push(offset.y);
        }
        self.net_names.push(name);
        self.net_weight.push(weight);
        self.net_start.push(self.pin_cell.len() as u32);
        Ok(net_id)
    }

    /// Adds a unit-weight net.
    ///
    /// # Errors
    ///
    /// See [`NetlistBuilder::add_net_weighted`].
    pub fn add_net(
        &mut self,
        name: impl Into<String>,
        pins: Vec<(CellId, Point)>,
    ) -> Result<NetId, DbError> {
        self.add_net_weighted(name, pins, 1.0)
    }

    /// Finalizes the netlist, building the cell-to-pin adjacency.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::InvalidDesign`] if any cell has a non-positive
    /// dimension (terminals may have zero size).
    pub fn finish(self) -> Result<Netlist, DbError> {
        for cell in &self.cells {
            let ok = match cell.kind {
                CellKind::Terminal => cell.width >= 0.0 && cell.height >= 0.0,
                _ => cell.width > 0.0 && cell.height > 0.0,
            };
            if !ok {
                return Err(DbError::InvalidDesign(format!(
                    "cell `{}` has non-positive dimensions {}x{}",
                    cell.name, cell.width, cell.height
                )));
            }
        }
        // The cell-major CSR, derived from the net-major pin arrays.
        let mut counts = vec![0u32; self.cells.len() + 1];
        for cell in &self.pin_cell {
            counts[cell.index() + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let cell_pin_start = counts.clone();
        let mut cursor = counts;
        let mut cell_pin_list = vec![PinId(0); self.pin_cell.len()];
        for (i, cell) in self.pin_cell.iter().enumerate() {
            let slot = cursor[cell.index()] as usize;
            cell_pin_list[slot] = PinId(i as u32);
            cursor[cell.index()] += 1;
        }
        Ok(Netlist {
            cells: self.cells,
            net_names: self.net_names,
            net_weight: self.net_weight,
            net_start: self.net_start,
            pin_cell: self.pin_cell,
            pin_net: self.pin_net,
            pin_dx: self.pin_dx,
            pin_dy: self.pin_dy,
            cell_pin_start,
            cell_pin_list,
            name_to_cell: self.name_to_cell,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Netlist {
        let mut b = NetlistBuilder::new();
        let a = b.add_cell("a", 1.0, 1.0, CellKind::Movable);
        let c = b.add_cell("c", 2.0, 1.0, CellKind::Movable);
        let t = b.add_cell("t", 0.0, 0.0, CellKind::Terminal);
        b.add_net("n0", vec![(a, Point::default()), (c, Point::new(0.5, 0.0))])
            .unwrap();
        b.add_net(
            "n1",
            vec![(a, Point::new(-0.25, 0.0)), (t, Point::default())],
        )
        .unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn counts_and_lookup() {
        let nl = tiny();
        assert_eq!(nl.num_cells(), 3);
        assert_eq!(nl.num_nets(), 2);
        assert_eq!(nl.num_pins(), 4);
        assert_eq!(nl.num_movable(), 2);
        assert_eq!(nl.cell_by_name("c"), Some(CellId(1)));
        assert_eq!(nl.cell_by_name("zz"), None);
    }

    #[test]
    fn cell_pin_adjacency_is_consistent() {
        let nl = tiny();
        let a_pins = nl.pins_of_cell(CellId(0));
        assert_eq!(a_pins.len(), 2);
        for &p in a_pins {
            assert_eq!(nl.pin(p).cell, CellId(0));
        }
        assert_eq!(nl.pins_of_cell(CellId(2)).len(), 1);
    }

    #[test]
    fn net_major_and_cell_major_views_agree() {
        let nl = tiny();
        let from_nets: usize = nl.nets().map(|n| n.degree()).sum();
        let from_cells: usize = nl.cell_ids().map(|c| nl.pins_of_cell(c).len()).sum();
        assert_eq!(from_nets, from_cells);
        assert_eq!(from_nets, nl.num_pins());
    }

    #[test]
    fn csr_spans_are_monotone_and_cover_all_pins() {
        let nl = tiny();
        assert_eq!(nl.net_start().len(), nl.num_nets() + 1);
        assert_eq!(nl.net_start()[0], 0);
        for w in nl.net_start().windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(*nl.net_start().last().unwrap() as usize, nl.num_pins());
        // pin_net agrees with the span that contains the pin.
        for net in nl.nets() {
            for pid in net.pins() {
                assert_eq!(nl.pin(pid).net, net.id());
                assert_eq!(nl.pin_nets()[pid.index()], net.id());
            }
        }
    }

    #[test]
    fn flat_arrays_match_materialized_pins() {
        let nl = tiny();
        for i in 0..nl.num_pins() {
            let pin = nl.pin(PinId(i as u32));
            assert_eq!(nl.pin_cells()[i], pin.cell);
            assert_eq!(nl.pin_dx()[i], pin.offset.x);
            assert_eq!(nl.pin_dy()[i], pin.offset.y);
        }
        assert_eq!(nl.net_weights(), &[1.0, 1.0]);
    }

    #[test]
    fn empty_net_is_rejected() {
        let mut b = NetlistBuilder::new();
        assert!(matches!(
            b.add_net("bad", vec![]),
            Err(DbError::InvalidDesign(_))
        ));
    }

    #[test]
    fn unknown_cell_is_rejected() {
        let mut b = NetlistBuilder::new();
        b.add_cell("a", 1.0, 1.0, CellKind::Movable);
        let err = b
            .add_net("n", vec![(CellId(5), Point::default())])
            .unwrap_err();
        assert!(matches!(err, DbError::UnknownCell(_)));
    }

    #[test]
    fn rejected_net_leaves_the_builder_consistent() {
        let mut b = NetlistBuilder::new();
        let a = b.add_cell("a", 1.0, 1.0, CellKind::Movable);
        // A net whose *second* pin is bad must not leave half a span.
        assert!(b
            .add_net(
                "bad",
                vec![(a, Point::default()), (CellId(9), Point::default())]
            )
            .is_err());
        b.add_net("ok", vec![(a, Point::default()), (a, Point::new(0.5, 0.0))])
            .unwrap();
        let nl = b.finish().unwrap();
        assert_eq!(nl.num_nets(), 1);
        assert_eq!(nl.num_pins(), 2);
        assert_eq!(nl.net(NetId(0)).degree(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate cell name")]
    fn duplicate_names_panic() {
        let mut b = NetlistBuilder::new();
        b.add_cell("a", 1.0, 1.0, CellKind::Movable);
        b.add_cell("a", 1.0, 1.0, CellKind::Movable);
    }

    #[test]
    fn zero_area_movable_cell_is_rejected() {
        let mut b = NetlistBuilder::new();
        b.add_cell("a", 0.0, 1.0, CellKind::Movable);
        assert!(matches!(b.finish(), Err(DbError::InvalidDesign(_))));
    }

    #[test]
    fn zero_area_terminal_is_allowed() {
        let mut b = NetlistBuilder::new();
        b.add_cell("pad", 0.0, 0.0, CellKind::Terminal);
        assert!(b.finish().is_ok());
    }

    #[test]
    fn areas_and_degrees() {
        let nl = tiny();
        assert_eq!(nl.movable_area(), 3.0);
        assert_eq!(nl.average_net_degree(), 2.0);
        assert_eq!(nl.net(NetId(0)).weight(), 1.0);
    }

    #[test]
    fn typed_ids_display_and_convert() {
        let id = CellId::from(7u32);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "CellId(7)");
    }
}
