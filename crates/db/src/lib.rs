//! Placement design database for the `xplace` framework.
//!
//! This crate is the substrate the paper gets "for free" from the released
//! ISPD 2005 / ISPD 2015 contest data and DREAMPlace's readers. It provides:
//!
//! * [`geom`] — rectangles and points,
//! * [`netlist`] — cells, pins and nets with typed ids,
//! * [`design`] — a complete placement instance (netlist + die region +
//!   rows + positions + target density),
//! * [`stats`] — design statistics (the contents of the paper's Table 1),
//! * [`bookshelf`] — reader/writer for the GSRC Bookshelf format used by
//!   the ISPD 2005 contest (`.aux`, `.nodes`, `.nets`, `.pl`, `.scl`),
//! * [`synthesis`] — a parameterized circuit synthesizer that generates
//!   designs matching the published statistics of each contest benchmark
//!   (the documented substitution for the proprietary contest data),
//! * [`suites`] — the named `ispd2005_like` / `ispd2015_like` suites, and
//! * [`cache`] — a concurrency-safe design cache so batch runs parse or
//!   synthesize each distinct design once and hand out clones.
//!
//! # Example
//!
//! ```
//! use xplace_db::synthesis::{SynthesisSpec, synthesize};
//!
//! # fn main() -> Result<(), xplace_db::DbError> {
//! let spec = SynthesisSpec::new("demo", 500, 520).with_seed(7);
//! let design = synthesize(&spec)?;
//! assert_eq!(design.name(), "demo");
//! assert!(design.netlist().num_cells() >= 500);
//! design.validate()?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bookshelf;
pub mod cache;
pub mod cluster;
pub mod design;
mod error;
pub mod fence;
pub mod geom;
pub mod netlist;
pub mod plot;
pub mod stats;
pub mod suites;
pub mod synthesis;

pub use cache::{DesignCache, DEFAULT_DESIGN_CACHE_CAPACITY};
pub use cluster::{build_hierarchy, coarsen, CoarseLevel, HierarchyOptions};
pub use design::{Design, Row};
pub use error::DbError;
pub use fence::FenceRegion;
pub use geom::{Point, Rect};
pub use netlist::{Cell, CellId, CellKind, NetId, NetRef, Netlist, Pin, PinId};
pub use stats::DesignStats;
