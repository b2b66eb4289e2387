//! Hermetic test infrastructure for the xplace workspace.
//!
//! Every crate in the workspace depends only on the standard library and
//! this crate; the three modules here replace the registry dependencies
//! the seed used, so `cargo build && cargo test` runs fully offline and
//! every stochastic component is bit-reproducible from a seed:
//!
//! - [`rng`] — splitmix64-seeded xoshiro256** with `gen_range` / `f64` /
//!   `shuffle` / `normal` helpers (replaces `rand`),
//! - [`prop`] — a property-testing harness with range/vec/tuple
//!   strategies, halving shrinking and failing-seed replay (replaces
//!   `proptest`),
//! - [`json`] — a small JSON value/encoder/parser with hand-implemented
//!   [`json::ToJson`] / [`json::FromJson`] traits (replaces the `serde`
//!   derives).

#![warn(missing_docs)]

pub mod json;
pub mod prop;
pub mod rng;

pub use json::{FromJson, Json, JsonError, ToJson};
pub use prop::{Config as PropConfig, PropResult, Strategy};
pub use rng::Rng;
