//! Spectral numerics for the `xplace` placement framework.
//!
//! This crate is the from-scratch replacement for the GPU FFT stack the
//! original Xplace paper obtains from PyTorch (`rfft2`/`irfft2`). It provides:
//!
//! * [`Complex`] — a minimal double-precision complex number,
//! * [`FftPlan`] — an iterative radix-2 complex FFT with precomputed twiddles,
//! * [`RealFftPlan`] — a packed real-input FFT: a length-`N` complex plan
//!   computing a length-`2N` real transform over the non-redundant half
//!   spectrum,
//! * [`DctPlan`] — FFT-backed DCT-II analysis and DCT-III / DXST synthesis
//!   transforms (the `dct2`/`idct`/`idxst` family used by ePlace-style
//!   electrostatic placers),
//! * [`DctTile`] — the same transforms run on [`TILE_LANES`] independent
//!   signals at once, bit-identical to [`DctPlan`] lane by lane,
//! * [`Grid2`] — a dense row-major 2-D grid of `f64` samples,
//! * [`ElectrostaticSolver`] — the numerical solution of the placement
//!   electrostatic system (Poisson's equation with Neumann boundary
//!   conditions, Eq. (5) of the paper), producing the electric-field maps
//!   `E = -grad psi` that drive the density gradient straight from the
//!   spectrum, without materializing the potential `psi`.
//!
//! # Example
//!
//! ```
//! use xplace_fft::{ElectrostaticSolver, Grid2};
//!
//! # fn main() -> Result<(), xplace_fft::FftError> {
//! let mut solver = ElectrostaticSolver::new(64, 64)?;
//! let mut density = Grid2::new(64, 64);
//! density[(32, 32)] = 1.0; // a point charge in the middle
//! let fields = solver.solve(&density)?;
//! // The field points away from the charge.
//! assert!(fields.field_x[(40, 32)] > 0.0);
//! assert!(fields.field_x[(20, 32)] < 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod complex;
mod dct;
mod error;
mod fft;
mod grid;
mod spectral;
mod tile;

pub use complex::Complex;
#[doc(hidden)]
pub use dct::naive;
pub use dct::{plan_cache_stats, DctPlan, PlanCache};
pub use error::FftError;
pub use fft::{FftPlan, RealFftPlan};
pub use grid::Grid2;
pub use spectral::{ElectrostaticSolver, FieldSolution, MAX_GRID_SIDE};
pub use tile::{DctTile, TILE_LANES};

/// Returns `true` if `n` is a power of two (and nonzero).
///
/// ```
/// assert!(xplace_fft::is_power_of_two(64));
/// assert!(!xplace_fft::is_power_of_two(48));
/// ```
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// Rounds `n` up to the next power of two, saturating at `usize::MAX/2 + 1`.
///
/// ```
/// assert_eq!(xplace_fft::next_power_of_two(100), 128);
/// assert_eq!(xplace_fft::next_power_of_two(128), 128);
/// assert_eq!(xplace_fft::next_power_of_two(0), 1);
/// ```
pub fn next_power_of_two(n: usize) -> usize {
    n.next_power_of_two()
}
