//! The Fourier-neural-operator extension of Xplace (§3.3 of the paper).
//!
//! A two-path network predicts the electric-field map of the placement
//! electrostatic system directly from the density map:
//!
//! * a **spatial path** — a pixel-wise (1x1) convolution,
//! * a **frequency path** — FFT, low-pass filter keeping the lowest
//!   modes, a per-mode complex linear transform, inverse FFT (Eq. 11),
//!
//! summed and passed through GELU (Eq. 12), stacked between a lifting and
//! a projection layer. Because only low-frequency modes carry weights, the
//! model is **resolution independent** (train small, infer large) and the
//! x/y symmetry of Poisson's equation means one output direction suffices
//! (the other is obtained by transposing the input).
//!
//! Everything is implemented from scratch with manual backpropagation
//! (validated against finite differences in the tests): [`Fno`] is the
//! model, [`train`] fits it on **self-generated** data (random density
//! maps labeled by the exact spectral solver — no placement benchmarks
//! needed, exactly as the paper trains), and [`FnoGuidance`] adapts a
//! trained model to the placer's [`xplace_core::DensityGuidance`] hook.
//!
//! # Example
//!
//! ```
//! use xplace_nn::{Fno, FnoConfig};
//!
//! # fn main() -> Result<(), xplace_nn::NnError> {
//! let mut fno = Fno::new(&FnoConfig::tiny(), 7)?;
//! let density = vec![0.5; 16 * 16];
//! let field = fno.predict_field_x(&density, 16, 16)?;
//! assert_eq!(field.len(), 256);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod data;
mod error;
mod fno;
mod guidance;
mod layers;
mod loss;
mod param;
mod spectral_util;
mod train;

pub use data::{generate_sample, DataConfig, Sample};
pub use error::NnError;
pub use fno::{Fno, FnoConfig};
pub use guidance::FnoGuidance;
pub use loss::relative_l2;
pub use param::ParamStore;
pub use train::{evaluate, train, TrainConfig, TrainReport};
