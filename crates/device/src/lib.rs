//! A deterministic GPU execution model.
//!
//! The Xplace paper's efficiency contribution is entirely about the *shape
//! of the GPU operator stream*: how many kernels are launched per global
//! placement iteration, how much memory each pass touches, whether the
//! autograd engine doubles the operator count, and where synchronization
//! points stall the pipeline (§3.1 of the paper). Reproducing that in pure
//! Rust requires making those quantities first-class and measurable — that
//! is this crate.
//!
//! A [`Device`] executes *real* computations (plain Rust closures doing the
//! actual math on the CPU) while accounting, per kernel launch:
//!
//! * one **launch overhead** (the CPU-side cost of queueing a CUDA kernel,
//!   ~5 µs on real hardware),
//! * a modeled **execution time** derived from the kernel's declared memory
//!   traffic and flop count against configurable bandwidth/throughput
//!   (defaults approximate an RTX 3090),
//! * **synchronization stalls** whenever the host reads a result back.
//!
//! The modeled elapsed time of an operator stream uses the standard
//! pipelined bound `sum(max(launch_i, exec_i)) + syncs * sync_latency`: a
//! stream of tiny kernels is launch-bound (what operator *reduction*
//! attacks), a stream of heavy kernels is execution-bound (what operator
//! *combination*/*extraction*/*skipping* attack).
//!
//! PyTorch's autograd is modeled by launching each backward operator as a
//! separate out-of-place kernel after its forward launch — reproducing the
//! "autograd almost doubles the operator count" observation that
//! motivates §3.1.3.
//!
//! # Example
//!
//! ```
//! use xplace_device::{Device, DeviceConfig, KernelInfo};
//!
//! let device = Device::new(DeviceConfig::rtx3090());
//! let data = vec![1.0f64; 1024];
//! let sum = device.launch(
//!     KernelInfo::new("reduce_sum").bytes(8 * 1024).flops(1024),
//!     || data.iter().sum::<f64>(),
//! );
//! device.synchronize(); // host reads the value
//! assert_eq!(sum, 1024.0);
//! let prof = device.profile();
//! assert_eq!(prof.launches, 1);
//! assert_eq!(prof.syncs, 1);
//! assert!(prof.modeled_ns() > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod device;
mod kernel;
mod profile;

pub use config::DeviceConfig;
pub use device::Device;
pub use kernel::KernelInfo;
pub use profile::ProfileSnapshot;
