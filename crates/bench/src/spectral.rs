//! The spectral microbench: per-GP-iteration transform cost of the
//! electrostatic Poisson solve at production grid sizes.
//!
//! Two quantities per grid, matching [`SpectralGrid`]:
//!
//! * `modeled_ns` — the deterministic device-model cost of the two
//!   spectral kernels ([`DensityOp::spectral_kernels`]) on the reference
//!   GPU profile. Pure cost-model arithmetic, identical on every machine,
//!   so the regression gate hard-fails on it.
//! * `solve_wall_ns` — minimum wall-clock ns of one full
//!   [`ElectrostaticSolver::solve_into`] (analysis + fused field
//!   synthesis). Machine-dependent; the gate only warns.

use xplace_device::{Device, DeviceConfig};
use xplace_fft::{ElectrostaticSolver, FieldSolution, Grid2};
use xplace_ops::density::DensityOp;
use xplace_telemetry::{SpectralGrid, SpectralMetrics};

/// Grid sizes the committed baseline records (256/512/1024, the range the
/// paper's benchmarks bin their density maps at).
pub const SPECTRAL_GRIDS: [usize; 3] = [256, 512, 1024];

/// A deterministic, structured test density: smooth bumps plus a lattice
/// ripple, so no transform input is trivially zero.
fn test_density(n: usize) -> Grid2 {
    let mut density = Grid2::new(n, n);
    for x in 0..n {
        for y in 0..n {
            let fx = x as f64 / n as f64;
            let fy = y as f64 / n as f64;
            density[(x, y)] =
                (6.3 * fx).sin() * (4.7 * fy).cos() + 0.25 * ((x * 31 + y * 17) % 7) as f64;
        }
    }
    density
}

fn min_wall_ns(reps: usize, mut body: impl FnMut()) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..reps.max(1) {
        let start = std::time::Instant::now();
        body();
        best = best.min(start.elapsed().as_nanos() as u64);
    }
    best
}

/// Measures one grid size with `reps` timing repetitions (minimum taken).
///
/// # Panics
///
/// Panics if `n` is not a supported solver grid size (power of two ≥ 2).
pub fn measure_grid(n: usize, reps: usize) -> SpectralGrid {
    // Deterministic modeled cost: launch the exact kernel descriptors the
    // GP loop charges per field solve on the reference GPU profile.
    let device = Device::new(DeviceConfig::rtx3090());
    let (_, profile) = device.scoped(|| {
        for kernel in DensityOp::spectral_kernels(n, n) {
            device.launch(kernel, || {});
        }
    });
    let modeled_ns = profile.modeled_ns();

    // Wall-clock full solve (warm plans, min over reps).
    let mut solver = ElectrostaticSolver::new(n, n).expect("bench grid is a power of two");
    let density = test_density(n);
    let mut fields = FieldSolution::new(n, n);
    solver.solve_into(&density, &mut fields).expect("solve");
    let solve_wall_ns = min_wall_ns(reps, || {
        solver.solve_into(&density, &mut fields).expect("solve");
    });

    SpectralGrid {
        n,
        modeled_ns,
        solve_wall_ns,
    }
}

/// Runs the microbench over `grids` with `reps` repetitions per timing.
pub fn measure_spectral(grids: &[usize], reps: usize) -> SpectralMetrics {
    SpectralMetrics {
        grids: grids.iter().map(|&n| measure_grid(n, reps)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modeled_cost_is_deterministic_and_wall_is_positive() {
        let a = measure_grid(64, 1);
        let b = measure_grid(64, 1);
        assert_eq!(a.modeled_ns, b.modeled_ns);
        assert!(a.modeled_ns > 0);
        assert!(a.solve_wall_ns > 0);
    }

    #[test]
    fn measure_spectral_preserves_grid_order() {
        let m = measure_spectral(&[256, 1024], 1);
        let ns: Vec<usize> = m.grids.iter().map(|g| g.n).collect();
        assert_eq!(ns, vec![256, 1024]);
        // Small grids are launch-latency-bound (equal modeled cost), but a
        // 1024 grid is memory-bound and must model strictly slower.
        assert!(m.grids[1].modeled_ns > m.grids[0].modeled_ns);
    }
}
