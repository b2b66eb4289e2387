//! Property tests for the pool-parallel spectral solve: for random density
//! grids and launch widths 2–5, the threaded solve must be **bit-identical**
//! to the serial solve — threads only change scheduling, never arithmetic.

use xplace_fft::{ElectrostaticSolver, FieldSolution, Grid2};
use xplace_testkit::prop::{self, Config, Strategy};
use xplace_testkit::rng::Rng;
use xplace_testkit::{prop_assert, prop_assert_eq, props};

/// A random density grid on one of a few power-of-two rectangles — square,
/// rectangular, and narrower than one transform tile on either side — plus
/// a thread count in 2..=5.
fn case_strategy() -> impl Strategy<Value = (Grid2, usize)> {
    prop::from_fn(|rng: &mut Rng| {
        let dims = [
            (16usize, 16usize),
            (32, 16),
            (16, 64),
            (64, 64),
            (1, 8),
            (4, 64),
            (64, 2),
            (256, 256),
        ];
        let (nx, ny) = dims[rng.gen_range(0usize..dims.len())];
        let mut grid = Grid2::new(nx, ny);
        for value in grid.as_mut_slice() {
            *value = rng.gen_range(-10.0..10.0);
        }
        let threads = rng.gen_range(2usize..=5);
        (grid, threads)
    })
}

props! {
    config = Config::with_cases(12);

    /// Parallel spectral solve is bit-equal to the serial solve.
    fn parallel_solve_matches_serial_bitwise(case in case_strategy()) {
        let (density, threads) = case;
        let (nx, ny) = density.dims();
        let mut serial = ElectrostaticSolver::new(nx, ny).expect("solver");
        let mut threaded = serial.clone();
        threaded.set_threads(threads);
        prop_assert_eq!(threaded.threads(), threads);

        let mut want = FieldSolution::new(nx, ny);
        let mut got = FieldSolution::new(nx, ny);
        serial.solve_into(&density, &mut want).expect("serial solve");
        threaded.solve_into(&density, &mut got).expect("threaded solve");

        prop_assert!(
            want.field_x.max_abs_diff(&got.field_x) == 0.0,
            "field_x diverged at threads={}", threads
        );
        prop_assert!(
            want.field_y.max_abs_diff(&got.field_y) == 0.0,
            "field_y diverged at threads={}", threads
        );
    }

    /// Re-solving on the same threaded solver reuses scratch without drift.
    fn threaded_solver_reuse_is_stable(case in case_strategy()) {
        let (density, threads) = case;
        let (nx, ny) = density.dims();
        let mut solver = ElectrostaticSolver::new(nx, ny).expect("solver");
        solver.set_threads(threads);
        let first = solver.solve(&density).expect("first solve");
        let second = solver.solve(&density).expect("second solve");
        prop_assert!(first.field_x.max_abs_diff(&second.field_x) == 0.0);
        prop_assert!(first.field_y.max_abs_diff(&second.field_y) == 0.0);
    }
}
