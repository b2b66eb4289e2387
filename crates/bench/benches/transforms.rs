//! Micro-benchmarks of the spectral substrate: FFT, DCT family and the
//! electrostatic Poisson solve across grid sizes (the `rfft2`/`irfft2`
//! workload of §3.1.2).

use xplace_fft::{Complex, DctPlan, ElectrostaticSolver, FftPlan, Grid2};
use xplace_testkit::bench::{Bench, BenchmarkId};
use xplace_testkit::{bench_group, bench_main};

fn bench_fft(c: &mut Bench) {
    let mut group = c.benchmark_group("fft_1d");
    for &n in &[256usize, 1024, 4096] {
        let plan = FftPlan::new(n).expect("power-of-two plan");
        let data: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.1).sin(), 0.0))
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut buf = data.clone();
                plan.forward(&mut buf).expect("forward succeeds");
                buf
            })
        });
    }
    group.finish();
}

fn bench_dct(c: &mut Bench) {
    let mut group = c.benchmark_group("dct_analysis_1d");
    for &n in &[256usize, 1024] {
        let mut plan = DctPlan::new(n).expect("power-of-two plan");
        let input: Vec<f64> = (0..n).map(|i| (i as f64 * 0.2).cos()).collect();
        let mut out = vec![0.0; n];
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| plan.analyze(&input, &mut out).expect("analysis succeeds"))
        });
    }
    group.finish();
}

fn bench_poisson(c: &mut Bench) {
    let mut group = c.benchmark_group("electrostatic_solve");
    group.sample_size(20);
    for &n in &[64usize, 128, 256] {
        let mut solver = ElectrostaticSolver::new(n, n).expect("power-of-two grid");
        let density = Grid2::from_fn(n, n, |ix, iy| {
            ((ix as f64 * 0.3).sin() + (iy as f64 * 0.2).cos()).abs()
        });
        let mut out = xplace_fft::FieldSolution::new(n, n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                solver
                    .solve_into(&density, &mut out)
                    .expect("solve succeeds")
            })
        });
    }
    group.finish();
}

fn bench_poisson_threads(c: &mut Bench) {
    let mut group = c.benchmark_group("electrostatic_solve_threads");
    group.sample_size(20);
    let n = 256usize;
    let density = Grid2::from_fn(n, n, |ix, iy| {
        ((ix as f64 * 0.3).sin() + (iy as f64 * 0.2).cos()).abs()
    });
    for &threads in &[1usize, 2, 4] {
        let mut solver = ElectrostaticSolver::new(n, n).expect("power-of-two grid");
        solver.set_threads(threads);
        let mut out = xplace_fft::FieldSolution::new(n, n);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
            b.iter(|| {
                solver
                    .solve_into(&density, &mut out)
                    .expect("solve succeeds")
            })
        });
    }
    group.finish();
}

bench_group!(
    benches,
    bench_fft,
    bench_dct,
    bench_poisson,
    bench_poisson_threads
);
bench_main!(benches);
