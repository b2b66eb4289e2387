//! Property-based tests of the spectral transforms.

use xplace_fft::{
    naive, Complex, DctPlan, DctTile, ElectrostaticSolver, FftPlan, FieldSolution, Grid2,
    TILE_LANES,
};
use xplace_testkit::prop::{self, Config, Strategy};
use xplace_testkit::rng::Rng;
use xplace_testkit::{prop_assert, prop_assert_eq, props};

/// A random signal whose length is a power of two up to `2^max_pow`.
fn signal_strategy(max_pow: u32) -> impl Strategy<Value = Vec<f64>> {
    prop::from_fn(move |rng: &mut Rng| {
        let p = rng.gen_range(1u32..=max_pow);
        let n = 1usize << p;
        (0..n)
            .map(|_| rng.gen_range(-100.0..100.0))
            .collect::<Vec<f64>>()
    })
}

/// A random sample that is sometimes an exact signed zero, so sign-of-zero
/// handling is compared too.
fn sample(rng: &mut Rng) -> f64 {
    match rng.gen_range(0u32..16) {
        0 => 0.0,
        1 => -0.0,
        _ => rng.gen_range(-100.0..100.0),
    }
}

/// A `[sample][lane]` tile of length 1..=1024 whose first `live` lanes hold
/// random samples and whose spare lanes are zero (a partial tile).
fn tile_strategy() -> impl Strategy<Value = (usize, usize, Vec<f64>)> {
    prop::from_fn(|rng: &mut Rng| {
        let n = 1usize << rng.gen_range(0u32..=10);
        let live = rng.gen_range(1usize..=TILE_LANES);
        let mut tile = vec![0.0; n * TILE_LANES];
        for (i, v) in tile.iter_mut().enumerate() {
            if i % TILE_LANES < live {
                *v = sample(rng);
            }
        }
        (n, live, tile)
    })
}

/// A random density grid, including sides narrower than one tile.
fn grid_strategy() -> impl Strategy<Value = Grid2> {
    prop::from_fn(|rng: &mut Rng| {
        let dims = [
            (1usize, 1usize),
            (1, 8),
            (2, 32),
            (8, 8),
            (16, 4),
            (32, 64),
            (64, 16),
        ];
        let (nx, ny) = dims[rng.gen_range(0usize..dims.len())];
        Grid2::from_fn(nx, ny, |_, _| sample(rng).abs())
    })
}

/// Lane `l` of a `[sample][lane]` tile.
fn lane(tile: &[f64], l: usize) -> Vec<f64> {
    tile.iter().skip(l).step_by(TILE_LANES).copied().collect()
}

/// The row-by-row spectral solve the tiled solver replaced, written with
/// one [`DctPlan`] call per grid row and column: the bit-exact oracle for
/// [`ElectrostaticSolver::solve_into`].
fn reference_solve(density: &Grid2) -> FieldSolution {
    let (nx, ny) = density.dims();
    let mut plan_x = DctPlan::new(nx).expect("power-of-two side");
    let mut plan_y = DctPlan::new(ny).expect("power-of-two side");
    let pi = std::f64::consts::PI;
    let wx: Vec<f64> = (0..nx).map(|u| pi * u as f64 / nx as f64).collect();
    let wy: Vec<f64> = (0..ny).map(|v| pi * v as f64 / ny as f64).collect();
    // Analysis along y (rows), then along x (gathered columns).
    let mut ybuf = vec![0.0; nx * ny];
    for (ix, out) in ybuf.chunks_mut(ny).enumerate() {
        plan_y.analyze(density.row(ix), out).expect("y analysis");
    }
    let norm = 4.0 / (nx as f64 * ny as f64);
    let mut coeffs = vec![0.0; nx * ny];
    let mut column = vec![0.0; nx];
    for (v, out) in coeffs.chunks_mut(nx).enumerate() {
        for (ix, c) in column.iter_mut().enumerate() {
            *c = ybuf[ix * ny + v];
        }
        plan_x.analyze(&column, out).expect("x analysis");
        for (u, c) in out.iter_mut().enumerate() {
            let mut beta = norm;
            if u == 0 {
                beta *= 0.5;
            }
            if v == 0 {
                beta *= 0.5;
            }
            *c *= beta;
        }
    }
    // Scaled x-synthesis of the potential, Ex and Ey streams.
    let mut sbuf = [vec![0.0; nx * ny], vec![0.0; nx * ny], vec![0.0; nx * ny]];
    let mut scaled = [vec![0.0; nx], vec![0.0; nx], vec![0.0; nx]];
    for v in 0..ny {
        let (wv, row) = (wy[v], &coeffs[v * nx..(v + 1) * nx]);
        let wv2 = wv * wv;
        for u in 0..nx {
            let (p, ex, ey) = if u == 0 && wv2 == 0.0 {
                (0.0, 0.0, 0.0)
            } else {
                let s = row[u] / (wx[u] * wx[u] + wv2);
                (s, s * wx[u], s * wv)
            };
            scaled[0][u] = p;
            scaled[1][u] = ex;
            scaled[2][u] = ey;
        }
        let [s_pot, s_ex, s_ey] = &mut sbuf;
        let row = v * nx..(v + 1) * nx;
        plan_x
            .cosine_synthesis(&scaled[0], &mut s_pot[row.clone()])
            .expect("x idct");
        plan_x
            .sine_synthesis(&scaled[1], &mut s_ex[row.clone()])
            .expect("x idxst");
        plan_x
            .cosine_synthesis(&scaled[2], &mut s_ey[row])
            .expect("x idct");
    }
    // y-synthesis of gathered columns into the output rows.
    let mut sol = FieldSolution::new(nx, ny);
    let mut col = [vec![0.0; ny], vec![0.0; ny], vec![0.0; ny]];
    for ix in 0..nx {
        for (c, buf) in col.iter_mut().zip(&sbuf) {
            for (v, x) in c.iter_mut().enumerate() {
                *x = buf[v * nx + ix];
            }
        }
        plan_y
            .cosine_synthesis(&col[0], sol.potential.row_mut(ix))
            .expect("y idct");
        plan_y
            .cosine_synthesis(&col[1], sol.field_x.row_mut(ix))
            .expect("y idct");
        plan_y
            .sine_synthesis(&col[2], sol.field_y.row_mut(ix))
            .expect("y idxst");
    }
    sol.energy = 0.5
        * density
            .as_slice()
            .iter()
            .zip(sol.potential.as_slice())
            .map(|(r, p)| r * p)
            .sum::<f64>();
    sol
}

props! {
    config = Config::with_cases(64);

    /// Every lane of a (possibly partial) tile equals the scalar
    /// `DctPlan` transform of that lane, bit for bit, for lengths 1–1024.
    fn tile_lanes_match_scalar_plan_bitwise(case in tile_strategy()) {
        let (n, live, input) = case;
        let mut tile = DctTile::new(n).expect("power-of-two length");
        let mut plan = DctPlan::new(n).expect("power-of-two length");
        let mut out = vec![0.0; n * TILE_LANES];
        let mut want = vec![0.0; n];
        for op in ["analyze", "cosine", "sine"] {
            match op {
                "analyze" => tile.analyze(&input, &mut out),
                "cosine" => tile.cosine_synthesis(&input, &mut out),
                _ => tile.sine_synthesis(&input, &mut out),
            }
            .expect("tile transform");
            for l in 0..TILE_LANES {
                let x = lane(&input, l);
                match op {
                    "analyze" => plan.analyze(&x, &mut want),
                    "cosine" => plan.cosine_synthesis(&x, &mut want),
                    _ => plan.sine_synthesis(&x, &mut want),
                }
                .expect("scalar transform");
                for (k, (got, want)) in lane(&out, l).iter().zip(&want).enumerate() {
                    prop_assert!(
                        got.to_bits() == want.to_bits(),
                        "{} n={} live={} lane={} k={}: {} vs {}", op, n, live, l, k, got, want
                    );
                }
            }
        }
    }

    /// The tiled solver equals the row-by-row `DctPlan` solve bit for bit.
    fn solver_matches_row_by_row_reference_bitwise(density in grid_strategy()) {
        let (nx, ny) = density.dims();
        let want = reference_solve(&density);
        let mut got = FieldSolution::new(nx, ny);
        ElectrostaticSolver::new(nx, ny)
            .expect("grid ok")
            .solve_into(&density, &mut got)
            .expect("solve");
        for (name, g, w) in [
            ("potential", &got.potential, &want.potential),
            ("field_x", &got.field_x, &want.field_x),
            ("field_y", &got.field_y, &want.field_y),
        ] {
            for (i, (a, b)) in g.as_slice().iter().zip(w.as_slice()).enumerate() {
                prop_assert!(a.to_bits() == b.to_bits(), "{} {}x{} at {}: {} vs {}", name, nx, ny, i, a, b);
            }
        }
        prop_assert_eq!(got.energy.to_bits(), want.energy.to_bits());
    }

    /// forward then inverse FFT recovers the input.
    fn fft_round_trip(values in signal_strategy(9)) {
        let n = values.len();
        let plan = FftPlan::new(n).expect("power-of-two length");
        let mut data: Vec<Complex> = values.iter().map(|&v| Complex::new(v, 0.0)).collect();
        plan.forward(&mut data).expect("forward");
        plan.inverse(&mut data).expect("inverse");
        for (c, &v) in data.iter().zip(&values) {
            prop_assert!((c.re - v).abs() < 1e-8, "re {} vs {}", c.re, v);
            prop_assert!(c.im.abs() < 1e-8);
        }
    }

    /// Parseval: energy is preserved up to the 1/N normalization.
    fn fft_parseval(values in signal_strategy(8)) {
        let n = values.len();
        let plan = FftPlan::new(n).expect("power-of-two length");
        let mut data: Vec<Complex> = values.iter().map(|&v| Complex::new(v, 0.0)).collect();
        let time: f64 = values.iter().map(|v| v * v).sum();
        plan.forward(&mut data).expect("forward");
        let freq: f64 = data.iter().map(|c| c.norm_sqr()).sum::<f64>() / n as f64;
        prop_assert!((time - freq).abs() < 1e-6 * time.max(1.0));
    }

    /// DCT analysis followed by normalized cosine synthesis is identity.
    fn dct_round_trip(values in signal_strategy(8)) {
        let n = values.len();
        let mut plan = DctPlan::new(n).expect("power-of-two length");
        let mut coeffs = vec![0.0; n];
        plan.analyze(&values, &mut coeffs).expect("analysis");
        for (k, c) in coeffs.iter_mut().enumerate() {
            *c *= 2.0 / n as f64;
            if k == 0 { *c *= 0.5; }
        }
        let mut back = vec![0.0; n];
        plan.cosine_synthesis(&coeffs, &mut back).expect("synthesis");
        for (a, b) in back.iter().zip(&values) {
            prop_assert!((a - b).abs() < 1e-8);
        }
    }

    /// The electrostatic solver is linear: solve(a*x + b*y) =
    /// a*solve(x) + b*solve(y).
    fn solver_is_linear(
        a in -3.0..3.0f64,
        b in -3.0..3.0f64,
        seed in 0u64..1000,
    ) {
        let n = 16;
        let mk = |s: u64| Grid2::from_fn(n, n, |ix, iy| {
            (((ix * 7 + iy * 13) as u64 ^ s) % 17) as f64 / 17.0
        });
        let x = mk(seed);
        let y = mk(seed.wrapping_add(1));
        let mut combo = Grid2::new(n, n);
        for i in 0..n {
            for j in 0..n {
                combo[(i, j)] = a * x[(i, j)] + b * y[(i, j)];
            }
        }
        let mut solver = ElectrostaticSolver::new(n, n).expect("grid ok");
        let sx = solver.solve(&x).expect("solve x");
        let sy = solver.solve(&y).expect("solve y");
        let sc = solver.solve(&combo).expect("solve combo");
        for i in 0..n {
            for j in 0..n {
                let expect = a * sx.field_x[(i, j)] + b * sy.field_x[(i, j)];
                prop_assert!((sc.field_x[(i, j)] - expect).abs() < 1e-8);
            }
        }
    }

    /// The packed-real DCT path agrees with the naive O(N^2) sums on every
    /// transform.
    fn real_path_matches_naive(values in signal_strategy(8)) {
        let n = values.len();
        let mut real = DctPlan::new(n).expect("power-of-two length");
        let scale = values.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        let tol = 1e-9 * scale * n as f64;

        let mut cr = vec![0.0; n];
        real.analyze(&values, &mut cr).expect("real analyze");
        let cn = naive::analyze(&values);
        for k in 0..n {
            prop_assert!((cr[k] - cn[k]).abs() < tol, "analyze k={} real {} naive {}", k, cr[k], cn[k]);
        }

        let mut sr = vec![0.0; n];
        real.cosine_synthesis(&cr, &mut sr).expect("real idct");
        let sn = naive::cosine_synthesis(&cr);
        for i in 0..n {
            prop_assert!((sr[i] - sn[i]).abs() < tol);
        }

        real.sine_synthesis(&cr, &mut sr).expect("real idxst");
        let sn = naive::sine_synthesis(&cr);
        for i in 0..n {
            prop_assert!((sr[i] - sn[i]).abs() < tol);
        }
    }

    /// `sine_synthesis` ignores `coeffs[0]` as documented.
    fn sine_synthesis_ignores_k0(values in signal_strategy(6)) {
        let n = values.len();
        let mut perturbed = values.clone();
        perturbed[0] += 1234.5;
        let mut real = DctPlan::new(n).expect("power-of-two length");
        let mut a = vec![0.0; n];
        let mut b = vec![0.0; n];
        real.sine_synthesis(&values, &mut a).expect("idxst");
        real.sine_synthesis(&perturbed, &mut b).expect("idxst");
        prop_assert!(a == b, "real path must ignore coeffs[0]");
    }

    /// Non-square grids through the fused solver match a solve of the
    /// transposed density on the transposed solver (x/y symmetry of the
    /// electrostatic system).
    fn rectangular_solver_is_transpose_symmetric(seed in 0u64..1000) {
        let (nx, ny) = (32, 8);
        let density = Grid2::from_fn(nx, ny, |ix, iy| {
            (((ix * 29 + iy * 41) as u64 ^ seed) % 19) as f64 / 19.0
        });
        let transposed = Grid2::from_fn(ny, nx, |ix, iy| density[(iy, ix)]);
        let mut solver = ElectrostaticSolver::new(nx, ny).expect("grid ok");
        let mut solver_t = ElectrostaticSolver::new(ny, nx).expect("grid ok");
        let sol = solver.solve(&density).expect("solve");
        let sol_t = solver_t.solve(&transposed).expect("solve transposed");
        for ix in 0..nx {
            for iy in 0..ny {
                let dp = (sol.potential[(ix, iy)] - sol_t.potential[(iy, ix)]).abs();
                prop_assert!(dp < 1e-9, "potential ({ix},{iy}) differs by {dp}");
                let dx = (sol.field_x[(ix, iy)] - sol_t.field_y[(iy, ix)]).abs();
                prop_assert!(dx < 1e-9, "Ex/Ey^T ({ix},{iy}) differs by {dx}");
                let dy = (sol.field_y[(ix, iy)] - sol_t.field_x[(iy, ix)]).abs();
                prop_assert!(dy < 1e-9, "Ey/Ex^T ({ix},{iy}) differs by {dy}");
            }
        }
    }

    /// The field of any density has zero mean (Neumann boundaries push
    /// nothing out of the region on aggregate).
    fn field_sums_to_zero(seed in 0u64..1000) {
        let n = 16;
        let density = Grid2::from_fn(n, n, |ix, iy| {
            (((ix * 31 + iy * 17) as u64 ^ seed) % 23) as f64
        });
        let mut solver = ElectrostaticSolver::new(n, n).expect("grid ok");
        let sol = solver.solve(&density).expect("solve");
        // Sine-basis fields integrate to... the discrete sum of
        // sin(pi k (2n+1)/(2N)) over n is zero only for even k; the true
        // invariant here: potential has zero mean (the (0,0) mode is
        // dropped).
        prop_assert!(sol.potential.sum().abs() < 1e-6 * (n * n) as f64);
    }
}
