//! Numerical solution of the placement electrostatic system.
//!
//! Following ePlace (and Xplace, which inherits its formulation), the cell
//! density map is treated as a charge density `rho` on an `nx`-by-`ny` bin
//! grid. The potential `psi` solves Poisson's equation with Neumann
//! boundaries (Eq. (5) of the paper):
//!
//! ```text
//!   laplacian(psi) = -rho,   n . grad(psi) = 0 on the boundary,
//!   integral(rho) = integral(psi) = 0.
//! ```
//!
//! Expanding `rho` in the cosine basis `cos(w_u (i+1/2)) cos(w_v (j+1/2))`
//! with `w_u = pi u / nx`, `w_v = pi v / ny` (which satisfies the Neumann
//! condition automatically) gives the classic spectral solution:
//!
//! ```text
//!   psi_uv   = a_uv / (w_u^2 + w_v^2)
//!   Ex       = sum a_uv w_u/(w_u^2+w_v^2) sin cos      (E = -grad psi)
//!   Ey       = sum a_uv w_v/(w_u^2+w_v^2) cos sin
//! ```
//!
//! which is exactly what DREAMPlace evaluates with its `dct2`/`idct2`/
//! `idxst` kernel family; here the transforms come from [`DctTile`], the
//! lane-batched form of [`DctPlan`](crate::DctPlan).

use crate::tile::{lanes_at, put_lanes, Lanes};
use crate::{DctTile, FftError, Grid2, TILE_LANES};

/// The potential and electric-field maps produced by one density solve.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldSolution {
    /// Electrostatic potential `psi`, one sample per bin.
    pub potential: Grid2,
    /// x-component of the electric field `E = -grad psi` (bin units).
    pub field_x: Grid2,
    /// y-component of the electric field.
    pub field_y: Grid2,
    /// Total system energy `0.5 * sum(rho * psi)`.
    pub energy: f64,
}

impl FieldSolution {
    /// Creates a zero-filled solution for an `nx`-by-`ny` grid.
    pub fn new(nx: usize, ny: usize) -> Self {
        FieldSolution {
            potential: Grid2::new(nx, ny),
            field_x: Grid2::new(nx, ny),
            field_y: Grid2::new(nx, ny),
            energy: 0.0,
        }
    }
}

/// Largest accepted side of an [`ElectrostaticSolver`] grid, in bins.
///
/// Automatic grid sizing clamps to this bound, and explicit grid overrides
/// are validated against it, so a hostile override fails with a structured
/// error instead of a multi-gigabyte allocation.
pub const MAX_GRID_SIDE: usize = 1024;

/// Spectral Poisson solver for the placement density system.
///
/// The solver owns all transform plans and scratch memory; a `solve` call
/// performs one DCT-II analysis batch and one fused synthesis pass that
/// scales the spectrum for the potential, `Ex` and `Ey` in a single sweep
/// and transforms all three streams together, with no allocation when used
/// through [`ElectrostaticSolver::solve_into`].
///
/// Every pass runs its 1-D transforms [`TILE_LANES`] at a time through a
/// [`DctTile`]: y-transforms take `TILE_LANES` grid rows as the lanes,
/// x-transforms take `TILE_LANES` adjacent columns. Each lane is
/// bit-identical to the matching [`DctPlan`](crate::DctPlan) call.
///
/// ```
/// use xplace_fft::{ElectrostaticSolver, Grid2};
///
/// # fn main() -> Result<(), xplace_fft::FftError> {
/// let mut solver = ElectrostaticSolver::new(32, 32)?;
/// let density = Grid2::from_fn(32, 32, |ix, iy| {
///     let dx = ix as f64 - 15.5;
///     let dy = iy as f64 - 15.5;
///     (-(dx * dx + dy * dy) / 20.0).exp()
/// });
/// let sol = solver.solve(&density)?;
/// // Field pushes outward from the density peak.
/// assert!(sol.field_x[(25, 16)] > 0.0);
/// assert!(sol.field_x[(6, 16)] < 0.0);
/// assert!(sol.energy > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ElectrostaticSolver {
    nx: usize,
    ny: usize,
    /// w_u = pi u / nx.
    wx: Vec<f64>,
    /// w_v = pi v / ny.
    wy: Vec<f64>,
    /// y-analysis output, laid out `ix * ny + v` like the density grid, so
    /// each row tile owns one contiguous chunk.
    ybuf: Vec<f64>,
    /// Normalized analysis coefficients a_uv, tile-major: column tile `t`
    /// (lanes `v = t * TILE_LANES + l`) is one contiguous `[u][l]` chunk.
    coeffs: Vec<f64>,
    /// x-synthesis output for the potential, tile-major like `coeffs`
    /// (`[ix][l]` per column tile).
    sbuf_pot: Vec<f64>,
    /// x-synthesis output for `Ex` (same layout).
    sbuf_ex: Vec<f64>,
    /// x-synthesis output for `Ey` (same layout).
    sbuf_ey: Vec<f64>,
    /// Launch width for the tile batches (>= 1).
    threads: usize,
    /// One transform context per potential worker; `ctxs[0]` also serves the
    /// serial path.
    ctxs: Vec<SolverCtx>,
}

/// Per-worker transform state: private tile plans and scratch, so parallel
/// tile batches never contend on plan internals.
#[derive(Debug, Clone)]
struct SolverCtx {
    tile_x: DctTile,
    tile_y: DctTile,
    /// Scaled-spectrum staging for the fused x-synthesis: one `[u][l]` tile
    /// for each of the potential/`Ex`/`Ey` streams.
    scaled: Vec<f64>,
}

/// Splits a staging buffer into three disjoint `len`-sample tiles.
fn split3(buf: &mut [f64], len: usize) -> (&mut [f64], &mut [f64], &mut [f64]) {
    let (a, rest) = buf.split_at_mut(len);
    let (b, rest) = rest.split_at_mut(len);
    (a, b, &mut rest[..len])
}

/// Sample `k` of the row tile `rows` (`rows.len() / stride` rows of
/// `stride` samples): lane `l` is row `l`, spare lanes are zero.
#[inline]
fn row_lanes(rows: &[f64], stride: usize, k: usize) -> Lanes {
    let mut out = [0.0; TILE_LANES];
    for (o, row) in out.iter_mut().zip(rows.chunks_exact(stride)) {
        *o = row[k];
    }
    out
}

/// The live lanes `src` of a column tile as one sample, zero-filled past
/// the end of a grid narrower than a tile.
#[inline]
fn column_lanes(src: &[f64]) -> Lanes {
    let mut out = [0.0; TILE_LANES];
    match src.get(..TILE_LANES) {
        Some(full) => out.copy_from_slice(full),
        None => out[..src.len()].copy_from_slice(src),
    }
    out
}

/// Writes sample `k` of every live lane back into the row tile `rows`.
#[inline]
fn put_row_lanes(rows: &mut [f64], stride: usize, k: usize, v: Lanes) {
    for (row, x) in rows.chunks_exact_mut(stride).zip(v) {
        row[k] = x;
    }
}

/// Runs `op(ctx, tile, chunk)` for every `tile_len`-sample chunk of `dst`
/// (the last one may be shorter), batching contiguous tile ranges across
/// the global worker pool (at most `width` wide, one [`SolverCtx`] per
/// batch).
///
/// Every tile's transforms read only their own inputs and write only their
/// own chunk, so the result is bit-identical for **any** task split;
/// `width <= 1` (or a single tile) short-circuits to a plain serial loop
/// with no pool involvement.
fn par_tiles<F>(ctxs: &mut [SolverCtx], width: usize, dst: &mut [f64], tile_len: usize, op: F)
where
    F: Fn(&mut SolverCtx, usize, &mut [f64]) + Sync,
{
    let tiles = dst.len().div_ceil(tile_len);
    let tasks = width.min(tiles).min(ctxs.len()).max(1);
    if tasks <= 1 {
        let ctx = &mut ctxs[0];
        for (tile, out) in dst.chunks_mut(tile_len).enumerate() {
            op(ctx, tile, out);
        }
        return;
    }
    let chunk_tiles = tiles.div_ceil(tasks);
    let mut states: Vec<(usize, &mut SolverCtx, &mut [f64])> = ctxs
        .iter_mut()
        .zip(dst.chunks_mut(chunk_tiles * tile_len))
        .enumerate()
        .map(|(i, (ctx, chunk))| (i * chunk_tiles, ctx, chunk))
        .collect();
    xplace_parallel::global().run_mut(&mut states, tasks, |_, state| {
        let (tile0, ctx, chunk) = state;
        for (offset, out) in chunk.chunks_mut(tile_len).enumerate() {
            op(ctx, *tile0 + offset, out);
        }
    });
}

/// The three-stream sibling of [`par_tiles`]: runs
/// `op(ctx, tile, d0_chunk, d1_chunk, d2_chunk)` over three equally sized
/// buffers advancing in lockstep (the potential/`Ex`/`Ey` streams of the
/// fused field passes), with the same fixed tile decomposition.
fn par_tiles3<F>(
    ctxs: &mut [SolverCtx],
    width: usize,
    d0: &mut [f64],
    d1: &mut [f64],
    d2: &mut [f64],
    tile_len: usize,
    op: F,
) where
    F: Fn(&mut SolverCtx, usize, &mut [f64], &mut [f64], &mut [f64]) + Sync,
{
    debug_assert_eq!(d0.len(), d1.len());
    debug_assert_eq!(d0.len(), d2.len());
    let tiles = d0.len().div_ceil(tile_len);
    let tasks = width.min(tiles).min(ctxs.len()).max(1);
    if tasks <= 1 {
        let ctx = &mut ctxs[0];
        for (tile, ((o0, o1), o2)) in d0
            .chunks_mut(tile_len)
            .zip(d1.chunks_mut(tile_len))
            .zip(d2.chunks_mut(tile_len))
            .enumerate()
        {
            op(ctx, tile, o0, o1, o2);
        }
        return;
    }
    let chunk_tiles = tiles.div_ceil(tasks);
    let chunk = chunk_tiles * tile_len;
    type Chunk3<'a> = (
        usize,
        &'a mut SolverCtx,
        &'a mut [f64],
        &'a mut [f64],
        &'a mut [f64],
    );
    let mut states: Vec<Chunk3> = ctxs
        .iter_mut()
        .zip(d0.chunks_mut(chunk))
        .zip(d1.chunks_mut(chunk))
        .zip(d2.chunks_mut(chunk))
        .enumerate()
        .map(|(i, (((ctx, c0), c1), c2))| (i * chunk_tiles, ctx, c0, c1, c2))
        .collect();
    xplace_parallel::global().run_mut(&mut states, tasks, |_, state| {
        let (tile0, ctx, c0, c1, c2) = state;
        for (offset, ((o0, o1), o2)) in c0
            .chunks_mut(tile_len)
            .zip(c1.chunks_mut(tile_len))
            .zip(c2.chunks_mut(tile_len))
            .enumerate()
        {
            op(ctx, *tile0 + offset, o0, o1, o2);
        }
    });
}

impl ElectrostaticSolver {
    /// Creates a solver for an `nx`-by-`ny` bin grid.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::GridTooLarge`] when either side exceeds
    /// [`MAX_GRID_SIDE`], and [`FftError::EmptyLength`] /
    /// [`FftError::NotPowerOfTwo`] when either dimension is not a nonzero
    /// power of two.
    pub fn new(nx: usize, ny: usize) -> Result<Self, FftError> {
        let too_large = FftError::GridTooLarge {
            dims: (nx, ny),
            max: MAX_GRID_SIDE,
        };
        if nx > MAX_GRID_SIDE || ny > MAX_GRID_SIDE {
            return Err(too_large);
        }
        let cells = nx.checked_mul(ny).ok_or_else(|| too_large.clone())?;
        let ctx = SolverCtx {
            tile_x: DctTile::cached(nx)?,
            tile_y: DctTile::cached(ny)?,
            scaled: vec![0.0; 3 * nx * TILE_LANES],
        };
        // Tile-major buffers pad a grid side narrower than a tile up to
        // one full tile of lanes.
        let padded = nx
            .checked_mul(ny.div_ceil(TILE_LANES) * TILE_LANES)
            .ok_or(too_large)?;
        let wx = (0..nx)
            .map(|u| std::f64::consts::PI * u as f64 / nx as f64)
            .collect();
        let wy = (0..ny)
            .map(|v| std::f64::consts::PI * v as f64 / ny as f64)
            .collect();
        Ok(ElectrostaticSolver {
            nx,
            ny,
            wx,
            wy,
            ybuf: vec![0.0; cells],
            coeffs: vec![0.0; padded],
            sbuf_pot: vec![0.0; padded],
            sbuf_ex: vec![0.0; padded],
            sbuf_ey: vec![0.0; padded],
            threads: 1,
            ctxs: vec![ctx],
        })
    }

    /// Grid dimensions `(nx, ny)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Sets the launch width for the transform batches (clamped to >= 1) and
    /// provisions one private transform context per worker.
    ///
    /// Tiles are arithmetic-independent, so the solution is bit-identical
    /// for every thread count; `threads` only changes how the tile batches
    /// are scheduled.
    pub fn set_threads(&mut self, threads: usize) {
        let threads = threads.max(1);
        self.threads = threads;
        if self.ctxs.len() < threads {
            let template = self.ctxs[0].clone();
            self.ctxs.resize(threads, template);
        }
    }

    /// Current launch width for the transform batches.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Solves the electrostatic system, allocating a fresh [`FieldSolution`].
    ///
    /// # Errors
    ///
    /// Returns [`FftError::GridMismatch`] if `density` does not match the
    /// solver dimensions.
    pub fn solve(&mut self, density: &Grid2) -> Result<FieldSolution, FftError> {
        let mut out = FieldSolution::new(self.nx, self.ny);
        self.solve_into(density, &mut out)?;
        Ok(out)
    }

    /// Solves the electrostatic system into a caller-provided buffer,
    /// performing no allocation.
    ///
    /// One DCT-II analysis batch is followed by a single fused pass over
    /// the spectrum: each coefficient tile is scaled into the
    /// potential/`Ex`/`Ey` streams in one sweep (`psi = a/w^2`,
    /// `Ex = a w_u/w^2`, `Ey = a w_v/w^2`) and all three streams are
    /// synthesized together — two fused transform batches instead of three
    /// independent scale-plus-synthesize passes.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::GridMismatch`] if `density` or any buffer grid
    /// does not match the solver dimensions.
    pub fn solve_into(&mut self, density: &Grid2, out: &mut FieldSolution) -> Result<(), FftError> {
        self.check_grid(density)?;
        self.check_grid(&out.potential)?;
        self.check_grid(&out.field_x)?;
        self.check_grid(&out.field_y)?;

        self.analyze(density);
        self.synthesize_fused(out);

        out.energy = 0.5
            * density
                .as_slice()
                .iter()
                .zip(out.potential.as_slice())
                .map(|(r, p)| r * p)
                .sum::<f64>();
        Ok(())
    }

    fn check_grid(&self, grid: &Grid2) -> Result<(), FftError> {
        if grid.dims() != (self.nx, self.ny) {
            return Err(FftError::GridMismatch {
                expected: (self.nx, self.ny),
                actual: grid.dims(),
            });
        }
        Ok(())
    }

    /// 2-D DCT-II analysis into normalized synthesis coefficients `a_uv`
    /// such that `rho = sum a_uv cos cos` exactly.
    ///
    /// Both passes batch their tiles across the worker pool
    /// (`self.threads` wide); each tile only reads its own inputs, so the
    /// coefficients are bit-identical for every thread count.
    fn analyze(&mut self, density: &Grid2) {
        let (nx, ny) = (self.nx, self.ny);
        // Transform along y, `TILE_LANES` grid rows per tile, into `ybuf`.
        let rho = density.as_slice();
        par_tiles(
            &mut self.ctxs,
            self.threads,
            &mut self.ybuf,
            TILE_LANES * ny,
            |ctx, t, rows| {
                let src = &rho[t * TILE_LANES * ny..][..rows.len()];
                ctx.tile_y.analyze_with(
                    |iy| row_lanes(src, ny, iy),
                    |v, c| put_row_lanes(rows, ny, v, c),
                );
            },
        );
        // Transform along x, `TILE_LANES` adjacent columns per tile read in
        // place from `ybuf`; write normalized coefficients tile-major.
        let norm = 4.0 / (nx as f64 * ny as f64);
        let ybuf = &self.ybuf;
        par_tiles(
            &mut self.ctxs,
            self.threads,
            &mut self.coeffs,
            TILE_LANES * nx,
            |ctx, t, tile| {
                let v0 = t * TILE_LANES;
                let live = (ny - v0).min(TILE_LANES);
                let beta = |u: usize| -> Lanes {
                    std::array::from_fn(|l| {
                        let mut beta = norm;
                        if u == 0 {
                            beta *= 0.5;
                        }
                        if v0 + l == 0 {
                            beta *= 0.5;
                        }
                        beta
                    })
                };
                let (beta0, beta1) = (beta(0), beta(1));
                ctx.tile_x.analyze_with(
                    |ix| column_lanes(&ybuf[ix * ny + v0..][..live]),
                    |u, c| {
                        let beta = if u == 0 { &beta0 } else { &beta1 };
                        for ((o, c), b) in tile[u * TILE_LANES..].iter_mut().zip(c).zip(beta) {
                            *o = c * b;
                        }
                    },
                );
            },
        );
    }

    /// Fused synthesis of all three field maps out of `self.coeffs`.
    ///
    /// The x-stage walks each coefficient tile once, producing the scaled
    /// potential/`Ex`/`Ey` coefficient tiles in a single sweep over the
    /// spectrum, then runs the three x-transforms (cosine, sine, cosine)
    /// back to back while the tile is hot in cache. The y-stage reads the
    /// three streams `TILE_LANES` rows at a time and finishes with the
    /// cosine/cosine/sine y-transforms straight into the output grids.
    /// Parallel structure mirrors [`Self::analyze`].
    fn synthesize_fused(&mut self, out: &mut FieldSolution) {
        let (nx, ny) = (self.nx, self.ny);
        let tile_len = TILE_LANES * nx;
        let (coeffs, wx, wy) = (&self.coeffs, &self.wx, &self.wy);
        par_tiles3(
            &mut self.ctxs,
            self.threads,
            &mut self.sbuf_pot,
            &mut self.sbuf_ex,
            &mut self.sbuf_ey,
            tile_len,
            |ctx, t, d_pot, d_ex, d_ey| {
                let v0 = t * TILE_LANES;
                let a = &coeffs[t * tile_len..][..tile_len];
                // Spare lanes of a narrow grid get w_v = 0 and zero input.
                let wv: Lanes = std::array::from_fn(|l| wy.get(v0 + l).copied().unwrap_or(0.0));
                let wv2: Lanes = std::array::from_fn(|l| wv[l] * wv[l]);
                let (c_pot, c_ex, c_ey) = split3(&mut ctx.scaled, tile_len);
                // One pass over the coefficient tile produces all three
                // scaled streams.
                for (u, ((((p, ex), ey), a), &wu)) in c_pot
                    .chunks_exact_mut(TILE_LANES)
                    .zip(c_ex.chunks_exact_mut(TILE_LANES))
                    .zip(c_ey.chunks_exact_mut(TILE_LANES))
                    .zip(a.chunks_exact(TILE_LANES))
                    .zip(wx)
                    .enumerate()
                {
                    for l in 0..TILE_LANES {
                        // The (0,0) mode is dropped (w^2 = 0).
                        if u == 0 && wv2[l] == 0.0 {
                            p[l] = 0.0;
                            ex[l] = 0.0;
                            ey[l] = 0.0;
                            continue;
                        }
                        let s = a[l] / (wu * wu + wv2[l]);
                        p[l] = s;
                        ex[l] = s * wu;
                        ey[l] = s * wv[l];
                    }
                }
                let x = &mut ctx.tile_x;
                x.cosine_with(|u| lanes_at(c_pot, u), |ix, v| put_lanes(d_pot, ix, v));
                x.sine_with(|u| lanes_at(c_ex, u), |ix, v| put_lanes(d_ex, ix, v));
                x.cosine_with(|u| lanes_at(c_ey, u), |ix, v| put_lanes(d_ey, ix, v));
            },
        );
        // Sample `v` of row tile `ix0..`: column tile `v / TILE_LANES`,
        // lane `v % TILE_LANES`, one stride-`TILE_LANES` read per row.
        let column = |buf: &[f64], ix0: usize, rows: usize, v: usize| -> Lanes {
            let base = (v / TILE_LANES) * tile_len + ix0 * TILE_LANES + v % TILE_LANES;
            let mut lanes = [0.0; TILE_LANES];
            for (l, x) in lanes[..rows].iter_mut().enumerate() {
                *x = buf[base + l * TILE_LANES];
            }
            lanes
        };
        let (sb_pot, sb_ex, sb_ey) = (&self.sbuf_pot, &self.sbuf_ex, &self.sbuf_ey);
        par_tiles3(
            &mut self.ctxs,
            self.threads,
            out.potential.as_mut_slice(),
            out.field_x.as_mut_slice(),
            out.field_y.as_mut_slice(),
            TILE_LANES * ny,
            |ctx, t, d_pot, d_ex, d_ey| {
                let (ix0, rows) = (t * TILE_LANES, d_pot.len() / ny);
                let y = &mut ctx.tile_y;
                y.cosine_with(
                    |v| column(sb_pot, ix0, rows, v),
                    |iy, c| put_row_lanes(d_pot, ny, iy, c),
                );
                y.cosine_with(
                    |v| column(sb_ex, ix0, rows, v),
                    |iy, c| put_row_lanes(d_ex, ny, iy, c),
                );
                y.sine_with(
                    |v| column(sb_ey, ix0, rows, v),
                    |iy, c| put_row_lanes(d_ey, ny, iy, c),
                );
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mode_density(nx: usize, ny: usize, u: usize, v: usize, amp: f64) -> Grid2 {
        Grid2::from_fn(nx, ny, |ix, iy| {
            let cx = (std::f64::consts::PI * u as f64 * (ix as f64 + 0.5) / nx as f64).cos();
            let cy = (std::f64::consts::PI * v as f64 * (iy as f64 + 0.5) / ny as f64).cos();
            amp * cx * cy
        })
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(ElectrostaticSolver::new(24, 32).is_err());
        assert!(ElectrostaticSolver::new(32, 0).is_err());
    }

    #[test]
    fn rejects_oversized_grids_without_allocating() {
        for (nx, ny) in [(65536, 65536), (2 * MAX_GRID_SIDE, 8), (8, usize::MAX)] {
            assert!(matches!(
                ElectrostaticSolver::new(nx, ny),
                Err(FftError::GridTooLarge { dims, max: MAX_GRID_SIDE }) if dims == (nx, ny)
            ));
        }
        assert!(ElectrostaticSolver::new(MAX_GRID_SIDE, 1).is_ok());
    }

    #[test]
    fn rejects_mismatched_grid() {
        let mut solver = ElectrostaticSolver::new(8, 8).unwrap();
        let density = Grid2::new(8, 16);
        assert!(matches!(
            solver.solve(&density),
            Err(FftError::GridMismatch { .. })
        ));
    }

    #[test]
    fn constant_density_gives_zero_field() {
        let mut solver = ElectrostaticSolver::new(16, 16).unwrap();
        let mut density = Grid2::new(16, 16);
        density.fill(3.0);
        let sol = solver.solve(&density).unwrap();
        assert!(sol.field_x.max_abs_diff(&Grid2::new(16, 16)) < 1e-9);
        assert!(sol.field_y.max_abs_diff(&Grid2::new(16, 16)) < 1e-9);
        assert!(sol.potential.max_abs_diff(&Grid2::new(16, 16)) < 1e-9);
        assert!(sol.energy.abs() < 1e-9);
    }

    #[test]
    fn single_mode_matches_analytic_solution() {
        let (nx, ny) = (32, 16);
        let (u, v) = (3, 2);
        let amp = 2.5;
        let mut solver = ElectrostaticSolver::new(nx, ny).unwrap();
        let density = mode_density(nx, ny, u, v, amp);
        let sol = solver.solve(&density).unwrap();

        let wu = std::f64::consts::PI * u as f64 / nx as f64;
        let wv = std::f64::consts::PI * v as f64 / ny as f64;
        let w2 = wu * wu + wv * wv;
        for ix in 0..nx {
            for iy in 0..ny {
                let cx = (wu * (ix as f64 + 0.5)).cos();
                let sx = (wu * (ix as f64 + 0.5)).sin();
                let cy = (wv * (iy as f64 + 0.5)).cos();
                let sy = (wv * (iy as f64 + 0.5)).sin();
                let psi = amp * cx * cy / w2;
                let ex = amp * wu * sx * cy / w2;
                let ey = amp * wv * cx * sy / w2;
                assert!(
                    (sol.potential[(ix, iy)] - psi).abs() < 1e-9,
                    "psi at ({ix},{iy})"
                );
                assert!(
                    (sol.field_x[(ix, iy)] - ex).abs() < 1e-9,
                    "ex at ({ix},{iy})"
                );
                assert!(
                    (sol.field_y[(ix, iy)] - ey).abs() < 1e-9,
                    "ey at ({ix},{iy})"
                );
            }
        }
    }

    #[test]
    fn superposition_of_modes() {
        let (nx, ny) = (16, 16);
        let mut solver = ElectrostaticSolver::new(nx, ny).unwrap();
        let mut d1 = mode_density(nx, ny, 1, 0, 1.0);
        let d2 = mode_density(nx, ny, 0, 2, -0.5);
        let s1 = solver.solve(&d1).unwrap();
        let s2 = solver.solve(&d2).unwrap();
        d1.add_assign_grid(&d2);
        let s12 = solver.solve(&d1).unwrap();
        for ix in 0..nx {
            for iy in 0..ny {
                let expect = s1.potential[(ix, iy)] + s2.potential[(ix, iy)];
                assert!((s12.potential[(ix, iy)] - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn point_charge_field_points_outward_and_is_symmetric() {
        let n = 64;
        let mut solver = ElectrostaticSolver::new(n, n).unwrap();
        let mut density = Grid2::new(n, n);
        // 2x2 charge centered exactly at the grid midpoint so mirror symmetry
        // is exact on the half-sample grid.
        density[(31, 31)] = 1.0;
        density[(31, 32)] = 1.0;
        density[(32, 31)] = 1.0;
        density[(32, 32)] = 1.0;
        let sol = solver.solve(&density).unwrap();
        assert!(sol.field_x[(40, 31)] > 0.0);
        assert!(sol.field_x[(20, 31)] < 0.0);
        assert!(sol.field_y[(31, 40)] > 0.0);
        assert!(sol.field_y[(31, 20)] < 0.0);
        // Mirror symmetry about the charge.
        for d in 1..20 {
            let right = sol.field_x[(32 + d, 31)];
            let left = sol.field_x[(31 - d, 31)];
            assert!(
                (right + left).abs() < 1e-9,
                "asymmetry at d={d}: {right} vs {left}"
            );
        }
        assert!(sol.energy > 0.0);
    }

    #[test]
    fn discrete_laplacian_of_potential_approximates_negative_density() {
        // For a smooth (band-limited, low-frequency) density the 5-point
        // Laplacian of psi should be close to -(rho - mean(rho)).
        let n = 64;
        let mut solver = ElectrostaticSolver::new(n, n).unwrap();
        let density = Grid2::from_fn(n, n, |ix, iy| {
            let dx = (ix as f64 - 31.5) / 12.0;
            let dy = (iy as f64 - 31.5) / 12.0;
            (-(dx * dx + dy * dy)).exp()
        });
        let mut centered = density.clone();
        centered.remove_mean();
        let sol = solver.solve(&density).unwrap();
        let mut max_err: f64 = 0.0;
        for ix in 8..n - 8 {
            for iy in 8..n - 8 {
                let lap = sol.potential[(ix + 1, iy)]
                    + sol.potential[(ix - 1, iy)]
                    + sol.potential[(ix, iy + 1)]
                    + sol.potential[(ix, iy - 1)]
                    - 4.0 * sol.potential[(ix, iy)];
                max_err = max_err.max((lap + centered[(ix, iy)]).abs());
            }
        }
        assert!(max_err < 0.02, "laplacian residual too large: {max_err}");
    }

    #[test]
    fn field_is_negative_gradient_of_potential() {
        // Central differences of psi should match -E for smooth input.
        let n = 64;
        let mut solver = ElectrostaticSolver::new(n, n).unwrap();
        let density = Grid2::from_fn(n, n, |ix, iy| {
            ((ix as f64) * 0.11).sin() + ((iy as f64) * 0.07).cos()
        });
        let sol = solver.solve(&density).unwrap();
        let mut max_err: f64 = 0.0;
        for ix in 4..n - 4 {
            for iy in 4..n - 4 {
                let gx = 0.5 * (sol.potential[(ix + 1, iy)] - sol.potential[(ix - 1, iy)]);
                let gy = 0.5 * (sol.potential[(ix, iy + 1)] - sol.potential[(ix, iy - 1)]);
                max_err = max_err.max((gx + sol.field_x[(ix, iy)]).abs());
                max_err = max_err.max((gy + sol.field_y[(ix, iy)]).abs());
            }
        }
        assert!(max_err < 0.05, "field/gradient mismatch: {max_err}");
    }

    #[test]
    fn solve_into_reuses_buffers_and_matches_solve() {
        let n = 16;
        let mut solver = ElectrostaticSolver::new(n, n).unwrap();
        let density = Grid2::from_fn(n, n, |ix, iy| ((ix * 3 + iy) % 7) as f64);
        let fresh = solver.solve(&density).unwrap();
        let mut reused = FieldSolution::new(n, n);
        solver.solve_into(&density, &mut reused).unwrap();
        assert!(fresh.potential.max_abs_diff(&reused.potential) < 1e-12);
        assert!(fresh.field_x.max_abs_diff(&reused.field_x) < 1e-12);
        assert!(fresh.field_y.max_abs_diff(&reused.field_y) < 1e-12);
        assert!((fresh.energy - reused.energy).abs() < 1e-12);
    }

    #[test]
    fn rectangular_grids_are_supported() {
        let mut solver = ElectrostaticSolver::new(64, 16).unwrap();
        let density = Grid2::from_fn(64, 16, |ix, iy| {
            if (20..28).contains(&ix) && (6..10).contains(&iy) {
                1.0
            } else {
                0.0
            }
        });
        let sol = solver.solve(&density).unwrap();
        assert!(sol.field_x[(40, 8)] > 0.0);
        assert!(sol.field_x[(10, 8)] < 0.0);
    }
}
