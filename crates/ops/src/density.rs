//! Density operators: bin accumulation, overflow, electrostatic gradient.
//!
//! The density system follows ePlace (Eq. 5, 7-10 of the paper): movable
//! and fixed cells plus whitespace fillers are charges on an `M x M` bin
//! grid; the Poisson potential's field is the spreading force. The
//! *operator extraction* technique of §3.1.2 is expressed here as two
//! alternative execution paths over the same math:
//!
//! * **extracted** (Xplace): accumulate the movable+fixed map `D` once,
//!   the filler map `D_fl` once, add element-wise for the total map, and
//!   reuse `D` for the overflow ratio;
//! * **direct** (baseline): accumulate the total map in one pass over all
//!   nodes *and* accumulate `D` a second time for the overflow ratio —
//!   the redundant movable-cell pass the paper eliminates.

use std::ops::Range;

use crate::{OpsError, PlacementModel};
use xplace_device::{Device, KernelInfo};
use xplace_fft::{ElectrostaticSolver, FieldSolution, Grid2};
use xplace_parallel::lanes::{first_lanes, LaneKernel, LaneMath, LanePath, Lanes, Mask, LANES};

const SQRT2: f64 = std::f64::consts::SQRT_2;

/// Fixed node-block size for the blocked parallel density accumulation.
///
/// Like `xplace_ops::wirelength::NET_BLOCK`, the block grid depends only on
/// the model's node ranges — never the thread count. Every bin receives one
/// sum per block that touches it, summed over the block's nodes in index
/// order, and the block sums are added into the map in block order, so
/// every bin receives the same additions in the same order for every
/// `threads` value. A pass whose ranges all fit in a single block is one
/// block: it accumulates straight into the map, serially.
pub const NODE_BLOCK: usize = 2048;

/// `2^52`: adding and then subtracting it rounds a value in `[0, 2^52)` to
/// the nearest integer, exactly.
const ROUND: f64 = 4_503_599_627_370_496.0;

/// `v` clamped to `[0, n]`, with NaN mapped to 0 (like a saturating
/// cast), and that value rounded to the nearest integer: `(clamped,
/// rounded)`, both exact.
#[inline(always)]
fn clamp_round<V: LaneMath>(v: V, n: V) -> (V, V) {
    let zero = V::splat(0.0);
    let c = V::select(v.gt(zero), v, zero);
    let c = V::select(c.lt(n), c, n);
    (c, c.add(V::splat(ROUND)).sub(V::splat(ROUND)))
}

/// `min(v.floor().max(0.0) as usize, n)` on every lane, as an exact
/// integer: the first bin a footprint starting at `v` (in bins) overlaps,
/// clipped to a grid side `n`.
#[inline(always)]
fn bin_floor<V: LaneMath>(v: V, n: V) -> V {
    let (c, r) = clamp_round(v, n);
    V::select(r.gt(c), r.sub(V::splat(1.0)), r)
}

/// `min(v.ceil() as usize, n)` on every lane, as an exact integer: one past
/// the last bin a footprint ending at `v` overlaps, clipped to `n`.
#[inline(always)]
fn bin_ceil<V: LaneMath>(v: V, n: V) -> V {
    let (c, r) = clamp_round(v, n);
    V::select(r.lt(c), r.add(V::splat(1.0)), r)
}

/// The loop-invariant inputs of one accumulation pass over a model.
struct Stamp<'a> {
    model: &'a PlacementModel,
    /// End of the movable nodes `0..movable_end`, which are smoothed
    /// (fillers are too).
    movable_end: usize,
    filler_start: usize,
    target: f64,
    region: xplace_db::Rect,
    bin_w: f64,
    bin_h: f64,
    inv_bin_area: f64,
    nx: usize,
    ny: usize,
}

/// The part of a node's stamp that does not depend on the bin: its
/// (smoothed) extent, its charge scale and the bins it may overlap.
#[derive(Debug, Clone, Copy)]
struct Footprint {
    lx: f64,
    ux: f64,
    ly: f64,
    uy: f64,
    scale: f64,
    /// Grid columns `cols[0]..cols[1]`, a non-empty range inside the grid.
    cols: [u32; 2],
    /// Grid rows `rows[0]..rows[1]`, a non-empty range inside the grid.
    rows: [u32; 2],
}

/// Eight nodes' footprints, as computed on lanes by [`Stamp::footprints`].
struct Footprints {
    /// The lanes of the nodes that overlap a bin.
    hit: Mask,
    /// `[lx, ux, ly, uy, scale, bx0, bx1, by0, by1]`, one row per lane, the
    /// bin bounds as exact integers.
    lanes: [Lanes; 9],
}

impl Footprints {
    /// The footprint of lane `l`, a lane of `hit`.
    #[inline(always)]
    fn get(&self, l: usize) -> Footprint {
        let v = &self.lanes;
        // The bin bounds are integers in `0..=grid side`, exact in a `u32`.
        Footprint {
            lx: v[0][l],
            ux: v[1][l],
            ly: v[2][l],
            uy: v[3][l],
            scale: v[4][l],
            cols: [v[5][l] as u32, v[6][l] as u32],
            rows: [v[7][l] as u32, v[8][l] as u32],
        }
    }
}

impl<'a> Stamp<'a> {
    fn new(model: &'a PlacementModel, nx: usize, ny: usize) -> Self {
        let (bin_w, bin_h) = (model.bin_w(), model.bin_h());
        let ranges = model.ranges();
        Stamp {
            model,
            movable_end: ranges.movable.end,
            filler_start: ranges.filler.start,
            target: model.target_density(),
            region: model.region(),
            bin_w,
            bin_h,
            inv_bin_area: 1.0 / (bin_w * bin_h),
            nx,
            ny,
        }
    }

    /// The footprints of nodes `i..i + LANES` (those below `end`) that
    /// overlap a bin of grid columns `cols`, computed on `V` lanes, or
    /// `None` when no node does (see [`Footprints`]).
    ///
    /// ePlace cell smoothing for movable cells and fillers: inflate to at
    /// least sqrt(2) x bin size, scale the charge so area is conserved.
    /// Fixed macros keep their footprint but contribute exactly the target
    /// density (DREAMPlace's convention) — otherwise every macro bin sits
    /// at density 1 > D_t and creates an irreducible overflow floor.
    /// Terminals (zero width or height) overlap nothing.
    #[inline(always)]
    fn footprints<V: LaneMath>(
        &self,
        i: usize,
        end: usize,
        cols: &Range<usize>,
    ) -> Option<Footprints> {
        let m = self.model;
        let (zero, half) = (V::splat(0.0), V::splat(0.5));
        let live = first_lanes(end - i);
        let smooth = first_lanes(self.movable_end.saturating_sub(i))
            | !first_lanes(self.filler_start.saturating_sub(i));
        // The x extent first: a stripe skips the rest for nodes outside
        // its columns. No closure here: a closure would not inherit the
        // AVX-512 feature.
        let x = V::load_masked(&m.x[i..], live);
        let w = V::load_masked(&m.w[i..], live);
        let we = V::select(smooth, w.max(V::splat(SQRT2 * self.bin_w)), w);
        let (lx, ux) = (x.sub(we.mul(half)), x.add(we.mul(half)));
        let (left, bin_w, nx) = (
            V::splat(self.region.lx),
            V::splat(self.bin_w),
            V::splat(self.nx as f64),
        );
        let bx0 = bin_floor(lx.sub(left).div(bin_w), nx);
        let bx1 = bin_ceil(ux.sub(left).div(bin_w), nx);
        let (first, last) = (V::splat(cols.start as f64), V::splat(cols.end as f64));
        let mine = live & !w.le(zero) & bx0.lt(bx1) & bx0.lt(last) & bx1.gt(first);
        if mine == 0 {
            return None;
        }
        let y = V::load_masked(&m.y[i..], live);
        let h = V::load_masked(&m.h[i..], live);
        let he = V::select(smooth, h.max(V::splat(SQRT2 * self.bin_h)), h);
        let scale = V::select(smooth, w.mul(h).div(we.mul(he)), V::splat(self.target));
        let (ly, uy) = (y.sub(he.mul(half)), y.add(he.mul(half)));
        let (bottom, bin_h, ny) = (
            V::splat(self.region.ly),
            V::splat(self.bin_h),
            V::splat(self.ny as f64),
        );
        let by0 = bin_floor(ly.sub(bottom).div(bin_h), ny);
        let by1 = bin_ceil(uy.sub(bottom).div(bin_h), ny);
        let hit = mine & !h.le(zero) & by0.lt(by1);
        if hit == 0 {
            return None;
        }
        let mut lanes = [[0.0; LANES]; 9];
        for (out, v) in lanes
            .iter_mut()
            .zip([lx, ux, ly, uy, scale, bx0, bx1, by0, by1])
        {
            v.store(out);
        }
        Some(Footprints { hit, lanes })
    }

    /// Adds footprint `f`'s charge to columns `cols` of `dst`, the samples
    /// of the grid columns from `base` on (`bin = (bx - base) * ny + by`).
    ///
    /// The node's rows go eight at a time on `V` lanes: their overlaps `oy`
    /// are computed once, then every column, whose overlap `ox` is a scalar,
    /// takes one masked read-modify-write, each lane adding
    /// `((ox * oy) * scale) * inv_bin_area` to its bin, in the scalar order
    /// and only where `oy > 0`. Every bin the node overlaps thus receives
    /// exactly the scalar value.
    #[inline(always)]
    fn stamp<V: LaneMath>(&self, f: &Footprint, cols: Range<usize>, base: usize, dst: &mut [f64]) {
        let (bin_w, region, ny) = (self.bin_w, self.region, self.ny);
        let (rows, scale) = (f.rows[0] as usize..f.rows[1] as usize, V::splat(f.scale));
        let (inv_area, zero) = (V::splat(self.inv_bin_area), V::splat(0.0));
        let (uy, ly, bin_h) = (V::splat(f.uy), V::splat(f.ly), V::splat(self.bin_h));
        let iota = V::load(&std::array::from_fn(|l| l as f64));
        for by in rows.clone().step_by(LANES) {
            // Row indices are below the grid side, so `by + l` is exact.
            let b_ly = V::splat(region.ly).add(V::splat(by as f64).add(iota).mul(bin_h));
            let oy = uy.min(b_ly.add(bin_h)).sub(ly.max(b_ly)).max(zero);
            let live = first_lanes(rows.end - by) & oy.gt(zero);
            for bx in cols.clone() {
                let b_lx = region.lx + bx as f64 * bin_w;
                let ox = (f.ux.min(b_lx + bin_w) - f.lx.max(b_lx)).max(0.0);
                if ox == 0.0 {
                    continue;
                }
                let value = V::splat(ox).mul(oy).mul(scale).mul(inv_area);
                let bins = &mut dst[(bx - base) * ny + by..];
                V::load_masked(bins, live)
                    .add(value)
                    .store_masked(bins, live);
            }
        }
    }
}

/// The rectangle of stripe bins one block may have touched: columns
/// `cols[0]..cols[1]` (stripe-relative) by rows `rows[0]..rows[1]`.
#[derive(Debug, Clone, Copy)]
struct Touched {
    cols: [usize; 2],
    rows: [usize; 2],
}

impl Touched {
    const NONE: Touched = Touched {
        cols: [usize::MAX, 0],
        rows: [usize::MAX, 0],
    };

    fn extend(&mut self, cols: [usize; 2], rows: [u32; 2]) {
        self.cols = [self.cols[0].min(cols[0]), self.cols[1].max(cols[1])];
        self.rows = [
            self.rows[0].min(rows[0] as usize),
            self.rows[1].max(rows[1] as usize),
        ];
    }
}

/// One bin stripe of an accumulation pass, as a [`LaneKernel`]: the grid
/// columns `cols`, whose samples are `map`, accumulated over every block
/// in order.
///
/// A block's nodes are summed into `scratch` (the stripe's size, all
/// `+0.0` between blocks) over the columns of the stripe, and the block
/// sums are then added into `map` over the rectangle the block touched,
/// re-zeroing it. Until a block touches the stripe, `map` is all `+0.0`,
/// so that block stamps straight into `map`: `+0.0 + s` is `s`, since a
/// sum started from `+0.0` is never `-0.0`. An untouched bin inside the
/// rectangle adds `+0.0` to a bin that is not `-0.0`, which changes no bit.
struct Stripe<'a> {
    stamp: &'a Stamp<'a>,
    blocks: &'a [Range<usize>],
    cols: Range<usize>,
    map: &'a mut [f64],
    scratch: &'a mut [f64],
}

impl LaneKernel for &mut Stripe<'_> {
    type Output = ();

    #[inline(always)]
    fn run<V: LaneMath>(self) {
        let Stripe {
            stamp,
            blocks,
            cols,
            map,
            scratch,
        } = self;
        let cols = cols.clone();
        let ny = stamp.ny;
        let mut direct = true;
        for block in blocks.iter() {
            let dst = if direct { &mut *map } else { &mut *scratch };
            let mut touched = Touched::NONE;
            for i in block.clone().step_by(LANES) {
                let Some(lanes) = stamp.footprints::<V>(i, block.end, &cols) else {
                    continue;
                };
                let mut hit = lanes.hit;
                while hit != 0 {
                    let f = lanes.get(hit.trailing_zeros() as usize);
                    hit &= hit - 1;
                    let mine =
                        (f.cols[0] as usize).max(cols.start)..(f.cols[1] as usize).min(cols.end);
                    stamp.stamp::<V>(&f, mine.clone(), cols.start, dst);
                    touched.extend([mine.start - cols.start, mine.end - cols.start], f.rows);
                }
            }
            let Touched {
                cols: [c0, c1],
                rows: [r0, r1],
            } = touched;
            if c0 >= c1 {
                continue;
            }
            if !direct {
                for c in c0..c1 {
                    let at = c * ny + r0..c * ny + r1;
                    for (m, s) in map[at.clone()].iter_mut().zip(&mut scratch[at]) {
                        *m += *s;
                        *s = 0.0;
                    }
                }
            }
            direct = false;
        }
    }
}

/// One scratch per stripe of the striped accumulation, the stripe's size
/// and all `+0.0` between blocks, grown on first use and kept across calls
/// so a launch allocates no grid.
#[derive(Debug, Default)]
struct BlockWorkspace {
    scratch: Vec<Vec<f64>>,
}

impl BlockWorkspace {
    /// Accumulates `blocks` into `cells`, the map's samples, which must be
    /// all `+0.0`.
    ///
    /// Each of at most `threads` tasks owns a contiguous stripe of grid
    /// columns and runs every block over it ([`Stripe`]), computing the
    /// footprints eight nodes at a time on lanes and stamping those that
    /// overlap its columns. A single block keeps one stripe and launches
    /// nothing (its stamps go straight into the map).
    fn accumulate(
        &mut self,
        stamp: &Stamp,
        lanes: LanePath,
        blocks: &[Range<usize>],
        threads: usize,
        cells: &mut [f64],
    ) {
        let (nx, ny) = (stamp.nx, stamp.ny);
        let stripes = if blocks.len() > 1 {
            threads.min(nx).max(1)
        } else {
            1
        };
        if blocks.len() > 1 && self.scratch.len() < stripes {
            self.scratch.resize_with(stripes, Vec::new);
        }
        let mut states = Vec::with_capacity(stripes);
        let mut rest = cells;
        let mut scratch = self.scratch.iter_mut();
        for s in 0..stripes {
            let cols = s * nx / stripes..(s + 1) * nx / stripes;
            let (map, tail) = rest.split_at_mut(cols.len() * ny);
            rest = tail;
            let scratch = match scratch.next() {
                Some(v) => {
                    // The values a scratch holds already are `+0.0`.
                    if v.len() < map.len() {
                        v.resize(map.len(), 0.0);
                    }
                    &mut v[..map.len()]
                }
                None => &mut [][..],
            };
            states.push(Stripe {
                stamp,
                blocks,
                cols,
                map,
                scratch,
            });
        }
        // One stripe runs inline on the calling thread.
        xplace_parallel::global().run_mut(&mut states, stripes, |_, stripe| lanes.dispatch(stripe));
    }
}

/// Stateful density operator owning the bin grids, the spectral solver and
/// the cached field solution.
#[derive(Debug)]
pub struct DensityOp {
    solver: ElectrostaticSolver,
    solution: FieldSolution,
    /// Movable + fixed cell density `D` (Eq. 8), used by the overflow
    /// ratio and, under extraction, reused for the total map.
    pub movable_map: Grid2,
    /// Filler density `D_fl`.
    pub filler_map: Grid2,
    /// Total density `D~ = D + D_fl` (Eq. 10), input to the field solve.
    pub total_map: Grid2,
    nx: usize,
    ny: usize,
    /// CPU launch width for the accumulation kernel bodies and the
    /// spectral solve (1 = serial; results are identical for every count
    /// because the work decomposition is thread-count independent).
    threads: usize,
    /// Node-block size of the blocked decomposition (normally
    /// [`NODE_BLOCK`]; overridable for tests/benches).
    node_block: usize,
    /// Stripe scratch of the blocked path.
    blocked: BlockWorkspace,
    /// The lane arithmetic of the stamp.
    lanes: LanePath,
}

/// Which node classes an accumulation pass covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Subset {
    MovableAndFixed,
    Fillers,
    All,
}

impl DensityOp {
    /// Creates the operator for a model's grid.
    ///
    /// # Errors
    ///
    /// Returns [`OpsError::Spectral`] if the model's grid dimensions are
    /// not supported by the spectral solver.
    pub fn new(model: &PlacementModel) -> Result<Self, OpsError> {
        let (nx, ny) = model.grid_dims();
        Ok(DensityOp {
            solver: ElectrostaticSolver::new(nx, ny)?,
            solution: FieldSolution::new(nx, ny),
            movable_map: Grid2::new(nx, ny),
            filler_map: Grid2::new(nx, ny),
            total_map: Grid2::new(nx, ny),
            nx,
            ny,
            threads: 1,
            node_block: NODE_BLOCK,
            blocked: BlockWorkspace::default(),
            lanes: LanePath::detect(),
        })
    }

    /// Sets the CPU launch width for the accumulation kernel bodies and
    /// the spectral solver (clamped to at least 1). The thread count only
    /// changes scheduling: the blocked decomposition is fixed by the model,
    /// so results are bit-identical for every value.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
        self.solver.set_threads(self.threads);
    }

    /// Overrides the node-block size of the blocked decomposition (clamped
    /// to at least 1). Intended for tests and benchmarks that need to force
    /// multi-block decompositions on small designs; changing the block size
    /// changes the (deterministic) summation order.
    pub fn set_node_block(&mut self, node_block: usize) {
        self.node_block = node_block.max(1);
    }

    /// Grid dimensions `(nx, ny)`.
    pub fn grid_dims(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// The cached field solution of the last [`DensityOp::solve_field`].
    pub fn field(&self) -> &FieldSolution {
        &self.solution
    }

    /// Restores the cached field solution from checkpointed data — the
    /// write-side counterpart of [`DensityOp::field`], used when a GP run
    /// resumes inside a skip window and must serve gradients from the
    /// same cached field the interrupted run held.
    ///
    /// # Errors
    ///
    /// Returns [`OpsError::InvalidModel`] if the slice lengths do not
    /// match this operator's grid.
    pub fn restore_field(&mut self, field_x: &[f64], field_y: &[f64]) -> Result<(), OpsError> {
        let want = self.nx * self.ny;
        if field_x.len() != want || field_y.len() != want {
            return Err(OpsError::InvalidModel(format!(
                "field snapshot has {}x{} entries, grid is {}x{}",
                field_x.len(),
                field_y.len(),
                self.nx,
                self.ny
            )));
        }
        self.solution
            .field_x
            .as_mut_slice()
            .copy_from_slice(field_x);
        self.solution
            .field_y
            .as_mut_slice()
            .copy_from_slice(field_y);
        Ok(())
    }

    fn accumulate(&mut self, model: &PlacementModel, subset: Subset) {
        let map = match subset {
            Subset::MovableAndFixed => &mut self.movable_map,
            Subset::Fillers => &mut self.filler_map,
            Subset::All => &mut self.total_map,
        };
        map.fill_zero();
        let cells = map.as_mut_slice();
        let stamp = Stamp::new(model, self.nx, self.ny);
        let ranges = model.ranges();
        let node_range = match subset {
            Subset::MovableAndFixed => vec![ranges.movable, ranges.fixed],
            Subset::Fillers => vec![ranges.filler],
            Subset::All => vec![ranges.movable, ranges.fixed, ranges.filler],
        };
        // Chop every range into fixed node_block-sized blocks (empty ranges
        // contribute none). A pass that fits one block is one block: its
        // ranges are adjacent (movable, fixed, fillers). The block grid is
        // independent of `threads`, so the summation order — and the
        // result — is bit-identical for any width.
        let node_block = self.node_block;
        let blocks: Vec<Range<usize>> = if node_range.iter().all(|r| r.len() <= node_block) {
            let pass = node_range[0].start..node_range[node_range.len() - 1].end;
            vec![pass]
        } else {
            node_range
                .into_iter()
                .flat_map(|r| {
                    let end = r.end;
                    r.step_by(node_block)
                        .map(move |lo| lo..(lo + node_block).min(end))
                })
                .collect()
        };
        self.blocked
            .accumulate(&stamp, self.lanes, &blocks, self.threads, cells);
    }

    fn accumulation_kernel(name: &'static str, nodes: usize) -> KernelInfo {
        // Each node reads position+size (~32 B) and, with sqrt(2)-bin
        // smoothing, read-modify-writes at least a 3x3 patch of bins
        // (~9 * 16 B of scattered atomics, the dominant traffic).
        KernelInfo::new(name)
            .bytes(nodes as u64 * 176)
            .flops(nodes as u64 * 100)
    }

    /// Accumulates the movable+fixed density map `D` (one kernel).
    pub fn accumulate_movable(&mut self, device: &Device, model: &PlacementModel) {
        let n = model.num_movable() + model.num_fixed();
        let kernel = Self::accumulation_kernel("density_map_movable", n);
        device.launch(kernel, || self.accumulate(model, Subset::MovableAndFixed));
    }

    /// Accumulates the filler density map `D_fl` (one kernel).
    pub fn accumulate_fillers(&mut self, device: &Device, model: &PlacementModel) {
        let kernel = Self::accumulation_kernel("density_map_fillers", model.num_fillers());
        device.launch(kernel, || self.accumulate(model, Subset::Fillers));
    }

    /// Element-wise add `D + D_fl` into the total map (one cheap kernel) —
    /// the extraction path of §3.1.2.
    pub fn combine_total(&mut self, device: &Device) {
        let bins = (self.nx * self.ny) as u64;
        let kernel = KernelInfo::new("density_combine")
            .bytes(bins * 24)
            .flops(bins);
        device.launch(kernel, || {
            let total = self.total_map.as_mut_slice();
            let parts = self
                .movable_map
                .as_slice()
                .iter()
                .zip(self.filler_map.as_slice());
            for (t, (m, f)) in total.iter_mut().zip(parts) {
                *t = m + f;
            }
        });
    }

    /// Accumulates the total map directly over every node (one heavy
    /// kernel) — the non-extracted baseline path, which then still needs a
    /// separate [`DensityOp::accumulate_movable`] for the overflow ratio.
    pub fn accumulate_all(&mut self, device: &Device, model: &PlacementModel) {
        let kernel = Self::accumulation_kernel("density_map_all", model.num_nodes());
        device.launch(kernel, || self.accumulate(model, Subset::All));
    }

    /// The overflow ratio OVFL (Eq. 7) over the movable+fixed map.
    ///
    /// The scalar is consumed on the host for parameter scheduling, so the
    /// caller is expected to [`Device::synchronize`] afterwards.
    pub fn overflow(&self, device: &Device, model: &PlacementModel) -> f64 {
        let bins = (self.nx * self.ny) as u64;
        let kernel = KernelInfo::new("overflow").bytes(bins * 8).flops(bins * 3);
        device.launch(kernel, || {
            let bin_area = model.bin_w() * model.bin_h();
            let target = model.target_density();
            let over: f64 = self
                .movable_map
                .as_slice()
                .iter()
                .map(|&d| (d - target).max(0.0) * bin_area)
                .sum();
            over / model.movable_area()
        })
    }

    /// The two spectral kernel descriptors for one Poisson solve on an
    /// `nx x ny` grid: the packed-real analysis pass and the fused
    /// scale-plus-synthesis pass.
    ///
    /// With the real-FFT engine the analysis reads/writes one real grid
    /// (`m * 8 * 2` bytes, `5 m log m` flops — half the traffic of the old
    /// complex path). The CPU synthesis body streams the shared spectrum
    /// into the two field grids `Ex`/`Ey` only, but its descriptor
    /// deliberately still charges the paper's `irfft2` trio (potential and
    /// both fields: `m * 8 * 4` bytes, `15 m log m` flops), so modeled ns
    /// stays comparable with the gated baseline. Exposed so the spectral
    /// microbench charges exactly the kernels the GP loop launches.
    pub fn spectral_kernels(nx: usize, ny: usize) -> [KernelInfo; 2] {
        let m = (nx * ny) as u64;
        let logm = (usize::BITS - nx.leading_zeros()) as u64;
        [
            KernelInfo::new("electro_rfft2")
                .bytes(m * 8 * 2)
                .flops(m * 5 * logm),
            KernelInfo::new("electro_irfft2_fields")
                .bytes(m * 8 * 4)
                .flops(m * 15 * logm),
        ]
    }

    /// Solves the electrostatic system on the total map, caching the
    /// `Ex`/`Ey` field maps (two kernels: the packed-real forward analysis
    /// and the fused scale+synthesis pass, matching the `rfft2`/`irfft2`
    /// pair the paper uses).
    ///
    /// # Errors
    ///
    /// Returns [`OpsError::Spectral`] on grid mismatch (an internal
    /// invariant violation).
    pub fn solve_field(&mut self, device: &Device) -> Result<(), OpsError> {
        let [analysis, fields] = Self::spectral_kernels(self.nx, self.ny);
        let solver = &mut self.solver;
        let solution = &mut self.solution;
        let total = &self.total_map;
        let mut result = Ok(());
        device.launch(analysis, || {
            // Analysis + field synthesis happen inside the solver; charge
            // the fused synthesis separately below.
        });
        device.launch(fields, || {
            result = solver.solve_into(total, solution).map_err(OpsError::from);
        });
        result
    }

    /// Blends externally predicted field maps into the cached solution
    /// (Eq. 14 of the paper): `E <- (1 - sigma) E + sigma E_pred`, one
    /// element-wise kernel. Used by the neural-guidance extension.
    ///
    /// # Panics
    ///
    /// Panics if the predicted grids do not match the solver grid.
    pub fn blend_field(
        &mut self,
        device: &Device,
        pred_x: &xplace_fft::Grid2,
        pred_y: &xplace_fft::Grid2,
        sigma: f64,
    ) {
        assert_eq!(
            pred_x.dims(),
            (self.nx, self.ny),
            "predicted field grid mismatch"
        );
        assert_eq!(
            pred_y.dims(),
            (self.nx, self.ny),
            "predicted field grid mismatch"
        );
        let bins = (self.nx * self.ny) as u64;
        let kernel = KernelInfo::new("field_blend")
            .bytes(bins * 32)
            .flops(bins * 4);
        device.launch(kernel, || {
            let keep = 1.0 - sigma;
            for (dst, src) in self
                .solution
                .field_x
                .as_mut_slice()
                .iter_mut()
                .zip(pred_x.as_slice())
            {
                *dst = keep * *dst + sigma * *src;
            }
            for (dst, src) in self
                .solution
                .field_y
                .as_mut_slice()
                .iter_mut()
                .zip(pred_y.as_slice())
            {
                *dst = keep * *dst + sigma * *src;
            }
        });
    }

    /// Accumulates the density gradient `lambda * dD/dx_i = -lambda q_i E(b_i)`
    /// into `grad_x`/`grad_y` for movable cells **and** fillers (one
    /// kernel). `q_i` is the node area; the field is sampled at the node
    /// center's bin and converted from bin units to database units.
    ///
    /// # Panics
    ///
    /// Panics if the gradient slices are shorter than the node count.
    pub fn accumulate_gradient(
        &self,
        device: &Device,
        model: &PlacementModel,
        lambda: f64,
        grad_x: &mut [f64],
        grad_y: &mut [f64],
    ) {
        self.accumulate_gradient_l1(device, model, lambda, grad_x, grad_y);
    }

    /// [`DensityOp::accumulate_gradient`] that also returns
    /// [`DensityOp::gradient_l1_norm`], formed from the same field samples
    /// inside the one launch: same products, same movable-order sum, same
    /// bits as the host norm.
    ///
    /// # Panics
    ///
    /// Panics if the gradient slices are shorter than the node count.
    pub fn accumulate_gradient_l1(
        &self,
        device: &Device,
        model: &PlacementModel,
        lambda: f64,
        grad_x: &mut [f64],
        grad_y: &mut [f64],
    ) -> f64 {
        assert!(grad_x.len() >= model.num_nodes() && grad_y.len() >= model.num_nodes());
        let n = (model.num_movable() + model.num_fillers()) as u64;
        let kernel = KernelInfo::new("density_gradient")
            .bytes(n * 48)
            .flops(n * 8);
        device.launch(kernel, || {
            let (inv_bw, inv_bh) = (1.0 / model.bin_w(), 1.0 / model.bin_h());
            let nm = model.num_movable();
            let mut total = 0.0;
            for i in model.optimizable_indices() {
                let (ex, ey) = self.field_at(model, i, (inv_bw, inv_bh));
                let q = model.node_area(i);
                if i < nm {
                    total += (q * ex * inv_bw).abs() + (q * ey * inv_bh).abs();
                }
                grad_x[i] -= lambda * q * ex * inv_bw;
                grad_y[i] -= lambda * q * ey * inv_bh;
            }
            total
        })
    }

    /// Norm helpers: the summed absolute density-gradient magnitude over
    /// movable nodes for the last field solve, used for λ initialization
    /// and the operator-skipping ratio `r` (§3.1.4).
    pub fn gradient_l1_norm(&self, model: &PlacementModel) -> f64 {
        let (inv_bw, inv_bh) = (1.0 / model.bin_w(), 1.0 / model.bin_h());
        let mut total = 0.0;
        for i in 0..model.num_movable() {
            let (ex, ey) = self.field_at(model, i, (inv_bw, inv_bh));
            let q = model.node_area(i);
            total += (q * ex * inv_bw).abs() + (q * ey * inv_bh).abs();
        }
        total
    }

    /// The field `(E_x, E_y)` of the bin holding node `i`'s center, given
    /// the inverse bin sizes.
    #[inline]
    fn field_at(
        &self,
        model: &PlacementModel,
        i: usize,
        (inv_bw, inv_bh): (f64, f64),
    ) -> (f64, f64) {
        let region = model.region();
        let bx = (((model.x[i] - region.lx) * inv_bw) as usize).min(self.nx - 1);
        let by = (((model.y[i] - region.ly) * inv_bh) as usize).min(self.ny - 1);
        (
            self.solution.field_x[(bx, by)],
            self.solution.field_y[(bx, by)],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xplace_db::synthesis::{synthesize, SynthesisSpec};
    use xplace_device::DeviceConfig;

    fn setup() -> (PlacementModel, DensityOp, Device) {
        let design = synthesize(
            &SynthesisSpec::new("d", 500, 520)
                .with_seed(21)
                .with_macro_count(2),
        )
        .unwrap();
        let model = PlacementModel::from_design(&design).unwrap();
        let op = DensityOp::new(&model).unwrap();
        (model, op, Device::new(DeviceConfig::instant()))
    }

    fn spread(model: &mut PlacementModel) {
        let r = model.region();
        let ranges = model.ranges();
        for i in ranges.movable.chain(ranges.filler) {
            model.x[i] = r.lx + ((i as f64) * 0.7548).fract() * r.width();
            model.y[i] = r.ly + ((i as f64) * 0.5698).fract() * r.height();
        }
        model.clamp_to_region();
    }

    /// Inputs where the libm expressions and the bin bounds could part:
    /// signed zeros, halves, exact integers, the edges of `f64` integer
    /// precision and of `usize`, huge, infinite, NaN and subnormal values.
    fn index_probes() -> Vec<f64> {
        let two53 = 2f64.powi(53);
        let two64 = 2f64.powi(64);
        let mut probes = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.0,
            -1.0,
            3.0,
            2.5,
            0.999_999_999_999_999_9,
            two53,
            two53 - 1.0,
            two53 + 2.0,
            two64,
            two64 - 2048.0,
            1e300,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE / 8.0,
            5e-324,
        ];
        let negated: Vec<f64> = probes.iter().map(|v| -v).collect();
        probes.extend(negated);
        probes
    }

    /// `bin_floor` and `bin_ceil` of every probe on `path`, against a
    /// grid side `n`.
    struct BinBounds<'a> {
        probes: &'a [f64],
        n: f64,
    }

    impl LaneKernel for BinBounds<'_> {
        type Output = Vec<(f64, f64)>;
        #[inline(always)]
        fn run<V: LaneMath>(self) -> Vec<(f64, f64)> {
            let mut out = Vec::new();
            for chunk in self.probes.chunks(LANES) {
                let v = V::load_masked(chunk, first_lanes(chunk.len()));
                let (mut lo, mut hi) = ([0.0; LANES], [0.0; LANES]);
                bin_floor(v, V::splat(self.n)).store(&mut lo);
                bin_ceil(v, V::splat(self.n)).store(&mut hi);
                out.extend(lo.into_iter().zip(hi).take(chunk.len()));
            }
            out
        }
    }

    #[test]
    fn bin_bounds_match_libm_floor_and_ceil() {
        let probes = index_probes();
        for n in [1usize, 16, 256, 65_536] {
            for path in [LanePath::scalar(), LanePath::detect()] {
                let got = path.dispatch(BinBounds {
                    probes: &probes,
                    n: n as f64,
                });
                for (&v, (lo, hi)) in probes.iter().zip(got) {
                    let floor = (v.floor().max(0.0) as usize).min(n);
                    assert_eq!(
                        lo.to_bits(),
                        (floor as f64).to_bits(),
                        "floor v = {v:e} n = {n}"
                    );
                    let ceil = (v.ceil() as usize).min(n);
                    assert_eq!(
                        hi.to_bits(),
                        (ceil as f64).to_bits(),
                        "ceil v = {v:e} n = {n}"
                    );
                }
            }
        }
    }

    /// The scalar lane instantiation of the map (the fallback without
    /// AVX-512F) returns the bits of the detected one, for every pass,
    /// block size and width, on a model with coincident, signed-zero, NaN
    /// and ±inf positions, a NaN-width cell and a macro taller than eight
    /// bins. On a CPU without AVX-512F both sides run scalar lanes.
    #[test]
    fn scalar_lanes_match_detected_lanes_bitwise() {
        let (mut model, _, device) = setup();
        spread(&mut model);
        let r = model.region();
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let positions = [
            (1.0, 1.0),
            (1.0, 1.0),
            (-0.0, -0.0),
            (0.0, -0.0),
            (nan, 2.0),
            (2.0, -inf),
        ];
        for (i, (x, y)) in positions.into_iter().enumerate() {
            (model.x[i], model.y[i]) = (x, y);
        }
        let filler = model.ranges().filler.start;
        (model.x[filler], model.y[filler], model.w[10]) = (inf, nan, nan);
        let fixed = model.ranges().fixed;
        let tall = fixed.clone().find(|&i| model.w[i] > 0.0).expect("a macro");
        (model.h[tall], model.y[tall]) = (12.5 * model.bin_h(), r.ly + 0.5 * r.height());
        for node_block in [7, 64, NODE_BLOCK] {
            for threads in 1..=3 {
                let maps = [LanePath::scalar(), LanePath::detect()].map(|lanes| {
                    let mut op = DensityOp::new(&model).unwrap();
                    (op.lanes, op.node_block, op.threads) = (lanes, node_block, threads);
                    op.accumulate_movable(&device, &model);
                    op.accumulate_fillers(&device, &model);
                    op.accumulate_all(&device, &model);
                    [op.movable_map, op.filler_map, op.total_map]
                });
                for (want, got) in maps[0].iter().zip(&maps[1]) {
                    for (k, (w, g)) in want.as_slice().iter().zip(got.as_slice()).enumerate() {
                        assert!(
                            w.to_bits() == g.to_bits() || (w.is_nan() && g.is_nan()),
                            "node_block {node_block} threads {threads} bin {k}: {w} vs {g}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn density_map_conserves_movable_area() {
        let (mut model, mut op, device) = setup();
        spread(&mut model);
        op.accumulate_movable(&device, &model);
        let bin_area = model.bin_w() * model.bin_h();
        let mapped: f64 = op.movable_map.sum() * bin_area;
        let mut actual = model.movable_area();
        let region = model.region();
        for i in model.ranges().fixed {
            let r = xplace_db::Rect::from_center(
                xplace_db::Point::new(model.x[i], model.y[i]),
                model.w[i],
                model.h[i],
            );
            // Fixed cells contribute at the target density.
            actual += r.overlap_area(&region) * model.target_density();
        }
        assert!(
            (mapped - actual).abs() < actual * 0.01,
            "mapped {mapped} vs actual {actual}"
        );
    }

    #[test]
    fn extraction_path_equals_direct_path() {
        let (mut model, mut op, device) = setup();
        spread(&mut model);
        // Extracted: D, D_fl, add.
        op.accumulate_movable(&device, &model);
        op.accumulate_fillers(&device, &model);
        op.combine_total(&device);
        let extracted = op.total_map.clone();
        // Direct: single pass over all nodes.
        op.accumulate_all(&device, &model);
        assert!(op.total_map.max_abs_diff(&extracted) < 1e-9);
    }

    #[test]
    fn overflow_is_high_when_clustered_low_when_spread() {
        let (mut model, mut op, device) = setup();
        // Clustered at center (initial synthetic state).
        op.accumulate_movable(&device, &model);
        let clustered = op.overflow(&device, &model);
        spread(&mut model);
        op.accumulate_movable(&device, &model);
        let spread_ovfl = op.overflow(&device, &model);
        assert!(clustered > 0.5, "clustered overflow {clustered}");
        assert!(
            spread_ovfl < clustered * 0.5,
            "spread {spread_ovfl} vs {clustered}"
        );
    }

    #[test]
    fn gradient_pushes_cells_away_from_cluster() {
        let (mut model, mut op, device) = setup();
        // Most movable cells sit at the center; displace a few probes to
        // known off-center positions. The density gradient must point
        // outward (a negative-gradient step moves a right-of-center probe
        // further right).
        let c = model.region().center();
        let w = model.region().width();
        for (k, i) in (0..8usize).enumerate() {
            model.x[i] = c.x + (k as f64 - 3.5) * w * 0.1;
        }
        op.accumulate_movable(&device, &model);
        op.accumulate_fillers(&device, &model);
        op.combine_total(&device);
        op.solve_field(&device).unwrap();
        let n = model.num_nodes();
        let (mut gx, mut gy) = (vec![0.0; n], vec![0.0; n]);
        op.accumulate_gradient(&device, &model, 1.0, &mut gx, &mut gy);
        let c = model.region().center();
        let mut checked = 0;
        let nm = model.num_movable();
        for (i, (&x, &g)) in model.x[..nm].iter().zip(&gx).enumerate() {
            let dx = x - c.x;
            if dx.abs() > model.bin_w() {
                // -grad points outward: grad_x must have the opposite sign
                // of the displacement... i.e. moving along -grad increases |dx|.
                assert!(g * dx <= 1e-12, "cell {i}: dx={dx}, gx={g}");
                checked += 1;
            }
        }
        assert!(checked > 0, "no off-center cells to check");
    }

    /// The discrete field energy `sum(Ex^2 + Ey^2)` over the bins.
    fn field_energy(op: &DensityOp) -> f64 {
        let field = op.field();
        let sq = |g: &Grid2| g.as_slice().iter().map(|e| e * e).sum::<f64>();
        sq(&field.field_x) + sq(&field.field_y)
    }

    #[test]
    fn field_energy_decreases_as_cells_spread() {
        let (mut model, mut op, device) = setup();
        op.accumulate_all(&device, &model);
        op.solve_field(&device).unwrap();
        let clustered = field_energy(&op);
        spread(&mut model);
        op.accumulate_all(&device, &model);
        op.solve_field(&device).unwrap();
        let spread_e = field_energy(&op);
        assert!(spread_e < clustered, "{spread_e} vs {clustered}");
    }

    #[test]
    fn terminals_contribute_no_density() {
        let (model, mut op, device) = setup();
        op.accumulate_movable(&device, &model);
        let with_terms = op.movable_map.sum();
        // Terminals have zero area; the sum is unaffected by their
        // presence (they are skipped). Sanity: the map is finite and
        // non-negative.
        assert!(with_terms.is_finite());
        assert!(op.movable_map.min() >= 0.0);
    }

    #[test]
    fn launch_accounting_distinguishes_paths() {
        let (mut model, mut op, device) = setup();
        spread(&mut model);
        let (_, extracted) = device.scoped(|| {
            op.accumulate_movable(&device, &model);
            op.accumulate_fillers(&device, &model);
            op.combine_total(&device);
        });
        let (_, direct) = device.scoped(|| {
            op.accumulate_all(&device, &model);
            op.accumulate_movable(&device, &model);
        });
        assert_eq!(extracted.launches, 3);
        assert_eq!(direct.launches, 2);
        // The direct path touches more node data overall (movable pass
        // happens twice), so its modeled execution is at least as large.
        let d = Device::new(DeviceConfig::rtx3090());
        let (_, e2) = d.scoped(|| {
            op.accumulate_movable(&d, &model);
            op.accumulate_fillers(&d, &model);
            op.combine_total(&d);
        });
        let (_, d2) = d.scoped(|| {
            op.accumulate_all(&d, &model);
            op.accumulate_movable(&d, &model);
        });
        assert!(
            d2.exec_ns >= e2.exec_ns,
            "direct {} vs extracted {}",
            d2.exec_ns,
            e2.exec_ns
        );
    }

    #[test]
    fn gradient_l1_norm_positive_when_clustered() {
        let (model, mut op, device) = setup();
        op.accumulate_all(&device, &model);
        op.solve_field(&device).unwrap();
        let host = op.gradient_l1_norm(&model);
        assert!(host > 0.0);
        // The norm formed inside the gradient launch has the host norm's
        // bits, and the gradient is the per-node `λ·q·E·(1/b)` it was
        // before the norm moved into the launch.
        let (lambda, inv_b) = (3.5, (1.0 / model.bin_w(), 1.0 / model.bin_h()));
        let n = model.num_nodes();
        let init: Vec<f64> = (0..n).map(|i| (i % 11) as f64 * 0.25 - 1.0).collect();
        let (mut want_x, mut want_y) = (init.clone(), init.clone());
        for i in model.optimizable_indices() {
            let (ex, ey) = op.field_at(&model, i, inv_b);
            let q = model.node_area(i);
            want_x[i] -= lambda * q * ex * inv_b.0;
            want_y[i] -= lambda * q * ey * inv_b.1;
        }
        let (mut gx, mut gy) = (init.clone(), init);
        let (fused, prof) =
            device.scoped(|| op.accumulate_gradient_l1(&device, &model, lambda, &mut gx, &mut gy));
        assert_eq!(fused.to_bits(), host.to_bits());
        assert_eq!(prof.launches, 1);
        for i in 0..n {
            assert_eq!(gx[i].to_bits(), want_x[i].to_bits(), "gx at {i}");
            assert_eq!(gy[i].to_bits(), want_y[i].to_bits(), "gy at {i}");
        }
    }
}
