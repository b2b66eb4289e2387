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

const SQRT2: f64 = std::f64::consts::SQRT_2;

/// Fixed node-block size for the blocked parallel density accumulation.
///
/// Like `xplace_ops::wirelength::NET_BLOCK`, the block grid depends only on
/// the model's node ranges — never the thread count. Each block produces a
/// sparse partial, the `(bin, value)` pairs its nodes touched, and the
/// partials merge into the map in block order, so every bin receives the
/// same additions in the same order for every `threads` value. Designs
/// whose ranges all fit in a single block take the direct serial
/// accumulation path (no partials at all).
pub const NODE_BLOCK: usize = 2048;

/// `v.floor().max(0.0) as usize` without the libm call: `as` truncates
/// toward zero and saturates (NaN and negatives to 0, overflow to
/// `usize::MAX`), which gives the same index for every `f64`.
#[inline]
fn floor_idx(v: f64) -> usize {
    v as usize
}

/// `v.ceil() as usize` without the libm call: the saturating truncation,
/// plus one (saturating) when it dropped a positive fraction.
#[inline]
fn ceil_idx(v: f64) -> usize {
    let t = v as usize;
    if (t as f64) < v {
        t.saturating_add(1)
    } else {
        t
    }
}

/// The loop-invariant inputs of one accumulation pass over a model.
struct Stamp<'a> {
    model: &'a PlacementModel,
    /// Movable nodes, which are smoothed (fillers are too).
    smooth: Range<usize>,
    filler_start: usize,
    target: f64,
    region: xplace_db::Rect,
    bin_w: f64,
    bin_h: f64,
    inv_bin_area: f64,
    nx: usize,
    ny: usize,
}

impl<'a> Stamp<'a> {
    fn new(model: &'a PlacementModel, nx: usize, ny: usize) -> Self {
        let (bin_w, bin_h) = (model.bin_w(), model.bin_h());
        let ranges = model.ranges();
        Stamp {
            model,
            smooth: ranges.movable,
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

    /// Accumulates node `i`'s (smoothed) footprint, calling `add(bin,
    /// value)` for every bin it overlaps, where `bin = bx * ny + by` is the
    /// [`Grid2`] sample index.
    ///
    /// ePlace cell smoothing for movable cells and fillers: inflate to at
    /// least sqrt(2) x bin size, scale the charge so area is conserved.
    /// Fixed macros keep their footprint but contribute exactly the target
    /// density (DREAMPlace's convention) — otherwise every macro bin sits
    /// at density 1 > D_t and creates an irreducible overflow floor.
    #[inline]
    fn accumulate_node(&self, i: usize, mut add: impl FnMut(usize, f64)) {
        let model = self.model;
        let (w, h) = (model.w[i], model.h[i]);
        if w <= 0.0 || h <= 0.0 {
            return; // terminals
        }
        let (bin_w, bin_h, region) = (self.bin_w, self.bin_h, self.region);
        let smoothed = self.smooth.contains(&i) || i >= self.filler_start;
        let (we, he, scale) = if smoothed {
            let we = w.max(SQRT2 * bin_w);
            let he = h.max(SQRT2 * bin_h);
            (we, he, (w * h) / (we * he))
        } else {
            (w, h, self.target)
        };
        let lx = model.x[i] - we * 0.5;
        let ux = model.x[i] + we * 0.5;
        let ly = model.y[i] - he * 0.5;
        let uy = model.y[i] + he * 0.5;
        let bx0 = floor_idx((lx - region.lx) / bin_w);
        let bx1 = ceil_idx((ux - region.lx) / bin_w).min(self.nx);
        let by0 = floor_idx((ly - region.ly) / bin_h);
        let by1 = ceil_idx((uy - region.ly) / bin_h).min(self.ny);
        for bx in bx0..bx1 {
            let b_lx = region.lx + bx as f64 * bin_w;
            let ox = (ux.min(b_lx + bin_w) - lx.max(b_lx)).max(0.0);
            if ox == 0.0 {
                continue;
            }
            for by in by0..by1 {
                let b_ly = region.ly + by as f64 * bin_h;
                let oy = (uy.min(b_ly + bin_h) - ly.max(b_ly)).max(0.0);
                if oy > 0.0 {
                    add(bx * self.ny + by, ox * oy * scale * self.inv_bin_area);
                }
            }
        }
    }
}

/// Accumulates the nodes of `block` into `scratch` and moves the sums out
/// as the block's sparse partial: each bin the block touched, in
/// first-touch order, with the block's sum for it.
///
/// `scratch` must be all `+0.0` on entry and is all `+0.0` again on return.
/// A bin is recorded when it goes from zero to non-zero. An unrecorded bin
/// only ever summed to `+0.0`, which a full-grid partial would have merged
/// for nothing: a map bin starts at `+0.0` and, summed from there, is never
/// `-0.0`, so adding `+0.0` changes no bit. The same argument covers a bin
/// recorded twice (its second entry reads `+0.0`).
fn sparse_partial(
    stamp: &Stamp,
    block: Range<usize>,
    scratch: &mut [f64],
    partial: &mut Vec<(usize, f64)>,
) {
    partial.clear();
    for i in block {
        stamp.accumulate_node(i, |k, v| {
            let old = scratch[k];
            scratch[k] = old + v;
            if old == 0.0 && scratch[k] != 0.0 {
                partial.push((k, 0.0));
            }
        });
    }
    for (k, v) in partial.iter_mut() {
        *v = std::mem::replace(&mut scratch[*k], 0.0);
    }
}

/// The reusable state of the blocked accumulation, grown on first use and
/// kept across calls so a launch allocates no grid.
#[derive(Debug, Default)]
struct BlockWorkspace {
    /// One dense `nx * ny` scratch grid per task, all `+0.0` between
    /// blocks.
    scratch: Vec<Vec<f64>>,
    /// One sparse partial per node block (see [`sparse_partial`]).
    partials: Vec<Vec<(usize, f64)>>,
}

impl BlockWorkspace {
    /// Accumulates `blocks` into `cells` (the map's samples): each of at
    /// most `threads` tasks turns a fixed contiguous run of blocks into
    /// sparse partials on its own scratch grid, then the partials merge in
    /// block order. Every bin thus receives the same additions in the same
    /// order as merging one full-grid partial per block, for any `threads`.
    fn accumulate(
        &mut self,
        stamp: &Stamp,
        blocks: &[Range<usize>],
        threads: usize,
        cells: &mut [f64],
    ) {
        let tasks = threads.min(blocks.len()).max(1);
        let run = blocks.len().div_ceil(tasks);
        if self.scratch.len() < tasks {
            self.scratch.resize_with(tasks, || vec![0.0; cells.len()]);
        }
        if self.partials.len() < blocks.len() {
            self.partials.resize_with(blocks.len(), Vec::new);
        }
        let partials = &mut self.partials[..blocks.len()];
        let mut states: Vec<_> = self
            .scratch
            .iter_mut()
            .zip(blocks.chunks(run).zip(partials.chunks_mut(run)))
            .collect();
        xplace_parallel::global().run_mut(&mut states, tasks, |_, state| {
            let (scratch, (blocks, partials)) = state;
            for (block, partial) in blocks.iter().zip(partials.iter_mut()) {
                sparse_partial(stamp, block.clone(), scratch, partial);
            }
        });
        for partial in partials.iter() {
            for &(k, v) in partial {
                cells[k] += v;
            }
        }
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
    /// Scratch grids and sparse partials of the blocked path.
    blocked: BlockWorkspace,
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
        let node_block = self.node_block;
        if node_range.iter().all(|r| r.len() <= node_block) {
            for i in node_range.into_iter().flatten() {
                stamp.accumulate_node(i, |k, v| cells[k] += v);
            }
            return;
        }
        // Blocked: chop every range into fixed node_block-sized blocks
        // (empty ranges contribute none, so no worker ever runs over an
        // empty slice). The block grid is independent of `threads`, so the
        // summation order — and the result — is bit-identical for any width.
        let blocks: Vec<Range<usize>> = node_range
            .into_iter()
            .flat_map(|r| {
                let end = r.end;
                r.step_by(node_block)
                    .map(move |lo| lo..(lo + node_block).min(end))
            })
            .collect();
        self.blocked
            .accumulate(&stamp, &blocks, self.threads, cells);
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

    /// Inputs where the libm expressions and the index helpers could part:
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

    #[test]
    fn floor_idx_matches_libm_floor() {
        for v in index_probes() {
            assert_eq!(floor_idx(v), v.floor().max(0.0) as usize, "v = {v:e}");
        }
    }

    #[test]
    fn ceil_idx_matches_libm_ceil() {
        for v in index_probes() {
            assert_eq!(ceil_idx(v), v.ceil() as usize, "v = {v:e}");
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
