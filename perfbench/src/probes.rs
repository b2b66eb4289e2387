//! Per-call probes of single layers: the GP kernels (timed at threads 1
//! and 2, with their modeled cost from `Device::profile` deltas),
//! checkpoint rendering and parsing, and coarsening.

use crate::flow::TracedPair;
use crate::stats::{median, timed, Outcome};
use std::time::{Duration, Instant};
use xplace_core::{
    Checkpoint, CheckpointOptions, GlobalPlacer, MemoryCheckpointStore, NullSink, XplaceConfig,
};
use xplace_db::{build_hierarchy, Design, HierarchyOptions};
use xplace_device::Device;
use xplace_ops::density::DensityOp;
use xplace_ops::wirelength::{wa_fused_mt_ws, WaWorkspace};
use xplace_ops::{precond, PlacementModel};

/// Wall-time budget of one probe at one position and thread count.
const PROBE_BUDGET_MS: u64 = 150;
/// Latest iteration the checkpoint snapshot is taken at.
const CKPT_MAX_STOP: usize = 100;
/// Fewest timed calls per probe.
const MIN_REPS: usize = 5;
/// Most timed calls per probe.
const MAX_REPS: usize = 400;
/// Density weight the gradient and preconditioner probes run with.
const LAMBDA: f64 = 1e-3;

/// The kernels probed, in report order; `true` when the kernel takes a
/// thread count.
const KERNELS: [(&str, bool); 6] = [
    ("ops.wa", true),
    ("ops.density_map", true),
    ("ops.density_grad", true),
    ("fft.solve", true),
    ("ops.overflow", false),
    ("ops.precond", false),
];
/// Index of the spectral solve in [`KERNELS`].
const FFT: usize = 3;

/// One kernel's probe result at one position and thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// Median wall time of one call, in ns.
    pub wall_ns: f64,
    /// Modeled execution ns of one call.
    pub exec_ns: u64,
    /// Device launches of one call.
    pub launches: u64,
}

/// Wall time of `f`.
fn clock(f: impl FnOnce()) -> Duration {
    let start = Instant::now();
    f();
    start.elapsed()
}

/// Calls `call` (which times its own kernel region) on a fresh device
/// until `budget` is spent, at least [`MIN_REPS`] times. The modeled cost
/// of every call must be the same.
fn measure(
    config: &XplaceConfig,
    budget: Duration,
    what: &str,
    errors: &mut Vec<String>,
    mut call: impl FnMut(&Device) -> Duration,
) -> Probe {
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut cost: Option<(u64, u64)> = None;
    while walls.len() < MIN_REPS || (start.elapsed() < budget && walls.len() < MAX_REPS) {
        let device = Device::new(config.device);
        walls.push(call(&device).as_nanos() as f64);
        let profile = device.profile();
        let this = (profile.exec_ns, profile.launches);
        match cost {
            None => cost = Some(this),
            Some(first) if first != this => errors.push(format!(
                "{what}: modeled (exec ns, launches) {this:?} differ from the first call's {first:?}"
            )),
            Some(_) => {}
        }
    }
    let (exec_ns, launches) = cost.expect("at least one call ran");
    Probe {
        wall_ns: median(&walls),
        exec_ns,
        launches,
    }
}

/// Probes every kernel of [`KERNELS`] on `design`'s placement model at
/// `threads`: `[wa, density_map, density_grad, fft.solve, overflow,
/// precond]`, the last two only when `threads == 1`.
pub fn probe_kernels(
    design: &Design,
    config: &XplaceConfig,
    threads: usize,
    budget: Duration,
    errors: &mut Vec<String>,
) -> Result<Vec<Probe>, String> {
    let mut model = PlacementModel::from_design_with(design, config.grid, true, config.seed)
        .map_err(|e| format!("building the placement model: {e}"))?;
    model.clamp_to_region();
    let mut density = DensityOp::new(&model).map_err(|e| format!("density operator: {e}"))?;
    density.set_threads(threads);
    let n = model.num_nodes();
    let (mut gx, mut gy) = (vec![0.0; n], vec![0.0; n]);
    let mut ws = WaWorkspace::new();
    let pool = xplace_parallel::global();
    let gamma = 2.0 * (model.bin_w() + model.bin_h());
    let mut probes = Vec::new();
    let mut probe = |name: &str, call: &mut dyn FnMut(&Device) -> Duration| {
        let what = format!("{name} at threads {threads}");
        probes.push(measure(config, budget, &what, errors, call));
    };
    probe("ops.wa", &mut |d| {
        gx.fill(0.0);
        gy.fill(0.0);
        clock(|| {
            wa_fused_mt_ws(d, &model, gamma, &mut gx, &mut gy, threads, pool, &mut ws);
        })
    });
    probe("ops.density_map", &mut |d| {
        clock(|| {
            density.accumulate_movable(d, &model);
            density.accumulate_fillers(d, &model);
            density.combine_total(d);
        })
    });
    probe("ops.density_grad", &mut |d| {
        gx.fill(0.0);
        gy.fill(0.0);
        clock(|| density.accumulate_gradient(d, &model, LAMBDA, &mut gx, &mut gy))
    });
    probe("fft.solve", &mut |d| {
        clock(|| {
            density
                .solve_field(d)
                .expect("the solver grid is fixed at construction");
        })
    });
    if threads == 1 {
        probe("ops.overflow", &mut |d| {
            clock(|| {
                std::hint::black_box(density.overflow(d, &model));
            })
        });
        probe("ops.precond", &mut |d| {
            gx.fill(1.0);
            gy.fill(1.0);
            clock(|| precond::apply(d, &model, LAMBDA, &mut gx, &mut gy))
        });
    }
    Ok(probes)
}

/// Records the kernel probes on `pair`'s design at its initial and
/// converged positions, threads 1 and 2: per-call wall ns (the mean of
/// the two positions' medians), modeled exec ns and launches per call,
/// the grid side, the t1/t2 speed-up, and the spectral solve's estimated
/// share of GP wall time (per-call ns at threads 2 times the traced
/// density solves, over the GP wall of the same design).
pub fn put_kernel_probes(pair: &TracedPair, config: &XplaceConfig, out: &mut Outcome) {
    let (initial, placed) = pair
        .plain
        .designs
        .as_ref()
        .expect("traced_pair keeps the designs");
    let budget = Duration::from_millis(PROBE_BUDGET_MS);
    let mut errors = Vec::new();
    // walls[kernel][threads - 1] over positions; cost[kernel] from the
    // first measurement, every later one must match it.
    let mut walls = vec![[Vec::new(), Vec::new()]; KERNELS.len()];
    let mut cost: Vec<Option<(u64, u64)>> = vec![None; KERNELS.len()];
    for design in [initial, placed] {
        for threads in [1, 2] {
            let probes = match probe_kernels(design, config, threads, budget, &mut errors) {
                Ok(probes) => probes,
                Err(e) => {
                    out.error(format!("kernel probes: {e}"));
                    return;
                }
            };
            for (k, probe) in probes.iter().enumerate() {
                walls[k][threads - 1].push(probe.wall_ns);
                let this = (probe.exec_ns, probe.launches);
                match cost[k] {
                    None => cost[k] = Some(this),
                    Some(first) if first != this => errors.push(format!(
                        "{}: modeled (exec ns, launches) {this:?} at threads {threads} differ from {first:?}",
                        KERNELS[k].0
                    )),
                    Some(_) => {}
                }
            }
        }
    }
    for e in errors {
        out.error(e);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let mut sums = [0.0; 2];
    for (k, &(name, threaded)) in KERNELS.iter().enumerate() {
        if threaded {
            for t in 0..2 {
                let wall = mean(&walls[k][t]);
                sums[t] += wall;
                out.put(&format!("{name}_t{}_ns", t + 1), wall, "ns");
            }
        } else {
            out.put(&format!("{name}_ns"), mean(&walls[k][0]), "ns");
        }
        let (exec_ns, launches) = cost[k].unwrap_or_default();
        out.put(&format!("{name}_modeled_ns"), exec_ns as f64, "ns");
        out.put(&format!("{name}_launches"), launches as f64, "count");
    }
    let grid = PlacementModel::from_design_with(initial, config.grid, true, config.seed)
        .map(|m| m.grid_dims().0)
        .unwrap_or(0);
    out.put("fft.grid", grid as f64, "bins");
    out.put("parallel.probe_speedup_t2", sums[0] / sums[1], "ratio");
    let solve_ns = mean(&walls[FFT][1]);
    let share = solve_ns * pair.trace.density_solves as f64 / 1e9 / pair.plain.gp_wall_s;
    out.put("fft.share_of_gp", share, "ratio");
}

/// Records `db.coarsen_s`, `db.levels` and `db.coarsest_cells` from
/// `build_hierarchy` on `design`.
pub fn put_coarsening(design: &Design, opts: &HierarchyOptions, out: &mut Outcome) {
    let (levels, seconds) = timed(|| build_hierarchy(design, opts));
    match levels {
        Ok(levels) => {
            let coarsest = levels.last().map_or(design.netlist().num_movable(), |l| {
                l.design.netlist().num_movable()
            });
            out.put("db.coarsen_s", seconds, "s");
            out.put("db.levels", levels.len() as f64, "count");
            out.put("db.coarsest_cells", coarsest as f64, "count");
        }
        Err(e) => out.error(format!("coarsening: {e}")),
    }
}

/// The coarsening metrics of a workload that places flat.
pub fn put_no_coarsening(out: &mut Outcome) {
    out.put("db.coarsen_s", 0.0, "s");
    out.put("db.levels", 0.0, "count");
    out.put("db.coarsest_cells", 0.0, "count");
}

/// Records the size and per-call render/parse ns of a snapshot taken by
/// pausing GP on `pair`'s design mid-run (half its iterations, at most
/// [`CKPT_MAX_STOP`]) into a [`MemoryCheckpointStore`]. The snapshot
/// comes from the flat loop, whose state has the same shape as the
/// finest level of a multilevel run.
pub fn put_checkpoint(pair: &TracedPair, config: &XplaceConfig, out: &mut Outcome) {
    let (design, _) = pair
        .plain
        .designs
        .as_ref()
        .expect("traced_pair keeps the designs");
    let stop_at = (pair.plain.report.iterations / 2).clamp(1, CKPT_MAX_STOP);
    let store = MemoryCheckpointStore::new();
    let mut config = config.clone();
    config.multilevel.enabled = false;
    let opts = CheckpointOptions {
        store: Some(&store),
        stop_at: Some(stop_at),
        ..CheckpointOptions::none()
    };
    let mut design = design.clone();
    let paused = GlobalPlacer::new(config)
        .place_traced_opts(&mut design, &mut NullSink, opts)
        .map_err(|e| e.to_string())
        .and_then(|report| {
            if report.paused {
                store.latest().map_err(|e| e.to_string())
            } else {
                Err(format!("GP finished before pausing at iteration {stop_at}"))
            }
        });
    let checkpoint = match paused {
        Ok(Some((_, checkpoint))) => checkpoint,
        Ok(None) => return out.error("checkpoint probe: the store holds no snapshot"),
        Err(e) => return out.error(format!("checkpoint probe: {e}")),
    };
    let budget = Duration::from_millis(PROBE_BUDGET_MS);
    let repeat = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        let mut walls = Vec::new();
        while walls.len() < MIN_REPS || (start.elapsed() < budget && walls.len() < MAX_REPS) {
            walls.push(clock(&mut *f).as_nanos() as f64);
        }
        median(&walls)
    };
    let text = checkpoint.render();
    let render_ns = repeat(&mut || {
        std::hint::black_box(checkpoint.render());
    });
    let mut parsed = None;
    let parse_ns = repeat(&mut || parsed = Some(Checkpoint::parse(&text)));
    match parsed.expect("parse ran") {
        Ok(back) => {
            out.check(back.render() == text, || {
                "checkpoint probe: parse(render(snapshot)) renders differently".into()
            });
        }
        Err(e) => out.error(format!("checkpoint probe: snapshot does not parse: {e}")),
    }
    out.put("core.ckpt_bytes", text.len() as f64, "bytes");
    out.put("core.ckpt_render_ns", render_ns, "ns");
    out.put("core.ckpt_parse_ns", parse_ns, "ns");
}

#[cfg(test)]
mod tests {
    use super::*;
    use xplace_db::synthesis::{synthesize, SynthesisSpec};

    /// Modeled exec ns and launches of every probe repeat exactly, across
    /// calls, thread counts and separate probe runs.
    #[test]
    fn probe_costs_are_deterministic() {
        let design = synthesize(&SynthesisSpec::new("p", 3_000, 3_150).with_seed(5)).unwrap();
        let config = XplaceConfig::xplace();
        let budget = Duration::from_millis(5);
        let mut errors = Vec::new();
        let cost = |probes: &[Probe]| -> Vec<(u64, u64)> {
            probes.iter().map(|p| (p.exec_ns, p.launches)).collect()
        };
        let t1 = probe_kernels(&design, &config, 1, budget, &mut errors).unwrap();
        let t2 = probe_kernels(&design, &config, 2, budget, &mut errors).unwrap();
        let again = probe_kernels(&design, &config, 1, budget, &mut errors).unwrap();
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(t1.len(), KERNELS.len());
        assert_eq!(t2.len(), KERNELS.iter().filter(|k| k.1).count());
        assert_eq!(cost(&t1), cost(&again));
        assert_eq!(cost(&t1[..t2.len()]), cost(&t2));
        assert!(t1
            .iter()
            .all(|p| p.exec_ns > 0 && p.launches > 0 && p.wall_ns > 0.0));
    }
}
