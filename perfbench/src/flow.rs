//! The placement flow, timed layer by layer from outside: read Bookshelf
//! → GP → LG → DP → legality check → congestion → write `.pl`, and the
//! two flow workloads built on it.

use crate::probes;
use crate::stats::{median, peak_rss_mb, quantile, secs, timed, Outcome};
use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::time::Instant;
use xplace_core::{GlobalPlacer, NullSink, PlacementReport, XplaceConfig};
use xplace_db::synthesis::{synthesize, SynthesisSpec, Topology};
use xplace_db::{bookshelf, Design, HierarchyOptions};
use xplace_legal::{check_legality, detailed_place, legalize, DpConfig, DpReport, LegalizeReport};
use xplace_route::{estimate_congestion, RouteConfig};
use xplace_telemetry::{parse_trace, JsonLinesSink, TelemetryEvent};

/// Kernel launch width of every timed run.
pub const THREADS: usize = 2;
/// The overflow a flow must reach to count as a placement.
pub const STOP_OVERFLOW: f64 = 0.1;
/// Target density Bookshelf designs are read with (the CLI default).
const DENSITY: f64 = 0.9;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// One flow workload: which design to synthesize and how to place it.
#[derive(Debug, Clone, Copy)]
pub struct FlowSpec {
    /// Movable cells.
    pub cells: usize,
    /// Netlist structure.
    pub topology: Topology,
    /// Multilevel GP on or off.
    pub multilevel: bool,
}

/// `flat-20k`: a random netlist whose time goes to the GP kernels.
pub const FLAT_20K: FlowSpec = FlowSpec {
    cells: 20_000,
    topology: Topology::Random,
    multilevel: false,
};

/// `ml-50k-systolic`: a systolic grid placed multilevel, which adds
/// coarsening and coarse solves and stresses legalization.
pub const ML_50K: FlowSpec = FlowSpec {
    cells: 50_000,
    topology: Topology::SystolicGrid,
    multilevel: true,
};

impl FlowSpec {
    /// The synthesis spec of this workload's design for `seed`.
    pub fn synthesis(&self, seed: u64) -> SynthesisSpec {
        SynthesisSpec::new("bench", self.cells, self.cells + self.cells / 20)
            .with_seed(seed)
            .with_topology(self.topology)
    }

    /// The placer configuration every flow of this workload runs.
    pub fn config(&self) -> XplaceConfig {
        XplaceConfig::xplace()
            .with_threads(THREADS)
            .with_multilevel(self.multilevel)
    }
}

/// Synthesizes `spec` and writes it as Bookshelf into `dir`, returning
/// the `.aux` path.
pub fn write_design(spec: &SynthesisSpec, dir: &Path) -> Result<PathBuf, String> {
    let design = synthesize(spec).map_err(|e| format!("synthesis: {e}"))?;
    bookshelf::write_design(&design, dir).map_err(|e| format!("writing Bookshelf: {e}"))
}

/// One flow, timed per layer.
#[derive(Debug)]
pub struct FlowRun {
    /// `bookshelf::read_aux`.
    pub read_aux_s: f64,
    /// `GlobalPlacer` call, timed from outside (with the trace flush when
    /// traced).
    pub gp_wall_s: f64,
    /// `legalize`.
    pub lg_s: f64,
    /// `detailed_place`.
    pub dp_s: f64,
    /// `check_legality`.
    pub check_s: f64,
    /// `estimate_congestion`.
    pub congestion_s: f64,
    /// `bookshelf::write_pl`.
    pub write_pl_s: f64,
    /// From `read_aux` through `write_pl`.
    pub flow_wall_s: f64,
    /// The placer's own report.
    pub report: PlacementReport,
    /// Legalization report.
    pub lg: LegalizeReport,
    /// Detailed-placement report.
    pub dp: DpReport,
    /// The independent legality verdict.
    pub legal: Result<(), String>,
    /// Post-DP HPWL.
    pub hpwl_final: f64,
    /// The design as read and right after GP, kept for the kernel probes.
    pub designs: Option<(Design, Design)>,
}

impl FlowRun {
    /// The deterministic identity of the run: any two flows of one design
    /// and configuration must agree on it bit for bit.
    pub fn fingerprint(&self) -> [u64; 4] {
        [
            self.hpwl_final.to_bits(),
            self.report.profile.modeled_ns(),
            self.report.iterations as u64,
            self.report.profile.launches,
        ]
    }

    /// Sum of the timed layer calls.
    pub fn layers_s(&self) -> f64 {
        self.read_aux_s
            + self.gp_wall_s
            + self.lg_s
            + self.dp_s
            + self.check_s
            + self.congestion_s
            + self.write_pl_s
    }
}

/// Runs the flow on `aux`, writing the placement to `out_pl`. With
/// `trace`, GP streams its JSON-lines trace to that file; with
/// `keep_designs`, the read and post-GP designs are returned.
pub fn run_flow(
    aux: &Path,
    out_pl: &Path,
    config: &XplaceConfig,
    trace: Option<&Path>,
    keep_designs: bool,
) -> Result<FlowRun, String> {
    let start = Instant::now();
    let (design, read_aux_s) = timed(|| bookshelf::read_aux(aux, DENSITY));
    let mut design = design.map_err(|e| format!("reading {}: {e}", aux.display()))?;
    let initial = keep_designs.then(|| design.clone());
    let mut placer = GlobalPlacer::new(config.clone());
    let gp_error = |e: xplace_core::PlaceError| format!("global placement: {e}");
    let (report, gp_wall_s) = timed(|| match trace {
        None => placer
            .place_traced(&mut design, &mut NullSink)
            .map_err(gp_error),
        Some(path) => {
            let file = File::create(path).map_err(|e| format!("creating trace: {e}"))?;
            let mut sink = JsonLinesSink::new(BufWriter::new(file));
            let report = placer
                .place_traced(&mut design, &mut sink)
                .map_err(gp_error)?;
            sink.finish()
                .and_then(|w| w.into_inner().map_err(|e| e.into_error()))
                .map_err(|e| format!("writing trace: {e}"))?;
            Ok(report)
        }
    });
    let report = report?;
    let placed = keep_designs.then(|| design.clone());
    let (lg, lg_s) = timed(|| legalize(&mut design));
    let lg = lg.map_err(|e| format!("legalization: {e}"))?;
    let (dp, dp_s) = timed(|| detailed_place(&mut design, &DpConfig::default()));
    let (legal, check_s) = timed(|| check_legality(&design));
    let (_, congestion_s) = timed(|| estimate_congestion(&design, &RouteConfig::default()));
    let (written, write_pl_s) = timed(|| bookshelf::write_pl(&design, out_pl));
    written.map_err(|e| format!("writing .pl: {e}"))?;
    let flow_wall_s = secs(start);
    Ok(FlowRun {
        read_aux_s,
        gp_wall_s,
        lg_s,
        dp_s,
        check_s,
        congestion_s,
        write_pl_s,
        flow_wall_s,
        report,
        lg,
        dp,
        legal: legal.map_err(|e| e.to_string()),
        hpwl_final: design.total_hpwl(),
        designs: initial.zip(placed),
    })
}

/// The correctness gate of one flow: GP reached the target overflow, the
/// independent legality check passed, and the run is bit-identical to
/// `reference` (the first flow of the run) when given.
pub fn gate(run: &FlowRun, reference: Option<[u64; 4]>, what: &str, out: &mut Outcome) -> bool {
    let mut ok = out.check(run.report.final_overflow <= STOP_OVERFLOW, || {
        format!(
            "{what}: GP stopped at overflow {:.4} > {STOP_OVERFLOW} after {} iterations",
            run.report.final_overflow, run.report.iterations
        )
    });
    if let Err(e) = &run.legal {
        ok = false;
        out.error(format!("{what}: placement is not legal: {e}"));
    }
    if let Some(reference) = reference {
        ok &= out.check(run.fingerprint() == reference, || {
            format!(
                "{what}: [hpwl bits, modeled ns, iterations, launches] {:?} differ from the first flow's {reference:?}",
                run.fingerprint()
            )
        });
    }
    ok
}

/// Trace statistics of one traced GP run.
#[derive(Debug, Default, Clone, Copy)]
pub struct TraceStats {
    /// Events written.
    pub events: usize,
    /// Trace bytes.
    pub bytes: usize,
    /// Iteration events that solved the density field (not skipped).
    pub density_solves: usize,
}

/// Reads back a trace file written by [`run_flow`].
pub fn trace_stats(path: &Path) -> Result<TraceStats, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading trace: {e}"))?;
    let events = parse_trace(&text)?;
    let density_solves = events
        .iter()
        .filter(
            |e| matches!(e, TelemetryEvent::Iteration { record, .. } if !record.density_skipped),
        )
        .count();
    Ok(TraceStats {
        events: events.len(),
        bytes: text.len(),
        density_solves,
    })
}

/// An untraced flow and its traced twin on one design.
#[derive(Debug)]
pub struct TracedPair {
    /// The `NullSink` flow (layer timings come from it).
    pub plain: FlowRun,
    /// The `JsonLinesSink` flow's GP wall time.
    pub traced_gp_s: f64,
    /// What the traced flow wrote.
    pub trace: TraceStats,
}

/// Runs `aux` untraced and traced, gating both; `None` (with the errors
/// recorded in `out`) when either fails.
pub fn traced_pair(
    aux: &Path,
    work: &Path,
    config: &XplaceConfig,
    what: &str,
    out: &mut Outcome,
) -> Option<TracedPair> {
    let pl = work.join("out.pl");
    let trace_path = work.join("trace.jsonl");
    out.attempted += 1;
    let plain = match run_flow(aux, &pl, config, None, true) {
        Ok(run) => run,
        Err(e) => {
            out.failed += 1;
            out.error(format!("{what}: {e}"));
            return None;
        }
    };
    out.failed += usize::from(!gate(&plain, None, what, out));
    out.attempted += 1;
    let traced = run_flow(aux, &pl, config, Some(&trace_path), false)
        .and_then(|run| trace_stats(&trace_path).map(|stats| (run, stats)));
    let what = format!("{what} (traced)");
    let (traced, trace) = match traced {
        Ok(pair) => pair,
        Err(e) => {
            out.failed += 1;
            out.error(format!("{what}: {e}"));
            return None;
        }
    };
    out.failed += usize::from(!gate(&traced, Some(plain.fingerprint()), &what, out));
    Some(TracedPair {
        traced_gp_s: traced.gp_wall_s,
        plain,
        trace,
    })
}

/// Records the per-layer flow metrics summed over `pairs` (one design
/// for the flow workloads, the whole pool for the served one).
pub fn put_flow_layers(pairs: &[TracedPair], out: &mut Outcome) {
    let sum = |f: &dyn Fn(&TracedPair) -> f64| pairs.iter().map(f).sum::<f64>();
    let gp_wall = sum(&|p| p.plain.gp_wall_s);
    let kernel_cpu = sum(&|p| p.plain.report.profile.cpu_ns as f64 / 1e9);
    let finest = sum(&|p| p.plain.report.wall_seconds);
    let flow_wall = sum(&|p| p.plain.flow_wall_s);
    let layers = sum(&|p| p.plain.layers_s());
    let modeled = sum(&|p| p.plain.report.profile.modeled_ns() as f64);
    let launch_bound = sum(&|p| {
        let profile = &p.plain.report.profile;
        profile.pipelined_ns.saturating_sub(profile.exec_ns) as f64
    });
    out.put("core.gp_wall_s", gp_wall, "s");
    out.put(
        "core.iterations",
        sum(&|p| p.plain.report.iterations as f64),
        "count",
    );
    out.put(
        "core.density_solves",
        sum(&|p| p.trace.density_solves as f64),
        "count",
    );
    out.put(
        "core.launches",
        sum(&|p| p.plain.report.profile.launches as f64),
        "count",
    );
    out.put(
        "core.syncs",
        sum(&|p| p.plain.report.profile.syncs as f64),
        "count",
    );
    out.put("core.kernel_cpu_s", kernel_cpu, "s");
    out.put("core.host_s", gp_wall - kernel_cpu, "s");
    out.put("core.finest_wall_s", finest, "s");
    out.put("core.coarse_s", gp_wall - finest, "s");
    out.put("legal.lg_s", sum(&|p| p.plain.lg_s), "s");
    out.put("legal.dp_s", sum(&|p| p.plain.dp_s), "s");
    out.put("legal.check_s", sum(&|p| p.plain.check_s), "s");
    out.put(
        "legal.lg_hpwl_growth",
        sum(&|p| p.plain.lg.final_hpwl) / sum(&|p| p.plain.lg.initial_hpwl),
        "ratio",
    );
    out.put(
        "legal.lg_mean_disp",
        sum(&|p| p.plain.lg.mean_displacement) / pairs.len() as f64,
        "dbu",
    );
    out.put(
        "legal.dp_moves",
        sum(&|p| (p.plain.dp.slides + p.plain.dp.reorders + p.plain.dp.swaps) as f64),
        "count",
    );
    out.put("db.read_aux_s", sum(&|p| p.plain.read_aux_s), "s");
    out.put("db.write_pl_s", sum(&|p| p.plain.write_pl_s), "s");
    out.put("route.congestion_s", sum(&|p| p.plain.congestion_s), "s");
    out.put("device.launch_bound_frac", launch_bound / modeled, "ratio");
    out.put("flow.layer_coverage", layers / flow_wall, "ratio");
    out.put(
        "telemetry.trace_events",
        sum(&|p| p.trace.events as f64),
        "count",
    );
    out.put(
        "telemetry.trace_bytes",
        sum(&|p| p.trace.bytes as f64),
        "bytes",
    );
    let overhead = sum(&|p| p.traced_gp_s) - gp_wall;
    out.put("telemetry.trace_overhead_s", overhead, "s");
    println!(
        "trace overhead: traced GP {:.4} s - untraced GP {gp_wall:.4} s = {overhead:+.4} s",
        gp_wall + overhead
    );
    out.check(layers >= 0.95 * flow_wall, || {
        format!("timed layers cover only {layers:.3} s of the {flow_wall:.3} s flow")
    });
}

/// Runs a flow workload for `seconds` (at least one flow), or its traced
/// per-layer variant.
pub fn run_workload(spec: &FlowSpec, seed: u64, seconds: f64, trace: bool, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let synthesis = spec.synthesis(seed);
    let config = spec.config();
    let mut setup_times = Vec::new();
    let mut aux = None;
    for _ in 0..if trace { 1 } else { SETUP_REPS } {
        let (written, t) = timed(|| write_design(&synthesis, work));
        match written {
            Ok(path) => aux = Some(path),
            Err(e) => {
                out.error(format!("set-up: {e}"));
                return out;
            }
        }
        setup_times.push(t);
    }
    let aux = aux.expect("at least one set-up ran");
    if trace {
        traced_layers(spec, &aux, &config, work, &mut out);
    } else {
        timed_flows(&aux, &config, seconds, work, &mut out);
        out.put("setup_s", median(&setup_times), "s");
    }
    out
}

fn timed_flows(aux: &Path, config: &XplaceConfig, seconds: f64, work: &Path, out: &mut Outcome) {
    let pl = work.join("out.pl");
    let start = Instant::now();
    let mut runs: Vec<FlowRun> = Vec::new();
    while runs.is_empty() || secs(start) < seconds {
        out.attempted += 1;
        let run = match run_flow(aux, &pl, config, None, false) {
            Ok(run) => run,
            Err(e) => {
                out.failed += 1;
                out.error(format!("flow {}: {e}", runs.len() + 1));
                break;
            }
        };
        let reference = runs.first().map(FlowRun::fingerprint);
        let what = format!("flow {}", runs.len() + 1);
        out.failed += usize::from(!gate(&run, reference, &what, out));
        runs.push(run);
    }
    let Some(first) = runs.first() else { return };
    let walls: Vec<f64> = runs.iter().map(|r| r.flow_wall_s).collect();
    let gp: Vec<f64> = runs.iter().map(|r| r.gp_wall_s).collect();
    println!("flows: {} in {:.2} s", runs.len(), secs(start));
    out.put("flow_wall_s", median(&walls), "s");
    out.put("gp_wall_s", median(&gp), "s");
    out.put("hpwl_final", first.hpwl_final, "dbu");
    out.put("modeled_gp_ms", first.report.profile.modeled_ms(), "ms");
    out.put("peak_rss_mb", peak_rss_mb(), "MB");
    out.put(
        "jobs_per_s",
        runs.len() as f64 / walls.iter().sum::<f64>(),
        "1/s",
    );
    out.put("job_latency_p50_s", median(&walls), "s");
    out.put("job_latency_p90_s", quantile(&walls, 0.9), "s");
}

fn traced_layers(
    spec: &FlowSpec,
    aux: &Path,
    config: &XplaceConfig,
    work: &Path,
    out: &mut Outcome,
) {
    let Some(pair) = traced_pair(aux, work, config, "flow", out) else {
        return;
    };
    put_flow_layers(std::slice::from_ref(&pair), out);
    let (initial, _) = pair
        .plain
        .designs
        .as_ref()
        .expect("traced_pair keeps the designs");
    if spec.multilevel {
        let opts = HierarchyOptions {
            min_cells: config.multilevel.min_cells,
            max_levels: config.multilevel.max_levels,
            stall_fraction: HierarchyOptions::default().stall_fraction,
        };
        probes::put_coarsening(initial, &opts, out);
    } else {
        probes::put_no_coarsening(out);
    }
    probes::put_kernel_probes(&pair, config, out);
    probes::put_checkpoint(&pair, config, out);
    crate::serve::put_no_serving(out);
    out.put(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn work_dir(name: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_work")
            .join(format!("test-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("test work dir");
        dir
    }

    fn names(out: &Outcome) -> Vec<&str> {
        let mut names: Vec<&str> = out.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        names.sort_unstable();
        names
    }

    fn sorted(list: &[&'static str]) -> Vec<&'static str> {
        let mut list = list.to_vec();
        list.sort_unstable();
        list
    }

    /// A tiny flat design and a tiny multilevel one run both modes
    /// correctly and report exactly the declared metrics.
    #[test]
    fn tiny_flow_workloads_pass_their_gates() {
        let tiny = [
            FlowSpec {
                cells: 400,
                topology: Topology::Random,
                multilevel: false,
            },
            // Just above the default multilevel floor of 5000 cells.
            FlowSpec {
                cells: 6_000,
                topology: Topology::SystolicGrid,
                multilevel: true,
            },
        ];
        for (i, spec) in tiny.iter().enumerate() {
            let work = work_dir(&format!("flow{i}"));
            // Long enough for the flat design to repeat its flow, which
            // exercises the bit-identity gate.
            let out = run_workload(spec, 3, 2.0, false, &work);
            assert!(out.correct(), "{:?}", out.errors);
            assert!(out.attempted >= 1 && out.failed == 0, "{out:?}");
            assert!(spec.multilevel || out.attempted >= 2, "{out:?}");
            assert_eq!(names(&out), sorted(&crate::END_TO_END));
            let out = run_workload(spec, 3, 0.0, true, &work);
            assert!(out.correct(), "{:?}", out.errors);
            assert_eq!(names(&out), sorted(&crate::PER_LAYER));
            let value = |name: &str| out.metrics.iter().find(|m| m.0 == name).unwrap().1;
            assert_eq!(value("db.levels") > 0.0, spec.multilevel);
            let gp = value("core.kernel_cpu_s") + value("core.host_s");
            assert!((gp - value("core.gp_wall_s")).abs() < 1e-9);
            std::fs::remove_dir_all(&work).ok();
        }
    }
}
