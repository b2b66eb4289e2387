//! Time-to-placement benchmark for xplace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <flat-20k|ml-50k-systolic|serve-mixed> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Every run generates its inputs from `--seed` and checks that its
//! outputs are real placements: GP reached overflow 0.1, the independent
//! legality check passed, and repeated runs of one design are
//! bit-identical. `--trace 0` measures the end-to-end metrics with
//! tracing off; `--trace 1` is the separate traced run that reports the
//! per-layer metrics, timed around calls into each crate's public
//! functions. The last line of standard output is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`); the exit code is 0 only
//! when every check passed.

mod flow;
mod probes;
mod serve;
mod stats;
mod stream;

use stats::Outcome;
use std::path::{Path, PathBuf};

/// Metrics of `--trace 0`.
const END_TO_END: [&str; 9] = [
    "setup_s",
    "flow_wall_s",
    "gp_wall_s",
    "hpwl_final",
    "modeled_gp_ms",
    "peak_rss_mb",
    "jobs_per_s",
    "job_latency_p50_s",
    "job_latency_p90_s",
];

/// Metrics of `--trace 1`.
const PER_LAYER: [&str; 69] = [
    "ops.wa_t1_ns",
    "ops.wa_t2_ns",
    "ops.wa_modeled_ns",
    "ops.wa_launches",
    "ops.density_map_t1_ns",
    "ops.density_map_t2_ns",
    "ops.density_map_modeled_ns",
    "ops.density_map_launches",
    "ops.density_grad_t1_ns",
    "ops.density_grad_t2_ns",
    "ops.density_grad_modeled_ns",
    "ops.density_grad_launches",
    "ops.overflow_ns",
    "ops.overflow_modeled_ns",
    "ops.overflow_launches",
    "ops.precond_ns",
    "ops.precond_modeled_ns",
    "ops.precond_launches",
    "fft.solve_t1_ns",
    "fft.solve_t2_ns",
    "fft.solve_modeled_ns",
    "fft.solve_launches",
    "fft.grid",
    "parallel.probe_speedup_t2",
    "core.gp_wall_s",
    "core.iterations",
    "core.density_solves",
    "core.launches",
    "core.syncs",
    "core.kernel_cpu_s",
    "core.host_s",
    "core.finest_wall_s",
    "core.coarse_s",
    "db.coarsen_s",
    "db.levels",
    "db.coarsest_cells",
    "legal.lg_s",
    "legal.dp_s",
    "legal.check_s",
    "legal.lg_hpwl_growth",
    "legal.lg_mean_disp",
    "legal.dp_moves",
    "db.read_aux_s",
    "db.write_pl_s",
    "route.congestion_s",
    "device.launch_bound_frac",
    "flow.layer_coverage",
    "core.ckpt_bytes",
    "core.ckpt_render_ns",
    "core.ckpt_parse_ns",
    "telemetry.trace_events",
    "telemetry.trace_bytes",
    "telemetry.trace_overhead_s",
    "serve.admission_wait_p50_s",
    "serve.queue_wait_p50_s",
    "serve.queue_wait_p90_s",
    "serve.service_p50_s",
    "serve.service_p90_s",
    "serve.stream_tail_p50_s",
    "serve.frames",
    "serve.bytes",
    "serve.design_cache_hit_ratio",
    "serve.plan_cache_hit_ratio",
    "serve.rejects",
    "sched.batch_speedup",
    "failed_frac",
    "serve.hol_ratio",
    "serve.jobs",
    "fft.share_of_gp",
];

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <flat-20k|ml-50k-systolic|serve-mixed> \
                     --seed N --seconds S --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds > 0.0 && parsed.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(parsed)
}

/// Runs one workload in the scratch directory `work`; `None` for an
/// unknown workload name.
fn run(args: &Args, work: &Path) -> Option<Outcome> {
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    Some(match args.workload.as_str() {
        "flat-20k" => flow::run_workload(&flow::FLAT_20K, seed, seconds, trace, work),
        "ml-50k-systolic" => flow::run_workload(&flow::ML_50K, seed, seconds, trace, work),
        "serve-mixed" => serve::run_workload(&serve::SERVE_MIXED, seed, seconds, trace, work),
        _ => return None,
    })
}

/// Checks that `out` reports exactly `expected`, each once.
fn check_names(out: &mut Outcome, expected: &[&str]) {
    let mut got: Vec<&str> = out.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
    got.sort_unstable();
    let mut want = expected.to_vec();
    want.sort_unstable();
    if got != want {
        let missing: Vec<_> = want.iter().filter(|n| !got.contains(n)).collect();
        let extra: Vec<_> = got.iter().filter(|n| !want.contains(n)).collect();
        let message = format!("metric set mismatch: missing {missing:?}, unexpected {extra:?}");
        out.error(message);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(".bench_work");
    let work = root.join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: creating {}: {e}", work.display());
        std::process::exit(2);
    }
    let outcome = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(&root);
    let Some(mut out) = outcome else {
        eprintln!("perfbench: unknown workload {:?}\n{USAGE}", args.workload);
        std::process::exit(2);
    };
    check_names(&mut out, if args.trace { &PER_LAYER } else { &END_TO_END });
    for (name, value, unit) in &out.metrics {
        println!("{name:<32} {value:>18.6} {unit}");
    }
    for e in &out.errors {
        eprintln!("check failed: {e}");
    }
    println!("{}", out.json_line());
    std::process::exit(if out.correct() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;
    use xplace_telemetry::Json;

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let args = parse_args(&argv(
            "--workload flat-20k --seed 7 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            args,
            Args {
                workload: "flat-20k".into(),
                seed: 7,
                seconds: 2.5,
                trace: true
            }
        );
        for bad in [
            "--seed x",
            "--seconds 0",
            "--trace 2",
            "--bogus 1",
            "--seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    /// The metric names the benchmark prints are the ones BENCHMARK.json
    /// declares, in both modes.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            let mut v: Vec<String> = json
                .field(key)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|m| m.field("name").unwrap().as_str().unwrap().to_string())
                .collect();
            v.sort();
            v
        };
        let sorted = |list: &[&str]| {
            let mut v: Vec<String> = list.iter().map(|s| s.to_string()).collect();
            v.sort();
            v
        };
        assert_eq!(names("end_to_end"), sorted(&END_TO_END));
        assert_eq!(names("per_layer"), sorted(&PER_LAYER));
    }
}
