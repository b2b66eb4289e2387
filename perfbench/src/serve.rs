//! `serve-mixed`: an in-process daemon under a closed-loop load of two
//! clients, each waiting for its batch before sending the next. Every
//! request is a 4-job manifest of small converging designs drawn from a
//! pool of 8 synthesis specs, so later requests hit the design cache;
//! one job in four checkpoints. Frames are stamped as they arrive.

use crate::flow::{self, put_flow_layers, TracedPair, THREADS};
use crate::probes;
use crate::stats::{median, peak_rss_mb, quantile, secs, timed, Outcome};
use crate::stream::FrameStream;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xplace_core::XplaceConfig;
use xplace_db::synthesis::{synthesize, SynthesisSpec};
use xplace_serve::http::Request;
use xplace_serve::{assemble, Client, Frame, ServeConfig, Server, WireBatch};
use xplace_telemetry::{FromJson, JobStatus, Json};

/// Concurrent client connections, each with its own `X-Client`.
const CLIENTS: usize = 2;
/// Jobs per request.
const JOBS_PER_REQUEST: usize = 4;
/// Checkpoint cadence of the checkpointing job of each request.
const CHECKPOINT_EVERY: usize = 100;
/// Requests prepared per client (the sequence repeats beyond it).
const REQUESTS_PER_CLIENT: usize = 64;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// A run stops sending after this long even below its job target.
const HARD_CAP_S: f64 = 120.0;

/// The served load: the cell counts of the design pool and how many
/// jobs a run must complete (at least 10 samples beyond the p90).
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Movable cells of each pool design.
    pub pool_cells: &'static [usize],
    /// Jobs a run completes before it may stop.
    pub min_jobs: usize,
}

/// `serve-mixed`.
pub const SERVE_MIXED: ServeSpec = ServeSpec {
    pool_cells: &[400, 450, 500, 600, 700, 850, 1100, 2000],
    min_jobs: 100,
};

/// SplitMix64: the seeded draws of the pool and the request sequence.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One pool design, named exactly as the daemon's design cache names it.
fn pool_spec(cells: usize, seed: u64) -> SynthesisSpec {
    let nets = cells + cells / 20;
    SynthesisSpec::new(format!("synth_c{cells}_n{nets}_s{seed}_m0"), cells, nets)
        .with_seed(seed)
        .with_macro_count(0)
}

/// One request: its manifest body and the pool index of each job.
#[derive(Debug, Clone)]
struct Planned {
    body: String,
    specs: Vec<usize>,
}

/// What set-up prepares: the pool and each client's request sequence.
struct Plan {
    pool: Vec<SynthesisSpec>,
    /// Cell count of each synthesized pool design (terminals included).
    cells: Vec<usize>,
    requests: Vec<Vec<Planned>>,
}

/// Synthesizes the pool (checking every spec) and builds each client's
/// manifests: job order is a seeded permutation of the pool per 8 jobs,
/// so every two requests of a client cover the whole pool.
fn plan(spec: &ServeSpec, seed: u64) -> Result<Plan, String> {
    let pool: Vec<SynthesisSpec> = spec
        .pool_cells
        .iter()
        .enumerate()
        .map(|(i, &cells)| pool_spec(cells, mix(seed ^ mix(i as u64)) % 1_000_000 + 1))
        .collect();
    let mut cells = Vec::new();
    for s in &pool {
        let design = synthesize(s).map_err(|e| format!("synthesizing {}: {e}", s.name))?;
        cells.push(design.netlist().num_cells());
    }
    let mut requests = Vec::new();
    for client in 0..CLIENTS {
        let mut state = mix(seed.wrapping_mul(31).wrapping_add(client as u64 + 1));
        let mut order = Vec::new();
        while order.len() < REQUESTS_PER_CLIENT * JOBS_PER_REQUEST {
            let mut block: Vec<usize> = (0..pool.len()).collect();
            for i in (1..block.len()).rev() {
                state = mix(state);
                block.swap(i, (state % (i as u64 + 1)) as usize);
            }
            order.extend(block);
        }
        let planned = order
            .chunks(JOBS_PER_REQUEST)
            .take(REQUESTS_PER_CLIENT)
            .enumerate()
            .map(|(k, specs)| {
                let jobs: Vec<String> = specs
                    .iter()
                    .enumerate()
                    .map(|(j, &p)| {
                        let s = &pool[p];
                        let ckpt = if j == JOBS_PER_REQUEST - 1 {
                            format!(", \"checkpoint_every\": {CHECKPOINT_EVERY}")
                        } else {
                            String::new()
                        };
                        format!(
                            "{{\"name\": \"c{client}r{k}j{j}\", \"synth\": {{\"cells\": {}, \"nets\": {}, \"seed\": {}}}{ckpt}}}",
                            s.num_cells, s.num_nets, s.seed
                        )
                    })
                    .collect();
                Planned {
                    body: format!("{{\"jobs\": [{}]}}", jobs.join(", ")),
                    specs: specs.to_vec(),
                }
            })
            .collect();
        requests.push(planned);
    }
    Ok(Plan {
        pool,
        cells,
        requests,
    })
}

type ServerHandle = (SocketAddr, JoinHandle<io::Result<()>>);

fn start_server() -> Result<ServerHandle, String> {
    let server = Server::bind(ServeConfig {
        threads: THREADS,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("binding the daemon: {e}"))?;
    Ok(server.spawn())
}

fn stop_server((addr, handle): ServerHandle) -> Result<(), String> {
    Client::new(addr.to_string())
        .shutdown()
        .map_err(|e| format!("shutting the daemon down: {e}"))?;
    match handle.join() {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => Err(format!("daemon exited with {e}")),
        Err(_) => Err("daemon thread panicked".into()),
    }
}

/// The arrival times of one request's frames.
#[derive(Debug)]
struct Timeline {
    written: Instant,
    hello: Option<Instant>,
    start: Vec<Option<Instant>>,
    done: Vec<Option<Instant>>,
    batch: Option<Instant>,
    frames: usize,
    bytes: usize,
}

/// How the daemon answered one request.
#[derive(Debug)]
enum Reply {
    Rejected(u16),
    Streamed(Timeline, Result<WireBatch, String>),
}

/// Sends `manifest` as `identity` and reads the streamed reply, stamping
/// every frame on arrival.
fn submit(addr: SocketAddr, identity: &str, manifest: &str) -> io::Result<Reply> {
    let request = Request {
        method: "POST".into(),
        target: "/batch".into(),
        headers: vec![
            ("Host".into(), addr.to_string()),
            ("X-Client".into(), identity.into()),
            ("Content-Type".into(), "application/json".into()),
        ],
        body: manifest.as_bytes().to_vec(),
    }
    .render();
    let mut socket = TcpStream::connect(addr)?;
    socket.set_nodelay(true)?;
    socket.set_read_timeout(Some(Duration::from_secs(90)))?;
    let written = Instant::now();
    socket.write_all(&request)?;
    let mut stream = FrameStream::new(&socket);
    let head = stream.head()?;
    if head.status != 200 {
        stream.sized_body(head.content_length.unwrap_or(0))?;
        return Ok(Reply::Rejected(head.status));
    }
    if !head.chunked {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "200 reply is not chunked",
        ));
    }
    let mut frames = Vec::new();
    let mut timeline = Timeline {
        written,
        hello: None,
        start: Vec::new(),
        done: Vec::new(),
        batch: None,
        frames: 0,
        bytes: 0,
    };
    while let Some(line) = stream.next_line()? {
        let at = Instant::now();
        let frame = Frame::from_json_str(&line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        timeline.frames += 1;
        timeline.bytes += line.len() + 1;
        let slot = |v: &mut Vec<Option<Instant>>, job: usize| {
            if v.len() <= job {
                v.resize(job + 1, None);
            }
            v[job] = Some(at);
        };
        match &frame {
            Frame::Start { job } => slot(&mut timeline.start, *job),
            Frame::Job { job, .. } => slot(&mut timeline.done, *job),
            Frame::Hello { .. } => timeline.hello = Some(at),
            Frame::Batch { .. } => timeline.batch = Some(at),
            Frame::Trace { .. } => {}
        }
        frames.push(frame);
    }
    Ok(Reply::Streamed(timeline, assemble(&frames)))
}

/// One client's closed loop: send, read the whole reply, send the next,
/// until the run has lasted `seconds` and completed `min_jobs` jobs.
fn client_loop(
    addr: SocketAddr,
    client: usize,
    requests: &[Planned],
    seconds: f64,
    min_jobs: usize,
    start: Instant,
    answered: &AtomicUsize,
) -> Vec<(Planned, io::Result<Reply>)> {
    let identity = format!("bench-client-{client}");
    let mut replies = Vec::new();
    for k in 0.. {
        let elapsed = secs(start);
        if (elapsed >= seconds && answered.load(Ordering::SeqCst) >= min_jobs)
            || elapsed >= HARD_CAP_S
        {
            break;
        }
        let planned = requests[k % requests.len()].clone();
        let reply = submit(addr, &identity, &planned.body);
        let stop = reply.is_err();
        answered.fetch_add(planned.specs.len(), Ordering::SeqCst);
        replies.push((planned, reply));
        if stop {
            break;
        }
    }
    replies
}

/// The jobs of one pool design: service times and job-record GP wall.
#[derive(Debug, Default)]
struct DesignSamples {
    service: Vec<f64>,
    gp_wall: Vec<f64>,
}

/// Per-job samples and per-pool-design results of a load.
#[derive(Debug, Default)]
struct Load {
    wall_s: f64,
    attempted: usize,
    failed: usize,
    rejects: usize,
    latency: Vec<f64>,
    queue_wait: Vec<f64>,
    service: Vec<f64>,
    tail: Vec<f64>,
    /// Per request: `hello` frame arrival, i.e. the wait for admission.
    admission: Vec<f64>,
    /// Pool index → that design's job samples.
    per_design: BTreeMap<usize, DesignSamples>,
    /// Per request: slowest over fastest job service time.
    hol: Vec<f64>,
    busy_s: f64,
    exec_s: f64,
    frames: usize,
    bytes: usize,
    /// Pool index → (final HPWL, modeled GP ns, iterations) of its jobs.
    results: BTreeMap<usize, (f64, u64, usize)>,
}

fn run_load(
    addr: SocketAddr,
    plan: &Plan,
    spec: &ServeSpec,
    seconds: f64,
    out: &mut Outcome,
) -> Load {
    let start = Instant::now();
    let answered = AtomicUsize::new(0);
    let replies: Vec<Vec<(Planned, io::Result<Reply>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = plan
            .requests
            .iter()
            .enumerate()
            .map(|(client, requests)| {
                let answered = &answered;
                scope.spawn(move || {
                    client_loop(
                        addr,
                        client,
                        requests,
                        seconds,
                        spec.min_jobs,
                        start,
                        answered,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut load = Load {
        wall_s: secs(start),
        ..Load::default()
    };
    for (planned, reply) in replies.into_iter().flatten() {
        let n = planned.specs.len();
        load.attempted += n;
        let (timeline, batch) = match reply {
            Err(e) => {
                load.failed += n;
                out.error(format!("request failed: {e}"));
                continue;
            }
            Ok(Reply::Rejected(status)) => {
                load.failed += n;
                load.rejects += 1;
                out.error(format!("request rejected with HTTP {status}"));
                continue;
            }
            Ok(Reply::Streamed(timeline, batch)) => (timeline, batch),
        };
        load.frames += timeline.frames;
        load.bytes += timeline.bytes;
        if let Some(hello) = timeline.hello {
            load.admission
                .push((hello - timeline.written).as_secs_f64());
        }
        let batch = match batch {
            Ok(batch) => batch,
            Err(e) => {
                load.failed += n;
                out.error(format!("stream rejected by wire::assemble: {e}"));
                continue;
            }
        };
        let first_start = timeline.start.iter().flatten().min().copied();
        if let (Some(first), Some(end)) = (first_start, timeline.batch) {
            load.exec_s += (end - first).as_secs_f64();
        }
        let mut services = Vec::new();
        for (j, record) in batch.report.jobs.iter().enumerate() {
            let pool_index = planned.specs[j];
            let ok = job_ok(record, pool_index, plan, &mut load, out);
            load.failed += usize::from(!ok);
            let stamps = (
                timeline.start.get(j).copied().flatten(),
                timeline.done.get(j).copied().flatten(),
            );
            if let (Some(started), Some(done), Some(end)) = (stamps.0, stamps.1, timeline.batch) {
                let service = (done - started).as_secs_f64();
                load.latency.push((done - timeline.written).as_secs_f64());
                load.queue_wait
                    .push((started - timeline.written).as_secs_f64());
                load.service.push(service);
                load.tail.push((end - done).as_secs_f64());
                load.busy_s += service;
                load.per_design
                    .entry(pool_index)
                    .or_default()
                    .service
                    .push(service);
                services.push(service);
            } else {
                load.failed += usize::from(ok);
                out.error(format!(
                    "{}: missing start, job or batch frame",
                    record.name
                ));
            }
        }
        let fastest = services.iter().copied().fold(f64::INFINITY, f64::min);
        if services.len() == n && fastest > 0.0 {
            let slowest = services.iter().copied().fold(0.0, f64::max);
            load.hol.push(slowest / fastest);
        }
    }
    load
}

/// The served-job gate: completed, converged, the right design, and
/// bit-identical to every other job of the same pool design.
fn job_ok(
    record: &xplace_telemetry::JobRecord,
    pool_index: usize,
    plan: &Plan,
    load: &mut Load,
    out: &mut Outcome,
) -> bool {
    let name = &record.name;
    let Some(report) = record
        .report
        .as_ref()
        .filter(|_| record.status == JobStatus::Completed)
    else {
        out.error(format!(
            "{name}: failed: {}",
            record.error.as_deref().unwrap_or("?")
        ));
        return false;
    };
    let mut ok = out.check(
        report.gp.converged && report.gp.final_overflow <= flow::STOP_OVERFLOW,
        || {
            format!(
                "{name}: GP did not converge (overflow {:.4})",
                report.gp.final_overflow
            )
        },
    );
    ok &= out.check(report.cells == plan.cells[pool_index], || {
        format!(
            "{name}: placed {} cells, pool design has {}",
            report.cells, plan.cells[pool_index]
        )
    });
    if name.ends_with(&format!("j{}", JOBS_PER_REQUEST - 1)) {
        ok &= out.check(record.checkpoints > 0, || {
            format!("{name}: no checkpoint was saved")
        });
    }
    let result = (
        report.final_hpwl(),
        report.gp.modeled_ns,
        report.gp.iterations,
    );
    let first = *load.results.entry(pool_index).or_insert(result);
    ok &= out.check(
        first.0.to_bits() == result.0.to_bits() && first.1 == result.1 && first.2 == result.2,
        || format!("{name}: (HPWL, modeled ns, iterations) {result:?} differ from {first:?} for the same design"),
    );
    load.per_design
        .entry(pool_index)
        .or_default()
        .gp_wall
        .push(report.gp.wall_seconds);
    ok
}

/// Cache hit ratios from `GET /stats`.
fn cache_ratios(addr: SocketAddr) -> Result<(f64, f64), String> {
    let stats = Client::new(addr.to_string())
        .stats()
        .map_err(|e| format!("GET /stats: {e}"))?;
    let ratio = |section: &str| -> Result<f64, String> {
        let get = |key: &str| {
            stats
                .field(section)
                .and_then(|s| s.field(key))
                .and_then(Json::as_f64)
                .map_err(|e| format!("/stats {section}.{key}: {e}"))
        };
        let (hits, misses) = (get("hits")?, get("misses")?);
        Ok(hits / (hits + misses).max(1.0))
    };
    Ok((ratio("design_cache")?, ratio("plan_cache")?))
}

/// Runs the served workload, or its traced per-layer variant.
pub fn run_workload(
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: &Path,
) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_times = Vec::new();
    let mut ready: Option<(Plan, ServerHandle)> = None;
    for _ in 0..SETUP_REPS {
        let (prepared, t) = timed(|| plan(spec, seed).and_then(|p| start_server().map(|s| (p, s))));
        setup_times.push(t);
        let replaced = match prepared {
            Ok(prepared) => ready.replace(prepared),
            Err(e) => {
                out.error(format!("set-up: {e}"));
                ready.take()
            }
        };
        if let Some((_, server)) = replaced {
            if let Err(e) = stop_server(server) {
                out.error(e);
            }
        }
        if !out.correct() {
            return out;
        }
    }
    let (plan, server) = ready.expect("set-up ran");
    let addr = server.0;
    let load = run_load(addr, &plan, spec, seconds, &mut out);
    let caches = cache_ratios(addr);
    if let Err(e) = stop_server(server) {
        out.error(e);
    }
    out.attempted += load.attempted;
    out.failed += load.failed;
    for (i, s) in plan.pool.iter().enumerate() {
        out.check(load.results.contains_key(&i), || {
            format!("pool design {} was never served", s.name)
        });
    }
    println!(
        "served {} jobs in {:.2} s over {} frames",
        load.latency.len(),
        load.wall_s,
        load.frames
    );
    if trace {
        put_serving(&load, caches, &mut out);
        traced_layers(&plan, work, &mut out);
        let attempted = out.attempted.max(1) as f64;
        out.put("failed_frac", out.failed as f64 / attempted, "ratio");
    } else {
        out.put("setup_s", median(&setup_times), "s");
        // Serving the pool once: each design's median over its jobs,
        // summed, so the mix of sizes in a run does not move the figure.
        let designs = load.per_design.values();
        let service: f64 = designs.clone().map(|d| median(&d.service)).sum();
        let gp_wall: f64 = designs.map(|d| median(&d.gp_wall)).sum();
        out.put("flow_wall_s", service, "s");
        out.put("gp_wall_s", gp_wall, "s");
        out.put(
            "hpwl_final",
            load.results.values().map(|r| r.0).sum(),
            "dbu",
        );
        let modeled: u64 = load.results.values().map(|r| r.1).sum();
        out.put("modeled_gp_ms", modeled as f64 / 1e6, "ms");
        out.put("peak_rss_mb", peak_rss_mb(), "MB");
        out.put("jobs_per_s", load.latency.len() as f64 / load.wall_s, "1/s");
        out.put("job_latency_p50_s", median(&load.latency), "s");
        out.put("job_latency_p90_s", quantile(&load.latency, 0.9), "s");
    }
    out
}

fn put_serving(load: &Load, caches: Result<(f64, f64), String>, out: &mut Outcome) {
    out.put("serve.admission_wait_p50_s", median(&load.admission), "s");
    out.put("serve.queue_wait_p50_s", median(&load.queue_wait), "s");
    out.put(
        "serve.queue_wait_p90_s",
        quantile(&load.queue_wait, 0.9),
        "s",
    );
    out.put("serve.service_p50_s", median(&load.service), "s");
    out.put("serve.service_p90_s", quantile(&load.service, 0.9), "s");
    out.put("serve.stream_tail_p50_s", median(&load.tail), "s");
    out.put("serve.frames", load.frames as f64, "count");
    out.put("serve.bytes", load.bytes as f64, "bytes");
    let (design, plan) = caches.unwrap_or_else(|e| {
        out.error(e);
        (0.0, 0.0)
    });
    out.put("serve.design_cache_hit_ratio", design, "ratio");
    out.put("serve.plan_cache_hit_ratio", plan, "ratio");
    out.put("serve.rejects", load.rejects as f64, "count");
    out.put("serve.hol_ratio", median(&load.hol), "ratio");
    out.put("serve.jobs", load.service.len() as f64, "count");
    out.put("sched.batch_speedup", load.busy_s / load.exec_s, "ratio");
}

/// The serving metrics of a workload without a daemon.
pub fn put_no_serving(out: &mut Outcome) {
    for name in [
        "serve.admission_wait_p50_s",
        "serve.queue_wait_p50_s",
        "serve.queue_wait_p90_s",
        "serve.service_p50_s",
        "serve.service_p90_s",
        "serve.stream_tail_p50_s",
    ] {
        out.put(name, 0.0, "s");
    }
    out.put("serve.frames", 0.0, "count");
    out.put("serve.bytes", 0.0, "bytes");
    out.put("serve.design_cache_hit_ratio", 0.0, "ratio");
    out.put("serve.plan_cache_hit_ratio", 0.0, "ratio");
    out.put("serve.rejects", 0.0, "count");
    out.put("serve.hol_ratio", 0.0, "ratio");
    out.put("serve.jobs", 0.0, "count");
    out.put("sched.batch_speedup", 0.0, "ratio");
}

/// The per-layer numbers of the served designs: each pool design runs
/// the timed flow in-process (untraced and traced), and the kernel and
/// checkpoint probes run on the largest one.
fn traced_layers(plan: &Plan, work: &Path, out: &mut Outcome) {
    let config = XplaceConfig::xplace().with_threads(THREADS);
    let mut pairs: Vec<TracedPair> = Vec::new();
    for s in &plan.pool {
        let dir = work.join(&s.name);
        let aux = match std::fs::create_dir_all(&dir)
            .map_err(|e| e.to_string())
            .and_then(|()| flow::write_design(s, &dir))
        {
            Ok(aux) => aux,
            Err(e) => return out.error(format!("{}: {e}", s.name)),
        };
        match flow::traced_pair(&aux, &dir, &config, &s.name, out) {
            Some(pair) => pairs.push(pair),
            None => return,
        }
    }
    put_flow_layers(&pairs, out);
    probes::put_no_coarsening(out);
    let largest = pairs
        .iter()
        .max_by_key(|p| {
            p.plain
                .designs
                .as_ref()
                .map_or(0, |d| d.0.netlist().num_cells())
        })
        .expect("the pool is not empty");
    probes::put_kernel_probes(largest, &config, out);
    probes::put_checkpoint(largest, &config, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small served load completes every job, checks every stream, and
    /// reports exactly the declared metrics in both modes.
    #[test]
    fn tiny_served_load_passes_its_gates() {
        let spec = ServeSpec {
            pool_cells: &[150, 200, 250, 300],
            min_jobs: 12,
        };
        let work = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_work")
            .join(format!("test-serve-{}", std::process::id()));
        std::fs::create_dir_all(&work).unwrap();
        for trace in [false, true] {
            let out = run_workload(&spec, 4, 0.2, trace, &work);
            assert!(out.correct(), "{:?}", out.errors);
            assert!(out.attempted >= spec.min_jobs && out.failed == 0, "{out:?}");
            let mut names: Vec<&str> = out.metrics.iter().map(|m| m.0.as_str()).collect();
            names.sort_unstable();
            let mut want = if trace {
                crate::PER_LAYER.to_vec()
            } else {
                crate::END_TO_END.to_vec()
            };
            want.sort_unstable();
            assert_eq!(names, want);
        }
        std::fs::remove_dir_all(&work).ok();
    }
}
