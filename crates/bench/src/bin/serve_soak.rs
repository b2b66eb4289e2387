//! Soak-tests the serving daemon under sustained multi-client load.
//!
//! ```text
//! serve_soak [--smoke] [--addr HOST:PORT] [--out-dir DIR]
//! ```
//!
//! Spawns an in-process daemon (2 threads, queue depth 2) or attaches to
//! `--addr`, and drives it with concurrent clients, each submitting
//! several manifests back to back. The queue depth is kept deliberately
//! small so load shedding fires and the polite retry loop is exercised.
//! Afterwards the harness asserts the soak invariants:
//!
//! * **zero lost completions** — every submitted job comes back as a
//!   completed record with an intact trace, and the daemon's
//!   `batches_completed` counter advanced by exactly the number of
//!   submissions;
//! * **fairness** — the per-client completion counts never drift apart
//!   by more than the client count (round-robin admission must not
//!   starve anyone);
//! * **cache hit floor** — all clients draw from one pool of distinct
//!   synthetic designs, so the daemon's design cache may miss
//!   at most once per distinct design and must hit everything else.
//!
//! The full run is 4 clients x 5 batches x 10 jobs over 8 designs;
//! `--smoke` runs the seconds-scale variant for CI, 3 clients x 2 batches
//! x 4 jobs over 4 designs. `--out-dir` writes a JSON summary there.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use xplace_bench::{argv_flag, argv_only, fmt, TextTable};
use xplace_serve::{Client, ServeConfig, Server, Submission};
use xplace_telemetry::Json;

/// Worker threads of the in-process daemon.
const THREADS: usize = 2;
/// Queue depth of the in-process daemon: small enough that shedding
/// actually fires under full load.
const QUEUE_DEPTH: usize = 2;

struct SoakConfig {
    clients: usize,
    batches: usize,
    jobs: usize,
    cells: usize,
    iters: usize,
    designs: usize,
}

fn soak_config(smoke: bool) -> SoakConfig {
    let (clients, batches, jobs, cells, iters, designs) = if smoke {
        (3, 2, 4, 60, 12, 4)
    } else {
        (4, 5, 10, 80, 20, 8)
    };
    SoakConfig {
        clients,
        batches,
        jobs,
        cells,
        iters,
        designs,
    }
}

/// The manifest client `c` submits as its `b`-th batch: `jobs` jobs
/// cycling through the shared pool of `designs` distinct synth specs.
fn manifest_text(cfg: &SoakConfig, c: usize, b: usize) -> String {
    let entries: Vec<String> = (0..cfg.jobs)
        .map(|j| {
            let design = (c * cfg.batches * cfg.jobs + b * cfg.jobs + j) % cfg.designs;
            format!(
                r#"{{"name": "c{c}b{b}j{j}", "synth": {{"cells": {}, "nets": {}, "seed": {}}}, "max_iters": {}}}"#,
                cfg.cells,
                cfg.cells + cfg.cells / 20,
                design + 1,
                cfg.iters
            )
        })
        .collect();
    format!(r#"{{"jobs": [{}]}}"#, entries.join(", "))
}

fn usize_at(stats: &Json, path: &[&str]) -> usize {
    let mut node = stats;
    for key in path {
        node = node
            .field(key)
            .unwrap_or_else(|e| panic!("/stats field {key}: {e}"));
    }
    node.as_usize()
        .unwrap_or_else(|e| panic!("/stats field {}: {e}", path.join(".")))
}

#[derive(Default)]
struct ClientTally {
    completed: usize,
    jobs_seen: usize,
    retries: usize,
}

fn main() {
    argv_only(&["--smoke", "--addr", "--out-dir"]);
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cfg = soak_config(smoke);
    let total_batches = cfg.clients * cfg.batches;
    let total_jobs = total_batches * cfg.jobs;
    println!(
        "serve_soak: {} clients x {} batches x {} jobs = {} jobs over {} designs{}",
        cfg.clients,
        cfg.batches,
        cfg.jobs,
        total_jobs,
        cfg.designs,
        if smoke { " (smoke)" } else { "" }
    );

    // Attach to an external daemon, or spawn one in-process.
    let (addr, server_handle) = match argv_flag("--addr") {
        Some(addr) => (addr, None),
        None => {
            let server = Server::bind(ServeConfig {
                threads: THREADS,
                queue_depth: QUEUE_DEPTH,
                ..Default::default()
            })
            .expect("bind ephemeral port");
            let (addr, handle) = server.spawn();
            (addr.to_string(), Some(handle))
        }
    };
    let probe = Client::new(addr.clone());
    let before = probe.stats().expect("daemon answers /stats");

    // Per-client completion counts, updated under one lock so the
    // fairness spread is measured at every completion instant.
    let counts = Mutex::new(vec![0usize; cfg.clients]);
    let max_spread = Mutex::new(0usize);
    let failed = AtomicBool::new(false);
    let start = Instant::now();

    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|c| {
                let client = Client::new(addr.clone()).with_identity(format!("soak{c}"));
                let (cfg, counts, max_spread, failed) = (&cfg, &counts, &max_spread, &failed);
                scope.spawn(move || {
                    let mut tally = ClientTally::default();
                    for b in 0..cfg.batches {
                        let manifest = manifest_text(cfg, c, b);
                        let batch = loop {
                            match client.submit(&manifest) {
                                Ok(Submission::Completed(batch)) => break batch,
                                Ok(Submission::Rejected {
                                    status: status @ (429 | 503),
                                    retry_after,
                                    ..
                                }) => {
                                    tally.retries += 1;
                                    let wait = retry_after.unwrap_or(1).clamp(1, 5);
                                    let _ = status;
                                    std::thread::sleep(Duration::from_millis(wait * 50));
                                }
                                Ok(Submission::Rejected {
                                    status, message, ..
                                }) => {
                                    failed.store(true, Ordering::Relaxed);
                                    panic!("client {c} batch {b}: hard {status}: {message}");
                                }
                                Err(e) => {
                                    failed.store(true, Ordering::Relaxed);
                                    panic!("client {c} batch {b}: transport error: {e}");
                                }
                            }
                        };
                        assert!(
                            batch.report.all_completed(),
                            "client {c} batch {b} had failed jobs"
                        );
                        assert_eq!(batch.report.total(), cfg.jobs);
                        assert!(
                            batch.traces.iter().all(Option::is_some),
                            "client {c} batch {b} lost a trace"
                        );
                        tally.completed += 1;
                        tally.jobs_seen += batch.report.total();
                        let mut counts = counts.lock().unwrap();
                        counts[c] += 1;
                        let hi = *counts.iter().max().unwrap();
                        let lo = *counts.iter().min().unwrap();
                        let mut spread = max_spread.lock().unwrap();
                        *spread = (*spread).max(hi - lo);
                    }
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    assert!(
        !failed.load(Ordering::Relaxed),
        "a client hit a hard failure"
    );

    let after = probe.stats().expect("daemon still answers /stats");
    let spread = *max_spread.lock().unwrap();
    let retries: usize = tallies.iter().map(|t| t.retries).sum();

    // Zero lost completions: every submission returned, every job record
    // arrived, and the daemon agrees it ran exactly this much work.
    let completed: usize = tallies.iter().map(|t| t.completed).sum();
    let jobs_seen: usize = tallies.iter().map(|t| t.jobs_seen).sum();
    assert_eq!(completed, total_batches, "lost batch completions");
    assert_eq!(jobs_seen, total_jobs, "lost job records");
    let batches_delta =
        usize_at(&after, &["batches_completed"]) - usize_at(&before, &["batches_completed"]);
    assert_eq!(
        batches_delta, total_batches,
        "daemon-side completion counter disagrees"
    );
    let failed_delta = usize_at(&after, &["jobs_failed"]) - usize_at(&before, &["jobs_failed"]);
    assert_eq!(failed_delta, 0, "daemon recorded failed jobs");

    // Fairness: round-robin admission keeps per-client progress close.
    let spread_cap = cfg.clients.max(3);
    assert!(
        spread <= spread_cap,
        "fairness violated: per-client completion spread hit {spread} (cap {spread_cap})"
    );

    // Cache hit floor: one pool of `designs` distinct specs shared by
    // every client — at most one miss per design, hits for the rest.
    let misses_delta = usize_at(&after, &["design_cache", "misses"])
        - usize_at(&before, &["design_cache", "misses"]);
    let hits_delta =
        usize_at(&after, &["design_cache", "hits"]) - usize_at(&before, &["design_cache", "hits"]);
    assert!(
        misses_delta <= cfg.designs,
        "design cache missed {misses_delta} times for {} distinct designs",
        cfg.designs
    );
    assert_eq!(
        hits_delta,
        total_jobs - misses_delta,
        "design cache hit accounting is not exact"
    );
    let plan_hits_delta =
        usize_at(&after, &["plan_cache", "hits"]) - usize_at(&before, &["plan_cache", "hits"]);
    assert!(plan_hits_delta > 0, "DCT plans were never reused");

    let mut table = TextTable::new(&["client", "batches", "jobs", "retries"]);
    for (c, tally) in tallies.iter().enumerate() {
        table.row(vec![
            format!("soak{c}"),
            tally.completed.to_string(),
            tally.jobs_seen.to_string(),
            tally.retries.to_string(),
        ]);
    }
    print!("{}", table.render());
    println!(
        "wall {} s, {} jobs/s, {retries} shed-and-retried, fairness spread {spread} (cap {spread_cap})",
        fmt(wall, 2),
        fmt(total_jobs as f64 / wall, 1)
    );
    println!(
        "design cache: {hits_delta} hits / {misses_delta} misses (floor: >= {} hits)",
        total_jobs - cfg.designs
    );

    if let Some(dir) = argv_flag("--out-dir") {
        let dir = std::path::PathBuf::from(dir);
        std::fs::create_dir_all(&dir).expect("create --out-dir");
        let summary = Json::obj([
            ("clients", Json::num(cfg.clients as f64)),
            ("batches", Json::num(total_batches as f64)),
            ("jobs", Json::num(total_jobs as f64)),
            ("retries", Json::num(retries as f64)),
            ("fairness_spread", Json::num(spread as f64)),
            ("cache_hits", Json::num(hits_delta as f64)),
            ("cache_misses", Json::num(misses_delta as f64)),
            ("wall_seconds", Json::num(wall)),
        ]);
        let path = dir.join("serve_soak.json");
        std::fs::write(&path, format!("{}\n", summary.render())).expect("write soak summary");
        println!("summary written to {}", path.display());
    }

    if let Some(handle) = server_handle {
        probe.shutdown().expect("graceful shutdown");
        handle
            .join()
            .expect("server thread")
            .expect("server exits cleanly");
    }
    println!("serve_soak: all invariants held");
}
