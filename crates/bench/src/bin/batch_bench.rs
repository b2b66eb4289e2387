//! Batch-of-K throughput vs K serial invocations.
//!
//! ```text
//! batch_bench [--jobs K] [--cells N] [--iters N] [--threads N]
//! ```
//!
//! Builds a manifest of K synthetic designs (distinct synthesis seeds),
//! places them once serially (one [`run_job`] at a time, fresh cache per
//! job — the cost of K separate `xplace place` invocations, minus process
//! startup) and once as a concurrent batch, then prints both wall-clock
//! times and the speedup. Before timing is trusted, every job's final
//! HPWL is asserted bit-identical between the two modes: the batch
//! scheduler must change scheduling only, never results.

use std::time::Instant;
use xplace_bench::{argv_parse, argv_threads, fmt, TextTable};
use xplace_db::DesignCache;
use xplace_sched::{run_batch, run_job, BatchManifest};

fn main() {
    let jobs: usize = argv_parse("--jobs", 4);
    let cells: usize = argv_parse("--cells", 400);
    let iters: usize = argv_parse("--iters", 150);
    let threads = argv_threads(xplace_bench::default_workers());

    let entries: Vec<String> = (0..jobs)
        .map(|i| {
            format!(
                r#"{{"name": "job{i}", "synth": {{"cells": {cells}, "nets": {}, "seed": {}}}, "max_iters": {iters}}}"#,
                cells + cells / 20,
                i + 1
            )
        })
        .collect();
    let manifest = BatchManifest::parse(&format!(r#"{{"jobs": [{}]}}"#, entries.join(", ")))
        .expect("generated manifest is valid");
    println!("batch_bench: {jobs} jobs x {cells} cells x {iters} iters, {threads} threads");

    let serial_start = Instant::now();
    let serial: Vec<_> = manifest
        .jobs
        .iter()
        .map(|job| {
            // A fresh cache per job mirrors K independent CLI invocations.
            run_job(job, threads, &DesignCache::new()).expect("serial job failed")
        })
        .collect();
    let serial_s = serial_start.elapsed().as_secs_f64();

    let batch_start = Instant::now();
    let batch = run_batch(&manifest, threads);
    let batch_s = batch_start.elapsed().as_secs_f64();

    assert!(batch.report.all_completed(), "batch had failed jobs");
    for (i, record) in batch.report.jobs.iter().enumerate() {
        let got = record.report.as_ref().unwrap().final_hpwl();
        let want = serial[i].report.final_hpwl();
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "job {i}: batch HPWL {got} != serial HPWL {want}"
        );
    }
    println!("metric check: batch HPWL bit-identical to serial for all {jobs} jobs");

    let mut table = TextTable::new(&["mode", "wall s", "designs/s"]);
    table.row(vec![
        "serial".into(),
        fmt(serial_s, 3),
        fmt(jobs as f64 / serial_s, 2),
    ]);
    table.row(vec![
        "batch".into(),
        fmt(batch_s, 3),
        fmt(jobs as f64 / batch_s, 2),
    ]);
    print!("{}", table.render());
    println!("speedup: {:.2}x", serial_s / batch_s);
}
