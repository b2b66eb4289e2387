//! End-to-end batch scheduler tests: determinism against serial runs,
//! failure isolation, and the `xplace batch` CLI contract.
//!
//! The core claim under test is the scheduler's determinism contract: a
//! batch of N designs must produce, for every job, metrics and telemetry
//! traces **byte-identical** to what N independent serial `place` runs
//! of the same designs would produce — for any thread count.

use std::path::PathBuf;
use xplace::core::GlobalPlacer;
use xplace::db::DesignCache;
use xplace::legal::{detailed_place, legalize, DpConfig};
use xplace::sched::{run_batch, BatchManifest};
use xplace::telemetry::{FromJson, JobStatus, RunReport, VecSink};

const MAX_ITERS: usize = 120;

fn synth_manifest() -> BatchManifest {
    let jobs: Vec<String> = [(300usize, 320usize, 3u64), (260, 280, 4), (340, 360, 5)]
        .iter()
        .enumerate()
        .map(|(i, (cells, nets, seed))| {
            format!(
                r#"{{"name": "job{i}", "synth": {{"cells": {cells}, "nets": {nets}, "seed": {seed}}}, "max_iters": {MAX_ITERS}, "seed": {}}}"#,
                seed + 100
            )
        })
        .collect();
    BatchManifest::parse(&format!(r#"{{"jobs": [{}]}}"#, jobs.join(", ")))
        .expect("test manifest parses")
}

/// The serial reference: the exact flow `xplace place --trace` runs,
/// written out independently of `run_job` so the test checks the
/// scheduler against the flow, not against itself.
fn serial_reference(manifest: &BatchManifest) -> Vec<(f64, f64, String)> {
    manifest
        .jobs
        .iter()
        .map(|job| {
            let spec = job.source.synth_spec().expect("synth job");
            let mut design = xplace::db::synthesis::synthesize(&spec).expect("synthesis");
            let config = job.config(1);
            let mut sink = VecSink::new();
            let gp = GlobalPlacer::new(config)
                .place_traced(&mut design, &mut sink)
                .expect("serial GP");
            legalize(&mut design).expect("serial LG");
            let dp = detailed_place(&mut design, &DpConfig::default());
            (dp.final_hpwl, gp.final_overflow, sink.to_jsonl())
        })
        .collect()
}

#[test]
fn batch_of_three_matches_three_serial_runs_bytewise() {
    let manifest = synth_manifest();
    let serial = serial_reference(&manifest);
    for threads in [1, 4] {
        let batch = run_batch(&manifest, threads);
        assert!(
            batch.report.all_completed(),
            "batch failed at {threads} threads: {:?}",
            batch.report.jobs
        );
        for (i, (hpwl, overflow, trace)) in serial.iter().enumerate() {
            let report = batch.report.jobs[i].report.as_ref().unwrap();
            assert_eq!(
                report.dp.as_ref().unwrap().final_hpwl.to_bits(),
                hpwl.to_bits(),
                "job {i}: HPWL diverged from serial at {threads} threads"
            );
            assert_eq!(
                report.gp.final_overflow.to_bits(),
                overflow.to_bits(),
                "job {i}: overflow diverged from serial at {threads} threads"
            );
            assert_eq!(
                batch.traces[i].as_deref(),
                Some(trace.as_str()),
                "job {i}: trace bytes diverged from serial at {threads} threads"
            );
        }
    }
}

#[test]
fn injected_failure_is_isolated_and_reported() {
    let broken = format!(
        r#"{{"jobs": [
            {{"name": "ok1", "synth": {{"cells": 260, "nets": 280, "seed": 4}}, "max_iters": {MAX_ITERS}, "seed": 104}},
            {{"name": "doomed", "synth": {{"cells": 300, "nets": 320, "seed": 3}}, "max_iters": {MAX_ITERS}, "seed": 103}},
            {{"name": "ok2", "synth": {{"cells": 340, "nets": 360, "seed": 5}}, "max_iters": {MAX_ITERS}, "seed": 105}}
        ],
        "faults": [{{"target": "doomed", "kind": "gp_panic", "iteration": 7}}]}}"#
    );
    let manifest = BatchManifest::parse(&broken).expect("manifest parses");
    let batch = run_batch(&manifest, 4);

    assert_eq!(batch.report.total(), 3);
    assert_eq!(batch.report.failed(), 1, "exactly one job must fail");
    let doomed = batch.report.job("doomed").unwrap();
    assert_eq!(doomed.status, JobStatus::Failed);
    assert!(
        doomed
            .error
            .as_deref()
            .unwrap()
            .contains("injected failure at GP iteration 7"),
        "{:?}",
        doomed.error
    );

    // Siblings are bit-identical to a batch with no faulty job at all.
    let healthy = run_batch(&synth_manifest(), 4);
    for (name, healthy_idx) in [("ok1", 1), ("ok2", 2)] {
        let sibling = batch.report.job(name).unwrap();
        assert_eq!(sibling.status, JobStatus::Completed, "{name}");
        let got = sibling.report.as_ref().unwrap();
        let want = healthy.report.jobs[healthy_idx].report.as_ref().unwrap();
        assert_eq!(
            got.gp.final_hpwl.to_bits(),
            want.gp.final_hpwl.to_bits(),
            "{name}: a failing sibling must not perturb metrics"
        );
    }
}

// --- CLI-level tests (drive the real binary) ------------------------------

/// `report` with its machine-dependent fields (wall-clock times, thread
/// count) zeroed, leaving only what the flow determines.
fn without_wall_clock(mut report: RunReport) -> RunReport {
    report.threads = 0;
    report.gp.wall_seconds = 0.0;
    if let Some(lg) = report.lg.as_mut() {
        lg.wall_seconds = 0.0;
    }
    if let Some(dp) = report.dp.as_mut() {
        dp.wall_seconds = 0.0;
    }
    report
}

fn xplace_bin() -> &'static str {
    env!("CARGO_BIN_EXE_xplace")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xplace-batch-flow-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn batch_cli_matches_place_cli_trace_bytes() {
    let dir = temp_dir("cli");
    // Two bookshelf designs on disk, placed both ways.
    let mut aux_paths = Vec::new();
    for seed in [3u64, 4] {
        let spec =
            xplace::db::synthesis::SynthesisSpec::new(format!("d{seed}"), 250, 270).with_seed(seed);
        let design = xplace::db::synthesis::synthesize(&spec).expect("synthesis");
        let subdir = dir.join(format!("d{seed}"));
        std::fs::create_dir_all(&subdir).unwrap();
        aux_paths.push(xplace::db::bookshelf::write_design(&design, &subdir).expect("write aux"));
    }

    let manifest_path = dir.join("suite.json");
    let manifest_text = format!(
        r#"{{"jobs": [
            {{"name": "d3", "aux": "{}", "max_iters": 90, "seed": 11}},
            {{"name": "d4", "aux": "{}", "max_iters": 90, "seed": 12}}
        ]}}"#,
        aux_paths[0].display(),
        aux_paths[1].display()
    );
    std::fs::write(&manifest_path, manifest_text).unwrap();

    let trace_dir = dir.join("traces");
    let batch_report_path = dir.join("batch.json");
    let status = std::process::Command::new(xplace_bin())
        .args([
            "batch",
            manifest_path.to_str().unwrap(),
            "--threads",
            "2",
            "--trace-dir",
            trace_dir.to_str().unwrap(),
            "--report",
            batch_report_path.to_str().unwrap(),
        ])
        .status()
        .expect("spawn xplace batch");
    assert!(status.success(), "batch CLI must exit 0 on success");

    for (job, (aux, seed)) in ["d3", "d4"].iter().zip(aux_paths.iter().zip([11usize, 12])) {
        let serial_trace = dir.join(format!("{job}.serial.jsonl"));
        let serial_report = dir.join(format!("{job}.serial.json"));
        let status = std::process::Command::new(xplace_bin())
            .args([
                "place",
                aux.to_str().unwrap(),
                "--max-iters",
                "90",
                "--seed",
                &seed.to_string(),
                "--threads",
                "2",
                "--trace",
                serial_trace.to_str().unwrap(),
                "--report",
                serial_report.to_str().unwrap(),
                "-o",
                dir.join(format!("{job}.pl")).to_str().unwrap(),
            ])
            .status()
            .expect("spawn xplace place");
        assert!(status.success(), "place CLI must exit 0");

        let batch_trace = std::fs::read(trace_dir.join(format!("{job}.jsonl"))).unwrap();
        let serial_trace = std::fs::read(&serial_trace).unwrap();
        assert_eq!(
            batch_trace, serial_trace,
            "{job}: batch trace must be byte-identical to the serial place trace"
        );

        let serial: RunReport =
            RunReport::from_json_str(&std::fs::read_to_string(&serial_report).unwrap()).unwrap();
        let batch_text = std::fs::read_to_string(&batch_report_path).unwrap();
        let batch: xplace::telemetry::BatchReport =
            xplace::telemetry::BatchReport::from_json_str(&batch_text).unwrap();
        let job_report = batch.job(job).unwrap().report.as_ref().unwrap().clone();
        // Both reports come out of the one shared back half, so every
        // deterministic field of every stage section must agree.
        let (serial, job_report) = (without_wall_clock(serial), without_wall_clock(job_report));
        assert_eq!(job_report.gp, serial.gp, "{job}: gp sections differ");
        assert_eq!(job_report.lg, serial.lg, "{job}: lg sections differ");
        assert_eq!(job_report.dp, serial.dp, "{job}: dp sections differ");
        assert_eq!(
            job_report.route, serial.route,
            "{job}: route sections differ"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_cli_exits_nonzero_when_a_job_fails() {
    let dir = temp_dir("fail");
    let manifest_path = dir.join("fail.json");
    std::fs::write(
        &manifest_path,
        r#"{"jobs": [
            {"name": "fine",  "synth": {"cells": 200, "nets": 210, "seed": 3}, "max_iters": 60},
            {"name": "crash", "synth": {"cells": 200, "nets": 210, "seed": 3}, "max_iters": 60}
        ],
        "faults": [{"target": "crash", "kind": "gp_panic", "iteration": 4}]}"#,
    )
    .unwrap();
    let report_path = dir.join("batch.json");
    let output = std::process::Command::new(xplace_bin())
        .args([
            "batch",
            manifest_path.to_str().unwrap(),
            "--threads",
            "2",
            "--report",
            report_path.to_str().unwrap(),
        ])
        .output()
        .expect("spawn xplace batch");
    assert_eq!(
        output.status.code(),
        Some(1),
        "a failed job must make the process exit 1"
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("FAILED"), "{stdout}");
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("1 of 2 job(s) failed"),
        "stderr must summarize the failure"
    );
    // The report is still written, with exactly one failed record.
    let report = xplace::telemetry::BatchReport::from_json_str(
        &std::fs::read_to_string(&report_path).unwrap(),
    )
    .unwrap();
    assert_eq!(report.failed(), 1);
    assert_eq!(report.job("fine").unwrap().status, JobStatus::Completed);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_cli_fails_an_oversized_grid_job_by_name() {
    // A power-of-two grid far above the solver bound used to pass
    // validation and abort the whole process on a 32 GiB allocation.
    let dir = temp_dir("hugegrid");
    let manifest_path = dir.join("huge.json");
    std::fs::write(
        &manifest_path,
        r#"{"jobs": [
            {"name": "fine", "synth": {"cells": 200, "nets": 210, "seed": 3}, "max_iters": 60},
            {"name": "huge", "synth": {"cells": 200, "nets": 210, "seed": 3}, "max_iters": 60,
             "grid": 65536}
        ]}"#,
    )
    .unwrap();
    let output = std::process::Command::new(xplace_bin())
        .args(["batch", manifest_path.to_str().unwrap(), "--threads", "2"])
        .output()
        .expect("spawn xplace batch");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(1), "{stdout}");
    let line = |name: &str| {
        stdout
            .lines()
            .find(|l| l.trim_start().starts_with(name))
            .unwrap_or_default()
    };
    assert!(
        line("huge").contains("FAILED")
            && line("huge").contains("grid override 65536 exceeds the maximum"),
        "the oversized job must fail by name: {stdout}"
    );
    assert!(line("fine").contains("completed"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_cli_rejects_bad_manifests() {
    let dir = temp_dir("badmanifest");
    let manifest_path = dir.join("dup.json");
    std::fs::write(
        &manifest_path,
        r#"{"jobs": [{"name": "a", "synth": {"cells": 10}},
                     {"name": "a", "synth": {"cells": 20}}]}"#,
    )
    .unwrap();
    let output = std::process::Command::new(xplace_bin())
        .args(["batch", manifest_path.to_str().unwrap()])
        .output()
        .expect("spawn xplace batch");
    assert_eq!(output.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("duplicate job name"),
        "stderr must name the manifest problem"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shared_cache_does_not_change_results() {
    // Two jobs on the same design share one cache entry; their results
    // must match jobs run with fresh caches.
    let manifest = BatchManifest::parse(
        r#"{"jobs": [
            {"name": "x", "synth": {"cells": 240, "nets": 260, "seed": 6}, "max_iters": 80, "seed": 1},
            {"name": "y", "synth": {"cells": 240, "nets": 260, "seed": 6}, "max_iters": 80, "seed": 2}
        ]}"#,
    )
    .unwrap();
    let batch = run_batch(&manifest, 2);
    assert_eq!(batch.cache_stats, (1, 1), "second job must hit the cache");
    for (i, job) in manifest.jobs.iter().enumerate() {
        let fresh = xplace::sched::run_job(job, 1, &DesignCache::new()).unwrap();
        assert_eq!(
            batch.report.jobs[i]
                .report
                .as_ref()
                .unwrap()
                .final_hpwl()
                .to_bits(),
            fresh.report.final_hpwl().to_bits(),
            "job {i}: cached design must place identically to a fresh load"
        );
    }
}
