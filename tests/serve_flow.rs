//! End-to-end tests of the placement daemon: the serve-vs-batch
//! determinism contract, load shedding, per-client quotas, contextual
//! rejections, graceful drain, and warm caches across requests.
//!
//! The core claim under test: a manifest submitted over TCP yields
//! per-job traces **byte-identical** to `xplace batch` on the same
//! manifest and thread count, and a report equivalent under
//! [`compare_batch_reports`] — for any `--threads`.

use std::time::{Duration, Instant};
use xplace::sched::{run_batch, BatchManifest, CANCELLED_MSG};
use xplace::serve::{Client, ServeConfig, Server, Submission};
use xplace::telemetry::{compare_batch_reports, JobStatus, Json};

const MAX_ITERS: usize = 120;

fn parity_manifest() -> String {
    format!(
        r#"{{"jobs": [
            {{"name": "job0", "synth": {{"cells": 300, "nets": 320, "seed": 3}}, "max_iters": {MAX_ITERS}, "seed": 103}},
            {{"name": "job1", "synth": {{"cells": 260, "nets": 280, "seed": 4}}, "max_iters": {MAX_ITERS}, "seed": 104}},
            {{"name": "doomed", "synth": {{"cells": 340, "nets": 360, "seed": 5}}, "max_iters": {MAX_ITERS}, "seed": 105}}
        ],
        "faults": [{{"target": "doomed", "kind": "gp_panic", "iteration": 9}}]}}"#
    )
}

/// A single-job manifest slow enough (in a debug build) to still be
/// running when a follow-up request arrives a few milliseconds later.
fn slow_manifest(name: &str) -> String {
    format!(
        r#"{{"jobs": [{{"name": "{name}", "synth": {{"cells": 420, "nets": 450, "seed": 9}}, "max_iters": 900, "seed": 7}}]}}"#
    )
}

fn tiny_manifest(name: &str) -> String {
    format!(
        r#"{{"jobs": [{{"name": "{name}", "synth": {{"cells": 200, "nets": 210, "seed": 3}}, "max_iters": 60}}]}}"#
    )
}

fn serve(config: ServeConfig) -> (Client, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(config).expect("bind ephemeral port");
    let (addr, handle) = server.spawn();
    (Client::new(addr.to_string()), handle)
}

fn stat(stats: &Json, key: &str) -> usize {
    stats
        .field(key)
        .and_then(|v| v.as_usize())
        .unwrap_or_else(|e| panic!("stats field {key}: {e}"))
}

/// Polls `/stats` until `pred` holds (30 s cap — generous for debug
/// builds; the typical wait is milliseconds).
fn wait_for_stats(client: &Client, what: &str, pred: impl Fn(&Json) -> bool) -> Json {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = client.stats().expect("/stats responds");
        if pred(&stats) {
            return stats;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}; last stats: {}",
            stats.render()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn wire_submission_matches_batch_bytewise_for_any_thread_count() {
    let manifest_text = parity_manifest();
    let manifest = BatchManifest::parse(&manifest_text).expect("manifest parses");
    for threads in [1usize, 4] {
        let reference = run_batch(&manifest, threads);
        let (client, handle) = serve(ServeConfig {
            threads,
            ..Default::default()
        });
        let wire = client
            .submit(&manifest_text)
            .expect("submission flows")
            .expect_completed();
        assert_eq!(wire.threads, threads, "hello frame echoes the width");

        // Per-job traces: byte-identical, including the failed job's
        // absence (None on both sides).
        assert_eq!(
            wire.traces, reference.traces,
            "wire traces must be byte-identical to xplace batch at {threads} thread(s)"
        );
        // Reports: equivalent under the regression comparator (which
        // hard-compares every deterministic quantity and the config
        // echo, and only warns on wall-clock drift).
        let cmp = compare_batch_reports(&reference.report, &wire.report);
        assert!(
            cmp.passed(),
            "wire report diverged at {threads} thread(s): {:?}",
            cmp.failures
        );
        assert_eq!(wire.report.failed(), 1, "the injected fault is preserved");
        assert_eq!(wire.report.job("doomed").unwrap().status, JobStatus::Failed);

        client.shutdown().expect("shutdown");
        handle.join().unwrap().expect("server exits cleanly");
    }
}

#[test]
fn second_submission_runs_warm_and_identical() {
    let manifest_text = parity_manifest();
    let (client, handle) = serve(ServeConfig::default());

    let first = client.submit(&manifest_text).unwrap().expect_completed();
    let (h1, m1) = first.cache_stats;
    let second = client.submit(&manifest_text).unwrap().expect_completed();
    let (h2, m2) = second.cache_stats;

    // Exact accounting: the second submission re-reads the same three
    // designs from the warm cache — three more hits, zero new misses.
    assert_eq!(m1, 3, "cold submission loads every design");
    assert_eq!(m2, m1, "warm submission loads nothing new");
    assert_eq!(h2, h1 + 3, "warm submission hits once per job");
    // Warm results are byte-identical to cold results.
    assert_eq!(second.traces, first.traces);

    // /stats agrees with the wire-reported counters.
    let stats = client.stats().expect("/stats responds");
    let design = stats.field("design_cache").unwrap();
    assert_eq!(stat(design, "hits"), h2);
    assert_eq!(stat(design, "misses"), m2);
    assert_eq!(stat(design, "entries"), 3);
    assert_eq!(stat(&stats, "batches_completed"), 2);
    assert_eq!(stat(&stats, "jobs_completed"), 4);
    assert_eq!(stat(&stats, "jobs_failed"), 2);
    let plan = stats.field("plan_cache").unwrap();
    assert!(
        stat(plan, "hits") > 0,
        "repeated grids must reuse DCT plans"
    );

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn full_queue_sheds_with_503_and_retry_after() {
    let (client, handle) = serve(ServeConfig {
        queue_depth: 1,
        max_inflight_per_client: 8,
        ..Default::default()
    });

    // Occupy the run slot (client a), then the single queue slot
    // (client b); each step is confirmed via /stats before the next so
    // the shed is deterministic.
    let a = {
        let client = client.clone().with_identity("a");
        std::thread::spawn(move || client.submit(&slow_manifest("slow-a")).unwrap())
    };
    wait_for_stats(&client, "the slow batch to start", |s| {
        stat(s, "running") == 1
    });
    let b = {
        let client = client.clone().with_identity("b");
        std::thread::spawn(move || client.submit(&tiny_manifest("tiny-b")).unwrap())
    };
    wait_for_stats(&client, "the second batch to queue", |s| {
        stat(s, "queued") == 1
    });

    match client
        .clone()
        .with_identity("c")
        .submit(&tiny_manifest("tiny-c"))
        .unwrap()
    {
        Submission::Rejected {
            status,
            retry_after,
            message,
        } => {
            assert_eq!(status, 503);
            assert_eq!(retry_after, Some(1), "503 must carry Retry-After");
            assert!(message.contains("queue full"), "{message}");
        }
        Submission::Completed(_) => panic!("third batch must be shed"),
    }
    let stats = client.stats().unwrap();
    assert_eq!(stat(stats.field("shed").unwrap(), "queue_full"), 1);

    // The admitted batches still complete.
    a.join().unwrap().expect_completed();
    b.join().unwrap().expect_completed();
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn per_client_quota_rejects_with_429_without_touching_other_clients() {
    let (client, handle) = serve(ServeConfig {
        max_inflight_per_client: 1,
        ..Default::default()
    });

    let alice_first = {
        let client = client.clone().with_identity("alice");
        std::thread::spawn(move || client.submit(&slow_manifest("slow-alice")).unwrap())
    };
    wait_for_stats(&client, "alice's batch to start", |s| {
        stat(s, "running") == 1
    });

    // Alice is at her quota: a second submission is rejected…
    match client
        .clone()
        .with_identity("alice")
        .submit(&tiny_manifest("tiny-alice"))
        .unwrap()
    {
        Submission::Rejected {
            status, message, ..
        } => {
            assert_eq!(status, 429);
            assert!(message.contains("quota"), "{message}");
        }
        Submission::Completed(_) => panic!("over-quota submission must be rejected"),
    }
    // …while bob is admitted (queued behind alice, then runs).
    let bob = client
        .clone()
        .with_identity("bob")
        .submit(&tiny_manifest("tiny-bob"))
        .unwrap()
        .expect_completed();
    assert!(bob.report.all_completed());

    let stats = client.stats().unwrap();
    assert_eq!(stat(stats.field("shed").unwrap(), "quota"), 1);
    alice_first.join().unwrap().expect_completed();
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn malformed_requests_get_contextual_rejections() {
    let (client, handle) = serve(ServeConfig {
        max_body_bytes: 4096,
        ..Default::default()
    });

    // Malformed JSON names the parse problem.
    match client.submit("{not json at all").unwrap() {
        Submission::Rejected {
            status, message, ..
        } => {
            assert_eq!(status, 400);
            assert!(message.contains("manifest rejected"), "{message}");
        }
        Submission::Completed(_) => panic!("garbage must be rejected"),
    }
    // Valid JSON, invalid manifest: the message names the exact rule.
    let dup = r#"{"jobs": [{"name": "a", "synth": {"cells": 10}},
                           {"name": "a", "synth": {"cells": 20}}]}"#;
    match client.submit(dup).unwrap() {
        Submission::Rejected {
            status, message, ..
        } => {
            assert_eq!(status, 400);
            assert!(message.contains("duplicate job name `a`"), "{message}");
        }
        Submission::Completed(_) => panic!("duplicate names must be rejected"),
    }
    // A body over the configured cap is refused before buffering.
    let huge = format!(
        r#"{{"jobs": [{{"name": "pad", "synth": {{"cells": 10}}, "comment": "{}"}}]}}"#,
        "x".repeat(8192)
    );
    match client.submit(&huge).unwrap() {
        Submission::Rejected {
            status, message, ..
        } => {
            assert_eq!(status, 413);
            assert!(message.contains("exceeds"), "{message}");
        }
        Submission::Completed(_) => panic!("oversized body must be rejected"),
    }
    // No jobs ran; nothing was admitted.
    let stats = client.stats().unwrap();
    assert_eq!(stat(&stats, "admitted"), 0);
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn deeply_nested_manifest_is_rejected_and_the_daemon_keeps_serving() {
    // 100 KB of `[` fits the default 1 MiB body cap; an unbounded
    // recursive parser would overflow the handler's stack and abort the
    // whole daemon.
    let (client, handle) = serve(ServeConfig::default());
    match client.submit(&"[".repeat(100_000)).unwrap() {
        Submission::Rejected {
            status, message, ..
        } => {
            assert_eq!(status, 400);
            assert!(message.contains("nesting deeper than"), "{message}");
        }
        Submission::Completed(_) => panic!("a nesting bomb must be rejected"),
    }
    let stats = client.stats().unwrap();
    assert_eq!(stat(&stats, "admitted"), 0);
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn health_reports_ok_then_degraded() {
    let (client, handle) = serve(ServeConfig::default());
    let health = client.health().expect("/health responds");
    assert_eq!(
        health.field("status").unwrap().as_str().unwrap(),
        "ok",
        "a fresh daemon is healthy"
    );

    // One failed job (the injected gp_panic) flips the daemon to
    // degraded: it still serves, but something needs attention.
    client
        .submit(&parity_manifest())
        .unwrap()
        .expect_completed();
    let health = client.health().unwrap();
    assert_eq!(
        health.field("status").unwrap().as_str().unwrap(),
        "degraded"
    );
    assert_eq!(stat(&health, "jobs_failed"), 1);

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn wire_deadline_header_caps_every_job_of_the_batch() {
    let (client, handle) = serve(ServeConfig::default());

    // A 1 ns modeled deadline is unmeetable: every job must fail with
    // the deadline message, deterministically.
    let strict = client.clone().with_deadline_ns(1);
    let wire = strict
        .submit(&tiny_manifest("rushed"))
        .unwrap()
        .expect_completed();
    assert_eq!(wire.report.failed(), 1);
    let record = wire.report.job("rushed").unwrap();
    assert!(
        record
            .error
            .as_deref()
            .unwrap()
            .starts_with(xplace::sched::DEADLINE_MSG),
        "error was {:?}",
        record.error
    );
    assert!(record.deadline_exceeded);

    // A generous deadline changes nothing: bit-identical to no deadline.
    let relaxed = client.clone().with_deadline_ns(u64::MAX / 2);
    let capped = relaxed
        .submit(&tiny_manifest("easy"))
        .unwrap()
        .expect_completed();
    let free = client
        .submit(&tiny_manifest("easy"))
        .unwrap()
        .expect_completed();
    assert!(capped.report.all_completed());
    assert_eq!(capped.traces, free.traces);

    // A garbage header value is a 400 before any work starts.
    let raw = format!(
        "POST /batch HTTP/1.1\r\nHost: x\r\nX-Deadline-Ns: banana\r\nContent-Length: {}\r\n\r\n{}",
        tiny_manifest("junk").len(),
        tiny_manifest("junk")
    );
    let mut socket = std::net::TcpStream::connect(client.addr()).unwrap();
    std::io::Write::write_all(&mut socket, raw.as_bytes()).unwrap();
    let mut response = String::new();
    std::io::Read::read_to_string(&mut socket, &mut response).unwrap();
    assert!(
        response.starts_with("HTTP/1.1 400"),
        "expected 400, got: {}",
        response.lines().next().unwrap_or("")
    );
    assert!(response.contains("X-Deadline-Ns"), "{response}");

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn mid_stream_disconnect_skips_that_clients_remaining_jobs_only() {
    // threads=1 serializes the disconnected batch's jobs; concurrency=2
    // lets a sibling batch run at the same time to prove isolation.
    let (client, handle) = serve(ServeConfig {
        threads: 1,
        concurrency: 2,
        ..Default::default()
    });
    let manifest_text = r#"{"jobs": [
            {"name": "inflight", "synth": {"cells": 420, "nets": 450, "seed": 9}, "max_iters": 900, "seed": 7},
            {"name": "notstarted", "synth": {"cells": 200, "nets": 210, "seed": 3}, "max_iters": 60}
        ]}"#;

    // Submit over a raw socket so the connection can be dropped the
    // moment work starts (the high-level client blocks to completion).
    // Keep reading until the first job's start ack — the positive signal
    // that it is committed to run. Dropping earlier races the
    // response-head write and the server rightly treats that as a client
    // that died before the batch started (nothing runs, nothing is
    // counted); waiting for a *trace* frame instead would race jobs fast
    // enough to finish before any telemetry reaches the socket.
    let mut socket = std::net::TcpStream::connect(client.addr()).unwrap();
    let raw = format!(
        "POST /batch HTTP/1.1\r\nHost: x\r\nX-Client: quitter\r\nContent-Length: {}\r\n\r\n{manifest_text}",
        manifest_text.len()
    );
    std::io::Write::write_all(&mut socket, raw.as_bytes()).unwrap();
    let mut seen = Vec::new();
    let mut buf = [0u8; 4096];
    while !String::from_utf8_lossy(&seen).contains(r#""frame":"start""#) {
        let n = std::io::Read::read(&mut socket, &mut buf).unwrap();
        assert!(n > 0, "the stream ended before the first start ack");
        seen.extend_from_slice(&buf[..n]);
    }
    drop(socket); // mid-stream disconnect

    // A sibling client's batch, running concurrently, is unaffected —
    // byte-identical to an undisturbed run.
    let sibling = client
        .clone()
        .with_identity("steady")
        .submit(&tiny_manifest("steady-job"))
        .unwrap()
        .expect_completed();
    assert!(sibling.report.all_completed());
    let reference = run_batch(
        &BatchManifest::parse(&tiny_manifest("steady-job")).unwrap(),
        1,
    );
    assert_eq!(sibling.traces, reference.traces);

    // Server-side accounting: the quitter's in-flight job drains to
    // completion (results keep warming the caches), its unstarted job is
    // skipped as failed — exactly one completed + one failed beyond the
    // sibling's.
    let stats = wait_for_stats(&client, "the abandoned batch to finish", |s| {
        stat(s, "batches_completed") == 2
    });
    assert_eq!(stat(&stats, "jobs_completed"), 2, "inflight + sibling");
    assert_eq!(stat(&stats, "jobs_failed"), 1, "the skipped notstarted job");

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn scheduled_drop_connection_fault_severs_the_stream_after_exact_frames() {
    // The deterministic twin of the raw-socket disconnect test above: a
    // `drop_connection` fault targeting the client identity severs the
    // stream after exactly `after_frames` frames, no RST races involved.
    let (client, handle) = serve(ServeConfig {
        threads: 1,
        ..Default::default()
    });
    let manifest_text = r#"{"jobs": [
            {"name": "streamed", "synth": {"cells": 200, "nets": 210, "seed": 3}, "max_iters": 60},
            {"name": "skipped", "synth": {"cells": 200, "nets": 210, "seed": 3}, "max_iters": 60}
        ],
        "faults": [{"target": "flaky", "kind": "drop_connection", "after_frames": 3}]}"#;

    let mut socket = std::net::TcpStream::connect(client.addr()).unwrap();
    let raw = format!(
        "POST /batch HTTP/1.1\r\nHost: x\r\nX-Client: flaky\r\nContent-Length: {}\r\n\r\n{manifest_text}",
        manifest_text.len()
    );
    std::io::Write::write_all(&mut socket, raw.as_bytes()).unwrap();
    let mut wire = Vec::new();
    std::io::Read::read_to_end(&mut socket, &mut wire).unwrap();
    let text = String::from_utf8_lossy(&wire);

    // Every frame is one JSON line inside its own chunk, so `}\n` counts
    // frames exactly (escaped newlines inside trace strings are `\\n`).
    // The fault counter arms on the first job's start ack, so the wire
    // carries the hello (pre-arm, always delivered) plus exactly
    // `after_frames` counted frames: the start ack and two trace lines.
    assert!(text.starts_with("HTTP/1.1 200"), "got: {text}");
    let frames = text.matches("}\n").count();
    assert_eq!(frames, 4, "hello + after_frames counted frames");
    assert!(text.contains(r#""frame":"start""#), "{text}");
    assert!(
        !text.ends_with("0\r\n\r\n"),
        "a severed stream must not carry the terminal chunk"
    );

    // Server side, the fault drives the same skip/drain path as a real
    // disconnect: the in-flight job drains, the unstarted one is skipped.
    let stats = wait_for_stats(&client, "the severed batch to finish", |s| {
        stat(s, "batches_completed") == 1
    });
    assert_eq!(stat(&stats, "jobs_completed"), 1, "the draining job");
    assert_eq!(stat(&stats, "jobs_failed"), 1, "the skipped job");

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn drop_fault_lands_deterministically_even_when_the_job_fails_instantly() {
    // Regression guard for the fast-finish interleaving: a job that dies
    // the moment it starts (a stall fault blowing an unmeetable wire
    // deadline) emits its start ack and terminal record nearly
    // back-to-back. Arming the drop counter on the start ack — not "the
    // first trace frame" — keeps the sever landing on the exact same
    // frame no matter how quickly the job collapses.
    let (client, handle) = serve(ServeConfig {
        threads: 1,
        ..Default::default()
    });
    let manifest_text = r#"{"jobs": [
            {"name": "doomed", "synth": {"cells": 200, "nets": 210, "seed": 3}, "max_iters": 60},
            {"name": "skipped", "synth": {"cells": 200, "nets": 210, "seed": 3}, "max_iters": 60}
        ],
        "faults": [
            {"target": "doomed", "kind": "stall", "modeled_ns": 4000000000000},
            {"target": "hasty", "kind": "drop_connection", "after_frames": 1}
        ]}"#;
    let mut socket = std::net::TcpStream::connect(client.addr()).unwrap();
    let raw = format!(
        "POST /batch HTTP/1.1\r\nHost: x\r\nX-Client: hasty\r\nX-Deadline-Ns: 1000\r\nContent-Length: {}\r\n\r\n{manifest_text}",
        manifest_text.len()
    );
    std::io::Write::write_all(&mut socket, raw.as_bytes()).unwrap();
    let mut wire = Vec::new();
    std::io::Read::read_to_end(&mut socket, &mut wire).unwrap();
    let text = String::from_utf8_lossy(&wire);

    // Exactly hello + the start ack, every time: the ack is counted
    // frame 0 (delivered), and whatever follows it — a trace line or the
    // instant terminal record — is counted frame 1 and severed.
    assert!(text.starts_with("HTTP/1.1 200"), "got: {text}");
    let frames = text.matches("}\n").count();
    assert_eq!(frames, 2, "hello + the start ack, nothing else: {text}");
    assert!(text.contains(r#""frame":"start""#), "{text}");
    assert!(
        !text.ends_with("0\r\n\r\n"),
        "a severed stream must not carry the terminal chunk"
    );

    // The doomed job still runs to its deadline failure server-side; the
    // second job is skipped because the client is gone.
    let stats = wait_for_stats(&client, "the severed batch to finish", |s| {
        stat(s, "batches_completed") == 1
    });
    assert_eq!(stat(&stats, "jobs_completed"), 0);
    assert_eq!(
        stat(&stats, "jobs_failed"),
        2,
        "the deadline-doomed job + the skipped job"
    );

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn graceful_shutdown_drains_the_in_flight_job_and_cancels_the_rest() {
    // threads=1 serializes the batch's jobs, so exactly one is in
    // flight when the drain begins.
    let (client, handle) = serve(ServeConfig {
        threads: 1,
        ..Default::default()
    });
    let manifest_text = r#"{"jobs": [
            {"name": "inflight", "synth": {"cells": 420, "nets": 450, "seed": 9}, "max_iters": 900, "seed": 7},
            {"name": "notstarted", "synth": {"cells": 200, "nets": 210, "seed": 3}, "max_iters": 60}
        ]}"#;
    let submitter = {
        let client = client.clone().with_identity("a");
        std::thread::spawn(move || client.submit(manifest_text).unwrap())
    };
    // `running == 1` alone fires at permit-acquire, which can precede the
    // first job's cancel check; a design-cache miss proves job 0 is past
    // that check and actually executing.
    wait_for_stats(&client, "the first job to be in flight", |s| {
        stat(s, "running") == 1 && stat(s.field("design_cache").unwrap(), "misses") >= 1
    });

    client.shutdown().expect("shutdown accepted");

    // While draining, new work is shed with 503 (the daemon may also
    // already be gone if the drain won the race — both are acceptable
    // terminal behaviours, but the stream below must complete either
    // way).
    if let Ok(Submission::Rejected { status, .. }) = client.submit(&tiny_manifest("late")) {
        assert_eq!(status, 503);
    }

    // The drain guarantee: the admitted stream completes. The job that
    // was in flight finished normally — byte-identical to an
    // undisturbed run — and the job that had not started is reported
    // cancelled, not silently dropped.
    let wire = submitter.join().unwrap().expect_completed();
    assert_eq!(
        wire.report.job("inflight").unwrap().status,
        JobStatus::Completed,
        "the in-flight job must drain to completion"
    );
    assert_eq!(
        wire.report.job("notstarted").unwrap().error.as_deref(),
        Some(CANCELLED_MSG),
        "the unstarted job must be reported cancelled"
    );
    let reference = run_batch(
        &BatchManifest::parse(&slow_manifest("inflight")).unwrap(),
        1,
    );
    assert_eq!(
        wire.traces[0], reference.traces[0],
        "the drained job's trace must match an undisturbed run's"
    );

    handle
        .join()
        .unwrap()
        .expect("server exits after the drain");
    // Fully gone: connections are now refused.
    assert!(client.stats().is_err(), "daemon must be down after drain");
}
