//! Integration tests of the telemetry subsystem against the real placer:
//! trace structure, byte-identical determinism, report round-trips, and
//! the regression comparator on genuine run reports.

use xplace::core::{GlobalPlacer, XplaceConfig};
use xplace::db::synthesis::{synthesize, SynthesisSpec};
use xplace::sched::finish_flow;
use xplace::telemetry::{
    compare_reports, parse_trace, FromJson, JsonLinesSink, RunReport, TelemetryEvent, ToJson,
};

fn config(max_iters: usize) -> XplaceConfig {
    let mut cfg = XplaceConfig::xplace();
    cfg.schedule.max_iterations = max_iters;
    cfg
}

/// Runs a traced placement and returns the rendered JSON-lines trace.
fn traced_run(seed: u64, max_iters: usize, threads: usize) -> String {
    let spec = SynthesisSpec::new("tele", 400, 420).with_seed(seed);
    let mut design = synthesize(&spec).expect("synthesis succeeds");
    let mut sink = JsonLinesSink::new(Vec::new());
    GlobalPlacer::new(config(max_iters).with_threads(threads))
        .place_traced(&mut design, &mut sink)
        .expect("placement succeeds");
    String::from_utf8(sink.finish().expect("no I/O errors")).expect("valid UTF-8")
}

#[test]
fn trace_has_one_event_per_iteration_and_parses_back() {
    let text = traced_run(5, 150, 1);
    let events = parse_trace(&text).expect("trace parses");

    assert!(matches!(
        events.first(),
        Some(TelemetryEvent::RunStart { .. })
    ));
    assert!(matches!(events.last(), Some(TelemetryEvent::RunEnd { .. })));

    let iterations: Vec<usize> = events
        .iter()
        .filter_map(|e| match e {
            TelemetryEvent::Iteration { record, .. } => Some(record.iteration),
            _ => None,
        })
        .collect();
    assert!(!iterations.is_empty());
    assert!(
        iterations.iter().enumerate().all(|(i, &it)| i == it),
        "iteration events must be contiguous from zero"
    );

    // The stream carries schedule context beyond raw iterations: the skip
    // window opens early (§3.1.4) and λ is logged at initialization.
    assert!(events
        .iter()
        .any(|e| matches!(e, TelemetryEvent::SkipWindow { active: true, .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e, TelemetryEvent::LambdaUpdate { iteration: 0, .. })));

    // Each line re-renders to exactly itself (lossless round-trip).
    for (line, event) in text.lines().zip(&events) {
        assert_eq!(line, event.to_json_string());
    }
}

#[test]
fn traces_are_byte_identical_for_same_seed_and_any_thread_count() {
    let a = traced_run(7, 100, 1);
    let b = traced_run(7, 100, 1);
    assert_eq!(a, b, "same-seed traces must be byte-identical");
    let c = traced_run(7, 100, 4);
    assert_eq!(a, c, "threads=4 trace must equal threads=1");
}

#[test]
fn traces_contain_no_wall_clock_fields() {
    // The determinism contract: wall-clock is machine noise, so it must
    // never leak into the trace (cpu_ns is the profiler's wall field).
    let text = traced_run(9, 60, 1);
    assert!(!text.contains("cpu_ns"));
    assert!(!text.contains("wall"));
}

#[test]
fn run_report_round_trips_through_testkit_json() {
    let spec = SynthesisSpec::new("tele-report", 400, 420).with_seed(11);
    let mut design = synthesize(&spec).expect("synthesis succeeds");
    let cfg = config(150);
    let gp = GlobalPlacer::new(cfg.clone())
        .place(&mut design)
        .expect("placement succeeds");
    let report = finish_flow(&mut design, &cfg, &gp).expect("the flow finishes");

    let text = report.to_json_string();
    let back = RunReport::from_json_str(&text).expect("report parses");
    assert_eq!(back, report);
    assert_eq!(back.final_hpwl(), report.dp.as_ref().unwrap().final_hpwl);
    assert_eq!(back.gp.iterations, gp.iterations);
}

#[test]
fn comparator_passes_identical_runs_and_fails_injected_regressions() {
    let run = || {
        let spec = SynthesisSpec::new("tele-gate", 400, 420).with_seed(13);
        let mut design = synthesize(&spec).expect("synthesis succeeds");
        let cfg = config(120);
        let gp = GlobalPlacer::new(cfg.clone())
            .place(&mut design)
            .expect("placement succeeds");
        RunReport {
            design: design.name().to_string(),
            cells: design.netlist().num_cells(),
            nets: design.netlist().num_nets(),
            config: cfg.echo(),
            threads: cfg.threads,
            gp: gp.gp_metrics(),
            lg: None,
            dp: None,
            route: None,
            spectral: None,
            scaling: None,
            explore: None,
            trace_error: None,
        }
    };
    let baseline = run();
    let fresh = run();
    let cmp = compare_reports(&baseline, &fresh);
    assert!(
        cmp.passed(),
        "identical deterministic runs must pass: {:?}",
        cmp.failures
    );

    let mut regressed = fresh.clone();
    regressed.gp.final_hpwl *= 1.10;
    let cmp = compare_reports(&baseline, &regressed);
    assert!(!cmp.passed(), "a +10% HPWL regression must fail the gate");
}
