//! Property tests of the artifact decoders on corrupted input: random
//! byte flips and truncations of a rendered run report, batch report and
//! trace must each parse and decode to `Ok` or `Err` — never abort — and
//! whatever still decodes must re-render to text that decodes to the
//! same value. (That last clause is why the parser refuses numbers that
//! overflow to infinity: a flipped digit turning `15119.7` into `15119e7…`
//! would otherwise decode, then re-render as `null`.)

use xplace_telemetry::{
    parse_trace, BatchReport, FromJson, IterationRecord, JobRecord, ProfileDelta, RunReport, Stage,
    TelemetryEvent, ToJson,
};
use xplace_testkit::prop::Config;
use xplace_testkit::{prop_assert, props};

/// The checked-in regression baseline: a full run report with every
/// optional section present.
const BASELINE: &str = include_str!("../../../BENCH_baseline.json");

/// Bytes a flip writes: JSON punctuation, literal letters, digits and
/// plain ASCII — the values most likely to turn one valid token into
/// another.
const FLIP_BYTES: &[u8] = b"[]{}\":,-+.eE0123456789tfnrulsa \\/x";

fn report() -> RunReport {
    RunReport::from_json_str(BASELINE).expect("the baseline decodes")
}

fn batch_text() -> String {
    let failed = JobRecord::failed("broken", "injected failure").with_fault_stats(2, 1, true);
    BatchReport::new(vec![JobRecord::completed("golden", report()), failed]).to_json_string()
}

/// A short trace with one event of each payload shape.
fn trace_text() -> String {
    let r = report();
    let record = IterationRecord {
        iteration: 7,
        hpwl: r.gp.final_hpwl,
        wa: r.gp.initial_hpwl,
        overflow: r.gp.final_overflow,
        lambda: 1.5e-4,
        gamma: 80.0,
        omega: 0.61,
        r_ratio: 2.5e-3,
        density_skipped: true,
        modeled_ns: 123_456,
        launches: 17,
    };
    let events = [
        TelemetryEvent::RunStart {
            design: r.design.clone(),
            cells: r.cells,
            nets: r.nets,
            movable: r.cells,
            config: r.config.clone(),
        },
        TelemetryEvent::Iteration {
            record,
            profile: ProfileDelta::default(),
        },
        TelemetryEvent::StageTransition {
            iteration: 7,
            from: Stage::Early,
            to: Stage::Intermediate,
            omega: 0.61,
        },
        TelemetryEvent::RunEnd {
            iterations: r.gp.iterations,
            converged: r.gp.converged,
            final_hpwl: r.gp.final_hpwl,
            final_overflow: r.gp.final_overflow,
            best_overflow: r.gp.final_overflow,
            modeled_ns: r.gp.modeled_ns,
            launches: r.gp.launches,
        },
    ];
    events.iter().map(|e| e.to_json_string() + "\n").collect()
}

/// `text` with the byte at `pos` replaced by `FLIP_BYTES[pick]`. The
/// artifacts are ASCII, so every flip keeps the text valid UTF-8.
fn flip(text: &str, pos: usize, pick: usize) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let at = pos % bytes.len();
    bytes[at] = FLIP_BYTES[pick % FLIP_BYTES.len()];
    String::from_utf8(bytes).expect("ASCII artifact")
}

/// Decodes `text` as `T`; when that succeeds, the re-rendering must
/// decode to the same value (the codec is stable on whatever it
/// accepts).
fn decodes_stably<T: FromJson + ToJson + PartialEq + std::fmt::Debug>(text: &str) -> bool {
    match T::from_json_str(text) {
        Ok(value) => T::from_json_str(&value.to_json_string()).as_ref() == Ok(&value),
        Err(_) => true,
    }
}

#[test]
fn the_fixtures_render_canonically() {
    let report = report();
    assert_eq!(
        RunReport::from_json_str(&report.to_json_string()),
        Ok(report)
    );
    assert!(BatchReport::from_json_str(&batch_text()).is_ok());
    assert_eq!(parse_trace(&trace_text()).map(|events| events.len()), Ok(4));
}

props! {
    config = Config::with_cases(256);

    fn flipped_run_reports_decode_or_error(pos in 0usize..1 << 20, pick in 0usize..64) {
        prop_assert!(decodes_stably::<RunReport>(&flip(BASELINE, pos, pick)));
    }

    fn flipped_batch_reports_decode_or_error(pos in 0usize..1 << 20, pick in 0usize..64) {
        prop_assert!(decodes_stably::<BatchReport>(&flip(&batch_text(), pos, pick)));
    }

    fn truncated_run_reports_error(cut in 0usize..1 << 20) {
        let cut = cut % BASELINE.len();
        prop_assert!(RunReport::from_json_str(&BASELINE[..cut]).is_err());
    }

    fn flipped_traces_decode_or_error(pos in 0usize..1 << 20, pick in 0usize..64) {
        let flipped = flip(&trace_text(), pos, pick);
        prop_assert!(flipped.lines().all(decodes_stably::<TelemetryEvent>));
    }
}
