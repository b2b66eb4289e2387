//! The injected-panic hook stays silent for the scheduler's two injected
//! faults and forwards every other panic. A panic hook is process-wide,
//! so this file holds one test and runs as a process of its own.

use std::panic::{catch_unwind, set_hook};
use std::sync::Mutex;
use xplace_sched::fault::silence_injected_panics;
use xplace_sched::{run_batch, BatchManifest};

/// Every panic message that reached the hook `silence_injected_panics`
/// replaced (a recording stand-in for the default stderr hook).
static FORWARDED: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// A copy of [`FORWARDED`], so no assertion panics while holding its lock
/// (the recording hook takes it too).
fn forwarded() -> Vec<String> {
    FORWARDED.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

#[test]
fn injected_panics_are_silenced_and_real_ones_still_reach_the_previous_hook() {
    set_hook(Box::new(|info| {
        let message = xplace_parallel::panic_message(info.payload());
        FORWARDED
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(message);
    }));
    silence_injected_panics();

    // Both injected faults fire from a real job sink: a GP panic on one
    // job, a sink write fault on the other.
    let job = |name: &str| {
        format!(
            r#"{{"name": "{name}", "synth": {{"cells": 200, "nets": 210, "seed": 3}}, "max_iters": 30}}"#
        )
    };
    let manifest = BatchManifest::parse(&format!(
        r#"{{"jobs": [{}, {}],
             "faults": [{{"target": "gp", "kind": "gp_panic", "iteration": 5}},
                        {{"target": "sink", "kind": "sink_error", "after_bytes": 10}}]}}"#,
        job("gp"),
        job("sink")
    ))
    .unwrap();
    let batch = run_batch(&manifest, 1);
    assert_eq!(
        batch.report.failed(),
        2,
        "both injected faults fail their job"
    );
    assert_eq!(forwarded(), Vec::<String>::new());

    // A panic nobody planned still reaches the previous hook.
    assert!(catch_unwind(|| panic!("index out of bounds")).is_err());
    assert_eq!(forwarded(), vec!["index out of bounds"]);
}
