//! Property tests of the batch-manifest decoder on corrupted input.
//! Manifests that carry a fault plan are truncated at every byte,
//! byte-flipped, given huge or out-of-range numbers (`1e400` included),
//! duplicate job names and fault targets that name no job. Each input
//! must either parse or return a `JsonError`, never panic; whatever
//! parses must also resolve its fault plan and job configs without
//! panicking.

use xplace_sched::BatchManifest;
use xplace_testkit::prop::{from_fn, Config};
use xplace_testkit::rng::Rng;
use xplace_testkit::{prop_assert, props};

/// Bytes a flip writes: JSON punctuation, literal letters, digits and
/// plain ASCII.
const FLIP_BYTES: &[u8] = b"[]{}\":,-+.eE0123456789tfnrulsa \\/x";

/// The numeric fields of the fixture, with their healthy values.
const NUMBERS: &[(&str, &str)] = &[
    ("cells", "300"),
    ("max_iters", "120"),
    ("job_deadline_ns", "5000000"),
    ("job_checkpoint_every", "25"),
    ("iteration", "5"),
    ("times", "1"),
    ("after_bytes", "2048"),
    ("modeled_ns", "1000"),
    ("modeled_ns_2", "7"),
    ("after_frames", "3"),
    ("retries", "2"),
    ("deadline_ns", "900000000"),
    ("checkpoint_every", "50"),
];

/// Values that are huge, negative, fractional or beyond `f64`.
const HUGE: &[&str] = &[
    "4294967295",
    "9007199254740992",
    "9007199254740993",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999999",
    "1e19",
    "1e308",
    "1.7976931348623157e308",
    "-1",
    "-0",
    "0.5",
    "1e-400",
];

/// Numbers that overflow `f64` to infinity: the parser must refuse them.
const INFINITE: &[&str] = &[
    "1e400",
    "-1e400",
    "1E+400",
    "2e308",
    "1e99999999999999999999",
];

/// The parts of a fixture manifest a generator varies.
#[derive(Debug, Clone)]
struct Knobs {
    names: [String; 2],
    targets: [String; 6],
    numbers: Vec<String>,
}

impl Knobs {
    fn healthy() -> Knobs {
        Knobs {
            names: ["tiny".into(), "board".into()],
            targets: [
                "board".into(),
                "tiny".into(),
                "tiny".into(),
                "tiny".into(),
                "client-1".into(),
                "board".into(),
            ],
            numbers: NUMBERS.iter().map(|(_, v)| v.to_string()).collect(),
        }
    }

    fn number(&self, name: &str) -> &str {
        let i = NUMBERS.iter().position(|(n, _)| *n == name).unwrap();
        &self.numbers[i]
    }

    /// The manifest text: two jobs (synth and aux) with per-job
    /// overrides, one fault of every kind plus a second stall, and the
    /// batch-wide retry, deadline and checkpoint policy.
    fn render(&self) -> String {
        let n = |name| self.number(name);
        let [a, b] = &self.names;
        let t = &self.targets;
        format!(
            r#"{{"jobs": [{{"name": "{a}", "synth": {{"cells": {cells}, "nets": 320, "seed": 3}}, "max_iters": {max_iters}, "deadline_ns": {job_deadline}, "checkpoint_every": {job_ckpt}}}, {{"name": "{b}", "aux": "bench/board.aux", "density": 0.8, "baseline": true, "grid": 64}}], "faults": [{{"target": "{t0}", "kind": "gp_panic", "iteration": {iteration}, "times": {times}}}, {{"target": "{t1}", "kind": "sink_error", "after_bytes": {after_bytes}}}, {{"target": "{t2}", "kind": "stall", "modeled_ns": {modeled_ns}}}, {{"target": "{t3}", "kind": "stall", "modeled_ns": {modeled_ns_2}}}, {{"target": "{t4}", "kind": "drop_connection", "after_frames": {after_frames}}}, {{"target": "{t5}", "kind": "poison_manifest"}}], "retries": {retries}, "deadline_ns": {deadline_ns}, "checkpoint_every": {ckpt}}}"#,
            cells = n("cells"),
            max_iters = n("max_iters"),
            job_deadline = n("job_deadline_ns"),
            job_ckpt = n("job_checkpoint_every"),
            iteration = n("iteration"),
            times = n("times"),
            after_bytes = n("after_bytes"),
            modeled_ns = n("modeled_ns"),
            modeled_ns_2 = n("modeled_ns_2"),
            after_frames = n("after_frames"),
            retries = n("retries"),
            deadline_ns = n("deadline_ns"),
            ckpt = n("checkpoint_every"),
            t0 = t[0],
            t1 = t[1],
            t2 = t[2],
            t3 = t[3],
            t4 = t[4],
            t5 = t[5],
        )
    }
}

/// One corrupted manifest and what its decode must do.
#[derive(Debug, Clone)]
enum Expect {
    /// Parse or error, as long as nothing panics.
    Either,
    /// A strict prefix, a number beyond `f64`: the parse must fail.
    Error,
    /// A duplicate job name: the parse must fail naming it.
    Duplicate(String),
    /// Fault targets that name no job still parse.
    Parses,
}

fn pick<'a>(rng: &mut Rng, values: &[&'a str]) -> &'a str {
    values[rng.gen_range(0..values.len())]
}

/// A corrupted manifest: one of truncation, byte flips, huge numbers,
/// infinite numbers, duplicate job names or unknown fault targets.
fn corrupted(rng: &mut Rng) -> (String, Expect) {
    let mut knobs = Knobs::healthy();
    match rng.gen_range(0u32..6) {
        0 => {
            let text = knobs.render();
            let cut = rng.gen_range(0..text.len());
            (text[..cut].to_string(), Expect::Error)
        }
        1 => {
            let mut bytes = knobs.render().into_bytes();
            for _ in 0..rng.gen_range(1usize..=3) {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = FLIP_BYTES[rng.gen_range(0..FLIP_BYTES.len())];
            }
            let text = String::from_utf8(bytes).expect("ASCII fixture");
            (text, Expect::Either)
        }
        2 => {
            for _ in 0..rng.gen_range(1usize..=4) {
                let field = rng.gen_range(0..NUMBERS.len());
                knobs.numbers[field] = pick(rng, HUGE).to_string();
            }
            (knobs.render(), Expect::Either)
        }
        3 => {
            let field = rng.gen_range(0..NUMBERS.len());
            knobs.numbers[field] = pick(rng, INFINITE).to_string();
            (knobs.render(), Expect::Error)
        }
        4 => {
            let name = pick(rng, &["tiny", "board", "x", "client-1"]).to_string();
            knobs.names = [name.clone(), name.clone()];
            (knobs.render(), Expect::Duplicate(name))
        }
        _ => {
            for target in knobs.targets.iter_mut() {
                if rng.gen_range(0u32..2) == 0 {
                    *target = pick(rng, &["ghost", "TINY", "tiny ", "b", "\\u0074iny"]).to_string();
                }
            }
            (knobs.render(), Expect::Parses)
        }
    }
}

/// Parses `text`; on success, resolves every fault of the plan for every
/// job over a few attempts and builds every job's config, so a decoded
/// manifest is one the scheduler can act on without panicking.
fn parse_and_resolve(text: &str) -> Result<BatchManifest, String> {
    let manifest = BatchManifest::parse(text).map_err(|e| e.to_string())?;
    let plan = &manifest.faults;
    for job in &manifest.jobs {
        let _ = job.config(2);
        let _ = job.source.synth_spec();
        let _ = plan.poisoned(&job.name);
        for attempt in [0, 1, 2, usize::MAX] {
            let _ = plan.gp_panic_at(&job.name, attempt);
            let _ = plan.sink_error_after(&job.name, attempt);
            let _ = plan.stall_ns(&job.name, attempt);
            let _ = plan.drop_after_frames(&job.name, attempt);
        }
    }
    Ok(manifest)
}

#[test]
fn the_fixture_parses_with_every_fault_kind() {
    let manifest = parse_and_resolve(&Knobs::healthy().render()).expect("fixture parses");
    assert_eq!(manifest.jobs.len(), 2);
    assert_eq!(manifest.faults.faults.len(), 6);
    assert_eq!(manifest.retries, 2);
    assert_eq!(manifest.faults.gp_panic_at("board", 0), Some(5));
    assert_eq!(manifest.faults.stall_ns("tiny", 0), 1007);
}

#[test]
fn every_truncation_is_an_error() {
    let text = Knobs::healthy().render();
    for cut in 0..text.len() {
        assert!(
            parse_and_resolve(&text[..cut]).is_err(),
            "prefix of {cut} bytes parsed"
        );
    }
}

props! {
    config = Config::with_cases(10_000);

    fn corrupted_manifests_parse_or_error(case in from_fn(corrupted)) {
        let (text, expect) = case;
        let parsed = parse_and_resolve(&text);
        match expect {
            Expect::Either => {}
            Expect::Error => prop_assert!(parsed.is_err(), "parsed: {}", text),
            Expect::Duplicate(name) => {
                let want = format!("duplicate job name `{name}`");
                prop_assert!(
                    parsed.as_ref().is_err_and(|e| e.contains(&want)),
                    "{:?} for {}", parsed.map(|_| ()), text
                );
            }
            Expect::Parses => prop_assert!(
                parsed.as_ref().is_ok_and(|m| m.faults.faults.len() == 6),
                "{:?} for {}", parsed.map(|_| ()), text
            ),
        }
    }
}
