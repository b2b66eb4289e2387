//! Command-line argument parsing for the `xplace` binary.
//!
//! The binary's `main.rs` is a thin dispatcher over these helpers so the
//! parsing rules are unit-testable. Three rules matter beyond the obvious:
//!
//! * A flag's value must not itself be a `--flag`: `-o --baseline` is a
//!   missing `-o` value, not a request to write a file named
//!   `--baseline`. Single-dash values stay legal so negative numbers
//!   (`--seed -3` for an i64 flag) still parse.
//! * A present-but-unparseable value is a hard error naming the flag and
//!   the offending text — never a silent fallback to the default.
//! * `--threads 0` is rejected up front: the worker pool needs at least
//!   one lane, and silently clamping would misreport the run's
//!   configuration in telemetry.
//! * A flag outside the subcommand's own list is a hard error naming it
//!   ([`only_flags`]): a misspelt flag, `--multilevle` or `-O`, must not
//!   run with the default.

/// Returns the value following `flag`, `Ok(None)` when the flag is absent,
/// or an error when the flag is present without a usable value.
///
/// A following token that starts with `--` is *not* a value — it is the
/// next flag, so the original flag is missing its value:
///
/// ```
/// use xplace::cli::flag_value;
/// let args: Vec<String> = ["-o", "--baseline"].iter().map(|s| s.to_string()).collect();
/// assert!(flag_value(&args, "-o").is_err());
/// ```
pub fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Ok(Some(v.clone())),
            _ => Err(format!("missing value for {flag}")),
        },
    }
}

/// Rejects the first flag in `args` that is not in `known`, naming it: a
/// `--flag`, or a `-` token that does not parse as a number. No value
/// starts with `--` (see [`flag_value`]), so every such token is a flag; a
/// single-dash token that parses as an `f64` is a negative value.
pub fn only_flags(args: &[String], known: &[&str]) -> Result<(), String> {
    match args
        .iter()
        .find(|a| a.starts_with('-') && !known.contains(&a.as_str()) && a.parse::<f64>().is_err())
    {
        Some(flag) => Err(format!(
            "unknown flag {flag} (expected {})",
            known.join(", ")
        )),
        None => Ok(()),
    }
}

/// True when `flag` appears anywhere in `args`.
pub fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Parses the value of an optional `flag`: `Ok(None)` when the flag is
/// absent; a present-but-unparseable value is a hard error naming the flag.
pub fn parse_optional_flag<T>(args: &[String], flag: &str) -> Result<Option<T>, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    flag_value(args, flag)?
        .map(|v| {
            v.parse()
                .map_err(|e| format!("invalid value '{v}' for {flag}: {e}"))
        })
        .transpose()
}

/// Parses the value of a numeric `flag`, falling back to `default` only when
/// the flag is absent; a present-but-unparseable value is a hard error, not
/// a silent fallback.
pub fn parse_flag<T>(args: &[String], flag: &str, default: T) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    Ok(parse_optional_flag(args, flag)?.unwrap_or(default))
}

/// Returns the positional argument at `index`, or `None` when it is absent
/// or is a flag (starts with `-`).
pub fn positional(args: &[String], index: usize) -> Option<&String> {
    args.get(index).filter(|a| !a.starts_with('-'))
}

/// Parses the positional argument at `index`. `Ok(None)` when it is absent
/// or flag-like (so the caller can print usage); a present-but-unparseable
/// value is a hard error naming `what`.
pub fn parse_positional<T>(args: &[String], index: usize, what: &str) -> Result<Option<T>, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    match positional(args, index) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|e| format!("invalid value '{v}' for <{what}>: {e}")),
    }
}

/// Parses `--threads`, defaulting to `default` and rejecting zero.
pub fn parse_threads(args: &[String], default: usize) -> Result<usize, String> {
    let threads: usize = parse_flag(args, "--threads", default)?;
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    Ok(threads)
}

/// Robustness flags of the `place` subcommand: checkpoint cadence and
/// destination, a snapshot to resume from, and a modeled-ns deadline.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PlaceRobustArgs {
    /// Checkpoint cadence in GP iterations (`--checkpoint-every`, 0 =
    /// disabled).
    pub checkpoint_every: usize,
    /// Checkpoint file (`--checkpoint-file`); required when the cadence
    /// is non-zero, and rejected when it is zero.
    pub checkpoint_file: Option<std::path::PathBuf>,
    /// Checkpoint file to resume from (`--resume-from`).
    pub resume_from: Option<std::path::PathBuf>,
    /// Modeled-ns budget for the GP run (`--deadline-ns`); exceeding it
    /// is a run failure.
    pub deadline_ns: Option<u64>,
}

/// Parses the `place` robustness flags (`--checkpoint-every N
/// --checkpoint-file F`, `--resume-from F`, `--deadline-ns N`).
///
/// # Errors
///
/// A non-zero checkpoint cadence without `--checkpoint-file` is
/// rejected, and so is a `--checkpoint-file` without one (it would
/// silently write nothing), as are the usual flag-parsing failures.
pub fn parse_place_robust_args(args: &[String]) -> Result<PlaceRobustArgs, String> {
    let checkpoint_every: usize = parse_flag(args, "--checkpoint-every", 0)?;
    let checkpoint_file = flag_value(args, "--checkpoint-file")?.map(std::path::PathBuf::from);
    if checkpoint_every > 0 && checkpoint_file.is_none() {
        return Err("--checkpoint-every requires --checkpoint-file".into());
    }
    if checkpoint_every == 0 && checkpoint_file.is_some() {
        return Err("--checkpoint-file requires a non-zero --checkpoint-every".into());
    }
    Ok(PlaceRobustArgs {
        checkpoint_every,
        checkpoint_file,
        resume_from: flag_value(args, "--resume-from")?.map(std::path::PathBuf::from),
        deadline_ns: parse_optional_flag(args, "--deadline-ns")?,
    })
}

/// Parsed arguments of the `batch` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchArgs {
    /// Path to the batch manifest JSON.
    pub manifest: std::path::PathBuf,
    /// Worker-pool width for the batch (job-level concurrency).
    pub threads: usize,
    /// Directory to write per-job JSON-lines traces into
    /// (`<dir>/<job>.jsonl`), if requested.
    pub trace_dir: Option<std::path::PathBuf>,
    /// Path to write the batch report JSON to, if requested.
    pub report: Option<std::path::PathBuf>,
    /// Retry-budget override (`--retries`); `None` keeps the manifest's
    /// value.
    pub retries: Option<usize>,
}

/// Parses `batch <manifest.json> [--threads N] [--trace-dir DIR]
/// [--report out.json] [--retries N]`. Returns `Ok(None)` when the
/// manifest positional is missing (the caller prints usage).
///
/// # Errors
///
/// Propagates flag-parsing errors (missing values, garbage numbers,
/// `--threads 0`).
pub fn parse_batch_args(
    args: &[String],
    default_threads: usize,
) -> Result<Option<BatchArgs>, String> {
    let Some(manifest) = positional(args, 0) else {
        return Ok(None);
    };
    Ok(Some(BatchArgs {
        manifest: std::path::PathBuf::from(manifest),
        threads: parse_threads(args, default_threads)?,
        trace_dir: flag_value(args, "--trace-dir")?.map(std::path::PathBuf::from),
        report: flag_value(args, "--report")?.map(std::path::PathBuf::from),
        retries: parse_optional_flag(args, "--retries")?,
    }))
}

/// Parsed arguments of the `serve` subcommand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeArgs {
    /// Listen address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Kernel thread width jobs run with.
    pub threads: usize,
    /// Maximum waiting batches before 503 load shedding.
    pub queue_depth: usize,
    /// Maximum queued + running batches per client before 429.
    pub max_inflight_per_client: usize,
}

impl ServeArgs {
    /// Converts to the daemon's configuration (remaining fields at
    /// their [`Default`]s).
    pub fn to_config(&self) -> xplace_serve::ServeConfig {
        xplace_serve::ServeConfig {
            addr: self.addr.clone(),
            threads: self.threads,
            queue_depth: self.queue_depth,
            max_inflight_per_client: self.max_inflight_per_client,
            ..Default::default()
        }
    }
}

/// Parses `serve [--addr HOST:PORT] [--threads N] [--queue-depth N]
/// [--max-inflight-per-client N]`. Every flag has a default, so there is
/// no usage case — only hard errors.
///
/// # Errors
///
/// Propagates flag-parsing errors; like `--threads 0`, a zero queue
/// depth or quota is rejected up front (each bound needs at least one
/// slot to admit anything at all).
pub fn parse_serve_args(args: &[String], default_threads: usize) -> Result<ServeArgs, String> {
    let queue_depth: usize = parse_flag(args, "--queue-depth", 16)?;
    if queue_depth == 0 {
        return Err("--queue-depth must be at least 1".into());
    }
    let max_inflight_per_client: usize = parse_flag(args, "--max-inflight-per-client", 4)?;
    if max_inflight_per_client == 0 {
        return Err("--max-inflight-per-client must be at least 1".into());
    }
    Ok(ServeArgs {
        addr: flag_value(args, "--addr")?.unwrap_or_else(|| "127.0.0.1:7333".into()),
        threads: parse_threads(args, default_threads)?,
        queue_depth,
        max_inflight_per_client,
    })
}

/// Parsed arguments of the `submit` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitArgs {
    /// Path to the batch manifest JSON to submit.
    pub manifest: std::path::PathBuf,
    /// Daemon address (`host:port`).
    pub addr: String,
    /// `X-Client` identity, if any (quotas and fairness key on it).
    pub client: Option<String>,
    /// Directory to write per-job JSON-lines traces into
    /// (`<dir>/<job>.jsonl`), if requested.
    pub trace_dir: Option<std::path::PathBuf>,
    /// Path to write the batch report JSON to, if requested.
    pub report: Option<std::path::PathBuf>,
}

/// Parses `submit <manifest.json> [--addr HOST:PORT] [--client NAME]
/// [--trace-dir DIR] [--report out.json]`. Returns `Ok(None)` when the
/// manifest positional is missing (the caller prints usage).
///
/// The artifact flags mirror `batch`'s on purpose: a wire submission
/// must be able to produce the exact files a local batch run would.
///
/// # Errors
///
/// Propagates flag-parsing errors (missing values).
pub fn parse_submit_args(args: &[String]) -> Result<Option<SubmitArgs>, String> {
    let Some(manifest) = positional(args, 0) else {
        return Ok(None);
    };
    Ok(Some(SubmitArgs {
        manifest: std::path::PathBuf::from(manifest),
        addr: flag_value(args, "--addr")?.unwrap_or_else(|| "127.0.0.1:7333".into()),
        client: flag_value(args, "--client")?,
        trace_dir: flag_value(args, "--trace-dir")?.map(std::path::PathBuf::from),
        report: flag_value(args, "--report")?.map(std::path::PathBuf::from),
    }))
}

/// An action of the `servectl` subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeCtl {
    /// Print the daemon's `GET /stats` JSON.
    Stats,
    /// Request graceful shutdown (`POST /shutdown`).
    Shutdown,
}

/// Parses `servectl <stats|shutdown> [--addr HOST:PORT]`. Returns
/// `Ok(None)` when the action positional is missing (usage); an unknown
/// action is a hard error naming it.
///
/// # Errors
///
/// Unknown actions and flag-parsing errors.
pub fn parse_servectl_args(args: &[String]) -> Result<Option<(ServeCtl, String)>, String> {
    let Some(action) = positional(args, 0) else {
        return Ok(None);
    };
    let action = match action.as_str() {
        "stats" => ServeCtl::Stats,
        "shutdown" => ServeCtl::Shutdown,
        other => {
            return Err(format!(
                "unknown servectl action '{other}' (stats|shutdown)"
            ))
        }
    };
    let addr = flag_value(args, "--addr")?.unwrap_or_else(|| "127.0.0.1:7333".into());
    Ok(Some((action, addr)))
}

/// Reads and parses a batch manifest file, prefixing errors with the
/// path so the CLI message names the offending file.
///
/// # Errors
///
/// Returns read failures and every manifest validation error of
/// [`xplace_sched::BatchManifest::parse`] (malformed JSON, empty or
/// missing job list, duplicate job names, bad design sources).
pub fn load_manifest(path: &std::path::Path) -> Result<xplace_sched::BatchManifest, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read manifest {}: {e}", path.display()))?;
    xplace_sched::BatchManifest::parse(&text)
        .map_err(|e| format!("manifest {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_value_returns_following_token() {
        let args = argv(&["place", "-o", "out.pl"]);
        assert_eq!(flag_value(&args, "-o").unwrap(), Some("out.pl".into()));
        assert_eq!(flag_value(&args, "--seed").unwrap(), None);
    }

    #[test]
    fn flag_value_rejects_a_following_flag_as_value() {
        // The historical bug: `xplace place d.aux -o --baseline` wrote a
        // file literally named `--baseline` (and dropped the baseline
        // request). Now it is a missing-value error.
        let args = argv(&["d.aux", "-o", "--baseline"]);
        let err = flag_value(&args, "-o").unwrap_err();
        assert!(err.contains("missing value for -o"), "{err}");
    }

    #[test]
    fn flag_value_rejects_trailing_flag_without_value() {
        let args = argv(&["d.aux", "-o"]);
        assert!(flag_value(&args, "-o").is_err());
        let args = argv(&["--out", "r.json", "--inject", "--smoke", "--threads"]);
        assert_eq!(flag_value(&args, "--reps"), Ok(None));
        assert_eq!(flag_value(&args, "--out"), Ok(Some("r.json".into())));
        assert_eq!(
            flag_value(&args, "--inject"),
            Err("missing value for --inject".into())
        );
        assert_eq!(
            flag_value(&args, "--threads"),
            Err("missing value for --threads".into())
        );
    }

    #[test]
    fn flag_value_allows_single_dash_values() {
        // Negative numbers must stay parseable; only `--`-prefixed tokens
        // are treated as flags.
        let args = argv(&["--offset", "-3"]);
        assert_eq!(flag_value(&args, "--offset").unwrap(), Some("-3".into()));
    }

    #[test]
    fn parse_flag_falls_back_only_when_absent() {
        let args = argv(&["--density", "0.8"]);
        assert_eq!(parse_flag(&args, "--density", 0.9).unwrap(), 0.8);
        assert_eq!(parse_flag(&args, "--nets", 5usize).unwrap(), 5);
    }

    #[test]
    fn parse_flag_errors_on_garbage() {
        let args = argv(&["--max-iters", "many"]);
        let err = parse_flag(&args, "--max-iters", 10usize).unwrap_err();
        assert!(
            err.contains("invalid value 'many' for --max-iters"),
            "{err}"
        );
    }

    #[test]
    fn positional_skips_flags() {
        let args = argv(&["mydesign", "--seed", "7"]);
        assert_eq!(positional(&args, 0), Some(&"mydesign".to_string()));
        assert_eq!(positional(&args, 1), None);
    }

    #[test]
    fn parse_positional_errors_on_unparseable_cells() {
        // The historical bug: `xplace synth chip banana` printed the
        // generic usage text instead of saying what was wrong.
        let args = argv(&["chip", "banana"]);
        let err = parse_positional::<usize>(&args, 1, "cells").unwrap_err();
        assert!(err.contains("invalid value 'banana' for <cells>"), "{err}");
    }

    #[test]
    fn parse_positional_absent_is_none() {
        let args = argv(&["chip"]);
        assert_eq!(parse_positional::<usize>(&args, 1, "cells").unwrap(), None);
        let args = argv(&["chip", "--seed", "3"]);
        assert_eq!(parse_positional::<usize>(&args, 1, "cells").unwrap(), None);
    }

    #[test]
    fn parse_positional_accepts_numbers() {
        let args = argv(&["chip", "5000"]);
        assert_eq!(
            parse_positional::<usize>(&args, 1, "cells").unwrap(),
            Some(5000)
        );
    }

    #[test]
    fn threads_zero_is_rejected() {
        let args = argv(&["--threads", "0"]);
        let err = parse_threads(&args, 4).unwrap_err();
        assert_eq!(err, "--threads must be at least 1");
        let args = argv(&["--threads", "2"]);
        assert_eq!(parse_threads(&args, 4).unwrap(), 2);
        assert_eq!(parse_threads(&argv(&[]), 4).unwrap(), 4);
        let err = parse_threads(&argv(&["--threads", "many"]), 4).unwrap_err();
        assert!(
            err.starts_with("invalid value 'many' for --threads"),
            "{err}"
        );
        let err = parse_threads(&argv(&["--threads", "--smoke"]), 4).unwrap_err();
        assert_eq!(err, "missing value for --threads");
    }

    #[test]
    fn only_flags_rejects_an_unknown_flag_by_name() {
        let known = ["-o", "--max-iters", "--multilevel"];
        assert_eq!(
            only_flags(&argv(&["d.aux", "--max-iters", "30"]), &known),
            Ok(())
        );
        assert_eq!(
            only_flags(&argv(&["d.aux", "-o", "x.pl", "--multilevel"]), &known),
            Ok(())
        );
        // Single-dash numbers are values.
        assert_eq!(only_flags(&argv(&["--max-iters", "-3"]), &known), Ok(()));
        assert_eq!(
            only_flags(&argv(&["--max-iters", "-2.5e3", "-inf"]), &known),
            Ok(())
        );
        let err =
            only_flags(&argv(&["d.aux", "--multilevle", "--thraeds", "3"]), &known).unwrap_err();
        assert_eq!(
            err,
            "unknown flag --multilevle (expected -o, --max-iters, --multilevel)"
        );
        // Exact match only: a known flag's prefix or extension is unknown.
        assert!(only_flags(&argv(&["--max-iter"]), &known).is_err());
        assert!(only_flags(&argv(&["--max-iters=30"]), &known).is_err());
    }

    #[test]
    fn only_flags_rejects_an_unknown_single_dash_flag_by_name() {
        let known = ["-o", "--max-iters"];
        assert_eq!(only_flags(&argv(&["d.aux", "-o", "x.pl"]), &known), Ok(()));
        assert_eq!(
            only_flags(&argv(&["d.aux", "-O", "x.pl"]), &known).unwrap_err(),
            "unknown flag -O (expected -o, --max-iters)"
        );
        assert!(only_flags(&argv(&["tiny.aux", "-x"]), &known).is_err());
        assert!(only_flags(&argv(&["-"]), &known).is_err());
        assert!(only_flags(&argv(&["-o", "-out.pl"]), &known).is_err());
    }

    #[test]
    fn has_flag_is_exact_match() {
        let args = argv(&["--baseline", "x"]);
        assert!(has_flag(&args, "--baseline"));
        assert!(!has_flag(&args, "--base"));
    }

    #[test]
    fn batch_args_parse_with_defaults_and_flags() {
        let args = argv(&["suite.json"]);
        let parsed = parse_batch_args(&args, 4).unwrap().unwrap();
        assert_eq!(parsed.manifest, std::path::PathBuf::from("suite.json"));
        assert_eq!(parsed.threads, 4);
        assert_eq!(parsed.trace_dir, None);
        assert_eq!(parsed.report, None);

        let args = argv(&[
            "suite.json",
            "--threads",
            "2",
            "--trace-dir",
            "traces",
            "--report",
            "batch.json",
        ]);
        let parsed = parse_batch_args(&args, 4).unwrap().unwrap();
        assert_eq!(parsed.threads, 2);
        assert_eq!(parsed.trace_dir, Some(std::path::PathBuf::from("traces")));
        assert_eq!(parsed.report, Some(std::path::PathBuf::from("batch.json")));
    }

    #[test]
    fn batch_retries_override_parses_and_rejects_garbage() {
        let parsed = parse_batch_args(&argv(&["m.json"]), 4).unwrap().unwrap();
        assert_eq!(parsed.retries, None);
        let parsed = parse_batch_args(&argv(&["m.json", "--retries", "2"]), 4)
            .unwrap()
            .unwrap();
        assert_eq!(parsed.retries, Some(2));
        assert!(parse_batch_args(&argv(&["m.json", "--retries", "lots"]), 4).is_err());
    }

    #[test]
    fn place_robust_args_parse_with_defaults_and_flags() {
        let parsed = parse_place_robust_args(&argv(&[])).unwrap();
        assert_eq!(parsed, PlaceRobustArgs::default());

        let parsed = parse_place_robust_args(&argv(&[
            "--checkpoint-every",
            "25",
            "--checkpoint-file",
            "gp.ckpt",
            "--resume-from",
            "old.ckpt",
            "--deadline-ns",
            "5000000000",
        ]))
        .unwrap();
        assert_eq!(parsed.checkpoint_every, 25);
        assert_eq!(
            parsed.checkpoint_file,
            Some(std::path::PathBuf::from("gp.ckpt"))
        );
        assert_eq!(
            parsed.resume_from,
            Some(std::path::PathBuf::from("old.ckpt"))
        );
        assert_eq!(parsed.deadline_ns, Some(5_000_000_000));
    }

    #[test]
    fn checkpoint_cadence_without_a_file_is_rejected() {
        let err = parse_place_robust_args(&argv(&["--checkpoint-every", "25"])).unwrap_err();
        assert!(err.contains("requires --checkpoint-file"), "{err}");
        assert!(parse_place_robust_args(&argv(&["--deadline-ns", "soon"])).is_err());
    }

    #[test]
    fn checkpoint_file_without_a_cadence_is_rejected() {
        for args in [
            &["--checkpoint-file", "ck.json"][..],
            &["--checkpoint-file", "ck.json", "--checkpoint-every", "0"],
        ] {
            let err = parse_place_robust_args(&argv(args)).unwrap_err();
            assert_eq!(
                err,
                "--checkpoint-file requires a non-zero --checkpoint-every"
            );
        }
    }

    #[test]
    fn batch_args_without_manifest_ask_for_usage() {
        assert_eq!(parse_batch_args(&argv(&[]), 4).unwrap(), None);
        assert_eq!(
            parse_batch_args(&argv(&["--threads", "2"]), 4).unwrap(),
            None
        );
        // Bad flag values are still hard errors, not usage.
        assert!(parse_batch_args(&argv(&["m.json", "--threads", "0"]), 4).is_err());
    }

    #[test]
    fn serve_args_defaults_and_flags() {
        let parsed = parse_serve_args(&argv(&[]), 4).unwrap();
        assert_eq!(parsed.addr, "127.0.0.1:7333");
        assert_eq!(parsed.threads, 4);
        assert_eq!(parsed.queue_depth, 16);
        assert_eq!(parsed.max_inflight_per_client, 4);

        let parsed = parse_serve_args(
            &argv(&[
                "--addr",
                "0.0.0.0:8080",
                "--threads",
                "2",
                "--queue-depth",
                "3",
                "--max-inflight-per-client",
                "1",
            ]),
            4,
        )
        .unwrap();
        assert_eq!(parsed.addr, "0.0.0.0:8080");
        assert_eq!(parsed.threads, 2);
        assert_eq!(parsed.queue_depth, 3);
        assert_eq!(parsed.max_inflight_per_client, 1);
        let config = parsed.to_config();
        assert_eq!(config.addr, "0.0.0.0:8080");
        assert_eq!(config.threads, 2);
        assert_eq!(config.queue_depth, 3);
        assert_eq!(config.max_inflight_per_client, 1);
        assert_eq!(
            config.max_body_bytes,
            xplace_serve::ServeConfig::default().max_body_bytes,
            "defaults fill the rest"
        );
    }

    #[test]
    fn serve_args_reject_zero_bounds_and_garbage() {
        let err = parse_serve_args(&argv(&["--queue-depth", "0"]), 4).unwrap_err();
        assert!(err.contains("--queue-depth must be at least 1"), "{err}");
        let err = parse_serve_args(&argv(&["--max-inflight-per-client", "0"]), 4).unwrap_err();
        assert!(
            err.contains("--max-inflight-per-client must be at least 1"),
            "{err}"
        );
        let err = parse_serve_args(&argv(&["--threads", "0"]), 4).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        assert!(parse_serve_args(&argv(&["--queue-depth", "many"]), 4).is_err());
        assert!(parse_serve_args(&argv(&["--addr"]), 4).is_err());
    }

    #[test]
    fn submit_args_defaults_and_flags() {
        assert_eq!(parse_submit_args(&argv(&[])).unwrap(), None);
        assert_eq!(parse_submit_args(&argv(&["--addr", "x:1"])).unwrap(), None);

        let parsed = parse_submit_args(&argv(&["suite.json"])).unwrap().unwrap();
        assert_eq!(parsed.manifest, std::path::PathBuf::from("suite.json"));
        assert_eq!(parsed.addr, "127.0.0.1:7333");
        assert_eq!(parsed.client, None);
        assert_eq!(parsed.trace_dir, None);
        assert_eq!(parsed.report, None);

        let parsed = parse_submit_args(&argv(&[
            "suite.json",
            "--addr",
            "127.0.0.1:9000",
            "--client",
            "ci",
            "--trace-dir",
            "traces",
            "--report",
            "wire.json",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!(parsed.addr, "127.0.0.1:9000");
        assert_eq!(parsed.client, Some("ci".into()));
        assert_eq!(parsed.trace_dir, Some(std::path::PathBuf::from("traces")));
        assert_eq!(parsed.report, Some(std::path::PathBuf::from("wire.json")));
        assert!(parse_submit_args(&argv(&["suite.json", "--addr"])).is_err());
    }

    #[test]
    fn servectl_args_parse_actions() {
        assert_eq!(parse_servectl_args(&argv(&[])).unwrap(), None);
        assert_eq!(
            parse_servectl_args(&argv(&["stats"])).unwrap(),
            Some((ServeCtl::Stats, "127.0.0.1:7333".into()))
        );
        assert_eq!(
            parse_servectl_args(&argv(&["shutdown", "--addr", "h:1"])).unwrap(),
            Some((ServeCtl::Shutdown, "h:1".into()))
        );
        let err = parse_servectl_args(&argv(&["restart"])).unwrap_err();
        assert!(err.contains("unknown servectl action 'restart'"), "{err}");
    }

    fn write_temp_manifest(name: &str, text: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("xplace-cli-{}-{name}", std::process::id()));
        std::fs::write(&path, text).unwrap();
        path
    }

    #[test]
    fn load_manifest_parses_a_good_file() {
        let path = write_temp_manifest(
            "good.json",
            r#"{"jobs": [{"name": "a", "synth": {"cells": 50}}]}"#,
        );
        let manifest = load_manifest(&path).unwrap();
        assert_eq!(manifest.jobs.len(), 1);
        assert_eq!(manifest.jobs[0].name, "a");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_manifest_names_the_file_on_malformed_json() {
        let path = write_temp_manifest("bad.json", "{not json at all");
        let err = load_manifest(&path).unwrap_err();
        assert!(err.contains("bad.json"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_manifest_rejects_duplicate_job_names() {
        let path = write_temp_manifest(
            "dup.json",
            r#"{"jobs": [{"name": "a", "synth": {"cells": 10}},
                         {"name": "a", "synth": {"cells": 20}}]}"#,
        );
        let err = load_manifest(&path).unwrap_err();
        assert!(err.contains("duplicate job name `a`"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_manifest_reports_missing_files() {
        let err = load_manifest(std::path::Path::new("/nonexistent/suite.json")).unwrap_err();
        assert!(err.contains("cannot read manifest"), "{err}");
    }
}
