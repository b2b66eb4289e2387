//! The `xplace` command-line placer.
//!
//! Every subcommand and flag is listed once, in `usage()`, which prints
//! when `xplace` runs with no arguments or an unknown subcommand.
//!
//! `place` reads a Bookshelf benchmark, runs global placement +
//! legalization + detailed placement, reports the metrics the paper's
//! tables report, and writes the placed `.pl`; `--trace` streams the
//! per-iteration telemetry events as JSON-lines and `--report` writes the
//! run summary JSON (see DESIGN.md §"Experiment index"). `batch` runs every
//! job of a manifest concurrently with per-job failure isolation and exits
//! non-zero if any job failed (see README §"Batch placement"). `synth`
//! generates a synthetic benchmark in Bookshelf format. `stats` prints
//! Table-1-style statistics. `serve` runs the placement daemon: batch
//! manifests arrive as `POST /batch` bodies, execute on the persistent
//! worker pool with warm shared caches, and stream their telemetry back
//! while jobs run (see README §"Serving"). `submit` is the matching wire
//! client: it sends a manifest to a running daemon and writes the same
//! artifacts `batch` would — byte-identical traces, a comparator-equal
//! report. `servectl` inspects (`stats`) or drains (`shutdown`) a daemon.
//!
//! Argument parsing lives in [`xplace::cli`] so its rules are unit-tested.

use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use xplace::cli::{
    flag_value, has_flag, load_manifest, parse_batch_args, parse_explore_args, parse_flag,
    parse_place_robust_args, parse_positional, parse_serve_args, parse_servectl_args,
    parse_submit_args, parse_threads, positional, ServeCtl,
};
use xplace::core::{
    Checkpoint, CheckpointOptions, CheckpointStore, FileCheckpointStore, GlobalPlacer, XplaceConfig,
};
use xplace::db::synthesis::{synthesize, SynthesisSpec, Topology};
use xplace::db::{bookshelf, DesignStats};
use xplace::telemetry::{BatchReport, JsonLinesSink, NullSink, ToJson};

fn usage() -> ! {
    eprintln!(
        "usage:\n  xplace place <design.aux> [-o out.pl] [--density D] [--baseline] \
         [--max-iters N] [--seed N] [--threads N] [--multilevel] [--coarse-iters N] \
         [--trace out.jsonl] [--report out.json] [--checkpoint-every N \
         --checkpoint-file F] [--resume-from F] [--deadline-ns N] \
         [--explore K [--explore-generations N] [--explore-keep N]]\n  \
         xplace batch <manifest.json> [--threads N] [--trace-dir DIR] [--report out.json] \
         [--retries N]\n  \
         xplace serve [--addr HOST:PORT] [--threads N] [--queue-depth N] \
         [--max-inflight-per-client N]\n  \
         xplace submit <manifest.json> [--addr HOST:PORT] [--client NAME] \
         [--trace-dir DIR] [--report out.json]\n  \
         xplace servectl <stats|shutdown> [--addr HOST:PORT]\n  \
         xplace synth <name> <cells> [--out DIR] [--seed N] [--macros N] [--nets N] \
         [--topology random|systolic|butterfly]\n  xplace stats \
         <design.aux> [--density D]\n  xplace plot <design.aux> [-o out.svg] [--nets N] \
         [--density D]"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("place") => cmd_place(&args[1..]),
        Some("batch") => cmd_batch(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("servectl") => cmd_servectl(&args[1..]),
        Some("synth") => cmd_synth(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("plot") => cmd_plot(&args[1..]),
        _ => usage(),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn cmd_place(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let aux = positional(args, 0).unwrap_or_else(|| usage());
    let density: f64 = parse_flag(args, "--density", 0.9)?;
    let out: PathBuf = flag_value(args, "-o")?
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(aux).with_extension("placed.pl"));
    let trace_path = flag_value(args, "--trace")?.map(PathBuf::from);
    let report_path = flag_value(args, "--report")?.map(PathBuf::from);
    let robust = parse_place_robust_args(args)?;
    let mut design = bookshelf::read_aux(Path::new(aux), density)?;
    println!("loaded {}", DesignStats::of(&design));

    let mut config = if has_flag(args, "--baseline") {
        XplaceConfig::dreamplace_like()
    } else {
        XplaceConfig::xplace()
    };
    config.schedule.max_iterations = parse_flag(args, "--max-iters", 1500)?;
    config.seed = parse_flag(args, "--seed", 0x5eed)?;
    config.threads = parse_threads(args, xplace::parallel::available_threads())?;
    config.multilevel.enabled = has_flag(args, "--multilevel");
    config.multilevel.coarse_max_iterations = parse_flag(
        args,
        "--coarse-iters",
        config.multilevel.coarse_max_iterations,
    )?;
    println!("threads: {} (deterministic for any count)", config.threads);
    if config.multilevel.enabled {
        println!(
            "multilevel: enabled (floor {} movable cells, {} coarse iters/level)",
            config.multilevel.min_cells, config.multilevel.coarse_max_iterations
        );
    }

    if let Some(explore) = parse_explore_args(args)? {
        if robust.checkpoint_every > 0 || robust.resume_from.is_some() {
            return Err(
                "--explore drives its own checkpoint schedule; drop --checkpoint-every/\
                 --resume-from"
                    .into(),
            );
        }
        return place_population(
            design,
            &config,
            &explore,
            &robust,
            &trace_path,
            &report_path,
            &out,
        );
    }

    let resume_cp: Option<Checkpoint> = match &robust.resume_from {
        Some(p) => {
            let cp = Checkpoint::load(p)?;
            println!("resuming from {} (iteration {})", p.display(), cp.iteration);
            Some(cp)
        }
        None => None,
    };
    let store: Option<FileCheckpointStore> = robust
        .checkpoint_file
        .as_ref()
        .map(FileCheckpointStore::new);
    let ckpt = CheckpointOptions {
        every: robust.checkpoint_every,
        store: store.as_ref().map(|s| s as &dyn CheckpointStore),
        resume: resume_cp.as_ref(),
        stop_at: None,
    };

    // With --trace, events stream straight to disk as JSON-lines; without
    // it the NullSink keeps the hot loop free of telemetry work. A trace
    // I/O failure does not abort the run — the placement is still valid —
    // but it is surfaced in the report and fails the exit code.
    let mut trace_error: Option<String> = None;
    let gp = match &trace_path {
        Some(p) => {
            let mut sink = JsonLinesSink::new(BufWriter::new(File::create(p)?));
            let gp = GlobalPlacer::new(config.clone()).place_traced_opts(
                &mut design,
                &mut sink,
                ckpt,
            )?;
            let written = sink.written();
            let flushed = sink
                .finish()
                .and_then(|w| w.into_inner().map_err(|e| e.into_error()))
                .and_then(|mut f| std::io::Write::flush(&mut f).map(|()| f));
            match flushed {
                Ok(_) => println!("trace written to {} ({written} events)", p.display()),
                Err(e) => {
                    eprintln!("warning: trace stream failed after {written} event(s): {e}");
                    trace_error = Some(e.to_string());
                }
            }
            gp
        }
        None => {
            GlobalPlacer::new(config.clone()).place_traced_opts(&mut design, &mut NullSink, ckpt)?
        }
    };
    if let Some(s) = &store {
        println!(
            "checkpoints: {} snapshot(s) written to {}",
            s.saves(),
            s.path().display()
        );
    }
    println!(
        "GP: {} iterations, overflow {:.3} -> {:.3}, HPWL {:.0} -> {:.0}, \
         modeled GPU {:.3}s ({:.3} ms/iter), wall {:.2}s",
        gp.iterations,
        gp.initial_overflow,
        gp.final_overflow,
        gp.initial_hpwl,
        gp.final_hpwl,
        gp.modeled_gp_seconds(),
        gp.modeled_ms_per_iter(),
        gp.wall_seconds
    );
    let mut report = xplace::sched::finish_flow(&mut design, &config, &gp)?;
    report.trace_error = trace_error;
    if let (Some(lg), Some(dp), Some(route)) = (&report.lg, &report.dp, &report.route) {
        println!(
            "LG: HPWL {:.0} -> {:.0}, mean displacement {:.2} ({:.2}s)",
            lg.initial_hpwl, lg.final_hpwl, lg.mean_displacement, lg.wall_seconds
        );
        println!(
            "DP: HPWL {:.0} -> {:.0} ({} slides, {} reorders, {} swaps, {:.2}s)",
            dp.initial_hpwl, dp.final_hpwl, dp.slides, dp.reorders, dp.swaps, dp.wall_seconds
        );
        println!(
            "routability: top5 overflow {:.2}, max utilization {:.2}",
            route.top5_overflow, route.max_utilization
        );
    }

    if let Some(p) = &report_path {
        std::fs::write(p, report.to_json_string())?;
        println!("report written to {}", p.display());
    }

    bookshelf::write_pl(&design, &out)?;
    println!("placement written to {}", out.display());
    if let Some(e) = report.trace_error {
        return Err(format!("trace stream failed: {e}").into());
    }
    if let Some(deadline) = robust.deadline_ns {
        let modeled = gp.profile.modeled_ns();
        if modeled > deadline {
            return Err(format!("deadline exceeded: {modeled} modeled ns > {deadline} ns").into());
        }
    }
    Ok(())
}

/// The `--explore` arm of `place`: runs a perturbed-restart population
/// over the worker pool and writes the winner's artifacts (trace,
/// report, `.pl`) in exactly the shapes a plain run would.
fn place_population(
    design: xplace::db::Design,
    config: &XplaceConfig,
    explore: &xplace::cli::ExploreArgs,
    robust: &xplace::cli::PlaceRobustArgs,
    trace_path: &Option<PathBuf>,
    report_path: &Option<PathBuf>,
    out: &Path,
) -> Result<(), Box<dyn std::error::Error>> {
    let options = xplace::sched::PopulationOptions {
        members: explore.members,
        generations: explore.generations,
        keep: explore.keep,
        threads: config.threads,
    };
    println!(
        "explore: {} member(s), {} generation(s), keep {}",
        options.members, options.generations, options.keep
    );
    let outcome = xplace::sched::run_population(&design, config, &options)?;
    let metrics = outcome
        .report
        .explore
        .as_ref()
        .expect("population reports carry an explore section");
    for generation in &metrics.generations {
        let best = &generation.members[generation.best];
        let culled = generation.members.iter().filter(|m| m.culled).count();
        println!(
            "  gen {} @ iter {}: best member {} (HPWL {:.0}, overflow {:.3}), {} culled",
            generation.generation,
            generation.iteration,
            generation.best,
            best.hpwl,
            best.overflow,
            culled
        );
    }
    println!(
        "winner: member {} (lineage {:?}), GP HPWL {:.0}, total modeled {:.3}s",
        metrics.winner,
        metrics.winner_lineage,
        metrics.winner_hpwl,
        metrics.total_modeled_ns as f64 / 1e9
    );
    if let Some(lg) = &outcome.report.lg {
        println!("LG: HPWL {:.0} -> {:.0}", lg.initial_hpwl, lg.final_hpwl);
    }
    if let Some(dp) = &outcome.report.dp {
        println!("DP: HPWL {:.0} -> {:.0}", dp.initial_hpwl, dp.final_hpwl);
    }

    if let Some(p) = trace_path {
        std::fs::write(p, &outcome.trace)?;
        println!(
            "winner trace written to {} ({} events)",
            p.display(),
            outcome.trace.lines().count()
        );
    }
    if let Some(p) = report_path {
        std::fs::write(p, outcome.report.to_json_string())?;
        println!("report written to {}", p.display());
    }
    bookshelf::write_pl(&outcome.design, out)?;
    println!("placement written to {}", out.display());
    if let Some(deadline) = robust.deadline_ns {
        let modeled = metrics.total_modeled_ns;
        if modeled > deadline {
            return Err(
                format!("deadline exceeded: {modeled} total modeled ns > {deadline} ns").into(),
            );
        }
    }
    Ok(())
}

fn cmd_batch(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let parsed =
        parse_batch_args(args, xplace::parallel::available_threads())?.unwrap_or_else(|| usage());
    let mut manifest = load_manifest(&parsed.manifest)?;
    if let Some(retries) = parsed.retries {
        manifest.retries = retries;
    }
    println!(
        "batch: {} job(s) from {} on {} thread(s)",
        manifest.jobs.len(),
        parsed.manifest.display(),
        parsed.threads
    );

    let outcome = xplace::sched::run_batch(&manifest, parsed.threads);
    write_batch_outcome(
        &outcome.report,
        &outcome.traces,
        format!(
            "design cache: {} hit(s), {} miss(es)",
            outcome.cache_stats.0, outcome.cache_stats.1
        ),
        &parsed.trace_dir,
        &parsed.report,
    )
}

/// The shared tail of `batch` and `submit`: prints one line per job and
/// the cache line, writes the per-job traces and the batch report, and
/// fails when any job failed (after every artifact is written).
fn write_batch_outcome(
    report: &BatchReport,
    traces: &[Option<String>],
    cache_line: String,
    trace_dir: &Option<PathBuf>,
    report_path: &Option<PathBuf>,
) -> Result<(), Box<dyn std::error::Error>> {
    for record in &report.jobs {
        match (&record.report, &record.error) {
            (Some(report), _) => println!(
                "  {:<20} completed  HPWL {:.0}  ({} cells, {} GP iters)",
                record.name,
                report.final_hpwl(),
                report.cells,
                report.gp.iterations
            ),
            (None, error) => println!(
                "  {:<20} FAILED     {}",
                record.name,
                error.as_deref().unwrap_or("unknown failure")
            ),
        }
    }
    println!("{cache_line}");

    if let Some(dir) = trace_dir {
        std::fs::create_dir_all(dir)?;
        let mut written = 0;
        for (record, trace) in report.jobs.iter().zip(traces) {
            if let Some(text) = trace {
                std::fs::write(dir.join(format!("{}.jsonl", record.name)), text)?;
                written += 1;
            }
        }
        println!("traces written to {} ({written} file(s))", dir.display());
    }
    if let Some(p) = report_path {
        std::fs::write(p, report.to_json_string())?;
        println!("batch report written to {}", p.display());
    }

    if !report.all_completed() {
        return Err(format!("{} of {} job(s) failed", report.failed(), report.total()).into());
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let parsed = parse_serve_args(args, xplace::parallel::available_threads())?;
    let server = xplace::serve::Server::bind(parsed.to_config())?;
    println!(
        "serving on http://{} ({} thread(s), queue depth {}, {} in-flight per client)",
        server.local_addr(),
        parsed.threads,
        parsed.queue_depth,
        parsed.max_inflight_per_client
    );
    println!("endpoints: POST /batch, GET /stats, POST /shutdown");
    server.run()?;
    println!("drained; goodbye");
    Ok(())
}

fn cmd_submit(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let parsed = parse_submit_args(args)?.unwrap_or_else(|| usage());
    // Parse locally first so a bad manifest is a clear local error, not a
    // wire rejection — then submit the raw text, not a re-rendering.
    load_manifest(&parsed.manifest)?;
    let text = std::fs::read_to_string(&parsed.manifest)?;
    let mut client = xplace::serve::Client::new(parsed.addr.clone());
    if let Some(identity) = &parsed.client {
        client = client.with_identity(identity.clone());
    }
    println!(
        "submitting {} to {}",
        parsed.manifest.display(),
        parsed.addr
    );
    let wire = match client.submit(&text)? {
        xplace::serve::Submission::Completed(wire) => wire,
        xplace::serve::Submission::Rejected {
            status, message, ..
        } => return Err(format!("daemon rejected the batch ({status}): {message}").into()),
    };
    write_batch_outcome(
        &wire.report,
        &wire.traces,
        format!(
            "daemon design cache: {} hit(s), {} miss(es) cumulative",
            wire.cache_stats.0, wire.cache_stats.1
        ),
        &parsed.trace_dir,
        &parsed.report,
    )
}

fn cmd_servectl(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let (action, addr) = parse_servectl_args(args)?.unwrap_or_else(|| usage());
    let client = xplace::serve::Client::new(addr);
    match action {
        ServeCtl::Stats => println!("{}", client.stats()?.render()),
        ServeCtl::Shutdown => {
            client.shutdown()?;
            println!("drain requested; in-flight batches will finish");
        }
    }
    Ok(())
}

fn cmd_synth(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let name = positional(args, 0).unwrap_or_else(|| usage());
    let cells: usize = parse_positional(args, 1, "cells")?.unwrap_or_else(|| usage());
    let out: PathBuf = flag_value(args, "--out")?
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    let seed: u64 = parse_flag(args, "--seed", 1)?;
    let macros: usize = parse_flag(args, "--macros", 0)?;
    let nets: usize = parse_flag(args, "--nets", cells + cells / 20)?;
    let topology = match flag_value(args, "--topology")? {
        None => Topology::Random,
        Some(name) => Topology::parse(&name)
            .ok_or_else(|| format!("unknown topology '{name}' (random|systolic|butterfly)"))?,
    };
    let spec = SynthesisSpec::new(name.clone(), cells, nets)
        .with_seed(seed)
        .with_macro_count(macros)
        .with_topology(topology);
    let design = synthesize(&spec)?;
    println!("generated {}", DesignStats::of(&design));
    let aux = bookshelf::write_design(&design, &out)?;
    println!("written to {}", aux.display());
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let aux = positional(args, 0).unwrap_or_else(|| usage());
    let density: f64 = parse_flag(args, "--density", 0.9)?;
    let design = bookshelf::read_aux(Path::new(aux), density)?;
    let s = DesignStats::of(&design);
    println!("{s}");
    println!("region: {}", design.region());
    println!("rows: {}", design.rows().len());
    println!("initial HPWL: {:.0}", design.total_hpwl());
    Ok(())
}

fn cmd_plot(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let aux = positional(args, 0).unwrap_or_else(|| usage());
    let out: PathBuf = flag_value(args, "-o")?
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(aux).with_extension("svg"));
    let nets: usize = parse_flag(args, "--nets", 0)?;
    let density: f64 = parse_flag(args, "--density", 0.9)?;
    let design = bookshelf::read_aux(Path::new(aux), density)?;
    let config = xplace::db::plot::PlotConfig {
        longest_nets: nets,
        ..Default::default()
    };
    xplace::db::plot::write_svg(&design, &config, &out)?;
    println!("SVG written to {}", out.display());
    Ok(())
}
