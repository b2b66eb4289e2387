//! Shared infrastructure for the table-regeneration binaries.
//!
//! Every table of the paper's evaluation section has a binary in
//! `src/bin` (see `DESIGN.md` for the experiment index). This library
//! provides the common pieces: the full GP -> LG -> DP flow, suite
//! scaling via the `XPLACE_SCALE` environment variable, and plain-text
//! table formatting.

#![warn(missing_docs)]

pub mod explore;
pub mod scaling;
pub mod spectral;

use xplace::cli;
use xplace_core::{GlobalPlacer, PlacementReport, XplaceConfig};
use xplace_db::suites::SuiteEntry;
use xplace_db::synthesis::synthesize;
use xplace_db::Design;
use xplace_telemetry::{RunReport, ToJson};

/// Result of one complete placement flow on one design.
#[derive(Debug)]
pub struct FlowResult {
    /// The placed, legalized design.
    pub design: Design,
    /// Global-placement report.
    pub gp: PlacementReport,
    /// The run summary built by [`xplace_sched::finish_flow`] (LG, DP
    /// and routability sections filled).
    pub report: RunReport,
}

impl FlowResult {
    /// Final (post-DP) HPWL.
    pub fn hpwl(&self) -> f64 {
        self.report.final_hpwl()
    }

    /// Modeled GP seconds (the paper's GP/s column).
    pub fn gp_seconds(&self) -> f64 {
        self.gp.modeled_gp_seconds()
    }

    /// LG + DP wall-clock seconds (the paper's DP/s column).
    pub fn dp_seconds(&self) -> f64 {
        let lg = self.report.lg.as_ref().map_or(0.0, |lg| lg.wall_seconds);
        let dp = self.report.dp.as_ref().map_or(0.0, |dp| dp.wall_seconds);
        lg + dp
    }
}

/// Runs the full flow (synthesize -> GP -> [`xplace_sched::finish_flow`])
/// for one suite entry under one placer configuration, optionally with a
/// neural guidance.
///
/// # Errors
///
/// Propagates synthesis, placement and legalization failures as boxed
/// errors with context.
pub fn run_flow(
    entry: &SuiteEntry,
    config: XplaceConfig,
    guidance: Option<Box<dyn xplace_core::DensityGuidance>>,
) -> Result<FlowResult, Box<dyn std::error::Error>> {
    let mut design = synthesize(&entry.spec)?;
    let mut placer = GlobalPlacer::new(config.clone());
    if let Some(g) = guidance {
        placer = placer.with_guidance(g);
    }
    let gp = placer.place(&mut design)?;
    let report = xplace_sched::finish_flow(&mut design, &config, &gp)?;
    Ok(FlowResult { design, gp, report })
}

/// Writes a slice of [`RunReport`]s as one JSON array, creating parent
/// directories as needed (the `results/` convention of the table
/// binaries).
///
/// # Errors
///
/// Propagates directory-creation and write failures.
pub fn write_reports(path: &std::path::Path, reports: &[RunReport]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let array = xplace_telemetry::Json::Arr(reports.iter().map(ToJson::to_json).collect());
    std::fs::write(path, array.render())
}

/// Unwraps a flag or knob value, exiting with status 2 on its error (bin
/// helper).
fn or_exit<T>(value: Result<T, String>) -> T {
    value.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

fn process_args() -> Vec<String> {
    std::env::args().collect()
}

/// Returns the value following `--flag` in the process arguments, `None`
/// when absent, and exits with status 2 when the flag is given without a
/// value (bin helper over [`xplace::cli::flag_value`]).
pub fn argv_flag(flag: &str) -> Option<String> {
    or_exit(cli::flag_value(&process_args(), flag))
}

/// Parses the value of `--flag` from the process arguments, exiting with
/// status 2 on a missing or unparseable value (bin helper over
/// [`xplace::cli::parse_flag`]).
pub fn argv_parse<T>(flag: &str, default: T) -> T
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    or_exit(cli::parse_flag(&process_args(), flag, default))
}

/// Exits with status 2 when the process arguments hold a `--flag` outside
/// `known`, so a removed or misspelt flag fails instead of being ignored
/// (bin helper over [`xplace::cli::only_flags`]).
pub fn argv_only(known: &[&str]) {
    or_exit(cli::only_flags(
        process_args().get(1..).unwrap_or_default(),
        known,
    ))
}

/// Parses `--threads` from the process arguments, exiting with status 2
/// on a missing, unparseable or zero value (bin helper over
/// [`xplace::cli::parse_threads`]).
pub fn argv_threads(default: usize) -> usize {
    or_exit(cli::parse_threads(&process_args(), default))
}

/// Parses `raw`, the value of environment knob `name`, as a number greater
/// than zero; the error is the message [`env_parse`] prints.
pub fn parse_env_value<T>(name: &str, raw: &str) -> Result<T, String>
where
    T: std::str::FromStr + PartialOrd + Default,
    T::Err: std::fmt::Display,
{
    match raw.parse::<T>() {
        Ok(v) if v > T::default() => Ok(v),
        Ok(_) => Err(format!(
            "invalid value '{raw}' for {name}: must be greater than zero"
        )),
        Err(e) => Err(format!("invalid value '{raw}' for {name}: {e}")),
    }
}

/// Reads environment knob `name` (e.g. `XPLACE_SCALE`, where 1.0 is the
/// published contest size), returning `default` when it is unset and
/// exiting with status 2 on a value [`parse_env_value`] rejects (bin
/// helper, the environment twin of [`argv_parse`]).
pub fn env_parse<T>(name: &str, default: T) -> T
where
    T: std::str::FromStr + PartialOrd + Default,
    T::Err: std::fmt::Display,
{
    let Some(raw) = std::env::var_os(name) else {
        return default;
    };
    or_exit(parse_env_value(name, &raw.to_string_lossy()))
}

/// The default worker count: the machine's parallelism, capped at 8.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8)
}

/// A plain-text table printer with right-aligned numeric columns.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header length.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row length mismatch");
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[i];
                if i == 0 {
                    line.push_str(&format!("{:<width$}", cell, width = widths[i]));
                } else {
                    line.push_str(&format!("{:>width$}", cell, width = widths[i]));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with the given number of decimals.
pub fn fmt(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use xplace_db::suites::ispd2005_like;

    #[test]
    fn text_table_renders_aligned() {
        let mut t = TextTable::new(&["name", "value"]);
        t.row(vec!["a".into(), "1.5".into()]);
        t.row(vec!["long-name".into(), "23.25".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].starts_with("a "));
        assert!(lines[3].starts_with("long-name"));
    }

    #[test]
    #[should_panic(expected = "row length mismatch")]
    fn text_table_rejects_ragged_rows() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn env_values_parse_or_name_the_knob() {
        assert_eq!(parse_env_value::<f64>("XPLACE_SCALE", "0.25"), Ok(0.25));
        assert_eq!(parse_env_value::<usize>("XPLACE_MAX_ITERS", "700"), Ok(700));
        let garbage = parse_env_value::<f64>("XPLACE_SCALE", "0.1x").unwrap_err();
        assert!(
            garbage.starts_with("invalid value '0.1x' for XPLACE_SCALE"),
            "{garbage}"
        );
        for zero in ["0", "0.0", "-1"] {
            let err = parse_env_value::<f64>("XPLACE_SCALE", zero).unwrap_err();
            assert!(err.contains("greater than zero"), "{err}");
        }
        let err = parse_env_value::<usize>("XPLACE_CELLS", "0").unwrap_err();
        assert_eq!(
            err,
            "invalid value '0' for XPLACE_CELLS: must be greater than zero"
        );
    }

    #[test]
    fn unset_env_knob_takes_the_default() {
        assert_eq!(env_parse("XPLACE_UNSET_KNOB_FOR_TEST", 0.01), 0.01);
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }

    #[test]
    fn full_flow_runs_on_a_tiny_entry() {
        let mut entry = ispd2005_like(0.002)[0].clone();
        entry.spec.num_cells = 300;
        entry.spec.num_nets = 320;
        let mut cfg = XplaceConfig::xplace();
        cfg.schedule.max_iterations = 150;
        let flow = run_flow(&entry, cfg, None).unwrap();
        assert!(flow.hpwl() > 0.0);
        assert!(flow.gp_seconds() > 0.0);
        assert!(flow.dp_seconds() >= 0.0);
        let (lg, dp) = (flow.report.lg.unwrap(), flow.report.dp.unwrap());
        assert!(dp.final_hpwl <= lg.final_hpwl + 1e-9);
    }
}
