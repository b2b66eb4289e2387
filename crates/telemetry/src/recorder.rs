//! Per-iteration metric recording (the "recorder" block of Figure 1).

use crate::{IterationRecord, TelemetryEvent, TelemetrySink};
use std::fmt::Write as _;
use xplace_testkit::json::ToJson;

/// Collects [`IterationRecord`]s over a placement run: a
/// [`TelemetrySink`] that keeps the iteration records of an event stream
/// and ignores everything else. Pass one to the placer's traced entry
/// point to record a run.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    records: Vec<IterationRecord>,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record.
    pub fn push(&mut self, record: IterationRecord) {
        self.records.push(record);
    }

    /// The recorded iterations.
    pub fn records(&self) -> &[IterationRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Serializes all records as CSV (header + one row per iteration).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "iteration,hpwl,wa,overflow,lambda,gamma,omega,r_ratio,density_skipped,modeled_ns,launches\n",
        );
        for r in &self.records {
            let _ = writeln!(
                out,
                "{},{:.6},{:.6},{:.6},{:.6e},{:.6e},{:.6},{:.6e},{},{},{}",
                r.iteration,
                r.hpwl,
                r.wa,
                r.overflow,
                r.lambda,
                r.gamma,
                r.omega,
                r.r_ratio,
                r.density_skipped as u8,
                r.modeled_ns,
                r.launches
            );
        }
        out
    }

    /// Serializes all records as JSON-lines (one record object per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.to_json_string());
            out.push('\n');
        }
        out
    }
}

impl TelemetrySink for Recorder {
    fn emit(&mut self, event: &TelemetryEvent) {
        if let TelemetryEvent::Iteration { record, .. } = event {
            self.push(*record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProfileDelta;

    fn rec(i: usize) -> IterationRecord {
        IterationRecord {
            iteration: i,
            hpwl: 100.0,
            wa: 90.0,
            overflow: 0.5,
            lambda: 1e-4,
            gamma: 80.0,
            omega: 0.1,
            r_ratio: 1e-5,
            density_skipped: i % 2 == 0,
            modeled_ns: 1000,
            launches: 7,
        }
    }

    #[test]
    fn records_accumulate() {
        let mut r = Recorder::new();
        r.push(rec(0));
        r.push(rec(1));
        assert_eq!(r.len(), 2);
        assert_eq!(r.records()[1].iteration, 1);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut r = Recorder::new();
        r.push(rec(3));
        let csv = r.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("iteration,hpwl"));
        assert!(lines[1].starts_with("3,100.0"));
        assert_eq!(lines[0].split(',').count(), lines[1].split(',').count());
    }

    #[test]
    fn jsonl_emits_one_object_per_record() {
        let mut r = Recorder::new();
        r.push(rec(0));
        r.push(rec(1));
        let jsonl = r.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn recorder_as_sink_keeps_only_iterations() {
        let mut r = Recorder::new();
        r.emit(&TelemetryEvent::SkipWindow {
            iteration: 0,
            active: true,
        });
        r.emit(&TelemetryEvent::Iteration {
            record: rec(0),
            profile: ProfileDelta::default(),
        });
        assert_eq!(r.len(), 1);
        assert_eq!(r.records()[0].iteration, 0);
    }
}
