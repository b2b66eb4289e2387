//! Batch-run reporting: a manifest-ordered array of [`RunReport`]s with
//! per-job failure status, plus the batch-level regression comparator.
//!
//! The batch scheduler (`xplace-sched`) keys results by job index, never by
//! completion order, so a [`BatchReport`] is deterministic: the same
//! manifest produces the same job order, and each completed job's
//! [`RunReport`] is bit-identical to the report a serial `place` run of
//! that design would have produced.

use crate::{compare_reports, Comparison, RunReport};
use xplace_testkit::json::{FromJson, Json, JsonError, ToJson};
use xplace_testkit::json_struct;

/// Terminal status of one job in a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// The job ran the full flow and produced a [`RunReport`].
    Completed,
    /// The job panicked or returned an error; siblings were unaffected.
    Failed,
}

impl JobStatus {
    /// The JSON wire string of this status.
    pub fn as_str(&self) -> &'static str {
        match self {
            JobStatus::Completed => "completed",
            JobStatus::Failed => "failed",
        }
    }
}

impl ToJson for JobStatus {
    fn to_json(&self) -> Json {
        self.as_str().to_json()
    }
}

impl FromJson for JobStatus {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value.as_str()? {
            "completed" => Ok(JobStatus::Completed),
            "failed" => Ok(JobStatus::Failed),
            other => Err(JsonError(format!("unknown job status `{other}`"))),
        }
    }
}

/// One job's slot in a [`BatchReport`], in manifest order.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Job name from the batch manifest (unique within a batch).
    pub name: String,
    /// Terminal status.
    pub status: JobStatus,
    /// Failure message (panic payload or error display); `None` for
    /// completed jobs.
    pub error: Option<String>,
    /// The run summary; `None` for failed jobs. Boxed: a report is many
    /// times the size of the rest of the record.
    pub report: Option<Box<RunReport>>,
    /// Retries the scheduler spent on this job (0 = first attempt won).
    pub retries: usize,
    /// Checkpoint snapshots saved across all attempts of this job.
    pub checkpoints: usize,
    /// Whether the job failed its modeled-ns deadline.
    pub deadline_exceeded: bool,
}

impl JobRecord {
    /// A completed job carrying its run report.
    pub fn completed(name: impl Into<String>, report: RunReport) -> Self {
        JobRecord {
            name: name.into(),
            status: JobStatus::Completed,
            error: None,
            report: Some(Box::new(report)),
            retries: 0,
            checkpoints: 0,
            deadline_exceeded: false,
        }
    }

    /// A failed job carrying its failure message.
    pub fn failed(name: impl Into<String>, error: impl Into<String>) -> Self {
        JobRecord {
            name: name.into(),
            status: JobStatus::Failed,
            error: Some(error.into()),
            report: None,
            retries: 0,
            checkpoints: 0,
            deadline_exceeded: false,
        }
    }

    /// Attaches the scheduler's fault bookkeeping to this record.
    pub fn with_fault_stats(
        mut self,
        retries: usize,
        checkpoints: usize,
        deadline_exceeded: bool,
    ) -> Self {
        self.retries = retries;
        self.checkpoints = checkpoints;
        self.deadline_exceeded = deadline_exceeded;
        self
    }
}

/// The batch artifact `xplace batch --report` writes: job records in
/// manifest order plus derived summary counts.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Per-job records, in manifest order (index = job index).
    pub jobs: Vec<JobRecord>,
}

impl BatchReport {
    /// Wraps job records (already in manifest order) into a report.
    pub fn new(jobs: Vec<JobRecord>) -> Self {
        BatchReport { jobs }
    }

    /// Total number of jobs.
    pub fn total(&self) -> usize {
        self.jobs.len()
    }

    /// Number of completed jobs.
    pub fn completed(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.status == JobStatus::Completed)
            .count()
    }

    /// Number of failed jobs.
    pub fn failed(&self) -> usize {
        self.total() - self.completed()
    }

    /// `true` when every job completed.
    pub fn all_completed(&self) -> bool {
        self.failed() == 0
    }

    /// Number of jobs that needed at least one retry.
    pub fn retried(&self) -> usize {
        self.jobs.iter().filter(|j| j.retries > 0).count()
    }

    /// Number of jobs that blew their modeled-ns deadline.
    pub fn deadline_exceeded(&self) -> usize {
        self.jobs.iter().filter(|j| j.deadline_exceeded).count()
    }

    /// Looks up a job record by name.
    pub fn job(&self, name: &str) -> Option<&JobRecord> {
        self.jobs.iter().find(|j| j.name == name)
    }
}

// Fault bookkeeping arrived after the first baselines were captured;
// absent keys mean a pre-fault-plan record.
json_struct!(JobRecord {
    name,
    status,
    error,
    report,
    retries = 0,
    checkpoints = 0,
    deadline_exceeded = false,
});

impl ToJson for BatchReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("jobs", self.jobs.to_json()),
            ("total", self.total().to_json()),
            ("completed", self.completed().to_json()),
            ("failed", self.failed().to_json()),
            ("retried", self.retried().to_json()),
            ("deadline_exceeded", self.deadline_exceeded().to_json()),
        ])
    }
}

impl FromJson for BatchReport {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        // The summary counts are derived; only `jobs` is authoritative.
        Ok(BatchReport {
            jobs: value.decode("jobs")?,
        })
    }
}

/// Prefixes every message of `sub` with the job name and merges it into
/// `acc`.
fn merge_prefixed(acc: &mut Comparison, name: &str, sub: Comparison) {
    acc.failures
        .extend(sub.failures.into_iter().map(|m| format!("[{name}] {m}")));
    acc.warnings
        .extend(sub.warnings.into_iter().map(|m| format!("[{name}] {m}")));
    acc.notes
        .extend(sub.notes.into_iter().map(|m| format!("[{name}] {m}")));
}

/// Compares a fresh [`BatchReport`] against a baseline, job by job.
///
/// Jobs are paired by name; the job sets and manifest order must match
/// exactly, as must each job's status (a baseline-completed job failing
/// now — or vice versa — is a hard failure). Paired completed jobs
/// delegate to [`compare_reports`] with their messages prefixed by the
/// job name; paired failed jobs pass (a deliberately injected fault is
/// part of the experiment).
pub fn compare_batch_reports(baseline: &BatchReport, current: &BatchReport) -> Comparison {
    let mut cmp = Comparison::default();
    let base_names: Vec<&str> = baseline.jobs.iter().map(|j| j.name.as_str()).collect();
    let cur_names: Vec<&str> = current.jobs.iter().map(|j| j.name.as_str()).collect();
    if base_names != cur_names {
        cmp.failures.push(format!(
            "job set mismatch: baseline {base_names:?} vs current {cur_names:?}"
        ));
        return cmp;
    }
    for (base, cur) in baseline.jobs.iter().zip(&current.jobs) {
        if base.status != cur.status {
            cmp.failures.push(format!(
                "[{}] status changed: {} -> {}{}",
                base.name,
                base.status.as_str(),
                cur.status.as_str(),
                cur.error
                    .as_deref()
                    .map(|e| format!(" ({e})"))
                    .unwrap_or_default()
            ));
            continue;
        }
        match (&base.report, &cur.report) {
            (Some(b), Some(c)) => merge_prefixed(&mut cmp, &base.name, compare_reports(b, c)),
            _ => cmp
                .notes
                .push(format!("[{}] failed in both runs — not gated", base.name)),
        }
    }
    cmp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::sample_report;

    fn sample_batch() -> BatchReport {
        let mut second = sample_report();
        second.design = "second".into();
        BatchReport::new(vec![
            JobRecord::completed("golden", sample_report()),
            JobRecord::completed("second", second),
            JobRecord::failed("broken", "injected failure at GP iteration 5"),
        ])
    }

    #[test]
    fn batch_report_round_trips() {
        let report = sample_batch();
        let text = report.to_json_string();
        assert!(text.contains("\"total\":3"));
        assert!(text.contains("\"completed\":2"));
        assert!(text.contains("\"failed\":1"));
        let back = BatchReport::from_json_str(&text).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn summary_counts_and_lookup() {
        let report = sample_batch();
        assert_eq!(report.total(), 3);
        assert_eq!(report.completed(), 2);
        assert_eq!(report.failed(), 1);
        assert!(!report.all_completed());
        assert_eq!(report.job("broken").unwrap().status, JobStatus::Failed);
        assert!(report.job("missing").is_none());
    }

    #[test]
    fn identical_batches_pass() {
        let base = sample_batch();
        let cmp = compare_batch_reports(&base, &base.clone());
        assert!(cmp.passed(), "{:?}", cmp.failures);
        assert!(cmp
            .notes
            .iter()
            .any(|n| n.contains("[broken] failed in both runs")));
    }

    #[test]
    fn per_job_hpwl_regression_fails_with_job_prefix() {
        let base = sample_batch();
        let mut cur = base.clone();
        cur.jobs[1]
            .report
            .as_mut()
            .unwrap()
            .dp
            .as_mut()
            .unwrap()
            .final_hpwl *= 1.10;
        let cmp = compare_batch_reports(&base, &cur);
        assert!(!cmp.passed());
        assert!(
            cmp.failures[0].starts_with("[second]") && cmp.failures[0].contains("HPWL regressed"),
            "{:?}",
            cmp.failures
        );
    }

    #[test]
    fn status_flip_fails() {
        let base = sample_batch();
        let mut cur = base.clone();
        cur.jobs[0] = JobRecord::failed("golden", "oops");
        let cmp = compare_batch_reports(&base, &cur);
        assert!(!cmp.passed());
        assert!(
            cmp.failures[0].contains("status changed: completed -> failed (oops)"),
            "{:?}",
            cmp.failures
        );
    }

    #[test]
    fn job_set_mismatch_fails_before_metrics() {
        let base = sample_batch();
        let mut cur = base.clone();
        cur.jobs.remove(1);
        let cmp = compare_batch_reports(&base, &cur);
        assert_eq!(cmp.failures.len(), 1);
        assert!(cmp.failures[0].contains("job set mismatch"));
    }

    #[test]
    fn fault_stats_round_trip_and_summarize() {
        let mut report = sample_batch();
        report.jobs[1] = report.jobs[1].clone().with_fault_stats(2, 3, false);
        report.jobs[2] = report.jobs[2].clone().with_fault_stats(1, 0, true);
        assert_eq!(report.retried(), 2);
        assert_eq!(report.deadline_exceeded(), 1);
        let text = report.to_json_string();
        assert!(text.contains("\"retried\":2"));
        assert!(text.contains("\"deadline_exceeded\":1"));
        let back = BatchReport::from_json_str(&text).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn records_without_fault_stats_parse_with_defaults() {
        // A baseline captured before the fault-plan fields existed.
        let text = r#"{"name":"old","status":"failed","error":"boom","report":null}"#;
        let record = JobRecord::from_json_str(text).unwrap();
        assert_eq!(record.retries, 0);
        assert_eq!(record.checkpoints, 0);
        assert!(!record.deadline_exceeded);
        // Each defaulted key on its own: dropping it round-trips.
        let text = record.to_json_string();
        for key in [
            ",\"retries\":0",
            ",\"checkpoints\":0",
            ",\"deadline_exceeded\":false",
        ] {
            let stripped = text.replace(key, "");
            assert_ne!(stripped, text, "fixture must contain {key}");
            assert_eq!(JobRecord::from_json_str(&stripped).unwrap(), record);
        }
        // A default covers an absent key only: `null` is not a count.
        let null = text.replace("\"retries\":0", "\"retries\":null");
        assert!(JobRecord::from_json_str(&null).is_err());
        // Fields without a default stay required, `None` ones included.
        let err = JobRecord::from_json_str(&text.replace(",\"report\":null", "")).unwrap_err();
        assert!(err.to_string().contains("missing field `report`"), "{err}");
    }

    #[test]
    fn unknown_status_string_is_rejected() {
        let err = JobStatus::from_json_str("\"exploded\"").unwrap_err();
        assert!(err.to_string().contains("unknown job status"));
    }
}
