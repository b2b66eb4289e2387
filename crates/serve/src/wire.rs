//! The streaming wire format of `POST /batch` responses.
//!
//! A response body is a sequence of JSON **frames**, one per line, each
//! line sent as its own HTTP chunk the moment the underlying event
//! happens. Frames of different jobs interleave with pool scheduling,
//! but frames of a single job arrive in order, so the client can
//! reconstruct per-job artifacts that are *byte-identical* to what a
//! local `xplace batch` run writes:
//!
//! * [`Frame::Hello`] — first frame: the manifest's job names and the
//!   server's kernel thread width.
//! * [`Frame::Start`] — a job's attempt loop began; the positive ack
//!   that its trace stream is live. Skipped (cached/poisoned) jobs
//!   never emit it.
//! * [`Frame::Trace`] — one rendered JSON-lines telemetry event of one
//!   job (without its trailing newline; appending `'\n'` per line
//!   reassembles the job's `--trace` file exactly).
//! * [`Frame::Job`] — a job reached a terminal state; carries the
//!   [`JobRecord`] exactly as it will appear in the batch report.
//! * [`Frame::Batch`] — last frame: the assembled [`BatchReport`] plus
//!   the warm design-cache counters.
//!
//! [`assemble`] folds a parsed frame stream back into a [`WireBatch`],
//! the client-side mirror of `xplace_sched::BatchOutcome`.

use xplace_telemetry::{BatchReport, FromJson, JobRecord, JobStatus, Json, JsonError, ToJson};

/// One frame of a streamed batch response.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Stream opener: job names in manifest order + server thread width.
    Hello {
        /// Job names, in manifest order.
        jobs: Vec<String>,
        /// The kernel thread width jobs run with (config echo input).
        threads: usize,
    },
    /// Job `job` started running — its trace stream is now live.
    Start {
        /// Manifest index of the job.
        job: usize,
    },
    /// One telemetry line of job `job` (no trailing newline).
    Trace {
        /// Manifest index of the job.
        job: usize,
        /// The rendered JSON-lines event.
        line: String,
    },
    /// Job `job` finished (completed or failed).
    Job {
        /// Manifest index of the job.
        job: usize,
        /// Its terminal record.
        record: JobRecord,
    },
    /// Stream closer: the full report and design-cache `(hits, misses)`.
    Batch {
        /// The batch report, manifest-ordered.
        report: BatchReport,
        /// Cumulative design-cache counters of the serving cache.
        cache: (usize, usize),
    },
}

impl ToJson for Frame {
    fn to_json(&self) -> Json {
        match self {
            Frame::Hello { jobs, threads } => Json::obj([
                ("frame", Json::str("hello")),
                ("jobs", jobs.to_json()),
                ("threads", threads.to_json()),
            ]),
            Frame::Start { job } => {
                Json::obj([("frame", Json::str("start")), ("job", job.to_json())])
            }
            Frame::Trace { job, line } => Json::obj([
                ("frame", Json::str("trace")),
                ("job", job.to_json()),
                ("line", line.to_json()),
            ]),
            Frame::Job { job, record } => Json::obj([
                ("frame", Json::str("job")),
                ("job", job.to_json()),
                ("record", record.to_json()),
            ]),
            Frame::Batch { report, cache } => Json::obj([
                ("frame", Json::str("batch")),
                ("report", report.to_json()),
                (
                    "cache",
                    Json::obj([("hits", cache.0.to_json()), ("misses", cache.1.to_json())]),
                ),
            ]),
        }
    }
}

impl FromJson for Frame {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match String::from_json(value.field("frame")?)?.as_str() {
            "hello" => Ok(Frame::Hello {
                jobs: Vec::<String>::from_json(value.field("jobs")?)?,
                threads: usize::from_json(value.field("threads")?)?,
            }),
            "start" => Ok(Frame::Start {
                job: usize::from_json(value.field("job")?)?,
            }),
            "trace" => Ok(Frame::Trace {
                job: usize::from_json(value.field("job")?)?,
                line: String::from_json(value.field("line")?)?,
            }),
            "job" => Ok(Frame::Job {
                job: usize::from_json(value.field("job")?)?,
                record: JobRecord::from_json(value.field("record")?)?,
            }),
            "batch" => {
                let cache = value.field("cache")?;
                Ok(Frame::Batch {
                    report: BatchReport::from_json(value.field("report")?)?,
                    cache: (
                        usize::from_json(cache.field("hits")?)?,
                        usize::from_json(cache.field("misses")?)?,
                    ),
                })
            }
            other => Err(JsonError(format!("unknown frame kind `{other}`"))),
        }
    }
}

/// Parses a whole response body (one frame per line) into frames.
///
/// # Errors
///
/// Returns the 1-based line number and decode error of the first bad
/// line.
pub fn parse_frames(body: &str) -> Result<Vec<Frame>, String> {
    let mut frames = Vec::new();
    for (idx, line) in body.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let frame =
            Frame::from_json_str(line).map_err(|e| format!("frame line {}: {e}", idx + 1))?;
        frames.push(frame);
    }
    Ok(frames)
}

/// A reassembled batch result — the client-side mirror of
/// `xplace_sched::BatchOutcome`, reconstructed from the frame stream.
#[derive(Debug, Clone)]
pub struct WireBatch {
    /// The batch report (from the closing [`Frame::Batch`]).
    pub report: BatchReport,
    /// Per-job traces in manifest order, rebuilt line by line;
    /// `None` for failed jobs — exactly like a silent `run_batch`'s
    /// `BatchOutcome::traces`.
    pub traces: Vec<Option<String>>,
    /// Cumulative design-cache `(hits, misses)` of the serving cache.
    pub cache_stats: (usize, usize),
    /// The server's kernel thread width (from [`Frame::Hello`]).
    pub threads: usize,
}

/// Folds a frame stream into a [`WireBatch`], checking stream shape:
/// hello first, batch last, every trace/job index in range, exactly one
/// terminal record per job, and per-job records consistent between the
/// stream and the closing report.
///
/// # Errors
///
/// Returns a description of the first malformed aspect of the stream.
pub fn assemble(frames: &[Frame]) -> Result<WireBatch, String> {
    let mut iter = frames.iter();
    let Some(Frame::Hello { jobs, threads }) = iter.next() else {
        return Err("stream must open with a hello frame".into());
    };
    let n = jobs.len();
    // Size each trace first so it is allocated once, with no growth slack:
    // a client keeps every trace of a batch alive until it is written out.
    let mut sizes = vec![0usize; n];
    for frame in frames {
        if let Frame::Trace { job, line } = frame {
            if let Some(size) = sizes.get_mut(*job) {
                *size += line.len() + 1;
            }
        }
    }
    let mut traces: Vec<String> = sizes.into_iter().map(String::with_capacity).collect();
    let mut records: Vec<Option<&JobRecord>> = vec![None; n];
    let mut started: Vec<bool> = vec![false; n];
    let mut closing: Option<(&BatchReport, (usize, usize))> = None;
    for frame in iter {
        if closing.is_some() {
            return Err("frames after the closing batch frame".into());
        }
        match frame {
            Frame::Hello { .. } => return Err("duplicate hello frame".into()),
            Frame::Start { job } => {
                let flag = started
                    .get_mut(*job)
                    .ok_or_else(|| format!("start frame for out-of-range job {job}"))?;
                if *flag {
                    return Err(format!("duplicate start frame for job {job}"));
                }
                *flag = true;
            }
            Frame::Trace { job, line } => {
                let trace = traces
                    .get_mut(*job)
                    .ok_or_else(|| format!("trace frame for out-of-range job {job}"))?;
                if !started[*job] {
                    return Err(format!("trace frame for job {job} before its start frame"));
                }
                trace.push_str(line);
                trace.push('\n');
            }
            Frame::Job { job, record } => {
                let slot = records
                    .get_mut(*job)
                    .ok_or_else(|| format!("job frame for out-of-range job {job}"))?;
                if slot.is_some() {
                    return Err(format!("duplicate terminal record for job {job}"));
                }
                *slot = Some(record);
            }
            Frame::Batch { report, cache } => closing = Some((report, *cache)),
        }
    }
    let Some((report, cache_stats)) = closing else {
        return Err("stream ended without a batch frame".into());
    };
    if report.jobs.len() != n {
        return Err(format!(
            "report has {} jobs but hello announced {n}",
            report.jobs.len()
        ));
    }
    for (i, slot) in records.iter().enumerate() {
        let Some(record) = slot else {
            return Err(format!("job {i} never reached a terminal state"));
        };
        if *record != &report.jobs[i] {
            return Err(format!(
                "job {i}: streamed record disagrees with the closing report"
            ));
        }
        if record.name != jobs[i] {
            return Err(format!(
                "job {i}: record name `{}` != announced `{}`",
                record.name, jobs[i]
            ));
        }
    }
    let traces = report
        .jobs
        .iter()
        .zip(traces)
        .map(|(record, trace)| match record.status {
            JobStatus::Completed => Some(trace),
            JobStatus::Failed => None,
        })
        .collect();
    Ok(WireBatch {
        report: report.clone(),
        traces,
        cache_stats,
        threads: *threads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &str, ok: bool) -> JobRecord {
        if ok {
            // A structurally minimal "completed" record is awkward to
            // fabricate without a RunReport; failed records exercise the
            // same code paths, so tests lean on those plus real reports
            // in the integration suite.
            JobRecord::failed(name, "x")
        } else {
            JobRecord::failed(name, "boom")
        }
    }

    fn stream() -> Vec<Frame> {
        vec![
            Frame::Hello {
                jobs: vec!["a".into(), "b".into()],
                threads: 4,
            },
            Frame::Start { job: 0 },
            Frame::Start { job: 1 },
            Frame::Trace {
                job: 0,
                line: "{\"e\":1}".into(),
            },
            Frame::Trace {
                job: 1,
                line: "{\"e\":2}".into(),
            },
            Frame::Trace {
                job: 0,
                line: "{\"e\":3}".into(),
            },
            Frame::Job {
                job: 1,
                record: record("b", false),
            },
            Frame::Job {
                job: 0,
                record: record("a", false),
            },
            Frame::Batch {
                report: BatchReport::new(vec![record("a", false), record("b", false)]),
                cache: (3, 2),
            },
        ]
    }

    #[test]
    fn frames_round_trip_through_json() {
        for frame in stream() {
            let line = frame.to_json_string();
            assert!(!line.contains('\n'), "frames must be single lines");
            let back = Frame::from_json_str(&line).unwrap();
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn parse_frames_reports_bad_lines() {
        let good = stream()[0].to_json_string();
        let err = parse_frames(&format!("{good}\nnot json\n")).unwrap_err();
        assert!(err.starts_with("frame line 2:"), "{err}");
        let err = parse_frames("{\"frame\":\"pony\"}").unwrap_err();
        assert!(err.contains("unknown frame kind"), "{err}");
    }

    #[test]
    fn assemble_reconstructs_interleaved_traces_in_per_job_order() {
        let batch = assemble(&stream()).unwrap();
        assert_eq!(batch.threads, 4);
        assert_eq!(batch.cache_stats, (3, 2));
        assert_eq!(batch.report.total(), 2);
        // Both jobs failed in this synthetic stream → traces suppressed,
        // mirroring BatchOutcome semantics.
        assert_eq!(batch.traces, vec![None, None]);
    }

    #[test]
    fn assemble_allocates_each_trace_at_its_exact_size() {
        let done = |name: &str| JobRecord {
            status: JobStatus::Completed,
            error: None,
            ..record(name, true)
        };
        let mut frames = stream();
        frames[6] = Frame::Job {
            job: 1,
            record: done("b"),
        };
        frames[7] = Frame::Job {
            job: 0,
            record: done("a"),
        };
        frames[8] = Frame::Batch {
            report: BatchReport::new(vec![done("a"), done("b")]),
            cache: (3, 2),
        };
        let batch = assemble(&frames).unwrap();
        let traces: Vec<&String> = batch.traces.iter().flatten().collect();
        assert_eq!(traces, ["{\"e\":1}\n{\"e\":3}\n", "{\"e\":2}\n"]);
        for (i, trace) in traces.iter().enumerate() {
            assert_eq!(trace.capacity(), trace.len(), "job {i}: trace has slack");
        }
        // The sizing pass skips an out-of-range index; the fold still
        // rejects it by name.
        let mut oob = frames.clone();
        oob.insert(
            3,
            Frame::Trace {
                job: 9,
                line: "{}".into(),
            },
        );
        assert_eq!(
            assemble(&oob).unwrap_err(),
            "trace frame for out-of-range job 9"
        );
    }

    #[test]
    fn assemble_rejects_malformed_streams() {
        let frames = stream();
        // No hello.
        assert!(assemble(&frames[1..]).unwrap_err().contains("hello"));
        // Missing terminal record.
        let mut missing = frames.clone();
        missing.remove(6);
        assert!(assemble(&missing)
            .unwrap_err()
            .contains("never reached a terminal state"));
        // No closing batch frame.
        assert!(assemble(&frames[..frames.len() - 1])
            .unwrap_err()
            .contains("without a batch frame"));
        // Duplicate terminal record.
        let mut dup = frames.clone();
        dup.insert(7, frames[6].clone());
        assert!(assemble(&dup).unwrap_err().contains("duplicate terminal"));
        // Out-of-range trace index.
        let mut oob = frames.clone();
        oob.insert(
            3,
            Frame::Trace {
                job: 9,
                line: "{}".into(),
            },
        );
        assert!(assemble(&oob).unwrap_err().contains("out-of-range"));
        // Record disagreeing with the closing report.
        let mut liar = frames.clone();
        liar[6] = Frame::Job {
            job: 1,
            record: record("b-lies", false),
        };
        assert!(assemble(&liar).unwrap_err().contains("disagrees"));
        // Duplicate start ack.
        let mut restart = frames.clone();
        restart.insert(2, Frame::Start { job: 0 });
        assert!(assemble(&restart)
            .unwrap_err()
            .contains("duplicate start frame for job 0"));
        // Out-of-range start ack.
        let mut wild = frames.clone();
        wild.insert(1, Frame::Start { job: 9 });
        assert!(assemble(&wild)
            .unwrap_err()
            .contains("start frame for out-of-range job 9"));
        // Trace lines must follow the job's start ack.
        let mut eager = frames.clone();
        let start = eager.remove(1);
        eager.push(start); // keep the stream shape otherwise valid
        let err = assemble(&eager).unwrap_err();
        assert!(err.contains("before its start frame"), "{err}");
    }
}
