//! Sinks the placer emits [`TelemetryEvent`]s through.

use crate::{IterationRecord, TelemetryEvent};
use std::io::{self, Write};
use xplace_testkit::json::ToJson;

/// Receives the telemetry event stream of a placement run.
///
/// The placer guards every event construction behind
/// [`TelemetrySink::enabled`], so a disabled sink makes tracing free in
/// the hot loop.
pub trait TelemetrySink {
    /// Consumes one event.
    fn emit(&mut self, event: &TelemetryEvent);

    /// Whether events should be constructed at all (default `true`).
    fn enabled(&self) -> bool {
        true
    }
}

/// The no-op sink: tracing disabled, zero cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TelemetrySink for NullSink {
    fn emit(&mut self, _event: &TelemetryEvent) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// Collects events in memory (tests, in-process analysis).
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    events: Vec<TelemetryEvent>,
}

impl VecSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The collected events.
    pub fn events(&self) -> &[TelemetryEvent] {
        &self.events
    }

    /// The records of the collected `Iteration` events, in emission order.
    pub fn iterations(&self) -> Vec<IterationRecord> {
        self.events
            .iter()
            .filter_map(|e| match e {
                TelemetryEvent::Iteration { record, .. } => Some(*record),
                _ => None,
            })
            .collect()
    }

    /// Renders the collected events as JSON-lines text (exactly what a
    /// [`JsonLinesSink`] would have written).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_json_string());
            out.push('\n');
        }
        out
    }
}

impl TelemetrySink for VecSink {
    fn emit(&mut self, event: &TelemetryEvent) {
        self.events.push(event.clone());
    }
}

/// Streams events as JSON-lines to any [`Write`] (a `BufWriter<File>`
/// for `--trace`, a `Vec<u8>` in tests).
///
/// I/O errors are sticky: the first error stops further writes and is
/// reported by [`JsonLinesSink::finish`].
#[derive(Debug)]
pub struct JsonLinesSink<W: Write> {
    out: W,
    error: Option<io::Error>,
    written: usize,
}

impl<W: Write> JsonLinesSink<W> {
    /// Wraps a writer.
    pub fn new(out: W) -> Self {
        JsonLinesSink {
            out,
            error: None,
            written: 0,
        }
    }

    /// Events successfully written so far.
    pub fn written(&self) -> usize {
        self.written
    }

    /// Flushes and returns the writer, or the first I/O error the stream
    /// hit.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write> TelemetrySink for JsonLinesSink<W> {
    fn emit(&mut self, event: &TelemetryEvent) {
        if self.error.is_some() {
            return;
        }
        let mut line = event.to_json_string();
        line.push('\n');
        match self.out.write_all(line.as_bytes()) {
            Ok(()) => self.written += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

/// Parses JSON-lines trace text back into events (the read side of
/// [`JsonLinesSink`]); blank lines are ignored.
///
/// # Errors
///
/// Returns the 1-based line number and decode error of the first bad
/// line.
pub fn parse_trace(text: &str) -> Result<Vec<TelemetryEvent>, String> {
    use xplace_testkit::json::FromJson;
    let mut events = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event =
            TelemetryEvent::from_json_str(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
        events.push(event);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProfileDelta;

    fn event(i: usize) -> TelemetryEvent {
        TelemetryEvent::Iteration {
            record: IterationRecord {
                iteration: i,
                hpwl: 1.0,
                wa: 1.0,
                overflow: 0.5,
                lambda: 1e-4,
                gamma: 80.0,
                omega: 0.1,
                r_ratio: 1e-5,
                density_skipped: false,
                modeled_ns: 10,
                launches: 2,
            },
            profile: ProfileDelta::default(),
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        let mut s = NullSink;
        assert!(!s.enabled());
        s.emit(&event(0)); // no-op, must not panic
    }

    #[test]
    fn vec_sink_collects_in_order() {
        let mut s = VecSink::new();
        s.emit(&event(0));
        s.emit(&event(1));
        assert_eq!(s.events().len(), 2);
        assert_eq!(s.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn vec_sink_iterations_keep_only_iteration_records() {
        let mut s = VecSink::new();
        s.emit(&TelemetryEvent::SkipWindow {
            iteration: 0,
            active: true,
        });
        s.emit(&event(0));
        s.emit(&event(1));
        let records = s.iterations();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].iteration, 1);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let mut s = JsonLinesSink::new(Vec::new());
        s.emit(&event(0));
        s.emit(&event(1));
        assert_eq!(s.written(), 2);
        let bytes = s.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let back = parse_trace(&text).unwrap();
        assert_eq!(back, vec![event(0), event(1)]);
    }

    #[test]
    fn jsonl_sink_matches_vec_sink_rendering() {
        let mut v = VecSink::new();
        let mut j = JsonLinesSink::new(Vec::new());
        for i in 0..3 {
            v.emit(&event(i));
            j.emit(&event(i));
        }
        assert_eq!(v.to_jsonl().into_bytes(), j.finish().unwrap());
    }

    #[test]
    fn parse_trace_reports_bad_lines() {
        let err =
            parse_trace("{\"event\":\"skip_window\",\"iteration\":0,\"active\":true}\nnot json\n")
                .unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    struct FailAfter(usize);
    impl Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.0 == 0 {
                Err(io::Error::other("disk full"))
            } else {
                self.0 -= 1;
                Ok(buf.len())
            }
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_errors_are_sticky_and_reported() {
        let mut s = JsonLinesSink::new(FailAfter(1));
        s.emit(&event(0));
        s.emit(&event(1)); // fails
        s.emit(&event(2)); // dropped
        assert_eq!(s.written(), 1);
        assert!(s.finish().is_err());
    }
}
