//! Sample statistics, process memory, and the result record every
//! workload fills in.

use std::time::Instant;

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (`q = 0.5` is the median). Empty input gives 0.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, secs(start))
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// What one benchmark run measured and whether its outputs were right.
#[derive(Debug, Default)]
pub struct Outcome {
    /// `(name, value, unit)` in insertion order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Operations (flows, jobs) attempted.
    pub attempted: usize,
    /// Operations that failed or were rejected.
    pub failed: usize,
    /// Every correctness violation seen, in order.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Records one metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a correctness violation.
    pub fn error(&mut self, message: impl Into<String>) {
        self.errors.push(message.into());
    }

    /// Checks `cond`, recording `message` as a violation when it fails.
    /// Returns `cond`.
    pub fn check(&mut self, cond: bool, message: impl FnOnce() -> String) -> bool {
        if !cond {
            self.error(message());
        }
        cond
    }

    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics` (name → value and unit).
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((quantile(&[0.0, 10.0], 0.9) - 9.0).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.put("a_s", 1.5, "s");
        out.put("b", f64::NAN, "count");
        let line = out.json_line();
        let parsed = xplace_telemetry::Json::parse(&line).expect("result line parses");
        assert!(parsed.field("correct").unwrap().as_bool().unwrap());
        let metrics = parsed.field("metrics").unwrap();
        assert_eq!(
            metrics
                .field("a_s")
                .unwrap()
                .field("value")
                .unwrap()
                .as_f64()
                .unwrap(),
            1.5
        );
        assert_eq!(
            metrics
                .field("b")
                .unwrap()
                .field("unit")
                .unwrap()
                .as_str()
                .unwrap(),
            "count"
        );
        out.error("boom");
        assert!(line.contains("\"correct\": true") && !out.correct());
    }
}
