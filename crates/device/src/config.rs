/// Performance parameters of the modeled accelerator.
///
/// Defaults approximate the NVIDIA RTX 3090 the paper evaluates on. All
/// quantities feed the analytic execution model only — the actual math
/// always runs on the host CPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceConfig {
    /// CPU-side cost of queueing one kernel, in nanoseconds.
    pub launch_latency_ns: u64,
    /// Modeled memory bandwidth in bytes per nanosecond
    /// (1 GB/s == 1 byte/ns; the RTX 3090 sustains ~900).
    pub bandwidth_bytes_per_ns: f64,
    /// Modeled arithmetic throughput in flops per nanosecond
    /// (35 TFLOP/s == 35 000 flop/ns).
    pub flops_per_ns: f64,
    /// Pipeline-flush cost of one host synchronization, in nanoseconds.
    pub sync_latency_ns: u64,
    /// Extra memory-traffic multiplier for kernels that are **not**
    /// in-place (the output tensor is freshly allocated and written,
    /// roughly 1.5x the traffic of an in-place update).
    pub out_of_place_traffic_factor: f64,
}

impl DeviceConfig {
    /// Parameters approximating an NVIDIA RTX 3090 driven from PyTorch:
    /// ~5 µs per kernel launch, ~900 GB/s, ~35 TFLOP/s, ~10 µs per sync.
    pub fn rtx3090() -> Self {
        DeviceConfig {
            launch_latency_ns: 5_000,
            bandwidth_bytes_per_ns: 900.0,
            flops_per_ns: 35_000.0,
            sync_latency_ns: 10_000,
            out_of_place_traffic_factor: 1.5,
        }
    }

    /// A zero-overhead configuration: no launch cost, no sync cost,
    /// infinite-bandwidth modeling disabled. Useful for numerical tests
    /// where only the computed values matter.
    pub fn instant() -> Self {
        DeviceConfig {
            launch_latency_ns: 0,
            bandwidth_bytes_per_ns: f64::INFINITY,
            flops_per_ns: f64::INFINITY,
            sync_latency_ns: 0,
            out_of_place_traffic_factor: 1.0,
        }
    }

    /// Overrides the launch latency.
    pub fn with_launch_latency_ns(mut self, ns: u64) -> Self {
        self.launch_latency_ns = ns;
        self
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig::rtx3090()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_rtx3090() {
        assert_eq!(DeviceConfig::default(), DeviceConfig::rtx3090());
    }

    #[test]
    fn instant_config_has_no_overheads() {
        let c = DeviceConfig::instant();
        assert_eq!(c.launch_latency_ns, 0);
        assert_eq!(c.sync_latency_ns, 0);
    }

    #[test]
    fn builders_override_fields() {
        let c = DeviceConfig::rtx3090().with_launch_latency_ns(123);
        assert_eq!(c.launch_latency_ns, 123);
    }
}
