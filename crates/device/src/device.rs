use crate::{DeviceConfig, KernelInfo, ProfileSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The modeled accelerator: executes kernel bodies on the host while
/// accounting launches, modeled execution time and synchronizations.
///
/// `Device` is cheap to share by reference; all counters are atomic.
/// See the crate-level documentation for the cost model.
#[derive(Debug)]
pub struct Device {
    config: DeviceConfig,
    launches: AtomicU64,
    syncs: AtomicU64,
    launch_overhead_ns: AtomicU64,
    exec_ns: AtomicU64,
    pipelined_ns: AtomicU64,
    sync_stall_ns: AtomicU64,
    cpu_ns: AtomicU64,
}

impl Device {
    /// Creates a device with the given performance model.
    pub fn new(config: DeviceConfig) -> Self {
        Device {
            config,
            launches: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            launch_overhead_ns: AtomicU64::new(0),
            exec_ns: AtomicU64::new(0),
            pipelined_ns: AtomicU64::new(0),
            sync_stall_ns: AtomicU64::new(0),
            cpu_ns: AtomicU64::new(0),
        }
    }

    /// The device's configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Modeled execution time of one kernel in nanoseconds.
    pub fn exec_model_ns(&self, kernel: &KernelInfo) -> u64 {
        let mut bytes = kernel.bytes_accessed() as f64;
        if !kernel.is_in_place() {
            bytes *= self.config.out_of_place_traffic_factor;
        }
        let mem_ns = if self.config.bandwidth_bytes_per_ns.is_finite() {
            bytes / self.config.bandwidth_bytes_per_ns
        } else {
            0.0
        };
        let compute_ns = if self.config.flops_per_ns.is_finite() {
            kernel.flop_count() as f64 / self.config.flops_per_ns
        } else {
            0.0
        };
        mem_ns.max(compute_ns).round() as u64
    }

    /// Launches a kernel: runs `body` on the host, charges one launch
    /// overhead plus the modeled execution time, and returns the body's
    /// result.
    pub fn launch<R>(&self, kernel: KernelInfo, body: impl FnOnce() -> R) -> R {
        let exec = self.exec_model_ns(&kernel);
        let launch = self.config.launch_latency_ns;
        self.launches.fetch_add(1, Ordering::Relaxed);
        self.launch_overhead_ns.fetch_add(launch, Ordering::Relaxed);
        self.exec_ns.fetch_add(exec, Ordering::Relaxed);
        self.pipelined_ns
            .fetch_add(exec.max(launch), Ordering::Relaxed);
        let start = Instant::now();
        let out = body();
        self.cpu_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    /// Records a host synchronization (reading a value back from the
    /// device), charging the configured pipeline-flush stall.
    pub fn synchronize(&self) {
        self.syncs.fetch_add(1, Ordering::Relaxed);
        self.sync_stall_ns
            .fetch_add(self.config.sync_latency_ns, Ordering::Relaxed);
    }

    /// A snapshot of all cumulative counters.
    pub fn profile(&self) -> ProfileSnapshot {
        ProfileSnapshot {
            launches: self.launches.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            launch_overhead_ns: self.launch_overhead_ns.load(Ordering::Relaxed),
            exec_ns: self.exec_ns.load(Ordering::Relaxed),
            pipelined_ns: self.pipelined_ns.load(Ordering::Relaxed),
            sync_stall_ns: self.sync_stall_ns.load(Ordering::Relaxed),
            cpu_ns: self.cpu_ns.load(Ordering::Relaxed),
        }
    }

    /// Runs `f` and returns its result together with the profile delta it
    /// produced.
    pub fn scoped<R>(&self, f: impl FnOnce() -> R) -> (R, ProfileSnapshot) {
        let before = self.profile();
        let out = f();
        (out, self.profile() - before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_runs_body_and_counts() {
        let d = Device::new(DeviceConfig::rtx3090());
        let v = d.launch(KernelInfo::new("k").bytes(9000), || 42);
        assert_eq!(v, 42);
        let p = d.profile();
        assert_eq!(p.launches, 1);
        assert_eq!(p.launch_overhead_ns, 5_000);
        assert_eq!(p.exec_ns, 10); // 9000 B / 900 B-per-ns
        assert_eq!(p.pipelined_ns, 5_000); // launch-bound
    }

    #[test]
    fn heavy_kernel_is_exec_bound() {
        let d = Device::new(DeviceConfig::rtx3090());
        // 90 MB -> 100_000 ns >> 5_000 ns launch.
        d.launch(KernelInfo::new("big").bytes(90_000_000), || ());
        let p = d.profile();
        assert_eq!(p.exec_ns, 100_000);
        assert_eq!(p.pipelined_ns, 100_000);
        assert!(p.launch_bound_fraction() < 1e-9);
    }

    #[test]
    fn out_of_place_costs_more() {
        let d = Device::new(DeviceConfig::rtx3090());
        let inp = d.exec_model_ns(&KernelInfo::new("a").bytes(9_000_000));
        let oop = d.exec_model_ns(&KernelInfo::new("a").bytes(9_000_000).out_of_place());
        assert_eq!(inp, 10_000);
        assert_eq!(oop, 15_000);
    }

    #[test]
    fn flop_bound_kernel_uses_compute_throughput() {
        let d = Device::new(DeviceConfig::rtx3090());
        // 70M flops / 35k flops-per-ns = 2000 ns; only 900 bytes of traffic.
        let t = d.exec_model_ns(&KernelInfo::new("f").bytes(900).flops(70_000_000));
        assert_eq!(t, 2_000);
    }

    #[test]
    fn sync_accumulates_stall() {
        let d = Device::new(DeviceConfig::rtx3090());
        d.synchronize();
        d.synchronize();
        let p = d.profile();
        assert_eq!(p.syncs, 2);
        assert_eq!(p.sync_stall_ns, 20_000);
        assert_eq!(p.modeled_ns(), 20_000);
    }

    #[test]
    fn instant_config_charges_nothing() {
        let d = Device::new(DeviceConfig::instant());
        d.launch(
            KernelInfo::new("k").bytes(u64::MAX / 4).flops(u64::MAX / 4),
            || (),
        );
        d.synchronize();
        assert_eq!(d.profile().modeled_ns(), 0);
    }

    #[test]
    fn scoped_reports_only_the_region() {
        let d = Device::new(DeviceConfig::rtx3090());
        d.launch(KernelInfo::new("outside"), || ());
        let ((), delta) = d.scoped(|| {
            d.launch(KernelInfo::new("inside"), || ());
            d.launch(KernelInfo::new("inside"), || ());
        });
        assert_eq!(delta.launches, 2);
        assert_eq!(d.profile().launches, 3);
    }

    #[test]
    fn cpu_time_is_measured() {
        let d = Device::new(DeviceConfig::instant());
        d.launch(KernelInfo::new("spin"), || {
            let mut acc = 0u64;
            for i in 0..100_000u64 {
                acc = acc.wrapping_add(i * i);
            }
            assert!(acc > 0);
        });
        assert!(d.profile().cpu_ns > 0);
    }

    #[test]
    fn device_is_send_sync() {
        fn assert_bounds<T: Send + Sync>() {}
        assert_bounds::<Device>();
    }

    #[test]
    fn counters_accumulate_across_threads() {
        let d = std::sync::Arc::new(Device::new(DeviceConfig::rtx3090()));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let d = d.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    d.launch(KernelInfo::new("mt").bytes(1000), || ());
                }
                d.synchronize();
            }));
        }
        for h in handles {
            h.join().expect("worker thread");
        }
        let p = d.profile();
        assert_eq!(p.launches, 400);
        assert_eq!(p.syncs, 4);
        assert_eq!(p.launch_overhead_ns, 400 * 5_000);
    }

    #[test]
    fn pipelined_model_sums_per_kernel_max() {
        let d = Device::new(DeviceConfig::rtx3090());
        // Small kernel: max(5000, 10) = 5000. Big: max(5000, 100000).
        d.launch(KernelInfo::new("small").bytes(9_000), || ());
        d.launch(KernelInfo::new("big").bytes(90_000_000), || ());
        assert_eq!(d.profile().pipelined_ns, 105_000);
    }
}
