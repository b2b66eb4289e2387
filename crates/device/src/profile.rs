use std::fmt;
use std::ops::{AddAssign, Sub};

/// Cumulative execution statistics of a [`crate::Device`].
///
/// Snapshots are monotone; subtract two snapshots to get the cost of a
/// region (e.g. one global-placement iteration):
///
/// ```
/// use xplace_device::{Device, DeviceConfig, KernelInfo};
///
/// let device = Device::new(DeviceConfig::rtx3090());
/// let before = device.profile();
/// device.launch(KernelInfo::new("op").bytes(1024), || ());
/// let delta = device.profile() - before;
/// assert_eq!(delta.launches, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProfileSnapshot {
    /// Number of kernel launches.
    pub launches: u64,
    /// Number of host synchronizations.
    pub syncs: u64,
    /// Accumulated launch overhead (ns), `launches * launch_latency`.
    pub launch_overhead_ns: u64,
    /// Accumulated modeled kernel execution time (ns).
    pub exec_ns: u64,
    /// Accumulated pipelined time (ns): `sum(max(launch_i, exec_i))`.
    pub pipelined_ns: u64,
    /// Accumulated synchronization stall time (ns).
    pub sync_stall_ns: u64,
    /// Measured host CPU time actually spent inside kernel bodies (ns).
    pub cpu_ns: u64,
}

impl ProfileSnapshot {
    /// The modeled elapsed time of the recorded operator stream:
    /// pipelined kernel time plus synchronization stalls.
    ///
    /// This is the quantity the paper's per-iteration numbers (Table 3)
    /// correspond to.
    pub fn modeled_ns(&self) -> u64 {
        self.pipelined_ns + self.sync_stall_ns
    }

    /// Modeled elapsed time in milliseconds.
    pub fn modeled_ms(&self) -> f64 {
        self.modeled_ns() as f64 / 1.0e6
    }

    /// Fraction of the modeled time that is launch overhead rather than
    /// kernel execution (1.0 = fully launch-bound).
    pub fn launch_bound_fraction(&self) -> f64 {
        let total = self.modeled_ns();
        if total == 0 {
            0.0
        } else {
            (self.pipelined_ns.saturating_sub(self.exec_ns)) as f64 / total as f64
        }
    }
}

impl Sub for ProfileSnapshot {
    type Output = ProfileSnapshot;
    fn sub(self, rhs: ProfileSnapshot) -> ProfileSnapshot {
        ProfileSnapshot {
            launches: self.launches.saturating_sub(rhs.launches),
            syncs: self.syncs.saturating_sub(rhs.syncs),
            launch_overhead_ns: self
                .launch_overhead_ns
                .saturating_sub(rhs.launch_overhead_ns),
            exec_ns: self.exec_ns.saturating_sub(rhs.exec_ns),
            pipelined_ns: self.pipelined_ns.saturating_sub(rhs.pipelined_ns),
            sync_stall_ns: self.sync_stall_ns.saturating_sub(rhs.sync_stall_ns),
            cpu_ns: self.cpu_ns.saturating_sub(rhs.cpu_ns),
        }
    }
}

/// Field-wise sum: snapshots of separate devices (for example the
/// per-level devices of a multilevel run) combine into one total.
impl AddAssign for ProfileSnapshot {
    fn add_assign(&mut self, rhs: ProfileSnapshot) {
        self.launches += rhs.launches;
        self.syncs += rhs.syncs;
        self.launch_overhead_ns += rhs.launch_overhead_ns;
        self.exec_ns += rhs.exec_ns;
        self.pipelined_ns += rhs.pipelined_ns;
        self.sync_stall_ns += rhs.sync_stall_ns;
        self.cpu_ns += rhs.cpu_ns;
    }
}

impl fmt::Display for ProfileSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} launches, {} syncs, modeled {:.3} ms (exec {:.3} ms, launch-bound {:.0}%)",
            self.launches,
            self.syncs,
            self.modeled_ms(),
            self.exec_ns as f64 / 1e6,
            self.launch_bound_fraction() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subtraction_gives_deltas() {
        let a = ProfileSnapshot {
            launches: 10,
            syncs: 2,
            launch_overhead_ns: 100,
            exec_ns: 50,
            pipelined_ns: 120,
            sync_stall_ns: 20,
            cpu_ns: 999,
        };
        let b = ProfileSnapshot {
            launches: 4,
            syncs: 1,
            launch_overhead_ns: 40,
            exec_ns: 20,
            pipelined_ns: 50,
            sync_stall_ns: 10,
            cpu_ns: 500,
        };
        let d = a - b;
        assert_eq!(d.launches, 6);
        assert_eq!(d.modeled_ns(), 70 + 10);
    }

    #[test]
    fn add_assign_sums_every_field() {
        let a = ProfileSnapshot {
            launches: 10,
            syncs: 2,
            launch_overhead_ns: 100,
            exec_ns: 50,
            pipelined_ns: 120,
            sync_stall_ns: 20,
            cpu_ns: 999,
        };
        let mut sum = a;
        sum += a;
        assert_eq!(
            sum,
            ProfileSnapshot {
                launches: 20,
                syncs: 4,
                launch_overhead_ns: 200,
                exec_ns: 100,
                pipelined_ns: 240,
                sync_stall_ns: 40,
                cpu_ns: 1998,
            }
        );
        // Adding a delta back onto a non-zero base restores the later snapshot.
        let base = ProfileSnapshot {
            launches: 3,
            syncs: 1,
            launch_overhead_ns: 30,
            exec_ns: 10,
            pipelined_ns: 40,
            sync_stall_ns: 5,
            cpu_ns: 7,
        };
        let mut restored = base;
        restored += a - base;
        assert_eq!(restored, a);
    }

    #[test]
    fn launch_bound_fraction_extremes() {
        let launch_bound = ProfileSnapshot {
            pipelined_ns: 100,
            exec_ns: 0,
            ..Default::default()
        };
        assert!((launch_bound.launch_bound_fraction() - 1.0).abs() < 1e-12);
        let exec_bound = ProfileSnapshot {
            pipelined_ns: 100,
            exec_ns: 100,
            ..Default::default()
        };
        assert_eq!(exec_bound.launch_bound_fraction(), 0.0);
        assert_eq!(ProfileSnapshot::default().launch_bound_fraction(), 0.0);
    }

    #[test]
    fn display_mentions_launches() {
        let p = ProfileSnapshot {
            launches: 3,
            ..Default::default()
        };
        assert!(p.to_string().contains("3 launches"));
    }
}
