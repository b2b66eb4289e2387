//! Named benchmark suites mirroring the paper's Table 1.
//!
//! Each suite entry carries the *published* statistics of the corresponding
//! ISPD contest design and a [`SynthesisSpec`] that reproduces those
//! statistics at a configurable scale factor (so the whole evaluation runs
//! on a laptop). `scale = 1.0` regenerates full-size instances.

use crate::synthesis::SynthesisSpec;

/// One design of a benchmark suite.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteEntry {
    /// Published cell count of the contest design.
    pub published_cells: usize,
    /// Published net count of the contest design.
    pub published_nets: usize,
    /// Whether the paper ran this design with fence regions removed
    /// (the dagger mark in Table 4).
    pub fence_removed: bool,
    /// Generator spec for the scaled synthetic twin.
    pub spec: SynthesisSpec,
}

impl SuiteEntry {
    /// The design name.
    pub fn name(&self) -> &str {
        &self.spec.name
    }
}

/// One published design: name, published cells and nets (thousands),
/// synthesis seed, macro count, macro area fraction, utilization, and
/// whether the paper evaluated it with fence regions removed.
type Row = (&'static str, usize, usize, u64, usize, f64, f64, bool);

fn entry(row: Row, scale: f64) -> SuiteEntry {
    let (name, cells_k, nets_k, seed, macros, macro_frac, utilization, fence_removed) = row;
    let cells = ((cells_k * 1000) as f64 * scale).round().max(400.0) as usize;
    let nets = ((nets_k * 1000) as f64 * scale).round().max(400.0) as usize;
    let mut spec = SynthesisSpec::new(name, cells, nets)
        .with_seed(seed)
        .with_utilization(utilization)
        .with_target_density((utilization + 0.25).min(0.97))
        .with_terminals((cells / 40).clamp(32, 1024));
    if macros > 0 {
        spec = spec
            .with_macro_count(macros)
            .with_macro_area_fraction(macro_frac);
    }
    SuiteEntry {
        published_cells: cells_k * 1000,
        published_nets: nets_k * 1000,
        fence_removed,
        spec,
    }
}

const ISPD2005: [Row; 8] = [
    ("adaptec1", 211, 221, 101, 12, 0.18, 0.62, false),
    ("adaptec2", 255, 266, 102, 16, 0.22, 0.58, false),
    ("adaptec3", 452, 467, 103, 20, 0.20, 0.55, false),
    ("adaptec4", 496, 516, 104, 24, 0.21, 0.52, false),
    ("bigblue1", 278, 284, 105, 8, 0.10, 0.60, false),
    ("bigblue2", 558, 577, 106, 18, 0.16, 0.56, false),
    ("bigblue3", 1097, 1123, 107, 25, 0.14, 0.58, false),
    ("bigblue4", 2177, 2230, 108, 30, 0.12, 0.55, false),
];

/// The ISPD 2005 contest suite (adaptec1-4, bigblue1-4) at `scale`.
///
/// ```
/// let suite = xplace_db::suites::ispd2005_like(0.01);
/// assert_eq!(suite.len(), 8);
/// assert_eq!(suite[0].name(), "adaptec1");
/// ```
pub fn ispd2005_like(scale: f64) -> Vec<SuiteEntry> {
    ISPD2005.iter().map(|&row| entry(row, scale)).collect()
}

const ISPD2015: [Row; 20] = [
    ("des_perf_1", 113, 113, 201, 0, 0.0, 0.72, false),
    ("fft_1", 35, 33, 202, 0, 0.0, 0.68, false),
    ("fft_2", 35, 33, 203, 0, 0.0, 0.50, false),
    ("fft_a", 34, 32, 204, 4, 0.12, 0.40, false),
    ("fft_b", 34, 32, 205, 4, 0.12, 0.45, false),
    ("matrix_mult_1", 160, 159, 206, 0, 0.0, 0.60, false),
    ("matrix_mult_2", 160, 159, 207, 0, 0.0, 0.55, false),
    ("matrix_mult_a", 154, 154, 208, 6, 0.10, 0.42, false),
    ("superblue12", 1293, 1293, 209, 24, 0.15, 0.55, false),
    ("superblue14", 634, 620, 210, 16, 0.14, 0.56, false),
    ("superblue19", 522, 512, 211, 14, 0.13, 0.52, false),
    ("des_perf_a", 108, 115, 212, 4, 0.08, 0.50, true),
    ("des_perf_b", 113, 113, 213, 0, 0.0, 0.50, true),
    ("edit_dist_a", 127, 134, 214, 6, 0.10, 0.46, true),
    ("matrix_mult_b", 146, 152, 215, 4, 0.08, 0.42, true),
    ("matrix_mult_c", 146, 152, 216, 4, 0.08, 0.42, true),
    ("pci_bridge32_a", 30, 34, 217, 4, 0.10, 0.38, true),
    ("pci_bridge32_b", 29, 33, 218, 6, 0.20, 0.30, true),
    ("superblue11_a", 926, 936, 219, 20, 0.14, 0.52, true),
    ("superblue16_a", 680, 697, 220, 14, 0.12, 0.50, true),
];

/// The ISPD 2015 contest suite (20 designs) at `scale`. Designs the paper
/// evaluated with fence regions removed are flagged `fence_removed`.
///
/// ```
/// let suite = xplace_db::suites::ispd2015_like(0.02);
/// assert_eq!(suite.len(), 20);
/// assert!(suite.iter().filter(|e| e.fence_removed).count() == 9);
/// ```
pub fn ispd2015_like(scale: f64) -> Vec<SuiteEntry> {
    ISPD2015.iter().map(|&row| entry(row, scale)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesis::synthesize;
    use crate::DesignStats;

    #[test]
    fn suites_have_the_published_design_lists() {
        let s05 = ispd2005_like(0.01);
        let names: Vec<&str> = s05.iter().map(SuiteEntry::name).collect();
        assert_eq!(
            names,
            [
                "adaptec1", "adaptec2", "adaptec3", "adaptec4", "bigblue1", "bigblue2", "bigblue3",
                "bigblue4"
            ]
        );
        let s15 = ispd2015_like(0.01);
        assert_eq!(s15.len(), 20);
        assert_eq!(s15[8].name(), "superblue12");
        assert_eq!(s15[8].published_cells, 1_293_000);
    }

    #[test]
    fn scale_controls_instance_size() {
        let small = ispd2005_like(0.005);
        let big = ispd2005_like(0.02);
        assert!(big[0].spec.num_cells > 3 * small[0].spec.num_cells);
        // Published stats are scale-independent.
        assert_eq!(small[7].published_cells, big[7].published_cells);
        assert_eq!(small[7].published_cells, 2_177_000);
    }

    #[test]
    fn scaled_entries_synthesize_and_validate() {
        for e in ispd2005_like(0.003).iter().take(2) {
            let d = synthesize(&e.spec).unwrap();
            d.validate().unwrap();
            let s = DesignStats::of(&d);
            assert_eq!(s.num_movable, e.spec.num_cells);
        }
    }

    #[test]
    fn relative_sizes_match_the_contest_ordering() {
        let s = ispd2005_like(0.01);
        // bigblue4 is the largest, adaptec1 the smallest of its family.
        let sizes: Vec<usize> = s.iter().map(|e| e.spec.num_cells).collect();
        assert!(sizes[7] > sizes[6] && sizes[6] > sizes[5]);
        assert!(sizes[0] < sizes[1]);
    }

    #[test]
    fn ispd2015_entries_synthesize_and_validate() {
        for e in ispd2015_like(0.003).iter().take(3) {
            let d = synthesize(&e.spec).unwrap();
            d.validate().unwrap();
            let s = DesignStats::of(&d);
            assert_eq!(s.num_movable, e.spec.num_cells);
        }
    }

    #[test]
    fn fence_flags_match_table4() {
        let s = ispd2015_like(0.01);
        let flagged: Vec<&str> = s
            .iter()
            .filter(|e| e.fence_removed)
            .map(SuiteEntry::name)
            .collect();
        assert_eq!(
            flagged,
            [
                "des_perf_a",
                "des_perf_b",
                "edit_dist_a",
                "matrix_mult_b",
                "matrix_mult_c",
                "pci_bridge32_a",
                "pci_bridge32_b",
                "superblue11_a",
                "superblue16_a"
            ]
        );
    }

    #[test]
    fn minimum_size_clamp_applies_at_tiny_scales() {
        let s = ispd2015_like(0.001);
        for e in &s {
            assert!(e.spec.num_cells >= 400);
        }
    }
}
