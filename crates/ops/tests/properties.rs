//! Property-based tests of the placement operators.

use xplace_db::synthesis::{synthesize, SynthesisSpec};
use xplace_device::{Device, DeviceConfig};
use xplace_ops::{density::DensityOp, precond, wirelength, PlacementModel};
use xplace_testkit::prop::Config;
use xplace_testkit::{prop_assert, props};

fn scattered_model(cells: usize, seed: u64, spread_seed: u64) -> PlacementModel {
    let design = synthesize(&SynthesisSpec::new("prop", cells, cells + 10).with_seed(seed))
        .expect("synthesis");
    let mut m = PlacementModel::from_design(&design).expect("model");
    let r = m.region();
    let ranges = m.ranges();
    for i in ranges.movable.chain(ranges.filler) {
        let fx = (((i as u64).wrapping_mul(0x9e37_79b9) ^ spread_seed) % 10_007) as f64 / 10_007.0;
        let fy = (((i as u64).wrapping_mul(0x517c_c1b7) ^ spread_seed) % 10_007) as f64 / 10_007.0;
        m.x[i] = r.lx + fx * r.width();
        m.y[i] = r.ly + fy * r.height();
    }
    m.clamp_to_region();
    m
}

/// The blocked fused wirelength kernel at a 32-net block size (a genuine
/// multi-block decomposition on these small models) with a fresh workspace.
fn wa_blocked(
    device: &Device,
    m: &PlacementModel,
    gx: &mut [f64],
    gy: &mut [f64],
    threads: usize,
) -> wirelength::FusedWirelength {
    let mut ws = wirelength::WaWorkspace::new();
    let pool = xplace_parallel::global();
    wirelength::wa_fused_blocked_ws(device, m, 5.0, gx, gy, threads, 32, pool, &mut ws)
}

/// The WA wirelength never exceeds HPWL and tightens monotonically as
/// gamma shrinks, for the given cell arrangement.
fn check_wa_bounds_hpwl(seed: u64, spread: u64) {
    let m = scattered_model(120, seed, spread);
    let device = Device::new(DeviceConfig::instant());
    let exact = wirelength::hpwl(&device, &m);
    let mut prev = f64::NEG_INFINITY;
    for gamma in [100.0, 10.0, 1.0, 0.1] {
        let wa = wirelength::wa_forward(&device, &m, gamma);
        assert!(
            wa <= exact + 1e-6,
            "WA {wa} > HPWL {exact} (seed {seed}, spread {spread})"
        );
        assert!(
            wa >= prev - 1e-9,
            "WA must grow as gamma shrinks (seed {seed}, spread {spread})"
        );
        prev = wa;
    }
}

/// Density accumulation conserves total area for the given arrangement,
/// and the two §3.1.2 execution paths agree exactly.
fn check_density_conservation_and_extraction(seed: u64, spread: u64) {
    let m = scattered_model(150, seed, spread);
    let device = Device::new(DeviceConfig::instant());
    let mut op = DensityOp::new(&m).expect("density op");
    // Extraction path.
    op.accumulate_movable(&device, &m);
    op.accumulate_fillers(&device, &m);
    op.combine_total(&device);
    let extracted = op.total_map.clone();
    let bin_area = m.bin_w() * m.bin_h();
    // Conservation: total mapped area tracks movable + filler area.
    // Cells hugging the region boundary lose part of their sqrt(2)-bin
    // smoothing footprint to clipping (as in ePlace), so allow a few
    // percent of perimeter loss but require the bulk to be conserved
    // and never over-counted.
    let ranges = m.ranges();
    let opt_area: f64 = ranges
        .movable
        .chain(ranges.filler)
        .map(|i| m.node_area(i))
        .sum();
    let mapped = extracted.sum() * bin_area;
    assert!(
        mapped >= opt_area * 0.93,
        "mapped {mapped} vs optimizable area {opt_area}"
    );
    assert!(
        mapped <= opt_area * 1.02 + m.region().area() * 0.5,
        "mapped {mapped} overshoots (movable+filler {opt_area} + clipped fixed)"
    );
    // Direct path agrees.
    op.accumulate_all(&device, &m);
    assert!(op.total_map.max_abs_diff(&extracted) < 1e-9);
}

/// Historic proptest counterexample (`seed = 963, spread = 896`, from the
/// retired `properties.proptest-regressions` file): a scattering that once
/// broke the WA/HPWL bound. Kept as a pinned case.
#[test]
fn regression_wa_bounds_hpwl_seed_963_spread_896() {
    check_wa_bounds_hpwl(963, 896);
}

/// The same historic counterexample against the density invariants, which
/// share the scattering (boundary-hugging cells stress the clipping
/// accounting).
#[test]
fn regression_density_conservation_seed_963_spread_896() {
    check_density_conservation_and_extraction(963, 896);
}

props! {
    config = Config::with_cases(16);

    /// The WA wirelength never exceeds HPWL and tightens monotonically as
    /// gamma shrinks, for any cell arrangement.
    fn wa_bounds_hpwl(seed in 0u64..1000, spread in 0u64..1000) {
        check_wa_bounds_hpwl(seed, spread);
    }

    /// The fused kernel always agrees with the split kernels (same math,
    /// different operator stream).
    fn fused_equals_split(seed in 0u64..1000, gamma in 0.5..50.0f64) {
        let m = scattered_model(100, seed, seed ^ 0xabc);
        let device = Device::new(DeviceConfig::instant());
        let n = m.num_nodes();
        let (mut gx1, mut gy1) = (vec![0.0; n], vec![0.0; n]);
        let (mut gx2, mut gy2) = (vec![0.0; n], vec![0.0; n]);
        let fused = wirelength::wa_fused(&device, &m, gamma, &mut gx1, &mut gy1);
        let wa = wirelength::wa_with_grad(&device, &m, gamma, &mut gx2, &mut gy2);
        let h = wirelength::hpwl(&device, &m);
        prop_assert!((fused.wa - wa).abs() < 1e-9 * wa.abs().max(1.0));
        prop_assert!((fused.hpwl - h).abs() < 1e-9 * h.max(1.0));
        for i in 0..n {
            prop_assert!((gx1[i] - gx2[i]).abs() < 1e-12);
            prop_assert!((gy1[i] - gy2[i]).abs() < 1e-12);
        }
    }

    /// Density accumulation conserves total area no matter where the
    /// cells sit, and the two §3.1.2 execution paths agree exactly.
    fn density_conservation_and_extraction(seed in 0u64..1000, spread in 0u64..1000) {
        check_density_conservation_and_extraction(seed, spread);
    }

    /// The overflow ratio is within [0, 1 + eps] and zero for a uniform
    /// enough spread at low utilization.
    fn overflow_is_bounded(seed in 0u64..1000) {
        let m = scattered_model(200, seed, seed ^ 0x77);
        let device = Device::new(DeviceConfig::instant());
        let mut op = DensityOp::new(&m).expect("density op");
        op.accumulate_movable(&device, &m);
        let ovfl = op.overflow(&device, &m);
        prop_assert!(ovfl >= 0.0);
        prop_assert!(ovfl <= 1.5, "overflow {} implausible", ovfl);
    }

    /// The blocked fused wirelength kernel agrees with the serial one
    /// (small block size forces a genuine multi-block decomposition on
    /// these 200-cell models; differences are bounded by the block-merge
    /// summation-order change).
    fn wa_fused_blocked_matches_serial(seed in 0u64..500, threads in 2usize..5) {
        let m = scattered_model(200, seed, seed ^ 0x55);
        let device = Device::new(DeviceConfig::instant());
        let n = m.num_nodes();
        let (mut gx1, mut gy1) = (vec![0.0; n], vec![0.0; n]);
        let (mut gx2, mut gy2) = (vec![0.0; n], vec![0.0; n]);
        let serial = wirelength::wa_fused(&device, &m, 5.0, &mut gx1, &mut gy1);
        let parallel = wa_blocked(&device, &m, &mut gx2, &mut gy2, threads);
        prop_assert!((serial.wa - parallel.wa).abs() < 1e-9 * serial.wa.abs().max(1.0));
        prop_assert!((serial.hpwl - parallel.hpwl).abs() < 1e-9 * serial.hpwl.max(1.0));
        for i in 0..n {
            prop_assert!((gx1[i] - gx2[i]).abs() < 1e-10, "gx at {}", i);
            prop_assert!((gy1[i] - gy2[i]).abs() < 1e-10, "gy at {}", i);
        }
    }

    /// The blocked fused wirelength kernel is bit-identical across thread
    /// counts: the decomposition is fixed by the model, threads only
    /// reschedule it.
    fn wa_fused_blocked_is_thread_count_invariant(seed in 0u64..500, threads in 2usize..6) {
        let m = scattered_model(200, seed, seed ^ 0x5a);
        let device = Device::new(DeviceConfig::instant());
        let n = m.num_nodes();
        let (mut gx1, mut gy1) = (vec![0.0; n], vec![0.0; n]);
        let (mut gx2, mut gy2) = (vec![0.0; n], vec![0.0; n]);
        let one = wa_blocked(&device, &m, &mut gx1, &mut gy1, 1);
        let many = wa_blocked(&device, &m, &mut gx2, &mut gy2, threads);
        prop_assert!(one.wa.to_bits() == many.wa.to_bits());
        prop_assert!(one.hpwl.to_bits() == many.hpwl.to_bits());
        for i in 0..n {
            prop_assert!(gx1[i].to_bits() == gx2[i].to_bits(), "gx at {}", i);
            prop_assert!(gy1[i].to_bits() == gy2[i].to_bits(), "gy at {}", i);
        }
    }

    /// A reused [`wirelength::WaWorkspace`] produces gradients bit-identical
    /// to fresh per-call buffers: the workspace hoist is a pure allocation
    /// optimization, never an arithmetic change. The workspace is driven
    /// through three models of different sizes so slot reuse (including
    /// shrinking `nm`) is exercised, then the original model is re-run and
    /// compared bitwise against the allocate-per-call path.
    fn wa_workspace_reuse_is_bitwise_equal(seed in 0u64..500, threads in 1usize..5) {
        let m = scattered_model(200, seed, seed ^ 0x31);
        let device = Device::new(DeviceConfig::instant());
        let n = m.num_nodes();
        let (mut gx1, mut gy1) = (vec![0.0; n], vec![0.0; n]);
        let fresh = wa_blocked(&device, &m, &mut gx1, &mut gy1, threads);
        let mut ws = wirelength::WaWorkspace::new();
        let pool = xplace_parallel::global();
        for dirty_cells in [120, 260] {
            let dirty = scattered_model(dirty_cells, seed ^ 0x7, seed ^ 0x13);
            let nd = dirty.num_nodes();
            let (mut dx, mut dy) = (vec![0.0; nd], vec![0.0; nd]);
            wirelength::wa_fused_blocked_ws(
                &device, &dirty, 5.0, &mut dx, &mut dy, threads, 32, pool, &mut ws,
            );
        }
        let (mut gx2, mut gy2) = (vec![0.0; n], vec![0.0; n]);
        let reused = wirelength::wa_fused_blocked_ws(
            &device, &m, 5.0, &mut gx2, &mut gy2, threads, 32, pool, &mut ws,
        );
        prop_assert!(fresh.wa.to_bits() == reused.wa.to_bits());
        prop_assert!(fresh.hpwl.to_bits() == reused.hpwl.to_bits());
        for i in 0..n {
            prop_assert!(gx1[i].to_bits() == gx2[i].to_bits(), "gx at {}", i);
            prop_assert!(gy1[i].to_bits() == gy2[i].to_bits(), "gy at {}", i);
        }
    }

    /// Blocked density accumulation agrees with serial (small node block
    /// forces a multi-block decomposition).
    fn density_blocked_matches_serial(seed in 0u64..500, threads in 2usize..5) {
        let m = scattered_model(200, seed, seed ^ 0x99);
        let device = Device::new(DeviceConfig::instant());
        let mut serial_op = DensityOp::new(&m).expect("density op");
        serial_op.accumulate_all(&device, &m);
        let mut mt_op = DensityOp::new(&m).expect("density op");
        mt_op.set_node_block(64);
        mt_op.set_threads(threads);
        mt_op.accumulate_all(&device, &m);
        prop_assert!(mt_op.total_map.max_abs_diff(&serial_op.total_map) < 1e-10);
    }

    /// Blocked density accumulation is bit-identical across thread counts.
    fn density_blocked_is_thread_count_invariant(seed in 0u64..500, threads in 2usize..6) {
        let m = scattered_model(200, seed, seed ^ 0x9a);
        let device = Device::new(DeviceConfig::instant());
        let mut one_op = DensityOp::new(&m).expect("density op");
        one_op.set_node_block(64);
        one_op.set_threads(1);
        one_op.accumulate_all(&device, &m);
        let mut mt_op = DensityOp::new(&m).expect("density op");
        mt_op.set_node_block(64);
        mt_op.set_threads(threads);
        mt_op.accumulate_all(&device, &m);
        prop_assert!(mt_op.total_map.max_abs_diff(&one_op.total_map) == 0.0);
    }

    /// omega is monotone in lambda for every design.
    fn omega_monotone(seed in 0u64..1000) {
        let m = scattered_model(80, seed, 0);
        let mut prev = -1.0;
        for lambda in [0.0, 1e-6, 1e-3, 1.0, 1e3] {
            let w = precond::omega(&m, lambda);
            prop_assert!((0.0..=1.0).contains(&w));
            prop_assert!(w >= prev);
            prev = w;
        }
    }
}
