//! Cross-crate integration tests: Bookshelf round-trips through the full
//! model pipeline, neural guidance inside the placer, device accounting
//! across a whole run.

use xplace::core::{sigma_blend, GlobalPlacer, XplaceConfig};
use xplace::db::bookshelf;
use xplace::db::synthesis::{synthesize, SynthesisSpec};
use xplace::nn::{train, DataConfig, Fno, FnoConfig, FnoGuidance, TrainConfig};
use xplace::ops::PlacementModel;
use xplace::telemetry::VecSink;

#[test]
fn bookshelf_round_trip_preserves_placement_model_semantics() {
    let design = synthesize(
        &SynthesisSpec::new("bsrt", 200, 210)
            .with_seed(3)
            .with_macro_count(2),
    )
    .expect("synthesis succeeds");
    let dir = std::env::temp_dir().join(format!("xplace_it_bs_{}", std::process::id()));
    let aux = bookshelf::write_design(&design, &dir).expect("bookshelf write");
    let back = bookshelf::read_aux(&aux, design.target_density()).expect("bookshelf read");

    // Building the operator model from both designs yields the same
    // totals (areas, pins, HPWL), i.e. the formats carry everything the
    // placer needs.
    let m1 = PlacementModel::from_design(&design).expect("model from original");
    let m2 = PlacementModel::from_design(&back).expect("model from round trip");
    assert_eq!(m1.num_movable(), m2.num_movable());
    assert_eq!(m1.num_pins(), m2.num_pins());
    assert!((m1.movable_area() - m2.movable_area()).abs() < 1e-9);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn neural_guidance_runs_inside_the_placer_and_preserves_quality() {
    // A briefly trained FNO plugged into the placer must not break
    // convergence (the paper's claim is a ~1 per-mil improvement; here we
    // assert the guided run stays within 10% and converges).
    let mut fno = Fno::new(&FnoConfig::tiny(), 5).expect("valid config");
    let tc = TrainConfig {
        steps: 160,
        batch: 2,
        lr: 4e-3,
        data: DataConfig {
            grid: 16,
            blobs: 3,
            rects: 1,
            ..Default::default()
        },
        seed: 400,
    };
    train(&mut fno, &tc).expect("training succeeds");

    let spec = SynthesisSpec::new("nnit", 400, 420).with_seed(9);
    let mut cfg = XplaceConfig::xplace();
    cfg.schedule.max_iterations = 1000;

    let mut plain = synthesize(&spec).expect("synthesis");
    let rp = GlobalPlacer::new(cfg.clone())
        .place(&mut plain)
        .expect("plain run");

    let mut guided = synthesize(&spec).expect("synthesis");
    let rg = GlobalPlacer::new(cfg)
        .with_guidance(Box::new(FnoGuidance::new(fno)))
        .place(&mut guided)
        .expect("guided run");

    assert!(
        rg.final_overflow < 0.25,
        "guided overflow {}",
        rg.final_overflow
    );
    let ratio = rg.final_hpwl / rp.final_hpwl;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "guided/plain HPWL ratio {ratio}"
    );
    // The guidance only acts while sigma(omega) is non-negligible.
    assert!(sigma_blend(0.0) > 0.9 && sigma_blend(0.9) < 1e-3);
}

#[test]
fn device_accounting_is_consistent_across_a_run() {
    let spec = SynthesisSpec::new("acct", 300, 320).with_seed(13);
    let mut design = synthesize(&spec).expect("synthesis");
    let mut cfg = XplaceConfig::xplace();
    cfg.schedule.max_iterations = 60;
    let mut sink = VecSink::new();
    let report = GlobalPlacer::new(cfg)
        .place_traced(&mut design, &mut sink)
        .expect("placement");
    // The per-iteration records must sum to (almost) the run totals.
    let records = sink.iterations();
    let rec_ns: u64 = records.iter().map(|r| r.modeled_ns).sum();
    let rec_launches: u64 = records.iter().map(|r| r.launches).sum();
    assert!(rec_ns <= report.profile.modeled_ns());
    assert!(rec_launches <= report.profile.launches);
    // The optimizer runs outside the recorded evaluate scope, so totals
    // are strictly larger but in the same ballpark.
    assert!(report.profile.launches < rec_launches + 10 * report.iterations as u64);
}

#[test]
fn skipped_iterations_are_visibly_cheaper_in_the_records() {
    let spec = SynthesisSpec::new("skiprec", 500, 520).with_seed(15);
    let mut design = synthesize(&spec).expect("synthesis");
    let mut cfg = XplaceConfig::xplace();
    cfg.schedule.max_iterations = 60;
    let mut sink = VecSink::new();
    GlobalPlacer::new(cfg)
        .place_traced(&mut design, &mut sink)
        .expect("placement");
    let records = sink.iterations();
    let skipped: Vec<_> = records.iter().filter(|r| r.density_skipped).collect();
    let full: Vec<_> = records.iter().filter(|r| !r.density_skipped).collect();
    assert!(!skipped.is_empty() && !full.is_empty());
    let avg = |rs: &[&xplace::core::IterationRecord]| {
        rs.iter().map(|r| r.modeled_ns as f64).sum::<f64>() / rs.len() as f64
    };
    assert!(
        avg(&skipped) < avg(&full) * 0.8,
        "skipped iterations should be cheaper: {} vs {}",
        avg(&skipped),
        avg(&full)
    );
}
