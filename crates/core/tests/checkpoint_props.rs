//! Property tests for checkpoint durability and branching: randomized
//! Nesterov loop states round-trip bit-exactly through both store kinds,
//! branching/perturbation is a pure function of (snapshot, seed), and
//! parsing hostile input (truncated or byte-flipped payloads) returns a
//! checkpoint or a checkpoint error, never a panic.

use xplace_core::{
    Checkpoint, CheckpointStore, EngineState, EvalResult, FileCheckpointStore, LoopState,
    MemoryCheckpointStore, NesterovOptimizer, Parameters, PlaceError, XplaceConfig,
};
use xplace_device::ProfileSnapshot;
use xplace_telemetry::{Stage, ToJson};
use xplace_testkit::prop::Config;
use xplace_testkit::{prop_assert, prop_assert_eq, props, Rng};

/// A randomized but structurally valid checkpoint: every float drawn
/// from a wide range (including negatives and subunity magnitudes whose
/// shortest round-trip rendering stresses the JSON layer), optional
/// sections toggled, and `INFINITY` sentinels exercised.
fn random_checkpoint(seed: u64) -> Checkpoint {
    fn wide(rng: &mut Rng, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| {
                let exp = rng.gen_range(-6i64..7) as i32;
                (rng.f64() - 0.5) * 10f64.powi(exp)
            })
            .collect()
    }
    let mut rng = Rng::seed_from_u64(seed);
    let nodes = rng.gen_range(2usize..24);
    let movable = rng.gen_range(1usize..=nodes);
    let opt_len = rng.gen_range(1usize..16);
    let x = wide(&mut rng, nodes);
    let y = wide(&mut rng, nodes);
    let optimizer = if !seed.is_multiple_of(3) {
        Some(NesterovOptimizer {
            u_x: wide(&mut rng, opt_len),
            u_y: wide(&mut rng, opt_len),
            prev_v_x: wide(&mut rng, opt_len),
            prev_v_y: wide(&mut rng, opt_len),
            prev_g_x: wide(&mut rng, opt_len),
            prev_g_y: wide(&mut rng, opt_len),
            a: rng.f64() * 3.0 + 1.0,
            have_prev: rng.next_u64().is_multiple_of(2),
            initial_step: rng.f64(),
            max_disp: rng.f64() * 100.0,
            last_step: rng.f64(),
        })
    } else {
        None
    };
    let best_u = if seed.is_multiple_of(4) {
        Some((wide(&mut rng, opt_len), wide(&mut rng, opt_len)))
    } else {
        None
    };
    let last_eval = if !seed.is_multiple_of(5) {
        Some(EvalResult {
            wa: rng.f64() * 1e6,
            hpwl: rng.f64() * 1e6,
            overflow: rng.f64(),
            wl_grad_l1: rng.f64() * 1e3,
            density_grad_l1: rng.f64() * 1e3,
            r_ratio: rng.f64() * 0.01,
            density_skipped: rng.next_u64().is_multiple_of(2),
            skip_window: rng.next_u64().is_multiple_of(2),
        })
    } else {
        None
    };
    Checkpoint {
        design: format!("prop-{}", seed % 7),
        cells: nodes,
        movable,
        config: XplaceConfig::xplace().with_seed(seed).echo(),
        iteration: rng.gen_range(0usize..5000),
        x,
        y,
        state: LoopState {
            params: Parameters {
                gamma: rng.f64() * 10.0,
                lambda: rng.f64() * 1e-2 + 1e-9,
                iteration: rng.gen_range(0usize..5000),
                last_hpwl: if seed.is_multiple_of(2) {
                    f64::INFINITY
                } else {
                    rng.f64() * 1e6
                },
                last_overflow: rng.f64(),
                lambda_initialized: rng.next_u64().is_multiple_of(2),
            },
            omega: rng.f64(),
            optimizer,
            initial_hpwl: rng.f64() * 1e6,
            initial_overflow: rng.f64(),
            best_overflow: if seed.is_multiple_of(6) {
                f64::INFINITY
            } else {
                rng.f64()
            },
            best_iter: rng.gen_range(0usize..5000),
            best_u,
            stage: match seed % 3 {
                0 => Stage::Early,
                1 => Stage::Intermediate,
                _ => Stage::Final,
            },
            skip_window_open: rng.next_u64().is_multiple_of(2),
            last_eval,
        },
        engine: EngineState {
            last_r: rng.f64() * 0.01,
            field_age: rng.gen_range(0usize..8),
            has_field: rng.next_u64().is_multiple_of(2),
            cached_overflow: rng.f64(),
            field_x: wide(&mut rng, nodes),
            field_y: wide(&mut rng, nodes),
        },
        profile: ProfileSnapshot {
            launches: rng.next_u64() % 1_000_000,
            syncs: rng.next_u64() % 10_000,
            launch_overhead_ns: rng.next_u64() % u64::pow(10, 12),
            exec_ns: rng.next_u64() % u64::pow(10, 12),
            pipelined_ns: rng.next_u64() % u64::pow(10, 12),
            sync_stall_ns: rng.next_u64() % u64::pow(10, 12),
            // Wall-clock time is not saved: it reads back as 0.
            cpu_ns: 0,
        },
    }
}

props! {
    config = Config::with_cases(64);

    /// A randomized state survives the `Memory` store bit-exactly: the
    /// store keeps the value, so it renders to identical bytes.
    fn memory_store_round_trips_bit_exactly(seed in 0u64..1_000_000_000) {
        let cp = random_checkpoint(seed);
        let store = MemoryCheckpointStore::new();
        store.save(cp.clone()).unwrap();
        let (at, back) = store.latest().unwrap().unwrap();
        prop_assert_eq!(at, cp.iteration);
        prop_assert!(back == cp, "memory round trip changed the checkpoint (seed {})", seed);
        prop_assert_eq!(cp.render(), back.render());
        for (a, b) in cp.x.iter().zip(&back.x) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// The same state survives the `File` store bit-exactly (through the
    /// atomic tmp+rename path and a disk read-back).
    fn file_store_round_trips_bit_exactly(seed in 0u64..1_000_000_000) {
        let cp = random_checkpoint(seed);
        let dir = std::env::temp_dir().join("xplace-ckpt-props");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("cp-{seed}-{}.json", std::process::id()));
        let store = FileCheckpointStore::new(&path);
        store.save(cp.clone()).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert!(back == cp, "file round trip changed the checkpoint (seed {})", seed);
        prop_assert_eq!(cp.render(), back.render());
        for (a, b) in cp.y.iter().zip(&back.y) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Branching is deterministic: same snapshot + same perturbation
    /// seed ⇒ bit-identical branched state (and payload); the branch
    /// adopts the target config echo; positions stay inside the
    /// snapshot's own bounding box (the resume path does not re-clamp).
    fn branch_and_perturb_are_pure(seed in 0u64..1_000_000_000, pseed in 0u64..1_000_000) {
        let cp = random_checkpoint(seed);
        let target = XplaceConfig::xplace().with_seed(seed ^ 0xdead_beef);
        let mut a = cp.branch_for(&target);
        a.perturb(pseed);
        let mut b = cp.branch_for(&target);
        b.perturb(pseed);
        prop_assert!(a == b, "same perturbation seed produced different branches");
        prop_assert_eq!(a.render(), b.render());
        prop_assert_eq!(
            a.config.to_json().render(),
            target.echo().to_json().render()
        );

        // Jitter stays inside the snapshot's position bounding box.
        let bounds = |v: &[f64]| {
            v.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &p| {
                (lo.min(p), hi.max(p))
            })
        };
        let (min_x, max_x) = bounds(&cp.x);
        let (min_y, max_y) = bounds(&cp.y);
        for i in 0..cp.movable {
            prop_assert!(a.x[i] >= min_x && a.x[i] <= max_x);
            prop_assert!(a.y[i] >= min_y && a.y[i] <= max_y);
        }
        // Fixed cells and fillers are untouched.
        for i in cp.movable..cp.x.len() {
            prop_assert_eq!(a.x[i].to_bits(), cp.x[i].to_bits());
            prop_assert_eq!(a.y[i].to_bits(), cp.y[i].to_bits());
        }
        // The branch explores fresh: momentum and rollback state reset.
        prop_assert!(a.state.optimizer.is_none());
        prop_assert!(a.state.best_u.is_none());
        prop_assert!(a.state.best_overflow.is_infinite());
        prop_assert!(!a.engine.has_field);
    }
}

props! {
    config = Config::with_cases(8);

    /// Every proper prefix of a rendered checkpoint is refused with a
    /// checkpoint error, never a panic.
    fn every_truncation_is_refused(seed in 0u64..1_000_000_000) {
        let text = random_checkpoint(seed).render();
        for end in (0..text.len()).filter(|&end| text.is_char_boundary(end)) {
            let parsed = Checkpoint::parse(&text[..end]);
            prop_assert!(
                matches!(parsed, Err(PlaceError::Checkpoint(_))),
                "prefix of {end} bytes gave {parsed:?} (seed {seed})"
            );
        }
    }
}

props! {
    config = Config::with_cases(40);

    /// A rendered checkpoint with one to three random bytes replaced
    /// (256 variants per case, 10240 in all; invalid UTF-8 is decoded
    /// lossily) parses to a checkpoint or is refused with a checkpoint
    /// error, never a panic.
    fn byte_flips_parse_or_are_refused(seed in 0u64..1_000_000_000) {
        let bytes = random_checkpoint(seed).render().into_bytes();
        let mut rng = Rng::seed_from_u64(seed ^ 0xf11b);
        for _ in 0..256 {
            let mut flipped = bytes.clone();
            for _ in 0..rng.gen_range(1usize..4) {
                let at = rng.gen_range(0..flipped.len());
                flipped[at] ^= rng.gen_range(1u8..=255);
            }
            let text = String::from_utf8_lossy(&flipped);
            let parsed = Checkpoint::parse(&text);
            prop_assert!(
                matches!(parsed, Ok(_) | Err(PlaceError::Checkpoint(_))),
                "flipped payload gave {parsed:?} (seed {seed})"
            );
        }
    }
}
