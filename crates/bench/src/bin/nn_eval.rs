//! Reproduces the §4.3 neural-network metrics:
//!
//! * parameter count of the paper-scale model (the paper quotes 471k,
//!   60% of U-Net),
//! * training on self-generated data and the held-out relative-L2 loss,
//! * resolution transfer (trained low-res, evaluated high-res),
//! * y-direction generalization via input transposition.
//!
//! Environment: `XPLACE_NN_STEPS` (default 400), `XPLACE_NN_GRID`
//! (default 32), `XPLACE_NN_PAPER=1` to train the full paper-scale model
//! instead of the fast small one.

use xplace_bench::env_parse;
use xplace_core::DensityGuidance;
use xplace_nn::{
    generate_sample, relative_l2, train, DataConfig, Fno, FnoConfig, FnoGuidance, TrainConfig,
};

fn correlation(a: &[f64], b: &[f64]) -> f64 {
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f64 = a.iter().map(|v| v * v).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

fn main() {
    let steps: usize = env_parse("XPLACE_NN_STEPS", 400);
    let grid: usize = env_parse("XPLACE_NN_GRID", 32);
    let paper_scale = std::env::var("XPLACE_NN_PAPER")
        .map(|v| v == "1")
        .unwrap_or(false);

    // Parameter-count check against the paper's 471k.
    let paper_model = Fno::new(&FnoConfig::paper(), 1).expect("paper config is valid");
    println!(
        "paper-scale FNO parameters: {} (paper: 471k)",
        paper_model.num_params()
    );

    let config = if paper_scale {
        FnoConfig::paper()
    } else {
        FnoConfig {
            width: 8,
            modes: 6,
            num_layers: 3,
            proj_hidden: 32,
        }
    };
    let mut fno = Fno::new(&config, 2024).expect("config is valid");
    println!(
        "training model: width={} modes={} layers={} -> {} parameters",
        config.width,
        config.modes,
        config.num_layers,
        fno.num_params()
    );

    let data = DataConfig {
        grid,
        blobs: 5,
        rects: 2,
        ..Default::default()
    };
    let train_cfg = TrainConfig {
        steps,
        batch: 2,
        lr: 2e-3,
        data,
        seed: 7,
    };
    let report = train(&mut fno, &train_cfg).expect("training succeeds");
    println!(
        "training steps: {steps}, final training loss (rel-L2): {:.4}",
        report.final_loss
    );

    // Held-out evaluation (zero predictor scores 1.0).
    let held_out = eval_loss(&mut fno, &data, 5_000_000, 16);
    println!("held-out rel-L2 ({grid}x{grid}):       {held_out:.4}  (zero predictor: 1.0)");

    // Resolution transfer.
    let hi = DataConfig {
        grid: grid * 2,
        blobs: 5,
        rects: 2,
        ..Default::default()
    };
    let transfer = eval_loss(&mut fno, &hi, 6_000_000, 8);
    println!(
        "resolution transfer rel-L2 ({0}x{0}): {transfer:.4}  (trained at {grid}x{grid})",
        grid * 2
    );

    // y-direction via transposition (the PDE-symmetry trick of §3.3).
    let mut guidance = FnoGuidance::new(fno);
    let mut corr_x = 0.0;
    let mut corr_y = 0.0;
    let trials = 8;
    for k in 0..trials {
        let s = generate_sample(&data, 7_000_000 + k).expect("sample generation");
        let density = xplace_fft::Grid2::from_vec(grid, grid, s.density.clone());
        let (fx, fy) = guidance.predict(&density);
        corr_x += correlation(fx.as_slice(), &s.field_x);
        corr_y += correlation(fy.as_slice(), &s.field_y);
    }
    println!(
        "field correlation vs exact solver: x = {:.3}, y = {:.3} (y via transposed input)",
        corr_x / trials as f64,
        corr_y / trials as f64
    );
}

fn eval_loss(fno: &mut Fno, data: &DataConfig, seed: u64, n: usize) -> f64 {
    let mut total = 0.0;
    for k in 0..n {
        let s = generate_sample(data, seed + k as u64).expect("sample generation");
        let pred = fno
            .predict_field_x(&s.density, data.grid, data.grid)
            .expect("prediction succeeds");
        let (loss, _) = relative_l2(&pred, &s.field_x);
        total += loss;
    }
    total / n as f64
}
