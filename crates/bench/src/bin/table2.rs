//! Regenerates Table 2 of the paper: HPWL and runtime on the ISPD 2005
//! suite for DREAMPlace (baseline), Xplace and Xplace-NN.
//!
//! Every placer's GP result goes through the *same* legalizer and
//! detailed placer, exactly as the paper runs NTUPlace3 on both. GP time
//! is the modeled GPU time of the device execution model; DP time is
//! wall-clock. Absolute numbers differ from the paper's testbed — the
//! ratios are the reproduction target (Xplace ~1.6x faster GP than the
//! baseline with HPWL within a per-mil; Xplace-NN slightly better HPWL at
//! some GP-time cost).
//!
//! Environment: `XPLACE_SCALE` (default 0.004), `XPLACE_MAX_ITERS`
//! (default 1500).

use xplace_bench::{fmt, max_iters_from_env, run_flow, scale_from_env, write_reports, TextTable};
use xplace_core::XplaceConfig;
use xplace_db::suites::ispd2005_like;
use xplace_nn::{train, DataConfig, Fno, FnoConfig, FnoGuidance, TrainConfig};

fn main() {
    let scale = scale_from_env(0.004);
    let max_iters = max_iters_from_env(1500);
    let suite = ispd2005_like(scale);

    // Train the guidance model once (self-generated data, §4.3).
    eprintln!("training the FNO guidance model...");
    let nn_config = FnoConfig {
        width: 8,
        modes: 6,
        num_layers: 3,
        proj_hidden: 32,
    };
    let mut fno = Fno::new(&nn_config, 0xf0).expect("valid config");
    let train_cfg = TrainConfig {
        steps: 300,
        batch: 2,
        lr: 2e-3,
        data: DataConfig {
            grid: 32,
            blobs: 4,
            rects: 2,
            ..Default::default()
        },
        seed: 9_000,
    };
    let report = train(&mut fno, &train_cfg).expect("training succeeds");
    eprintln!("  final training loss: {:.4}", report.final_loss);

    let mut table = TextTable::new(&[
        "design",
        "HPWL(base)",
        "GP/s",
        "DP/s",
        "HPWL(xp)",
        "GP/s",
        "DP/s",
        "HPWL(nn)",
        "GP/s",
        "DP/s",
    ]);
    let mut sums = [0.0f64; 9];
    let mut reports = Vec::new();

    for entry in &suite {
        eprintln!(
            "running {} ({} cells)...",
            entry.name(),
            entry.spec.num_cells
        );
        let mut cfg_base = XplaceConfig::dreamplace_like();
        cfg_base.schedule.max_iterations = max_iters;
        let mut cfg_xp = XplaceConfig::xplace();
        cfg_xp.schedule.max_iterations = max_iters;
        let cfg_nn = cfg_xp.clone();

        let base = run_flow(entry, cfg_base.clone(), None).expect("baseline flow");
        let xp = run_flow(entry, cfg_xp.clone(), None).expect("xplace flow");
        let guidance = FnoGuidance::new(fno.clone());
        let nn = run_flow(entry, cfg_nn.clone(), Some(Box::new(guidance))).expect("xplace-nn flow");
        reports.extend([base.report.clone(), xp.report.clone(), nn.report.clone()]);

        let cells = [
            base.hpwl(),
            base.gp_seconds(),
            base.dp_seconds(),
            xp.hpwl(),
            xp.gp_seconds(),
            xp.dp_seconds(),
            nn.hpwl(),
            nn.gp_seconds(),
            nn.dp_seconds(),
        ];
        for (s, c) in sums.iter_mut().zip(&cells) {
            *s += c;
        }
        let mut row = vec![entry.name().to_string()];
        row.extend(cells.iter().enumerate().map(|(i, &v)| {
            if i % 3 == 0 {
                fmt(v / 1e6, 4)
            } else {
                fmt(v, 3)
            }
        }));
        table.row(row);
    }

    let mut sum_row = vec!["Sum".to_string()];
    sum_row.extend(sums.iter().enumerate().map(|(i, &v)| {
        if i % 3 == 0 {
            fmt(v / 1e6, 4)
        } else {
            fmt(v, 3)
        }
    }));
    table.row(sum_row);
    // Ratios vs Xplace (columns 3..6 are Xplace).
    let mut ratio_row = vec!["Ratio".to_string()];
    for i in 0..9 {
        let xp_ref = sums[3 + i % 3];
        ratio_row.push(if xp_ref > 0.0 {
            fmt(sums[i] / xp_ref, 3)
        } else {
            "-".into()
        });
    }
    table.row(ratio_row);

    println!(
        "\nTable 2: ISPD 2005 suite, HPWL (x1e6) and runtime (s). Columns: \
         DREAMPlace-like baseline | Xplace | Xplace-NN\n"
    );
    println!("{}", table.render());
    println!("(GP/s is modeled GPU time; ratios are relative to Xplace = 1.000)");

    let reports_path = std::path::Path::new("results/table2_reports.json");
    match write_reports(reports_path, &reports) {
        Ok(()) => eprintln!("machine-readable reports: {}", reports_path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", reports_path.display()),
    }
}
