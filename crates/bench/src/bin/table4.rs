//! Regenerates Table 4 of the paper: HPWL, top5 overflow and runtime on
//! the ISPD 2015 suite (fence regions removed, as the paper does) for the
//! DREAMPlace-like baseline and Xplace.
//!
//! Routability comes from the RUDY congestion estimator (the documented
//! NCTUgr substitution); both placers are scored by the same estimator,
//! so the paper's comparison — Xplace faster with comparable top5
//! overflow and slightly better HPWL — is preserved.
//!
//! Environment: `XPLACE_SCALE` (default 0.004), `XPLACE_MAX_ITERS`
//! (default 1500).

use xplace_bench::{
    default_workers, fmt, max_iters_from_env, run_flow, scale_from_env, write_reports, TextTable,
};
use xplace_core::XplaceConfig;
use xplace_db::suites::ispd2015_like;

fn main() {
    let scale = scale_from_env(0.004);
    let max_iters = max_iters_from_env(1500);
    let suite = ispd2015_like(scale);

    let mut table = TextTable::new(&[
        "design",
        "HPWL(base)",
        "OVFL-5",
        "GP/s",
        "DP/s",
        "HPWL(xp)",
        "OVFL-5",
        "GP/s",
        "DP/s",
    ]);
    let mut sums = [0.0f64; 8];

    eprintln!(
        "running {} designs on {} workers...",
        suite.len(),
        default_workers()
    );
    let per_design = xplace_parallel::global().run(suite.len(), default_workers(), |i| {
        let entry = &suite[i];
        let mut cfg_base = XplaceConfig::dreamplace_like();
        cfg_base.schedule.max_iterations = max_iters;
        let mut cfg_xp = XplaceConfig::xplace();
        cfg_xp.schedule.max_iterations = max_iters;

        let base = run_flow(entry, cfg_base, None).expect("baseline flow");
        let xp = run_flow(entry, cfg_xp, None).expect("xplace flow");
        (base, xp)
    });

    let reports: Vec<_> = per_design
        .iter()
        .flat_map(|(base, xp)| [base.report.clone(), xp.report.clone()])
        .collect();
    let reports_path = std::path::Path::new("results/table4_reports.json");
    match write_reports(reports_path, &reports) {
        Ok(()) => eprintln!("machine-readable reports: {}", reports_path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", reports_path.display()),
    }

    let top5 = |flow: &xplace_bench::FlowResult| {
        flow.report.route.as_ref().map_or(0.0, |r| r.top5_overflow)
    };
    for (entry, (base, xp)) in suite.iter().zip(&per_design) {
        let (base_ovfl, xp_ovfl) = (top5(base), top5(xp));
        let cells = [
            base.hpwl(),
            base_ovfl,
            base.gp_seconds(),
            base.dp_seconds(),
            xp.hpwl(),
            xp_ovfl,
            xp.gp_seconds(),
            xp.dp_seconds(),
        ];
        for (s, c) in sums.iter_mut().zip(&cells) {
            *s += c;
        }
        let name = if entry.fence_removed {
            format!("{}+", entry.name())
        } else {
            entry.name().to_string()
        };
        let mut row = vec![name];
        row.extend(cells.iter().enumerate().map(|(i, &v)| match i % 4 {
            0 => fmt(v / 1e6, 4),
            1 => fmt(v, 2),
            _ => fmt(v, 3),
        }));
        table.row(row);
    }

    let mut sum_row = vec!["Sum".to_string()];
    sum_row.extend(sums.iter().enumerate().map(|(i, &v)| match i % 4 {
        0 => fmt(v / 1e6, 4),
        1 => fmt(v, 2),
        _ => fmt(v, 3),
    }));
    table.row(sum_row);
    let mut ratio_row = vec!["Ratio".to_string()];
    for i in 0..8 {
        let xp_ref = sums[4 + i % 4];
        ratio_row.push(if xp_ref > 0.0 {
            fmt(sums[i] / xp_ref, 3)
        } else {
            "-".into()
        });
    }
    table.row(ratio_row);

    println!(
        "\nTable 4: ISPD 2015 suite, HPWL (x1e6), top5 overflow, runtime (s). \
         Columns: DREAMPlace-like baseline | Xplace. \
         `+` marks designs the paper ran with fence regions removed.\n"
    );
    println!("{}", table.render());
    println!("(ratios relative to Xplace = 1.000)");
}
