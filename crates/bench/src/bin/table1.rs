//! Regenerates Table 1 of the paper: benchmark statistics for the
//! ISPD 2005 and ISPD 2015 suites.
//!
//! For each design the published contest size is shown next to the
//! statistics of the scaled synthetic twin actually used in the runs.
//! Control the scale with `XPLACE_SCALE` (1.0 = full contest sizes).

use xplace_bench::{env_parse, fmt, TextTable};
use xplace_db::suites::{ispd2005_like, ispd2015_like};
use xplace_db::synthesis::synthesize;
use xplace_db::DesignStats;

fn main() {
    let scale = env_parse("XPLACE_SCALE", 0.01);
    println!("Table 1: benchmark statistics (scale = {scale}, published sizes in parentheses)\n");
    for (suite_name, suite) in [
        ("ISPD 2005", ispd2005_like(scale)),
        ("ISPD 2015", ispd2015_like(scale)),
    ] {
        let mut table = TextTable::new(&[
            "design",
            "#cells",
            "(published)",
            "#nets",
            "(published)",
            "#pins",
            "avg degree",
            "util",
        ]);
        for entry in &suite {
            let design = match synthesize(&entry.spec) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("error synthesizing {}: {e}", entry.name());
                    std::process::exit(1);
                }
            };
            let s = DesignStats::of(&design);
            table.row(vec![
                entry.name().to_string(),
                s.num_cells.to_string(),
                format!("({}k)", entry.published_cells / 1000),
                s.num_nets.to_string(),
                format!("({}k)", entry.published_nets / 1000),
                s.num_pins.to_string(),
                fmt(s.avg_net_degree, 2),
                fmt(s.utilization, 3),
            ]);
        }
        println!("{suite_name}:");
        println!("{}", table.render());
    }
}
