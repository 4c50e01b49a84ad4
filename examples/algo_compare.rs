//! A miniature of the paper's Figure 2: run all six stack algorithms
//! on the mixed workload at this host's parallelism and print a
//! side-by-side comparison.
//!
//! ```text
//! cargo run --release --example algo_compare
//! ```
//!
//! (For full sweeps with CSV output use the `sweep` binary:
//! `cargo run -p sec-bench --release --bin sweep -- fig2`.)

use sec_repro::workload::{run_algo, Mix, RunConfig, ALL_COMPETITORS};
use std::time::Duration;

fn main() {
    let threads = sec_repro::sync::topology::hardware_threads().max(2);
    println!("algorithm comparison @ {threads} threads, three mixes, 150 ms each\n");

    for mix in [Mix::UPDATE_100, Mix::UPDATE_50, Mix::UPDATE_10] {
        println!("== {mix} ==");
        let mut rows: Vec<(String, f64)> = Vec::new();
        for algo in ALL_COMPETITORS {
            let cfg = RunConfig {
                duration: Duration::from_millis(150),
                ..RunConfig::new(threads, mix)
            };
            let out = run_algo(algo, &cfg);
            rows.push((algo.label(), out.result.mops()));
            if let Some(rep) = out.sec_report {
                println!(
                    "  {:>8}: {:>8.3} Mops/s   (batch degree {:.1}, elim {:.0}%)",
                    algo.label(),
                    out.result.mops(),
                    rep.batching_degree(),
                    rep.pct_eliminated()
                );
            } else {
                println!("  {:>8}: {:>8.3} Mops/s", algo.label(), out.result.mops());
            }
        }
        rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        println!("  winner: {} ({:.3} Mops/s)\n", rows[0].0, rows[0].1);
    }
}
