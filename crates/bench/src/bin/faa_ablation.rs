//! Ablation: the aggregating-funnels lineage (DESIGN.md §7).
//!
//! SEC's contention-dispersal scheme descends from aggregating funnels
//! [Roh et al., PPoPP '25]. This binary compares three fetch&add
//! implementations under rising thread counts — hardware `fetch_add`, a
//! TTAS-lock-protected counter, and `sec_sync::funnel` with 1/2/4
//! shards — showing the same crossover the funnels paper (and hence
//! SEC's sharding choice) is built on: the funnel loses at low thread
//! counts (batching overhead) and wins once the hardware counter's
//! cache line becomes the bottleneck.
//!
//! ```text
//! cargo run -p sec-bench --release --bin faa_ablation
//! ```

use sec_bench::{mean_mops, BenchOpts};
use sec_sync::funnel::AggregatingFunnel;
use sec_sync::TtasLock;
use sec_workload::table::Figure;
use std::sync::atomic::{AtomicU64, Ordering};

fn main() {
    let opts = BenchOpts::from_args();
    println!(
        "{}",
        opts.banner("Ablation: fetch&add implementations (funnel lineage)")
    );
    let sweep = opts.sweep();
    let mut fig = Figure::new("fetch&add throughput", sweep.clone());

    // Hardware F&A on one cache line.
    let mut ys = Vec::new();
    for &n in &sweep {
        let counter = AtomicU64::new(0);
        ys.push(mean_mops(&opts, n, 1, |_| {
            counter.fetch_add(1, Ordering::AcqRel);
        }));
    }
    fig.add_series("hw_faa", ys);

    // Lock-protected counter (the naive software baseline).
    let mut ys = Vec::new();
    for &n in &sweep {
        let counter = TtasLock::new(0u64);
        ys.push(mean_mops(&opts, n, 1, |_| {
            *counter.lock() += 1;
        }));
    }
    fig.add_series("lock", ys);

    // Aggregating funnels with 1, 2, 4 shards.
    for shards in [1usize, 2, 4] {
        let mut ys = Vec::new();
        for &n in &sweep {
            let funnel = AggregatingFunnel::new(shards, 64);
            ys.push(mean_mops(&opts, n, 1, |t| {
                let _ = funnel.fetch_add_one(t);
            }));
        }
        fig.add_series(format!("funnel_x{shards}"), ys);
    }

    println!("{}", fig.render_table());
    if let Err(e) = fig.write_csv(&opts.csv_dir, "faa_ablation") {
        eprintln!("warning: could not write CSV: {e}");
    }
}
