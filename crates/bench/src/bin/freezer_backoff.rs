//! Ablation: the freezer's aggregation backoff (paper §3.1).
//!
//! "The freezer thread executes a short backoff before freezing B to
//! increase the elimination degree of SEC … Experiments showed that
//! this results in enhanced performance." This binary sweeps both
//! halves of our backoff implementation — pause-loop spins and
//! `yield_now` calls — and reports throughput *and* the resulting
//! batching/elimination degrees, making the paper's trade-off
//! observable: a longer window ⇒ bigger batches and more elimination,
//! up to the point where waiting dominates. The freezer spends both
//! only on evidence: it skips the backoff when no other announcer can
//! join, stops as soon as the batch is full, and yields only when
//! threads outnumber hardware threads. So on an oversubscribed host
//! only the yields open the window (joining threads need CPU time);
//! on a machine with a core per thread the spins do.
//!
//! ```text
//! cargo run -p sec-bench --release --bin freezer_backoff
//! ```

use sec_bench::BenchOpts;
use sec_core::{SecConfig, SecStack};
use sec_workload::stats::Summary;
use sec_workload::{ClosedLoop, Mix, RunConfig, Visitor};

fn main() {
    let opts = BenchOpts::from_args();
    println!(
        "{}",
        opts.banner("Ablation: freezer backoff sweep (SEC, 100% updates)")
    );
    let threads = *opts.sweep().last().unwrap_or(&2);
    let configs: Vec<(u32, u32)> = vec![
        (0, 0),
        (64, 0),
        (256, 0),
        (1024, 0),
        (4096, 0),
        (0, 1),
        (16, 1),
        (64, 1),
        (0, 2),
        (0, 4),
    ];

    println!(
        "{:>8} {:>8} {:>10} {:>14} {:>10}",
        "spins", "yields", "Mops/s", "batch_degree", "pct_elim"
    );
    let mut csv = String::from("spins,yields,mops,batch_degree,pct_elim\n");
    for &(spins, yields) in &configs {
        let mut tput = Vec::new();
        let mut degree = Vec::new();
        let mut elim = Vec::new();
        for r in 0..opts.runs {
            let cfg = RunConfig {
                duration: opts.duration,
                prefill: opts.prefill,
                seed: 0xBAC0FF ^ (r as u64) << 32,
                ..RunConfig::new(threads, Mix::UPDATE_100)
            };
            let stack: SecStack<u64> = SecStack::with_config(
                SecConfig::new(2, cfg.threads + 1)
                    .freezer_backoff(spins)
                    .freezer_yields(yields),
            );
            let (run, ()) = ClosedLoop::timed(&cfg).stack(&stack, Some(&stack));
            let rep = run.sec_report.expect("SEC reports batch stats");
            tput.push(run.result.mops());
            degree.push(rep.batching_degree());
            elim.push(rep.pct_eliminated());
        }
        let (t, d, e) = (
            Summary::of(&tput).mean,
            Summary::of(&degree).mean,
            Summary::of(&elim).mean,
        );
        println!("{spins:>8} {yields:>8} {t:>10.3} {d:>14.1} {e:>9.0}%");
        csv.push_str(&format!("{spins},{yields},{t:.4},{d:.2},{e:.2}\n"));
    }
    println!("# at {threads} threads; defaults are spins=16, yields=1");
    if std::fs::create_dir_all(&opts.csv_dir).is_ok() {
        let _ = std::fs::write(opts.csv_dir.join("freezer_backoff.csv"), csv);
    }
}
