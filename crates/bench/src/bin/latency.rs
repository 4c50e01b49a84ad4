//! Per-operation latency percentiles for all six stack algorithms plus
//! the queue lineup — the distributional view behind the throughput
//! figures (SEC and the combining stacks are blocking, so their tails
//! carry the freezer/combiner waits; TSI's tail carries its pop-side
//! scans; SEC-Q's tail carries its per-end batch waits).
//!
//! ```text
//! cargo run -p sec-bench --release --bin latency
//! ```

use sec_bench::{algo_latency, wait_label, BenchOpts, WAIT_POLICIES};
use sec_workload::{Algo, MapMix, Mix, ALL_COMPETITORS, MAP_LINEUP, QUEUE_LINEUP};

fn main() {
    let opts = BenchOpts::from_args();
    println!("{}", opts.banner("Per-op latency percentiles (ns)"));
    let threads = *opts.sweep().last().unwrap_or(&2);
    let ops_per_thread = 5_000u64;

    let mut csv = String::from("mix,algo,p50_ns,p90_ns,p99_ns,p999_ns,max_ns\n");
    for (mix, lineup) in [
        (Mix::UPDATE_100, &ALL_COMPETITORS[..]),
        (Mix::UPDATE_50, &ALL_COMPETITORS[..]),
        (Mix::UPDATE_10, &ALL_COMPETITORS[..]),
        // The queue lineup has no read-only operation; measure it on
        // the update-heavy mix only.
        (Mix::UPDATE_100, &QUEUE_LINEUP[..]),
        // Counter: fetch_add under the update-heavy mix.
        (Mix::UPDATE_100, &[Algo::SecCounter][..]),
        // Map: insert/remove under update-heavy, get-dominated under
        // the 10%-updates mix (the keyed analogue of read-heavy).
        (Mix::UPDATE_100, &MAP_LINEUP[..]),
        (Mix::UPDATE_10, &MAP_LINEUP[..]),
    ] {
        println!("## {mix} @ {threads} threads ({ops_per_thread} timed ops/thread)");
        println!(
            "{:>8} {:>10} {:>10} {:>10} {:>10} {:>12}",
            "algo", "p50", "p90", "p99", "p999", "max"
        );
        for &algo in lineup {
            // The map family reads the Mix as its keyed counterpart:
            // peek→get, push→insert, pop→remove.
            let map_mix = MapMix::new(mix.peek, mix.push, mix.pop);
            let r = algo_latency(algo, |c| c, threads, ops_per_thread, mix, map_mix);
            println!(
                "{:>8} {:>10} {:>10} {:>10} {:>10} {:>12}",
                algo.label(),
                r.p50,
                r.p90,
                r.p99,
                r.p999,
                r.max
            );
            csv.push_str(&format!(
                "{},{},{},{},{},{},{}\n",
                mix.label(),
                algo.label(),
                r.p50,
                r.p90,
                r.p99,
                r.p999,
                r.max
            ));
        }
        println!();
    }

    // Oversubscribed lineup (DESIGN.md §11): at 4× the hardware
    // threads, throughput alone hides what the wait policy does to the
    // *tail* — a spinning waiter's p99 is a scheduling quantum, a
    // parked waiter's is a wakeup. One row per policy for the SEC
    // stack and queue; the `@4x` mix label keeps the CSV rows distinct
    // from the core lineup above.
    let hw = sec_sync::topology::hardware_threads().max(1);
    let over = 4 * hw;
    println!(
        "## oversubscribed {} @ {over} threads (4x {hw} hw threads)",
        Mix::UPDATE_100
    );
    println!(
        "{:>14} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "algo[policy]", "p50", "p90", "p99", "p999", "max"
    );
    let (mix, map_mix) = (Mix::UPDATE_100, MapMix::WRITE_HEAVY);
    for sec in WAIT_POLICIES {
        for algo in [Algo::Sec { aggregators: 2 }, Algo::SecQueue] {
            let r = algo_latency(algo, sec, over, ops_per_thread, mix, map_mix);
            let label = format!("{algo}[{}]", wait_label(sec));
            println!(
                "{label:>14} {:>10} {:>10} {:>10} {:>10} {:>12}",
                r.p50, r.p90, r.p99, r.p999, r.max
            );
            csv.push_str(&format!(
                "upd100@4x,{label},{},{},{},{},{}\n",
                r.p50, r.p90, r.p99, r.p999, r.max
            ));
        }
    }
    println!();

    if std::fs::create_dir_all(&opts.csv_dir).is_ok() {
        let _ = std::fs::write(opts.csv_dir.join("latency.csv"), csv);
    }
}
