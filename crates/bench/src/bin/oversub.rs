//! The oversubscription ablation: throughput of the SEC stack and the
//! SEC queue at 1×, 2×, 4× and 8× the host's hardware threads, under
//! each of the three [`WaitPolicy`] settings (DESIGN.md §11).
//!
//! This is the experiment the wait subsystem exists for: with threads ≤
//! cores the three policies are near-indistinguishable (waits resolve
//! inside the spin phase), but once threads exceed cores, spinning
//! waiters steal the cycles their freezers/combiners need and yielding
//! waiters keep the run queue full of threads with nothing to do —
//! `SpinThenPark` removes them from scheduling entirely and pays one
//! `unpark` per registered waiter of the batch.
//!
//! ```text
//! cargo run -p sec-bench --release --bin oversub
//! cargo run -p sec-bench --release --bin oversub -- --duration-ms 1000 --runs 5
//! ```
//!
//! Prints one table + ASCII plot per family and writes
//! `results/oversub_{stack,queue}.csv`; each policy series carries its
//! park/wake/spurious counter columns
//! (`<series>_{parks,wakes,spurious}`), mirroring the resize- and
//! recycle-counter exports of `fig4`/`queue_bench` — like those, the
//! counter columns are **totals summed over the cell's `--runs`**
//! (the per-run means are printed on the progress lines). Each policy
//! series also carries per-cell latency percentile columns
//! (`<series>_{p50,p99,p999}_ns`, from one fixed-work latency pass per
//! cell): the throughput rows say how much work got done, the tail
//! columns say what each wait policy cost the ops that had to wait.

use sec_bench::BenchOpts;
use sec_core::{SecConfig, SecQueue, SecStack, WaitPolicy};
use sec_sync::topology;
use sec_workload::stats::{Summary, WaitTotals};
use sec_workload::table::Figure;
use sec_workload::{
    measure_latency, measure_queue_latency, run_algo, Algo, LatencyReport, Mix, RunConfig,
};

/// One fixed-work latency pass for a (family, policy, threads) cell,
/// on a structure built with the throughput runs' `sec` patch.
fn cell_latency(algo: Algo, sec: Patch, threads: usize, ops: u64) -> LatencyReport {
    let cap = threads + 1;
    match algo {
        Algo::SecQueue => {
            let queue: SecQueue<u64> = SecQueue::with_config(sec(SecConfig::new(1, cap)));
            measure_queue_latency(&queue, threads, ops, Mix::UPDATE_100)
        }
        _ => {
            let stack: SecStack<u64> = SecStack::with_config(sec(SecConfig::new(2, cap)));
            measure_latency(&stack, threads, ops, Mix::UPDATE_100)
        }
    }
}

/// A [`RunConfig::sec`] patch.
type Patch = fn(SecConfig) -> SecConfig;

/// The swept wait policies, as the patches that set them.
const POLICIES: [Patch; 3] = [
    |c| c.wait_policy(WaitPolicy::Spin),
    |c| c.wait_policy(WaitPolicy::SpinThenYield),
    |c| c.wait_policy(WaitPolicy::spin_then_park()),
];

/// The wait policy a patch sets, whose label names the CSV series.
fn policy_of(sec: Patch) -> WaitPolicy {
    sec(SecConfig::new(1, 1)).wait
}

fn main() {
    let opts = BenchOpts::from_args();
    let hw = topology::hardware_threads().max(1);
    println!(
        "{}",
        opts.banner(&format!(
            "Oversubscription: wait policies at 1x/2x/4x/8x of {hw} hardware threads"
        ))
    );
    // The oversubscription sweep is the point of this binary: by
    // default it is derived from the host (1x/2x/4x/8x the hardware
    // threads), not from --max-threads; an explicit --threads list
    // still wins for deeper probes.
    let sweep: Vec<usize> = opts
        .threads_list
        .clone()
        .unwrap_or_else(|| vec![hw, 2 * hw, 4 * hw, 8 * hw]);

    for (algo, family, stem) in [
        (Algo::Sec { aggregators: 2 }, "SecStack", "oversub_stack"),
        (Algo::SecQueue, "SecQueue", "oversub_queue"),
    ] {
        let mut fig = Figure::new(
            format!(
                "{family} throughput vs oversubscription — {}",
                Mix::UPDATE_100
            ),
            sweep.clone(),
        );
        // Interleave the policies *inside* each (thread count, run)
        // slice rather than measuring each policy as one contiguous
        // block: environmental drift (a noisy co-tenant, thermal
        // throttling) then biases all three policies equally instead
        // of poisoning whole series — on loaded hosts that drift is
        // larger than the effect under measurement.
        let mut samples = vec![vec![Vec::with_capacity(opts.runs); sweep.len()]; POLICIES.len()];
        let mut waits = vec![vec![WaitTotals::new(); sweep.len()]; POLICIES.len()];
        for r in 0..opts.runs {
            for (ti, &threads) in sweep.iter().enumerate() {
                for (pi, sec) in POLICIES.into_iter().enumerate() {
                    let cfg = RunConfig {
                        duration: opts.duration,
                        prefill: opts.prefill,
                        sec,
                        seed: 0xC0FFEE ^ (r as u64) << 32,
                        ..RunConfig::new(threads, Mix::UPDATE_100)
                    };
                    let out = run_algo(algo, &cfg);
                    waits[pi][ti].add(out.sec_report.as_ref());
                    samples[pi][ti].push(out.result.mops());
                }
            }
        }
        let mut extras: Vec<(String, Vec<f64>)> = Vec::new();
        for (pi, sec) in POLICIES.into_iter().enumerate() {
            let policy = policy_of(sec);
            let label = format!("{}_{}", algo.label(), policy.label());
            let mut ys = Vec::with_capacity(sweep.len());
            for (ti, &threads) in sweep.iter().enumerate() {
                let s = Summary::of(&samples[pi][ti]);
                eprintln!(
                    "  {family} | {:>6} | {threads:>3} threads ({:.0}x): {:.3} Mops/s (cv {:.1}%, {:.0} parks/run, {:.1}% spurious)",
                    policy.label(),
                    threads as f64 / hw as f64,
                    s.mean,
                    s.cv_pct(),
                    waits[pi][ti].parks_per_run(),
                    waits[pi][ti].spurious_pct(),
                );
                ys.push(s.mean);
            }
            fig.add_series(label.clone(), ys);
            // The tail view: one latency pass per cell, after the
            // throughput runs so it cannot perturb them.
            let mut p50s = Vec::with_capacity(sweep.len());
            let mut p99s = Vec::with_capacity(sweep.len());
            let mut p999s = Vec::with_capacity(sweep.len());
            for &threads in &sweep {
                let r = cell_latency(algo, sec, threads, 2_000);
                p50s.push(r.p50 as f64);
                p99s.push(r.p99 as f64);
                p999s.push(r.p999 as f64);
            }
            extras.push((format!("{label}_p50_ns"), p50s));
            extras.push((format!("{label}_p99_ns"), p99s));
            extras.push((format!("{label}_p999_ns"), p999s));
            extras.push((
                format!("{label}_parks"),
                waits[pi].iter().map(|w| w.parks as f64).collect(),
            ));
            extras.push((
                format!("{label}_wakes"),
                waits[pi].iter().map(|w| w.wakes as f64).collect(),
            ));
            extras.push((
                format!("{label}_spurious"),
                waits[pi].iter().map(|w| w.spurious as f64).collect(),
            ));
        }
        for (name, col) in extras {
            fig.add_extra(name, col);
        }
        println!("{}", fig.render_table());
        println!("{}", fig.render_ascii_plot(12));
        if let Err(e) = fig.write_csv(&opts.csv_dir, stem) {
            eprintln!("warning: could not write CSV: {e}");
        }
    }
}
