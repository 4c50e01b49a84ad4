//! Ablation: lock discipline under combining-style critical sections.
//!
//! The combining stacks (FC, CC) are, mechanically, "a lock plus a rule
//! for what the holder does". This binary isolates the *lock* half: all
//! four disciplines in the substrate — `std::sync::Mutex`, TTAS, MCS,
//! CLH — guard the same sequential `Vec` stack, and each thread performs
//! one push+pop pair per acquisition (two operations in Mops/s). Two
//! readings:
//!
//! * the gap between any lock here and FC/CC in `fig2` is the value of
//!   *combining* (many ops per handoff vs one), and
//! * the gap between TTAS and the queue locks at high thread counts is
//!   the handoff-discipline effect CC-Synch inherits from MCS.
//!
//! ```text
//! cargo run -p sec-bench --release --bin lock_ablation
//! ```

use sec_bench::{mean_mops, BenchOpts};
use sec_sync::{ClhLock, McsLock, TtasLock};
use sec_workload::table::Figure;
use std::sync::Mutex;

fn main() {
    let opts = BenchOpts::from_args();
    println!(
        "{}",
        opts.banner("Ablation: lock disciplines guarding a sequential stack")
    );
    let sweep = opts.sweep();
    let mut fig = Figure::new("locked push+pop throughput", sweep.clone());

    // std::sync::Mutex (futex-backed; parks waiters).
    let mut ys = Vec::new();
    for &n in &sweep {
        let stack = Mutex::new(Vec::with_capacity(opts.prefill + n));
        ys.push(mean_mops(&opts, n, 2, |t| {
            let mut s = stack.lock().unwrap();
            s.push(t as u64);
            let _ = s.pop();
        }));
    }
    fig.add_series("mutex", ys);

    // TTAS spin lock (FC's combiner-election primitive).
    let mut ys = Vec::new();
    for &n in &sweep {
        let stack = TtasLock::new(Vec::with_capacity(opts.prefill + n));
        ys.push(mean_mops(&opts, n, 2, |t| {
            let mut s = stack.lock();
            s.push(t as u64);
            let _ = s.pop();
        }));
    }
    fig.add_series("ttas", ys);

    // MCS queue lock (CC-Synch's ancestor).
    let mut ys = Vec::new();
    for &n in &sweep {
        let stack = McsLock::new(Vec::with_capacity(opts.prefill + n));
        ys.push(mean_mops(&opts, n, 2, |t| {
            let mut s = stack.lock();
            s.push(t as u64);
            let _ = s.pop();
        }));
    }
    fig.add_series("mcs", ys);

    // CLH queue lock (spin on predecessor).
    let mut ys = Vec::new();
    for &n in &sweep {
        let stack = ClhLock::new(Vec::with_capacity(opts.prefill + n));
        ys.push(mean_mops(&opts, n, 2, |t| {
            let mut s = stack.lock();
            s.push(t as u64);
            let _ = s.pop();
        }));
    }
    fig.add_series("clh", ys);

    println!("{}", fig.render_table());
    println!(
        "# reading: compare against fig2's FC/CC rows — the difference is combining;\n\
         # compare ttas vs mcs/clh at the sweep's top — the difference is handoff discipline."
    );
    if let Err(e) = fig.write_csv(&opts.csv_dir, "lock_ablation") {
        eprintln!("warning: could not write CSV: {e}");
    }
}
