//! Ablation: what the reclamation substrate costs (paper §4).
//!
//! The paper deploys DEBRA-style epochs and notes other schemes apply.
//! This binary quantifies the choice on the most reclamation-sensitive
//! algorithm in the lineup — the Treiber stack, whose pop dereferences
//! shared nodes on every CAS attempt — under the 100%-update mix:
//!
//! * **TRB** — epoch-based reclamation (the repo default),
//! * **TRB-HP** — hazard pointers (store + SeqCst fence per attempt),
//! * **TRB-LEAK** — no reclamation at all (free-list upper bound:
//!   nodes are simply leaked, so this is the cost floor any scheme
//!   should be compared against).
//!
//! SEC itself is far less sensitive: combiners amortize the pin over a
//! whole batch. The SEC row is included to show exactly that.
//!
//! ```text
//! cargo run -p sec-bench --release --bin recl_ablation
//! ```

use core::mem::ManuallyDrop;
use core::ptr;
use core::sync::atomic::{AtomicPtr, Ordering};
use sec_bench::BenchOpts;
use sec_core::{ConcurrentStack, StackHandle};
use sec_sync::{Backoff, CachePadded};
use sec_workload::stats::Summary;
use sec_workload::table::Figure;
use sec_workload::{Algo, ClosedLoop, Mix, RunConfig, Visitor};

/// A Treiber stack that never frees popped nodes (reclamation cost
/// floor). Bench-only: a real application would exhaust memory.
struct LeakTreiberStack<T: Send + 'static> {
    top: CachePadded<AtomicPtr<LeakNode<T>>>,
}

struct LeakNode<T> {
    value: ManuallyDrop<T>,
    next: *mut LeakNode<T>,
}

unsafe impl<T: Send> Send for LeakTreiberStack<T> {}
unsafe impl<T: Send> Sync for LeakTreiberStack<T> {}

impl<T: Send + 'static> LeakTreiberStack<T> {
    fn new() -> Self {
        Self {
            top: CachePadded::new(AtomicPtr::new(ptr::null_mut())),
        }
    }
}

impl<T: Send + 'static> ConcurrentStack<T> for LeakTreiberStack<T> {
    type Handle<'a>
        = LeakHandle<'a, T>
    where
        Self: 'a;

    fn register(&self) -> LeakHandle<'_, T> {
        LeakHandle { stack: self }
    }

    fn name(&self) -> &'static str {
        "TRB-LEAK"
    }
}

struct LeakHandle<'a, T: Send + 'static> {
    stack: &'a LeakTreiberStack<T>,
}

impl<T: Send + 'static> StackHandle<T> for LeakHandle<'_, T> {
    fn push(&mut self, value: T) {
        let node = Box::into_raw(Box::new(LeakNode {
            value: ManuallyDrop::new(value),
            next: ptr::null_mut(),
        }));
        let mut backoff = Backoff::new();
        loop {
            let cur = self.stack.top.load(Ordering::Acquire);
            unsafe { (*node).next = cur };
            if self
                .stack
                .top
                .compare_exchange(cur, node, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return;
            }
            backoff.spin();
        }
    }

    fn pop(&mut self) -> Option<T> {
        let mut backoff = Backoff::new();
        loop {
            let cur = self.stack.top.load(Ordering::Acquire);
            if cur.is_null() {
                return None;
            }
            // Safety (bench-only): nodes are never freed, so `cur`
            // always points to a live allocation.
            let next = unsafe { (*cur).next };
            if self
                .stack
                .top
                .compare_exchange(cur, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                // Leak the node; read the value out.
                return Some(ManuallyDrop::into_inner(unsafe {
                    ptr::read(&(*cur).value)
                }));
            }
            backoff.spin();
        }
    }

    fn peek(&mut self) -> Option<T>
    where
        T: Clone,
    {
        let cur = self.stack.top.load(Ordering::Acquire);
        if cur.is_null() {
            None
        } else {
            // Safety: never freed (leaked).
            Some(ManuallyDrop::into_inner(unsafe { (*cur).value.clone() }))
        }
    }
}

fn averaged_algo(opts: &BenchOpts, algo: Algo, threads: usize) -> f64 {
    let samples: Vec<f64> = (0..opts.runs)
        .map(|_| {
            let cfg = RunConfig {
                duration: opts.duration,
                prefill: opts.prefill,
                ..RunConfig::new(threads, Mix::UPDATE_100)
            };
            sec_workload::run_algo(algo, &cfg).result.mops()
        })
        .collect();
    Summary::of(&samples).mean
}

fn averaged_leak(opts: &BenchOpts, threads: usize) -> f64 {
    let samples: Vec<f64> = (0..opts.runs)
        .map(|_| {
            let stack: LeakTreiberStack<u64> = LeakTreiberStack::new();
            let cfg = RunConfig {
                duration: opts.duration,
                prefill: opts.prefill,
                ..RunConfig::new(threads, Mix::UPDATE_100)
            };
            ClosedLoop::timed(&cfg).stack(&stack, None).0.result.mops()
        })
        .collect();
    Summary::of(&samples).mean
}

fn main() {
    let opts = BenchOpts::from_args();
    println!(
        "{}",
        opts.banner("Ablation: reclamation substrate on the Treiber hot path (100% updates)")
    );
    let sweep = opts.sweep();
    let mut fig = Figure::new("throughput by reclamation scheme", sweep.clone());

    for (label, algo) in [
        ("TRB (EBR)", Algo::Trb),
        ("TRB-HP", Algo::TrbHp),
        ("SEC (EBR)", Algo::Sec { aggregators: 2 }),
    ] {
        let ys: Vec<f64> = sweep
            .iter()
            .map(|&n| averaged_algo(&opts, algo, n))
            .collect();
        fig.add_series(label, ys);
    }

    let ys: Vec<f64> = sweep.iter().map(|&n| averaged_leak(&opts, n)).collect();
    fig.add_series("TRB-LEAK (floor)", ys);

    println!("{}", fig.render_table());
    println!(
        "# reading: EBR should sit near the leak floor (pin is ~2 relaxed stores);\n\
         # HP pays a fence per pop attempt, so its gap widens with contention;\n\
         # SEC's combiners amortize reclamation, so its row barely moves."
    );
    if let Err(e) = fig.write_csv(&opts.csv_dir, "recl_ablation") {
        eprintln!("warning: could not write CSV: {e}");
    }
}
