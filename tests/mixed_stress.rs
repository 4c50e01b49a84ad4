//! Integration: mixed-operation stress with peeks, memory hygiene at
//! teardown, balanced-count accounting — all six stacks.

mod common;

use sec_repro::{ConcurrentStack, StackHandle};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

#[test]
fn mixed_ops_with_peeks_do_not_crash_or_wedge() {
    with_all_stacks!(7, |stack, name| {
        thread::scope(|scope| {
            for t in 0..6usize {
                let stack = &stack;
                scope.spawn(move || {
                    let mut h = stack.register();
                    for i in 0..1_000usize {
                        match (t * 31 + i) % 10 {
                            0..=2 => h.push((t * 10_000 + i) as u64),
                            3..=5 => {
                                let _ = h.pop();
                            }
                            _ => {
                                let _ = h.peek();
                            }
                        }
                    }
                });
            }
        });
        let _ = name;
    });
}

#[test]
fn balanced_push_pop_counts_reconcile() {
    with_all_stacks!(6, |stack, name| {
        const THREADS: usize = 5;
        const OPS: usize = 2_000;
        let pops = AtomicUsize::new(0);
        let pushes = AtomicUsize::new(0);
        thread::scope(|scope| {
            for t in 0..THREADS {
                let stack = &stack;
                let pops = &pops;
                let pushes = &pushes;
                scope.spawn(move || {
                    let mut h = stack.register();
                    for i in 0..OPS {
                        if (t + i) % 2 == 0 {
                            h.push(i as u64);
                            pushes.fetch_add(1, Ordering::Relaxed);
                        } else if h.pop().is_some() {
                            pops.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        let mut h = stack.register();
        let mut remaining = 0usize;
        while h.pop().is_some() {
            remaining += 1;
        }
        assert_eq!(
            pops.load(Ordering::Relaxed) + remaining,
            pushes.load(Ordering::Relaxed),
            "[{name}] pushed values must equal popped + remaining"
        );
    });
}

/// Payload whose drops we count, to prove no double-drop / no leak of
/// *values* (allocation hygiene is checked by the reclaim tests).
struct CountedPayload(std::sync::Arc<AtomicUsize>);
impl Drop for CountedPayload {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// Generic drop-exactly-once scenario for one stack type.
fn drop_hygiene<S, F>(factory: F, name: &str)
where
    S: ConcurrentStack<CountedPayload>,
    F: FnOnce(usize) -> S,
{
    const THREADS: usize = 4;
    const OPS: usize = 800;
    let drops = std::sync::Arc::new(AtomicUsize::new(0));
    {
        let stack = factory(THREADS);
        thread::scope(|scope| {
            for t in 0..THREADS {
                let stack = &stack;
                let drops = &drops;
                scope.spawn(move || {
                    let mut h = stack.register();
                    for i in 0..OPS {
                        if (t ^ i) % 3 != 0 {
                            h.push(CountedPayload(std::sync::Arc::clone(drops)));
                        } else {
                            drop(h.pop());
                        }
                    }
                });
            }
        });
        // Stack goes out of scope holding the un-popped remainder.
    }
    let expected: usize = (0..THREADS)
        .map(|t| (0..OPS).filter(|i| (t ^ i) % 3 != 0).count())
        .sum();
    assert_eq!(
        drops.load(Ordering::Relaxed),
        expected,
        "[{name}] every pushed payload must drop exactly once"
    );
}

#[test]
fn sec_drops_values_exactly_once() {
    drop_hygiene(
        |n| sec_repro::SecStack::with_config(sec_repro::SecConfig::new(2, n)),
        "SEC",
    );
}

#[test]
fn treiber_drops_values_exactly_once() {
    drop_hygiene(sec_repro::baselines::TreiberStack::new, "TRB");
}

#[test]
fn eb_drops_values_exactly_once() {
    drop_hygiene(sec_repro::baselines::EbStack::new, "EB");
}

#[test]
fn fc_drops_values_exactly_once() {
    drop_hygiene(sec_repro::baselines::FcStack::new, "FC");
}

#[test]
fn cc_drops_values_exactly_once() {
    drop_hygiene(sec_repro::baselines::CcStack::new, "CC");
}

#[test]
fn tsi_drops_values_exactly_once() {
    drop_hygiene(sec_repro::baselines::TsiStack::new, "TSI");
}

#[test]
fn treiber_hp_drops_values_exactly_once() {
    drop_hygiene(sec_repro::baselines::TreiberHpStack::new, "TRB-HP");
}

#[test]
fn treiber_leak_drops_values_exactly_once() {
    drop_hygiene(|_| sec_baselines::LeakTreiberStack::default(), "TRB-LEAK");
}

#[test]
fn locked_drops_values_exactly_once() {
    drop_hygiene(sec_repro::baselines::LockedStack::new, "LCK");
}

#[test]
fn sec_works_at_every_aggregator_count_with_odd_thread_counts() {
    for k in 1..=5 {
        for threads in [1usize, 3, 7] {
            let stack: sec_repro::SecStack<u64> =
                sec_repro::SecStack::with_config(sec_repro::SecConfig::new(k, threads));
            thread::scope(|scope| {
                for t in 0..threads {
                    let stack = &stack;
                    scope.spawn(move || {
                        let mut h = stack.register();
                        for i in 0..300usize {
                            if (t + i) % 2 == 0 {
                                h.push(i as u64);
                            } else {
                                let _ = h.pop();
                            }
                        }
                    });
                }
            });
            let r = stack.stats().report();
            assert_eq!(
                r.eliminated + r.combined,
                r.ops,
                "k={k} threads={threads}: accounting identity"
            );
        }
    }
}
