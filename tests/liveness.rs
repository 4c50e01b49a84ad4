//! Integration: liveness boundaries of the *blocking* SEC algorithm
//! (paper Property 5.1 and its flip side).
//!
//! SEC is blocking — announced operations wait for their batch's
//! freezer and combiner. These tests pin down what must **not** block:
//!
//! * a lone thread (its own freezer and combiner) completes unaided;
//! * registered-but-idle threads stall nobody (waiting is only ever on
//!   threads that have *announced* into the same batch);
//! * `pop` on an empty stack returns `None` rather than waiting for a
//!   push (elimination is an opportunity, not an obligation);
//! * aggregators are independent: activity confined to one aggregator
//!   needs nothing from the other's threads;
//! * the whole lineup completes fixed work when oversubscribed well
//!   past the host's hardware threads (the spin loops must degrade to
//!   yields — DESIGN.md §2 "blocking loops").

mod common;

use sec_repro::{SecConfig, SecStack, StackHandle};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// Runs `f` on a progress watchdog: `f` bumps the counter it is handed
/// as it completes work, and the watchdog panics once the counter has
/// stayed flat for `window`. A slow host (CPU hogs, one core) only slows
/// the count down; a wedge stops it. The panic message prints at once;
/// the test fails when `f` returns (scoped threads are joined first),
/// so a permanent wedge shows the message and then the CI timeout.
fn progressing<F: FnOnce(&AtomicU64) + Send>(window: Duration, what: &str, f: F) {
    let done = AtomicBool::new(false);
    let progress = AtomicU64::new(0);
    thread::scope(|scope| {
        let (done, progress) = (&done, &progress);
        scope.spawn(move || {
            f(progress);
            done.store(true, Ordering::Release);
        });
        let (mut seen, mut since) = (0, Instant::now());
        while !done.load(Ordering::Acquire) {
            let now = progress.load(Ordering::Relaxed);
            if now != seen {
                (seen, since) = (now, Instant::now());
            }
            assert!(
                since.elapsed() < window,
                "{what}: wedged (no progress for {window:?} after {seen} steps)"
            );
            thread::sleep(Duration::from_millis(10));
        }
    });
}

/// One step of work done.
fn bump(progress: &AtomicU64) {
    progress.fetch_add(1, Ordering::Relaxed);
}

#[test]
#[should_panic(expected = "wedged")]
fn watchdog_fails_work_that_stops_progressing() {
    // Three steps, then silence for ten windows: the watchdog must
    // call it a wedge even though the closure eventually returns.
    progressing(Duration::from_millis(100), "stalled", |progress| {
        for _ in 0..3 {
            bump(progress);
        }
        thread::sleep(Duration::from_secs(1));
    });
}

#[test]
fn watchdog_passes_slow_but_steady_work() {
    // Each step takes less than the window, the whole run several
    // windows: only a flat counter counts as a wedge, not total time.
    progressing(Duration::from_millis(500), "slow", |progress| {
        for _ in 0..20 {
            thread::sleep(Duration::from_millis(50));
            bump(progress);
        }
    });
}

#[test]
fn lone_thread_completes_unaided() {
    // One thread in a stack sized for many: it must become freezer and
    // combiner of every batch it opens, with nobody to eliminate with.
    progressing(Duration::from_secs(30), "lone thread", |progress| {
        let stack: SecStack<u64> = SecStack::with_config(SecConfig::new(2, 8));
        let mut h = stack.register();
        for i in 0..20_000 {
            h.push(i);
            assert_eq!(h.pop(), Some(i));
            bump(progress);
        }
    });
}

#[test]
fn pop_on_empty_returns_none_immediately() {
    progressing(Duration::from_secs(10), "empty pop", |progress| {
        let stack: SecStack<u64> = SecStack::with_config(SecConfig::new(2, 4));
        let mut h = stack.register();
        for _ in 0..1_000 {
            assert_eq!(h.pop(), None);
            bump(progress);
        }
    });
}

#[test]
fn registered_but_idle_threads_stall_nobody() {
    // Three threads register (occupying reclamation slots and, for two
    // of them, aggregator positions) and then go to sleep without ever
    // announcing an operation. The fourth must finish its work — if any
    // wait loop keyed on *registered* rather than *announced* threads,
    // this would wedge.
    progressing(Duration::from_secs(30), "idle threads", |progress| {
        let stack: SecStack<u64> = SecStack::with_config(SecConfig::new(2, 4));
        let stop = AtomicBool::new(false);
        thread::scope(|scope| {
            for _ in 0..3 {
                let stack = &stack;
                let stop = &stop;
                scope.spawn(move || {
                    let _h = stack.register(); // register, never operate
                    while !stop.load(Ordering::Relaxed) {
                        thread::sleep(Duration::from_millis(5));
                    }
                });
            }
            let stack = &stack;
            let stop = &stop;
            scope.spawn(move || {
                let mut h = stack.register();
                for i in 0..10_000u64 {
                    h.push(i);
                    assert_eq!(h.pop(), Some(i));
                    bump(progress);
                }
                stop.store(true, Ordering::Relaxed);
            });
        });
    });
}

#[test]
fn aggregators_are_independent() {
    // All activity in one aggregator; the other aggregator's threads
    // never show up. With K = 2 and 4 slots, tids {0,1} share one
    // aggregator under block sharding — run exactly those two and
    // leave the other aggregator permanently empty.
    progressing(
        Duration::from_secs(30),
        "single-aggregator activity",
        |progress| {
            let stack: SecStack<u64> = SecStack::with_config(SecConfig::new(2, 4));
            thread::scope(|scope| {
                for t in 0..2u64 {
                    let stack = &stack;
                    scope.spawn(move || {
                        let mut h = stack.register();
                        for i in 0..5_000 {
                            h.push(t * 1_000_000 + i);
                            let _ = h.pop();
                            bump(progress);
                        }
                    });
                }
            });
        },
    );
}

#[test]
fn all_stacks_complete_fixed_work_oversubscribed() {
    // 4× the host's hardware threads, every implementation. The SEC
    // waits (freeze, isBatchApplied, elimination slot) and the FC/CC
    // combiner waits must all degrade to yields for this to finish.
    let threads = 4 * std::thread::available_parallelism().map_or(1, |n| n.get());
    with_all_stacks!(threads, |stack, name| {
        progressing(Duration::from_secs(60), name, |progress| {
            thread::scope(|scope| {
                for t in 0..threads {
                    let stack = &stack;
                    scope.spawn(move || {
                        let mut h = stack.register();
                        for i in 0..300u64 {
                            h.push((t as u64) << 32 | i);
                            if i % 2 == 0 {
                                let _ = h.pop();
                            }
                            bump(progress);
                        }
                    });
                }
            });
        });
    });
}

#[test]
fn extensions_share_the_liveness_properties() {
    use sec_repro::ext::SecQueue;
    progressing(Duration::from_secs(30), "queue liveness", |progress| {
        // Dequeue on empty must return None promptly even though the
        // combiner holds a rendezvous window open for elimination —
        // the window is bounded (DESIGN.md §9).
        let queue: SecQueue<u64> = SecQueue::new(2);
        let mut q = queue.register();
        for _ in 0..500 {
            assert_eq!(q.dequeue(), None);
            bump(progress);
        }
        q.enqueue(1);
        assert_eq!(q.dequeue(), Some(1));
    });
}

#[test]
fn lone_thread_counter_completes_unaided() {
    use sec_repro::ext::SecCounter;
    // The homogeneous engine instantiation: one thread must become
    // freezer and combiner of every batch it opens, with the add lane
    // permanently empty — the pure-engine liveness path.
    progressing(Duration::from_secs(30), "lone counter thread", |progress| {
        let counter = SecCounter::new(8);
        let mut h = counter.register();
        for i in 0..20_000 {
            assert_eq!(h.increment(), i);
            bump(progress);
        }
        assert_eq!(counter.load(), 20_000);
    });
}

#[test]
fn counter_completes_fixed_work_oversubscribed() {
    // 4× the host's hardware threads through one counter: the engine's
    // freeze wait and publish wait must degrade to yields/parking for
    // this to finish, with no family-specific code to help.
    let threads = 4 * std::thread::available_parallelism().map_or(1, |n| n.get());
    let counter = sec_repro::ext::SecCounter::with_config(
        SecConfig::new(2, threads).wait_policy(sec_repro::WaitPolicy::spin_then_park()),
    );
    progressing(
        Duration::from_secs(60),
        "oversubscribed counter",
        |progress| {
            thread::scope(|scope| {
                for _ in 0..threads {
                    let counter = &counter;
                    scope.spawn(move || {
                        let mut h = counter.register();
                        for _ in 0..300 {
                            h.increment();
                            bump(progress);
                        }
                    });
                }
            });
        },
    );
    assert_eq!(counter.load(), (threads * 300) as u64);
}

#[test]
fn lone_thread_queue_completes_unaided() {
    use sec_repro::ext::SecQueue;
    // One thread is freezer and combiner of every batch it opens, on
    // both ends; nobody exists to eliminate or combine with.
    progressing(Duration::from_secs(30), "lone queue thread", |progress| {
        let queue: SecQueue<u64> = SecQueue::new(8);
        let mut h = queue.register();
        for i in 0..20_000 {
            h.enqueue(i);
            assert_eq!(h.dequeue(), Some(i));
            bump(progress);
        }
    });
}

#[test]
fn lone_thread_map_completes_unaided() {
    use sec_repro::ext::SecMap;
    // The keyed instantiation: one thread is freezer and combiner of
    // every batch it opens, across whatever shard its keys route to.
    progressing(Duration::from_secs(30), "lone map thread", |progress| {
        let map: SecMap<u64, u64> = SecMap::new(8);
        let mut h = map.register();
        for i in 0..20_000u64 {
            let key = i % 512;
            assert_eq!(h.get(&key), None);
            assert_eq!(h.insert(key, i), None);
            assert_eq!(h.remove(&key), Some(i));
            bump(progress);
        }
        assert!(map.is_empty());
    });
}

#[test]
fn map_completes_fixed_work_oversubscribed() {
    // 4× the host's hardware threads through one map: the freeze wait
    // and publish wait must degrade to yields/parking, and the final
    // contents must still balance.
    let threads = 4 * std::thread::available_parallelism().map_or(1, |n| n.get());
    let map = sec_repro::ext::SecMap::with_config(
        SecConfig::new(2, threads + 1).wait_policy(sec_repro::WaitPolicy::spin_then_park()),
    );
    progressing(Duration::from_secs(60), "oversubscribed map", |progress| {
        thread::scope(|scope| {
            for t in 0..threads {
                let map = &map;
                scope.spawn(move || {
                    let mut h = map.register();
                    for i in 0..300u64 {
                        let key = (t as u64) << 16 | i; // thread-private keys
                        h.insert(key, i);
                        if i % 2 == 0 {
                            assert_eq!(h.remove(&key), Some(i));
                        }
                        bump(progress);
                    }
                });
            }
        });
    });
    assert_eq!(map.len(), threads * 150, "each thread leaves 150 keys");
}
