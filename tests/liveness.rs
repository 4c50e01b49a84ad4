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
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// Runs `f` on a watchdog: panics if it takes longer than `secs`.
/// Coarse (the test process keeps running), but converts a wedge into
/// a clean failure message instead of a CI timeout.
fn within_secs<F: FnOnce() + Send>(secs: u64, what: &str, f: F) {
    let done = AtomicBool::new(false);
    thread::scope(|scope| {
        let done = &done;
        scope.spawn(move || {
            f();
            done.store(true, Ordering::Release);
        });
        let deadline = Instant::now() + Duration::from_secs(secs);
        while !done.load(Ordering::Acquire) {
            assert!(Instant::now() < deadline, "{what}: wedged (> {secs}s)");
            thread::sleep(Duration::from_millis(10));
        }
    });
}

#[test]
fn lone_thread_completes_unaided() {
    // One thread in a stack sized for many: it must become freezer and
    // combiner of every batch it opens, with nobody to eliminate with.
    within_secs(30, "lone thread", || {
        let stack: SecStack<u64> = SecStack::with_config(SecConfig::new(2, 8));
        let mut h = stack.register();
        for i in 0..20_000 {
            h.push(i);
            assert_eq!(h.pop(), Some(i));
        }
    });
}

#[test]
fn pop_on_empty_returns_none_immediately() {
    within_secs(10, "empty pop", || {
        let stack: SecStack<u64> = SecStack::with_config(SecConfig::new(2, 4));
        let mut h = stack.register();
        for _ in 0..1_000 {
            assert_eq!(h.pop(), None);
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
    within_secs(30, "idle threads", || {
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
    within_secs(30, "single-aggregator activity", || {
        let stack: SecStack<u64> = SecStack::with_config(SecConfig::new(2, 4));
        thread::scope(|scope| {
            for t in 0..2u64 {
                let stack = &stack;
                scope.spawn(move || {
                    let mut h = stack.register();
                    for i in 0..5_000 {
                        h.push(t * 1_000_000 + i);
                        let _ = h.pop();
                    }
                });
            }
        });
    });
}

#[test]
fn all_stacks_complete_fixed_work_oversubscribed() {
    // 4× the host's hardware threads, every implementation. The SEC
    // waits (freeze, isBatchApplied, elimination slot) and the FC/CC
    // combiner waits must all degrade to yields for this to finish.
    let threads = 4 * std::thread::available_parallelism().map_or(1, |n| n.get());
    with_all_stacks!(threads, |stack, name| {
        within_secs(60, name, || {
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
    within_secs(30, "queue liveness", || {
        // Dequeue on empty must return None promptly even though the
        // combiner holds a rendezvous window open for elimination —
        // the window is bounded (DESIGN.md §9).
        let queue: SecQueue<u64> = SecQueue::new(2);
        let mut q = queue.register();
        for _ in 0..500 {
            assert_eq!(q.dequeue(), None);
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
    within_secs(30, "lone counter thread", || {
        let counter = SecCounter::new(8);
        let mut h = counter.register();
        for i in 0..20_000 {
            assert_eq!(h.increment(), i);
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
    within_secs(60, "oversubscribed counter", || {
        thread::scope(|scope| {
            for _ in 0..threads {
                let counter = &counter;
                scope.spawn(move || {
                    let mut h = counter.register();
                    for _ in 0..300 {
                        h.increment();
                    }
                });
            }
        });
    });
    assert_eq!(counter.load(), (threads * 300) as u64);
}

#[test]
fn lone_thread_queue_completes_unaided() {
    use sec_repro::ext::SecQueue;
    // One thread is freezer and combiner of every batch it opens, on
    // both ends; nobody exists to eliminate or combine with.
    within_secs(30, "lone queue thread", || {
        let queue: SecQueue<u64> = SecQueue::new(8);
        let mut h = queue.register();
        for i in 0..20_000 {
            h.enqueue(i);
            assert_eq!(h.dequeue(), Some(i));
        }
    });
}

#[test]
fn lone_thread_map_completes_unaided() {
    use sec_repro::ext::SecMap;
    // The keyed instantiation: one thread is freezer and combiner of
    // every batch it opens, across whatever shard its keys route to.
    within_secs(30, "lone map thread", || {
        let map: SecMap<u64, u64> = SecMap::new(8);
        let mut h = map.register();
        for i in 0..20_000u64 {
            let key = i % 512;
            assert_eq!(h.get(&key), None);
            assert_eq!(h.insert(key, i), None);
            assert_eq!(h.remove(&key), Some(i));
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
    within_secs(60, "oversubscribed map", || {
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
                    }
                });
            }
        });
    });
    assert_eq!(map.len(), threads * 150, "each thread leaves 150 keys");
}
