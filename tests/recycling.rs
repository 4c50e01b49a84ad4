//! Integration: the node-recycling ABA/leak battery (DESIGN.md §10).
//!
//! Recycling reuses the memory of retired nodes and batches. The
//! classic hazard of reuse is **ABA/resurrection**: a block handed back
//! out while some thread still holds a pre-retirement pointer to it.
//! The epochs are supposed to make that impossible — a block enters a
//! free list only once no pinned thread can still reference it, the
//! same fence that made *freeing* safe. This suite attacks exactly that
//! claim:
//!
//! * a reclaim-level regression test pins a reader across the
//!   retirement and asserts the block cannot resurface until the
//!   reader unpins — and that it *does* resurface (same address)
//!   afterwards, proving the recycling path is live;
//! * stack and queue churn tests recycle nodes across epochs
//!   mid-traversal (stack `pop`/`peek` vs reuse, queue `head.next`
//!   rendezvous vs reuse) under seed-derived schedules, asserting
//!   conservation and that no resurrected value ever appears;
//! * leak-accounting tests drive every family (stack, queue, counter,
//!   map) through a conservation-style run + drain and assert the
//!   retirement identity `retired − freed − cached == 0` once the
//!   collector quiesces — recycling must not leak and must not
//!   double-account.
//!
//! Seeded tests honor the schedule-harness knobs: replay one failure
//! with `SCHEDULE_SEED=<seed> cargo test --test recycling`, widen the
//! sweep with `SCHEDULE_SEEDS=N` (the nightly CI job raises it).

use sec_repro::ext::{SecCounter, SecMap, SecQueue};
use sec_repro::reclaim::{Collector, CollectorStats, RecyclePolicy};
use sec_repro::{SecConfig, SecStack};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

const SEED_BASE: u64 = 0x00AB_A5EC;

fn sweep_seeds(default_count: u64) -> Vec<u64> {
    if let Ok(s) = std::env::var("SCHEDULE_SEED") {
        let seed = s.parse().expect("SCHEDULE_SEED must be a u64");
        return vec![seed];
    }
    let n = std::env::var("SCHEDULE_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default_count);
    (0..n).map(|i| SEED_BASE.wrapping_add(i)).collect()
}

fn replay_hint(seed: u64) -> String {
    format!("replay with: SCHEDULE_SEED={seed} cargo test --test recycling")
}

/// Tiny xorshift so the seeded tests need no RNG crate plumbing.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// A cache small enough that churn constantly overflows into the
/// global pool and refills out of it — the widest recycling surface.
const TINY_CACHE: RecyclePolicy = RecyclePolicy::PerThread { cache_cap: 4 };

// ----------------------------------------------------------------------
// ABA regression, reclaim level: the epoch fence must gate reuse.
// ----------------------------------------------------------------------

#[test]
fn epoch_fence_blocks_reuse_until_the_pinned_reader_unpins() {
    use core::alloc::Layout;
    let layout = Layout::new::<u64>();
    let collector = Collector::with_recycle(2, RecyclePolicy::PerThread { cache_cap: 8 });
    let reader = collector.register().unwrap();
    let writer = collector.register().unwrap();

    // The reader pins — from here on it may hold references to
    // anything it can still reach, including the block below.
    let pin = reader.pin();

    let block = Box::into_raw(Box::new(0xABAB_ABAB_u64));
    {
        let g = writer.pin();
        // Retire the block for recycling while the reader is pinned.
        unsafe { g.retire_recycle(block) };
    }

    // The stale pin must hold the epoch back: no amount of flushing
    // may make the block allocatable while the reader could still
    // dereference it. (This is the resurrection bug this test exists
    // to catch: a pop that reuses a node another thread is still
    // traversing.)
    let pending = writer.flush(16);
    assert_eq!(pending, 1, "the block must still be in limbo");
    assert!(
        writer.alloc_raw(layout).is_none(),
        "ABA: block resurfaced while a stale pin could still reference it"
    );

    // Reader unpins: the fence lifts, the block quiesces into the
    // writer's cache and the very same address comes back out.
    drop(pin);
    assert_eq!(writer.flush(16), 0, "unblocked flush drains the limbo bag");
    let reused = writer
        .alloc_raw(layout)
        .expect("quiesced block must be reusable");
    assert_eq!(
        reused.as_ptr().cast::<u64>(),
        block,
        "recycling must hand back the quiesced block itself"
    );
    // Hand the block back to the allocator by rebuilding the box.
    drop(unsafe { Box::from_raw(reused.as_ptr().cast::<u64>()) });

    let stats = collector.stats();
    assert_eq!(stats.retired, 1);
    assert_eq!(stats.cached, 1, "the block entered a free list");
    assert_eq!(stats.freed, 0);
    drop(reader);
    drop(writer);
}

#[test]
fn recycling_off_never_caches_or_hits() {
    use core::alloc::Layout;
    let collector = Collector::new(1); // Off by default for direct users
    let h = collector.register().unwrap();
    {
        let g = h.pin();
        unsafe { g.retire_recycle(Box::into_raw(Box::new(7_u64))) };
    }
    h.flush(16);
    assert!(h.alloc_raw(Layout::new::<u64>()).is_none());
    let stats = collector.stats();
    assert_eq!(stats.cached, 0);
    assert_eq!(stats.retired, 1);
    assert_eq!(stats.freed, 1, "Off: quiesced blocks go to the allocator");
}

// ----------------------------------------------------------------------
// ABA regression, stack level: pop/peek vs reuse under churn.
// ----------------------------------------------------------------------

/// Threads push tagged unique values and pop/peek concurrently on a
/// tiny-cache stack, so node husks recycle constantly while other
/// threads are mid-traversal. Conservation (no loss, no duplication)
/// and domain checks (no resurrected garbage observed by `peek`)
/// together assert the epoch fence held.
#[test]
fn stack_pop_and_peek_vs_reuse_churn() {
    for seed in sweep_seeds(6) {
        let mut s = seed | 1;
        let threads = 3 + (xorshift(&mut s) % 3) as usize; // 3..=5
        let per = 800 + (xorshift(&mut s) % 800) as usize;
        let stack: SecStack<u64> =
            SecStack::with_config(SecConfig::new(2, threads + 1).recycle(TINY_CACHE));

        let popped: Vec<Vec<u64>> = thread::scope(|scope| {
            (0..threads)
                .map(|t| {
                    let stack = &stack;
                    scope.spawn(move || {
                        let mut h = stack.register();
                        let mut got = Vec::new();
                        let mut x = (seed ^ t as u64) | 1;
                        for i in 0..per {
                            let v = ((t as u64) << 32) | i as u64;
                            h.push(v);
                            match xorshift(&mut x) % 4 {
                                0 | 1 => {
                                    if let Some(p) = h.pop() {
                                        got.push(p);
                                    }
                                }
                                2 => {
                                    // Mid-traversal reader: a peek holds
                                    // a pin while reading a node other
                                    // threads may pop and recycle.
                                    if let Some(p) = h.peek() {
                                        let tid = (p >> 32) as usize;
                                        assert!(
                                            tid < threads && (p & 0xFFFF_FFFF) < per as u64,
                                            "seed {seed}: peek saw resurrected garbage {p:#x}\n{}",
                                            replay_hint(seed)
                                        );
                                    }
                                }
                                _ => {}
                            }
                        }
                        got
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|j| j.join().unwrap())
                .collect()
        });

        let mut seen: HashSet<u64> = HashSet::new();
        for v in popped.into_iter().flatten() {
            assert!(
                seen.insert(v),
                "seed {seed}: value {v:#x} popped twice (node resurrected)\n{}",
                replay_hint(seed)
            );
        }
        let mut h = stack.register();
        while let Some(v) = h.pop() {
            assert!(
                seen.insert(v),
                "seed {seed}: value {v:#x} duplicated in drain\n{}",
                replay_hint(seed)
            );
        }
        drop(h);
        assert_eq!(
            seen.len(),
            threads * per,
            "seed {seed}: values lost under recycling churn\n{}",
            replay_hint(seed)
        );
        let stats = stack.reclaim_stats();
        assert!(
            stats.recycle_hits > 0,
            "seed {seed}: churn must actually exercise reuse: {stats:?}"
        );
        assert!(
            stats.recycle_overflows > 0,
            "seed {seed}: the tiny cache must overflow into the pool: {stats:?}"
        );
    }
}

// ----------------------------------------------------------------------
// ABA regression, queue level: head.next rendezvous vs reuse.
// ----------------------------------------------------------------------

/// How far the churn test's producer may run ahead of its consumer.
const CHURN_LEAD: u64 = 4;

/// Producer/consumer ping-pong around the empty state: the dequeuer
/// validates emptiness and holds the rendezvous window open on
/// `head.next` while dummies and node husks recycle underneath it. A
/// resurrected node spliced at `head.next` would surface as an invented
/// or duplicated value. The producer stays at most [`CHURN_LEAD`]
/// values ahead, so the queue stays near empty and the husks the
/// consumer retires come back to the producer while it still
/// allocates (a lone enqueue is several times cheaper than a dequeue,
/// so an unpaced producer finishes first).
#[test]
fn queue_head_rendezvous_vs_reuse_churn() {
    for seed in sweep_seeds(6) {
        let mut s = seed | 1;
        let rounds = 1_500 + (xorshift(&mut s) % 1_000);
        let spins = [16u32, 128, 256][(xorshift(&mut s) % 3) as usize];
        let queue: SecQueue<u64> =
            SecQueue::with_config(SecConfig::new(1, 3).recycle(TINY_CACHE)).rendezvous_spins(spins);
        let taken = AtomicU64::new(0);

        let consumed: Vec<u64> = thread::scope(|scope| {
            let (producer, taken) = (&queue, &taken);
            scope.spawn(move || {
                let mut h = producer.register();
                for i in 0..rounds {
                    while i > taken.load(Ordering::Acquire) + CHURN_LEAD {
                        thread::yield_now();
                    }
                    h.enqueue(i);
                }
            });
            let consumer = &queue;
            scope
                .spawn(move || {
                    let mut h = consumer.register();
                    let mut got = Vec::new();
                    while got.len() < rounds as usize {
                        if let Some(v) = h.dequeue() {
                            got.push(v);
                            taken.store(got.len() as u64, Ordering::Release);
                        }
                    }
                    got
                })
                .join()
                .unwrap()
        });

        let mut seen = HashSet::new();
        for v in &consumed {
            assert!(
                *v < rounds,
                "seed {seed}: invented value {v} (resurrected node at head.next)\n{}",
                replay_hint(seed)
            );
            assert!(
                seen.insert(*v),
                "seed {seed}: value {v} dequeued twice\n{}",
                replay_hint(seed)
            );
        }
        assert_eq!(seen.len(), rounds as usize, "seed {seed}: values lost");
        let stats = queue.reclaim_stats();
        assert!(
            stats.recycle_hits > 0,
            "seed {seed}: queue churn must reuse blocks: {stats:?}"
        );
    }
}

// ----------------------------------------------------------------------
// Leak accounting: retired − freed − cached == 0 across all families.
// ----------------------------------------------------------------------

fn assert_leak_identity(name: &str, stats: CollectorStats) {
    assert_eq!(
        stats.pending(),
        0,
        "[{name}] leak: retired {} − freed {} − cached {} != 0 ({stats:?})",
        stats.retired,
        stats.freed,
        stats.cached
    );
    assert_eq!(
        stats.retired,
        stats.freed + stats.cached,
        "[{name}] accounting identity broken: {stats:?}"
    );
}

/// Runs each family through a mixed conservation-style workload plus a
/// full drain, then quiesces the collector and checks the identity —
/// with recycling on (default), with a tiny overflowing cache, and off.
#[test]
fn leak_identity_holds_across_all_families_and_policies() {
    const THREADS: usize = 4;
    const PER: usize = 600;
    for policy in [RecyclePolicy::per_thread(), TINY_CACHE, RecyclePolicy::Off] {
        // Stack.
        {
            let stack: SecStack<u64> =
                SecStack::with_config(SecConfig::new(2, THREADS + 1).recycle(policy));
            thread::scope(|scope| {
                for t in 0..THREADS {
                    let stack = &stack;
                    scope.spawn(move || {
                        let mut h = stack.register();
                        for i in 0..PER {
                            h.push((t * PER + i) as u64);
                            if i % 3 != 0 {
                                let _ = h.pop();
                            }
                        }
                    });
                }
            });
            let mut h = stack.register();
            while h.pop().is_some() {}
            drop(h);
            assert_leak_identity(&format!("stack/{policy:?}"), stack.quiesce_reclamation(64));
        }
        // Queue.
        {
            let queue: SecQueue<u64> =
                SecQueue::with_config(SecConfig::new(1, THREADS + 1).recycle(policy));
            thread::scope(|scope| {
                for t in 0..THREADS {
                    let queue = &queue;
                    scope.spawn(move || {
                        let mut h = queue.register();
                        for i in 0..PER {
                            h.enqueue((t * PER + i) as u64);
                            if i % 3 != 0 {
                                let _ = h.dequeue();
                            }
                        }
                    });
                }
            });
            let mut h = queue.register();
            while h.dequeue().is_some() {}
            drop(h);
            assert_leak_identity(&format!("queue/{policy:?}"), queue.quiesce_reclamation(64));
        }
        // Counter.
        {
            let counter = SecCounter::with_config(SecConfig::new(2, THREADS + 1).recycle(policy));
            thread::scope(|scope| {
                for _ in 0..THREADS {
                    let counter = &counter;
                    scope.spawn(move || {
                        let mut h = counter.register();
                        for _ in 0..PER {
                            h.fetch_add(1);
                        }
                    });
                }
            });
            assert_eq!(counter.load(), (THREADS * PER) as u64);
            assert_leak_identity(
                &format!("counter/{policy:?}"),
                counter.quiesce_reclamation(64),
            );
        }
        // Map.
        {
            let map: SecMap<u64, u64> =
                SecMap::with_config(SecConfig::new(2, THREADS + 1).recycle(policy));
            thread::scope(|scope| {
                for t in 0..THREADS {
                    let map = &map;
                    scope.spawn(move || {
                        let mut h = map.register();
                        for i in 0..PER {
                            let key = ((t * PER + i) % 64) as u64;
                            if i % 3 != 0 {
                                h.insert(key, i as u64);
                            } else {
                                let _ = h.remove(&key);
                            }
                        }
                    });
                }
            });
            assert_leak_identity(&format!("map/{policy:?}"), map.quiesce_reclamation(64));
        }
    }
}

/// A long soak on one stack: repeated run/drain cycles, identity
/// checked after every drain (the "after every conservation/soak
/// drain" clause of the satellite).
#[test]
fn leak_identity_holds_after_every_soak_drain() {
    const THREADS: usize = 3;
    let stack: SecStack<u64> =
        SecStack::with_config(SecConfig::new(2, THREADS + 1).recycle(TINY_CACHE));
    for cycle in 0..5u64 {
        // A fixed op budget per worker, not a time window: a loaded
        // host can give a 10 ms window almost no CPU, and then no
        // block is ever reused.
        thread::scope(|scope| {
            for t in 0..THREADS {
                let stack = &stack;
                scope.spawn(move || {
                    let mut h = stack.register();
                    for i in 0..=4_000u64 {
                        h.push((t as u64) << 32 | i);
                        if !i.is_multiple_of(3) {
                            let _ = h.pop();
                        }
                    }
                });
            }
        });
        let mut h = stack.register();
        while h.pop().is_some() {}
        drop(h);
        let stats = stack.quiesce_reclamation(64);
        assert_leak_identity(&format!("soak cycle {cycle}"), stats);
    }
    assert!(
        stack.reclaim_stats().recycle_hits > 0,
        "the soak must exercise reuse"
    );
}
