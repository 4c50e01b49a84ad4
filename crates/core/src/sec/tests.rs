//! Unit tests for the SEC stack: sequential semantics, concurrent
//! conservation, elimination accounting, memory hygiene.

use crate::{ConcurrentStack, RecyclePolicy, SecConfig, SecStack, ShardPolicy, StackHandle};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

#[test]
fn sequential_lifo_order() {
    let s: SecStack<u32> = SecStack::new(1);
    let mut h = s.register();
    for i in 0..100 {
        h.push(i);
    }
    for i in (0..100).rev() {
        assert_eq!(h.pop(), Some(i));
    }
    assert_eq!(h.pop(), None);
}

#[test]
fn pop_on_empty_returns_none_repeatedly() {
    let s: SecStack<u8> = SecStack::new(1);
    let mut h = s.register();
    for _ in 0..10 {
        assert_eq!(h.pop(), None);
    }
    h.push(1);
    assert_eq!(h.pop(), Some(1));
    assert_eq!(h.pop(), None);
}

#[test]
fn peek_does_not_remove() {
    let s: SecStack<String> = SecStack::new(1);
    let mut h = s.register();
    assert_eq!(h.peek(), None);
    h.push("a".to_string());
    h.push("b".to_string());
    assert_eq!(h.peek(), Some("b".to_string()));
    assert_eq!(h.peek(), Some("b".to_string()));
    assert_eq!(h.pop(), Some("b".to_string()));
    assert_eq!(h.peek(), Some("a".to_string()));
}

#[test]
fn interleaved_push_pop_single_thread() {
    let s: SecStack<u64> = SecStack::new(1);
    let mut h = s.register();
    let mut model = Vec::new();
    // Deterministic mixed pattern, checked against a Vec model.
    for i in 0..500u64 {
        match i % 5 {
            0..=2 => {
                h.push(i);
                model.push(i);
            }
            _ => assert_eq!(h.pop(), model.pop()),
        }
    }
    while let Some(expect) = model.pop() {
        assert_eq!(h.pop(), Some(expect));
    }
    assert_eq!(h.pop(), None);
}

#[test]
fn works_with_every_aggregator_count() {
    for k in 1..=5 {
        let s: SecStack<usize> = SecStack::with_config(SecConfig::new(k, 4));
        thread::scope(|scope| {
            for t in 0..4 {
                let s = &s;
                scope.spawn(move || {
                    let mut h = s.register();
                    for i in 0..200 {
                        h.push(t * 1_000 + i);
                        assert!(h.pop().is_some());
                    }
                });
            }
        });
    }
}

#[test]
fn works_with_round_robin_sharding() {
    let s: SecStack<usize> =
        SecStack::with_config(SecConfig::new(3, 6).shard_policy(ShardPolicy::RoundRobin));
    thread::scope(|scope| {
        for t in 0..6 {
            let s = &s;
            scope.spawn(move || {
                let mut h = s.register();
                for i in 0..100 {
                    h.push(t + i);
                    h.pop();
                }
            });
        }
    });
}

#[test]
fn concurrent_conservation_no_lost_no_duplicated() {
    // Every pushed value is popped exactly once (across the run plus a
    // final drain). Values are globally unique to detect duplication.
    const THREADS: usize = 8;
    const PER_THREAD: usize = 2_000;
    let s: SecStack<usize> = SecStack::new(THREADS);
    let popped: Vec<_> = thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let s = &s;
                scope.spawn(move || {
                    let mut h = s.register();
                    let mut got = Vec::new();
                    for i in 0..PER_THREAD {
                        h.push(t * PER_THREAD + i);
                        if i % 2 == 0 {
                            if let Some(v) = h.pop() {
                                got.push(v);
                            }
                        }
                    }
                    got
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut seen: HashSet<usize> = HashSet::new();
    for v in popped.into_iter().flatten() {
        assert!(seen.insert(v), "value {v} popped twice");
    }
    // Drain the remainder single-threaded.
    let mut h = s.register();
    while let Some(v) = h.pop() {
        assert!(seen.insert(v), "value {v} popped twice (drain)");
    }
    assert_eq!(seen.len(), THREADS * PER_THREAD, "values lost");
}

#[test]
fn balanced_workload_conserves_count() {
    // Equal pushes and pops from every thread: at the end the stack
    // holds exactly (pushes - successful pops) elements.
    const THREADS: usize = 6;
    const OPS: usize = 3_000;
    let s: SecStack<usize> = SecStack::new(THREADS);
    let total_popped = AtomicUsize::new(0);
    thread::scope(|scope| {
        for t in 0..THREADS {
            let s = &s;
            let total_popped = &total_popped;
            scope.spawn(move || {
                let mut h = s.register();
                let mut pops = 0;
                for i in 0..OPS {
                    if (t + i) % 2 == 0 {
                        h.push(i);
                    } else if h.pop().is_some() {
                        pops += 1;
                    }
                }
                total_popped.fetch_add(pops, Ordering::Relaxed);
            });
        }
    });
    let mut h = s.register();
    let mut remaining = 0;
    while h.pop().is_some() {
        remaining += 1;
    }
    let pushed = THREADS * OPS / 2;
    assert_eq!(total_popped.load(Ordering::Relaxed) + remaining, pushed);
}

#[test]
fn elimination_dominates_balanced_workloads() {
    // A balanced push/pop mix must show real elimination (the paper
    // reports 70–85% on big machines). Ops are drawn pseudo-randomly:
    // a *deterministic* alternation can phase-lock whole batches into
    // the same operation type (all ops of a batch complete together, so
    // relative phases never change), which would starve elimination by
    // construction rather than by algorithmic behaviour. Every handle
    // registers before the first op: a thread that ran alone would skip
    // the batch and could finish before the next one registered.
    const THREADS: usize = 8;
    let s: SecStack<usize> = SecStack::with_config(SecConfig::new(1, THREADS));
    let registered = std::sync::Barrier::new(THREADS);
    thread::scope(|scope| {
        for t in 0..THREADS {
            let (s, registered) = (&s, &registered);
            scope.spawn(move || {
                let mut h = s.register();
                registered.wait();
                let mut x = (t as u64).wrapping_mul(0x9E37_79B9) | 1;
                for i in 0..2_000 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    if x.is_multiple_of(2) {
                        h.push(i);
                    } else {
                        h.pop();
                    }
                }
            });
        }
    });
    let r = s.stats().report();
    assert_eq!(r.eliminated + r.combined, r.ops, "accounting identity");
    assert!(r.batches > 0);
    assert!(
        r.eliminated > 0,
        "a balanced concurrent mix must eliminate some pairs: {r:?}"
    );
}

#[test]
fn measured_elimination_respects_the_model_bound() {
    // Given the batch degrees the run produced, the model's op-weighted
    // expectation is what the measured elimination fraction averages
    // to when pushes and pops land in batches independently of their
    // kind. A measurement well above it would mean the accounting
    // counts pairs that cannot exist. (The reverse gap can be large;
    // the bound is one-sided.)
    const THREADS: usize = 8;
    let s: SecStack<usize> = SecStack::with_config(SecConfig::new(1, THREADS));
    thread::scope(|scope| {
        for t in 0..THREADS {
            let s = &s;
            scope.spawn(move || {
                let mut h = s.register();
                let mut x = (t as u64).wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
                for i in 0..3_000 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    if x.is_multiple_of(2) {
                        h.push(i);
                    } else {
                        h.pop();
                    }
                }
            });
        }
    });
    let r = s.stats().report();
    let degrees = s.stats().degree_histogram();
    // One aggregator of capacity THREADS: every degree is exact.
    let predicted = crate::sec::model::predict_pct_eliminated(&degrees, 0.5)
        .expect("batches hold at most THREADS ops");
    // +6 points of slack: finite samples wobble; the invariant being
    // probed is "no impossible pairs", not a tight fit.
    assert!(
        r.pct_eliminated() <= predicted + 6.0,
        "measured {:.1}% exceeds the model's {predicted:.1}% — impossible pairs counted? {r:?}",
        r.pct_eliminated(),
    );
}

#[test]
fn push_only_workload_never_eliminates() {
    const THREADS: usize = 4;
    let s: SecStack<usize> = SecStack::new(THREADS);
    thread::scope(|scope| {
        for _ in 0..THREADS {
            let s = &s;
            scope.spawn(move || {
                let mut h = s.register();
                for i in 0..1_000 {
                    h.push(i);
                }
            });
        }
    });
    let r = s.stats().report();
    assert_eq!(r.eliminated, 0);
    assert_eq!(r.combined, r.ops);
    assert_eq!(r.ops, (THREADS * 1_000) as u64);
}

#[test]
fn values_are_dropped_exactly_once() {
    struct Payload(Arc<AtomicUsize>);
    impl Drop for Payload {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    const THREADS: usize = 4;
    const PER_THREAD: usize = 1_000;
    let drops = Arc::new(AtomicUsize::new(0));
    {
        let s: SecStack<Payload> = SecStack::new(THREADS);
        thread::scope(|scope| {
            for _ in 0..THREADS {
                let s = &s;
                let drops = &drops;
                scope.spawn(move || {
                    let mut h = s.register();
                    for i in 0..PER_THREAD {
                        h.push(Payload(Arc::clone(drops)));
                        if i % 3 == 0 {
                            drop(h.pop());
                        }
                    }
                });
            }
        });
        // Stack drops here with elements still inside.
    }
    assert_eq!(
        drops.load(Ordering::Relaxed),
        THREADS * PER_THREAD,
        "every pushed payload must be dropped exactly once"
    );
}

#[test]
fn handles_can_be_dropped_and_reregistered() {
    let s: SecStack<u32> = SecStack::new(2);
    for round in 0..5 {
        let mut h = s.register();
        h.push(round);
        assert_eq!(h.pop(), Some(round));
        drop(h);
    }
    // Capacity is 2: two live handles at once are fine.
    let _h1 = s.register();
    let _h2 = s.register();
}

#[test]
#[should_panic(expected = "more threads registered")]
fn over_registration_panics() {
    let s: SecStack<u32> = SecStack::new(1);
    let _h1 = s.register();
    let _h2 = s.register();
}

#[test]
fn trait_object_independence() {
    // The harness uses the traits generically; make sure the impls line
    // up (name, GAT handle).
    fn run<S: ConcurrentStack<u64>>(s: &S, expect_name: &str) {
        assert_eq!(s.name(), expect_name);
        let mut h = s.register();
        h.push(9);
        assert_eq!(h.pop(), Some(9));
    }
    let s: SecStack<u64> = SecStack::new(2);
    run(&s, "SEC");
}

#[test]
fn oversubscribed_stress_many_threads_few_cores() {
    // 16 threads on however few cores the host has: exercises the
    // yield-based waits (freezer, combiner, elimination partner).
    const THREADS: usize = 16;
    const OPS: usize = 500;
    let s: SecStack<usize> = SecStack::new(THREADS);
    thread::scope(|scope| {
        for t in 0..THREADS {
            let s = &s;
            scope.spawn(move || {
                let mut h = s.register();
                for i in 0..OPS {
                    if (t ^ i) % 2 == 0 {
                        h.push(i);
                    } else {
                        h.pop();
                    }
                }
            });
        }
    });
}

#[test]
fn peek_under_concurrency_returns_plausible_values() {
    const THREADS: usize = 4;
    let s: SecStack<usize> = SecStack::new(THREADS + 1);
    {
        let mut h = s.register();
        for i in 0..64 {
            h.push(i);
        }
    }
    thread::scope(|scope| {
        for _ in 0..THREADS {
            let s = &s;
            scope.spawn(move || {
                let mut h = s.register();
                for i in 0..1_000 {
                    match i % 3 {
                        0 => h.push(i),
                        1 => {
                            h.pop();
                        }
                        _ => {
                            let _ = h.peek(); // must not crash / UB
                        }
                    }
                }
            });
        }
    });
}

#[test]
fn adaptive_stack_works_and_stays_in_bounds() {
    const THREADS: usize = 8;
    // Small window: many decisions in a short test.
    let s: SecStack<usize> = SecStack::with_config(SecConfig::adaptive_windowed(1, 4, 64, THREADS));
    assert_eq!(s.active_aggregators(), 2, "starts at the paper default");
    thread::scope(|scope| {
        for t in 0..THREADS {
            let s = &s;
            scope.spawn(move || {
                let mut h = s.register();
                let mut x = (t as u64).wrapping_mul(0x9E37_79B9) | 1;
                for i in 0..3_000 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    if x.is_multiple_of(2) {
                        h.push(i);
                    } else {
                        h.pop();
                    }
                    let k = s.active_aggregators();
                    assert!((1..=4).contains(&k), "active {k} out of [1, 4]");
                }
            });
        }
    });
    let r = s.stats().report();
    assert_eq!(r.eliminated + r.combined, r.ops, "accounting identity");
}

#[test]
fn forced_resize_clamps_and_counts() {
    let s: SecStack<u64> = SecStack::with_config(SecConfig::adaptive(2, 4, 8));
    assert_eq!(s.active_aggregators(), 2);
    assert_eq!(s.set_active_aggregators(4), 4);
    assert_eq!(s.set_active_aggregators(100), 4, "clamped to max_k");
    assert_eq!(s.set_active_aggregators(0), 2, "clamped to min_k");
    let r = s.stats().report();
    assert_eq!(r.grows, 2, "2 -> 4 records one grow per step");
    assert_eq!(r.shrinks, 2, "4 -> 2 records one shrink per step");
    assert_eq!(r.resizes(), 4);

    // Fixed policies have min_k == max_k: forcing is a no-op.
    let f: SecStack<u64> = SecStack::with_config(SecConfig::new(3, 6));
    assert_eq!(f.set_active_aggregators(1), 3);
    assert_eq!(f.stats().report().resizes(), 0);
}

#[test]
fn handles_remap_after_forced_resizes() {
    // Operations interleaved with resizes keep completing and conserve
    // values; handles lazily re-map to the new active set.
    const THREADS: usize = 4;
    const PER: usize = 500;
    let s: SecStack<usize> = SecStack::with_config(SecConfig::adaptive(1, 4, THREADS));
    let popped: Vec<_> = thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let s = &s;
                scope.spawn(move || {
                    let mut h = s.register();
                    let mut got = Vec::new();
                    for i in 0..PER {
                        if i % 100 == t {
                            s.set_active_aggregators(1 + (t + i) % 4);
                        }
                        h.push(t * PER + i);
                        if i % 2 == 0 {
                            if let Some(v) = h.pop() {
                                got.push(v);
                            }
                        }
                    }
                    got
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut seen = HashSet::new();
    for v in popped.into_iter().flatten() {
        assert!(seen.insert(v), "value {v} popped twice");
    }
    let mut h = s.register();
    while let Some(v) = h.pop() {
        assert!(seen.insert(v), "value {v} popped twice (drain)");
    }
    assert_eq!(seen.len(), THREADS * PER, "values lost across resizes");
    assert!(
        s.stats().report().resizes() > 0,
        "forced transitions must be recorded"
    );
}

#[test]
fn works_with_topology_sharding() {
    let s: SecStack<usize> =
        SecStack::with_config(SecConfig::new(2, 6).shard_policy(ShardPolicy::Topology));
    thread::scope(|scope| {
        for t in 0..6 {
            let s = &s;
            scope.spawn(move || {
                let mut h = s.register();
                for i in 0..200 {
                    h.push(t + i);
                    h.pop();
                }
            });
        }
    });
}

#[test]
fn reclaim_stats_show_reclamation_progress() {
    let s: SecStack<u64> = SecStack::new(2);
    thread::scope(|scope| {
        for _ in 0..2 {
            let s = &s;
            scope.spawn(move || {
                let mut h = s.register();
                for i in 0..5_000 {
                    h.push(i);
                    h.pop();
                }
            });
        }
    });
    let st = s.reclaim_stats();
    assert!(st.retired > 0, "nodes and batches must have been retired");
    // The amortized advances should have reclaimed the bulk of it —
    // with recycling on (the default), quiesced blocks are *cached*
    // for reuse rather than freed.
    assert!(
        st.freed + st.cached > 0,
        "reclamation should make progress during the run: {st:?}"
    );
    assert!(
        st.recycle_hits > 0,
        "steady push/pop traffic must reuse recycled blocks: {st:?}"
    );
}

#[test]
fn recycling_off_reverts_to_freeing() {
    let s: SecStack<u64> = SecStack::with_config(SecConfig::new(2, 2).recycle(RecyclePolicy::Off));
    let mut h = s.register();
    for i in 0..5_000 {
        h.push(i);
        h.pop();
    }
    drop(h);
    let st = s.quiesce_reclamation(64);
    assert_eq!(st.cached, 0, "Off must never cache: {st:?}");
    assert_eq!(st.recycle_hits, 0, "Off must never hit: {st:?}");
    assert_eq!(st.recycle_misses, 0, "Off must not count misses: {st:?}");
    assert_eq!(st.pending(), 0, "quiesce drains everything: {st:?}");
    assert_eq!(st.retired, st.freed, "Off: every retiree is freed");
}

#[test]
fn push_many_pop_many_sequential_lifo() {
    let s: SecStack<u64> = SecStack::new(1);
    let mut h = s.register();
    h.push_many(&[1, 2, 3, 4, 5]);
    // The slice's last element is nearest the top, as if pushed one at
    // a time.
    assert_eq!(h.peek(), Some(5));
    let mut out = Vec::new();
    assert_eq!(h.pop_many(&mut out, 3), 3);
    assert_eq!(out, vec![5, 4, 3]);
    // Short return on a drained stack.
    assert_eq!(h.pop_many(&mut out, 10), 2);
    assert_eq!(out, vec![5, 4, 3, 2, 1]);
    assert_eq!(h.pop_many(&mut out, 4), 0);
    assert_eq!(h.pop(), None);
    // Empty slices are no-ops.
    h.push_many(&[]);
    assert_eq!(h.pop(), None);
}

#[test]
fn bulk_ops_are_counted_in_ops_not_announcements() {
    const CALLS: u64 = 50;
    const LEN: usize = 8;
    let s: SecStack<u64> = SecStack::new(1);
    let mut h = s.register();
    let mut out = Vec::new();
    for _ in 0..CALLS {
        h.push_many(&[7; LEN]);
        assert_eq!(h.pop_many(&mut out, LEN), LEN);
        out.clear();
    }
    let r = s.stats().report();
    assert_eq!(r.ops, 2 * CALLS * LEN as u64, "the freezer counts ops");
    assert_eq!(r.batches, 2 * CALLS, "one announcement (batch) per call");
}

#[test]
fn concurrent_bulk_and_single_ops_conserve_values() {
    const THREADS: usize = 6;
    const ROUNDS: usize = 120;
    const LEN: usize = 9;
    let s: SecStack<u64> = SecStack::new(THREADS);
    let popped: Vec<u64> = thread::scope(|scope| {
        (0..THREADS as u64)
            .map(|t| {
                let s = &s;
                scope.spawn(move || {
                    let mut h = s.register();
                    let mut got = Vec::new();
                    for r in 0..ROUNDS as u64 {
                        let base = (t << 32) | (r * LEN as u64);
                        let vals: Vec<u64> = (0..LEN as u64).map(|i| base + i).collect();
                        match (t + r) % 4 {
                            0 => h.push_many(&vals),
                            1 => {
                                for v in vals {
                                    h.push(v);
                                }
                            }
                            2 => {
                                h.pop_many(&mut got, LEN);
                            }
                            _ => {
                                for _ in 0..LEN {
                                    got.extend(h.pop());
                                }
                            }
                        }
                    }
                    got
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .flat_map(|j| j.join().unwrap())
            .collect()
    });
    // Drain the remainder; every pushed value must surface exactly once.
    let mut h = s.register();
    let mut rest = Vec::new();
    while h.pop_many(&mut rest, 64) > 0 {}
    let mut seen: HashSet<u64> = HashSet::new();
    for v in popped.into_iter().chain(rest) {
        assert!(seen.insert(v), "duplicate {v}");
    }
    let pushed: usize = (0..THREADS)
        .map(|t| (0..ROUNDS).filter(|r| (t + r) % 4 < 2).count() * LEN)
        .sum();
    assert_eq!(seen.len(), pushed, "values lost");
}

#[test]
fn pop_many_sees_consecutive_tops_under_concurrency() {
    // Each bulk pop must receive a *descending run* of one producer's
    // consecutive values whenever it pops from a stack built of bulk
    // pushes: blocks are spliced contiguously, so a pop_many block that
    // lands inside one push_many block observes strictly consecutive
    // descending values.
    const BLOCKS: usize = 60;
    const LEN: usize = 8;
    let s: SecStack<u64> = SecStack::new(2);
    thread::scope(|scope| {
        let s1 = &s;
        scope.spawn(move || {
            let mut h = s1.register();
            for b in 0..BLOCKS as u64 {
                let vals: Vec<u64> = (0..LEN as u64).map(|i| b * LEN as u64 + i).collect();
                h.push_many(&vals);
            }
        });
        let s2 = &s;
        scope.spawn(move || {
            let mut h = s2.register();
            let mut taken = 0usize;
            let mut tries = 0usize;
            while taken < BLOCKS * LEN && tries < 1_000_000 {
                let mut out = Vec::new();
                let n = h.pop_many(&mut out, LEN);
                taken += n;
                tries += 1;
                // Every popped run is strictly descending by 1 within a
                // producer block (aligned blocks of one producer).
                for w in out.windows(2) {
                    if w[0] % (LEN as u64) != 0 {
                        assert_eq!(w[1], w[0] - 1, "non-consecutive run: {out:?}");
                    }
                }
            }
            assert_eq!(taken, BLOCKS * LEN, "consumer drained everything");
        });
    });
}

#[test]
fn durable_stack_recovers_contents_and_order() {
    use crate::{DurablePolicy, PendingOutcome};
    const THREADS: usize = 4;
    const PER: usize = 120;
    let s = SecStack::<u64>::durable(THREADS, DurablePolicy::volatile().shards(2)).unwrap();
    thread::scope(|scope| {
        for t in 0..THREADS {
            let s = &s;
            scope.spawn(move || {
                let mut h = s.register();
                for i in 0..PER {
                    let v = (t * PER + i) as u64;
                    if i % 3 == 2 {
                        h.pop();
                    } else {
                        h.push(v);
                    }
                }
            });
        }
    });
    // Drain the live structure into a sorted multiset.
    let mut live: Vec<u64> = Vec::new();
    {
        let mut h = s.register();
        while let Some(v) = h.pop() {
            live.push(v);
        }
        // Put them back so the recovered heap still holds them (the
        // drain itself was logged).
        for &v in live.iter().rev() {
            h.push(v);
        }
    }
    live.sort_unstable();
    let heap = s.durable_heap().unwrap();
    drop(s);
    let (r, report) = SecStack::<u64>::recover(DurablePolicy::heap(heap)).unwrap();
    for h in &report.handles[..THREADS] {
        assert!(matches!(
            h.pending,
            PendingOutcome::Executed { .. } | PendingOutcome::None
        ));
    }
    // The recovered stack drains to the same multiset, in LIFO order
    // of the replayed log.
    let mut rec: Vec<u64> = Vec::new();
    let mut h = r.register();
    while let Some(v) = h.pop() {
        rec.push(v);
    }
    rec.sort_unstable();
    assert_eq!(rec, live);
}

#[test]
fn durable_stack_recovery_preserves_lifo_sequence() {
    use crate::DurablePolicy;
    let s = SecStack::<u64>::durable(1, DurablePolicy::volatile()).unwrap();
    {
        let mut h = s.register();
        for v in [10u64, 20, 30, 40] {
            h.push(v);
        }
        assert_eq!(h.pop(), Some(40));
    }
    let heap = s.durable_heap().unwrap();
    drop(s);
    let (r, report) = SecStack::<u64>::recover(DurablePolicy::heap(heap)).unwrap();
    assert_eq!(report.replayed_ops(), 5);
    let mut h = r.register();
    assert_eq!(h.pop(), Some(30));
    assert_eq!(h.pop(), Some(20));
    assert_eq!(h.pop(), Some(10));
    assert_eq!(h.pop(), None);
}

#[test]
fn durable_stack_checkpoint_export_replays_to_the_live_stack() {
    use crate::combine::durable::testing::rebuild_from_checkpoint;
    use crate::DurablePolicy;
    let s = SecStack::<u64>::durable(2, DurablePolicy::volatile().record_capacity(64)).unwrap();
    let mut h = s.register();
    for i in 0..200 {
        h.push(i);
        if i % 3 == 0 {
            h.pop();
        }
    }
    drop(h);
    let rebuilt = rebuild_from_checkpoint(&s);
    let drain = |s: &SecStack<u64>| {
        let mut h = s.register();
        std::iter::from_fn(|| h.pop()).collect::<Vec<_>>()
    };
    let live = drain(&s);
    assert_eq!(live.len(), 200 - 67);
    assert_eq!(
        drain(&rebuilt),
        live,
        "bottom-to-top pushes rebuild the order"
    );
}

#[test]
fn durable_stack_bulk_ops_route_through_the_log() {
    use crate::DurablePolicy;
    let s = SecStack::<u64>::durable(2, DurablePolicy::volatile()).unwrap();
    {
        let mut h = s.register();
        h.push_many(&[1, 2, 3, 4, 5]);
        let mut out = Vec::new();
        assert_eq!(h.pop_many(&mut out, 2), 2);
        assert_eq!(out, vec![5, 4]);
    }
    assert_eq!(s.durable_stats().unwrap().entries, 7);
    let heap = s.durable_heap().unwrap();
    drop(s);
    let (r, _) = SecStack::<u64>::recover(DurablePolicy::heap(heap)).unwrap();
    let mut h = r.register();
    assert_eq!(h.pop(), Some(3));
}

#[test]
fn durable_stack_replay_refuses_a_diverged_or_foreign_log() {
    use crate::combine::durable::testing::{assert_corrupt, recover_forged, Entry};
    use crate::combine::durable::{opcode, Family, OpResult::*};
    let recover = |ops: &[Entry]| recover_forged(Family::Stack, 0, ops, SecStack::<u64>::recover);
    // Control: a faithful log replays.
    let s = recover(&[(opcode::PUSH, 7, 0, Unit), (opcode::PUSH, 8, 0, Unit)]).unwrap();
    assert_eq!(s.register().pop(), Some(8));
    // A pop logged as returning 7 from an empty stack.
    assert_corrupt(recover(&[(opcode::POP, 0, 0, Value(7))]), "replay diverged");
    // A push whose logged result is not the unit a push produces.
    assert_corrupt(recover(&[(opcode::PUSH, 7, 0, Empty)]), "replay diverged");
    // A queue op in a stack log.
    assert_corrupt(
        recover(&[(opcode::PUSH, 7, 0, Unit), (opcode::ENQUEUE, 8, 0, Unit)]),
        "foreign opcode",
    );
}

#[test]
fn durable_identity_is_inherited_with_the_collector_slot() {
    use crate::combine::durable::OpResult;
    use crate::{DurablePolicy, PendingOutcome};
    const N: u64 = 30;
    let s = SecStack::<u64>::durable(2, DurablePolicy::volatile()).unwrap();
    let first = {
        let mut h = s.register();
        for v in 0..N {
            if v % 3 == 2 {
                h.pop();
            } else {
                h.push(v);
            }
        }
        h.tid()
    };
    // The dropped handle freed its slot; the next registration takes
    // it, and with it the durable identity: its ops continue the
    // sequence at N + 1 instead of restarting at 1.
    let mut h = s.register();
    assert_eq!(
        h.tid(),
        first,
        "the next registration reuses the freed slot"
    );
    for v in 0..N {
        h.push(100 + v);
    }
    drop(h);
    let heap = s.durable_heap().unwrap();
    drop(s);
    let (r, report) = SecStack::<u64>::recover(DurablePolicy::heap(Arc::clone(&heap))).unwrap();
    let seqs: Vec<u64> = report
        .ops
        .iter()
        .filter(|op| op.handle as usize == first)
        .map(|op| op.op_seq)
        .collect();
    assert_eq!(seqs, (1..=2 * N).collect::<Vec<_>>());
    assert_eq!(report.handles[first].executed, 2 * N);
    assert_eq!(
        report.handles[first].pending,
        PendingOutcome::Executed {
            op_seq: 2 * N,
            result: OpResult::Unit
        }
    );
    assert!(report
        .handles
        .iter()
        .enumerate()
        .all(|(i, h)| i == first || h.executed == 0));
    // A handle on the recovered stack inherits the slot again.
    {
        let mut h = r.register();
        assert_eq!(h.tid(), first);
        h.push(1);
    }
    drop(r);
    let (_, report) = SecStack::<u64>::recover(DurablePolicy::heap(heap)).unwrap();
    assert_eq!(report.handles[first].executed, 2 * N + 1);
}

#[test]
fn forced_lone_ops_overlap_batched_ops_and_conserve_values() {
    // Thread 0 calls the lone route directly, whatever the live-handle
    // evidence says, while the other threads run batched ops on the
    // same stack: the overlap DESIGN.md §12 "Lone operations" argues is
    // safe, forced on every op instead of left to a registration race.
    use crate::combine::{Lane, Role};
    use crate::sec::node::Node;
    use std::sync::Barrier;

    const THREADS: usize = 4;
    const PER: usize = 3_000;
    let stack: SecStack<u64> = SecStack::with_config(SecConfig::new(1, THREADS));
    // Every handle is registered before the first op and kept until the
    // last, so the batched threads never see a lone handle themselves.
    let registered = Barrier::new(THREADS);
    let finished = Barrier::new(THREADS);
    let (pushed, popped) = thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (stack, registered, finished) = (&stack, &registered, &finished);
                s.spawn(move || {
                    let mut h = stack.register();
                    registered.wait();
                    let (mut pushed, mut popped) = ((0u64, 0u64), (0u64, 0u64));
                    for i in 0..PER {
                        let v = (t * PER + i) as u64 + 1;
                        let got = match (i % 3 < 2, t) {
                            (true, 0) => {
                                let node = Node::alloc_with(&h.reclaim, v);
                                let lane = &mut Lane::Mapped(&mut h.state);
                                let out =
                                    stack.run_alone(lane, Role::Add, node, 1, &h.reclaim, None);
                                assert_eq!(out, Ok(None), "the stack has a lone path");
                                None
                            }
                            (true, _) => {
                                h.push(v);
                                None
                            }
                            (false, 0) => stack
                                .run_alone(
                                    &mut Lane::Mapped(&mut h.state),
                                    Role::Remove,
                                    core::ptr::null_mut(),
                                    1,
                                    &h.reclaim,
                                    None,
                                )
                                .expect("the stack has a lone path"),
                            (false, _) => h.pop(),
                        };
                        if i % 3 < 2 {
                            pushed = (pushed.0 + 1, pushed.1 + v);
                        } else if let Some(v) = got {
                            popped = (popped.0 + 1, popped.1 + v);
                        }
                    }
                    finished.wait();
                    (pushed, popped)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap())
            .fold(((0, 0), (0, 0)), |(a, b), (p, q)| {
                ((a.0 + p.0, a.1 + p.1), (b.0 + q.0, b.1 + q.1))
            })
    });

    // Conservation: what is left is exactly what was pushed and not
    // popped, by count and by sum.
    let mut h = stack.register();
    let mut left = (0u64, 0u64);
    while let Some(v) = h.pop() {
        left = (left.0 + 1, left.1 + v);
    }
    drop(h);
    assert_eq!(left, (pushed.0 - popped.0, pushed.1 - popped.1));

    // Exact tallies: thread 0's ops — and only those — are lone, and
    // every op of the run is in exactly one batch.
    let r = stack.stats().report();
    let drain_ops = left.0 + 1;
    assert_eq!(r.ops, (THREADS * PER) as u64 + drain_ops, "{r:?}");
    assert_eq!(r.alone, PER as u64 + drain_ops, "{r:?}");
    assert_eq!(r.eliminated + r.combined, r.ops, "{r:?}");
    assert_eq!(stack.stats().degree_histogram().count(), r.batches);
    assert!(r.batches > r.alone, "the batch path ran too: {r:?}");
}
