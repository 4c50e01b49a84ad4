//! Integration: value conservation under concurrency — for all six
//! stacks (every pushed value is popped exactly once, run + drain, none
//! invented, none lost), for the queue family (the same contract over
//! enqueue/dequeue), for the combining counter (observed pre-values
//! must form the exact prefix-sum chain of the operands), and for the
//! combining map (every inserted value exits exactly once — displaced,
//! removed, or drained).

mod common;

use sec_repro::{ConcurrentQueue, ConcurrentStack, QueueHandle, StackHandle};
use std::collections::HashSet;
use std::sync::Barrier;
use std::thread;

/// Generic conservation scenario: `threads` workers each push unique
/// values and pop opportunistically; afterwards the drain must account
/// for exactly the multiset difference. Every worker registers before
/// the first op, so the workers overlap: a SEC handle that ran alone
/// would skip the batch protocol and could finish before the next
/// worker registered.
fn conservation<S: ConcurrentStack<u64>>(stack: &S, name: &str, threads: usize, per: usize) {
    let registered = Barrier::new(threads);
    let popped: Vec<Vec<u64>> = thread::scope(|scope| {
        (0..threads)
            .map(|t| {
                let (stack, registered) = (&stack, &registered);
                scope.spawn(move || {
                    let mut h = stack.register();
                    registered.wait();
                    let mut got = Vec::new();
                    for i in 0..per {
                        h.push((t * per + i) as u64);
                        if i % 3 != 0 {
                            if let Some(v) = h.pop() {
                                got.push(v);
                            }
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
        assert!(seen.insert(v), "[{name}] value {v} popped twice during run");
    }
    let mut h = stack.register();
    while let Some(v) = h.pop() {
        assert!(seen.insert(v), "[{name}] value {v} popped twice in drain");
    }
    assert_eq!(
        seen.len(),
        threads * per,
        "[{name}] values lost: expected {} distinct pops",
        threads * per
    );
    assert_eq!(h.pop(), None, "[{name}] stack must end empty");
}

#[test]
fn all_stacks_conserve_values_4_threads() {
    with_all_stacks!(5, |stack, name| {
        conservation(&stack, name, 4, 1_500);
    });
}

#[test]
fn all_stacks_conserve_values_oversubscribed() {
    // More threads than this host has cores — exercises every blocking
    // wait path under forced descheduling.
    with_all_stacks!(13, |stack, name| {
        conservation(&stack, name, 12, 400);
    });
}

#[test]
fn sec_adaptive_conserves_values_under_forced_resizes() {
    // The generic scenario, on an elastic stack whose active aggregator
    // set is grown and shrunk throughout the run: re-mapping must never
    // lose, duplicate or invent a value, and the resize counters must
    // prove the transitions actually happened.
    use sec_repro::{SecConfig, SecStack};
    use std::sync::atomic::{AtomicBool, Ordering};

    const THREADS: usize = 6;
    const PER: usize = 1_000;
    let stack: SecStack<u64> =
        SecStack::with_config(SecConfig::adaptive_windowed(1, 4, 64, THREADS + 1));
    let done = AtomicBool::new(false);

    thread::scope(|scope| {
        let stack = &stack;
        let done = &done;
        scope.spawn(move || {
            let mut k = 1usize;
            while !done.load(Ordering::Acquire) {
                stack.set_active_aggregators(k);
                k = k % 4 + 1;
                thread::yield_now();
            }
        });
        conservation(stack, "SEC_Adaptive", THREADS, PER);
        done.store(true, Ordering::Release);
    });

    let r = stack.stats().report();
    assert!(
        r.grows > 0 && r.shrinks > 0,
        "both transition directions must be exercised: {r:?}"
    );
    let active = stack.active_aggregators();
    assert!((1..=4).contains(&active), "active {active} out of [1, 4]");
}

/// Queue-family conservation: no value invented, lost, or dequeued
/// twice (run + drain), mirroring the stack scenario above.
fn queue_conservation<Q: ConcurrentQueue<u64>>(queue: &Q, name: &str, threads: usize, per: usize) {
    let dequeued: Vec<Vec<u64>> = thread::scope(|scope| {
        (0..threads)
            .map(|t| {
                let queue = &queue;
                scope.spawn(move || {
                    let mut h = queue.register();
                    let mut got = Vec::new();
                    for i in 0..per {
                        h.enqueue((t * per + i) as u64);
                        if i % 3 != 0 {
                            if let Some(v) = h.dequeue() {
                                got.push(v);
                            }
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
    for v in dequeued.into_iter().flatten() {
        assert!(
            seen.insert(v),
            "[{name}] value {v} dequeued twice during run"
        );
        assert!(
            (v as usize) < threads * per,
            "[{name}] value {v} invented (never enqueued)"
        );
    }
    let mut h = queue.register();
    while let Some(v) = h.dequeue() {
        assert!(seen.insert(v), "[{name}] value {v} dequeued twice in drain");
    }
    assert_eq!(
        seen.len(),
        threads * per,
        "[{name}] values lost: expected {} distinct dequeues",
        threads * per
    );
    assert_eq!(h.dequeue(), None, "[{name}] queue must end empty");
}

/// Invokes `$body` once per queue implementation (SEC-Q with and
/// without the rendezvous window, MS, LCK-Q).
macro_rules! with_all_queues {
    ($max_threads:expr, |$queue:ident, $name:ident| $body:block) => {{
        {
            let $queue: sec_repro::ext::SecQueue<u64> = sec_repro::ext::SecQueue::new($max_threads);
            let $name = "SEC-Q";
            $body
        }
        {
            let $queue: sec_repro::ext::SecQueue<u64> =
                sec_repro::ext::SecQueue::new($max_threads).rendezvous_spins(0);
            let $name = "SEC-Q/no-rdv";
            $body
        }
        {
            let $queue: sec_repro::baselines::MsQueue<u64> =
                sec_repro::baselines::MsQueue::new($max_threads);
            let $name = "MS";
            $body
        }
        {
            let $queue: sec_repro::baselines::LockedQueue<u64> =
                sec_repro::baselines::LockedQueue::new($max_threads);
            let $name = "LCK-Q";
            $body
        }
    }};
}

#[test]
fn all_queues_conserve_values_4_threads() {
    with_all_queues!(5, |queue, name| {
        queue_conservation(&queue, name, 4, 1_500);
    });
}

#[test]
fn all_queues_conserve_values_oversubscribed() {
    with_all_queues!(13, |queue, name| {
        queue_conservation(&queue, name, 12, 400);
    });
}

#[test]
fn all_queues_agree_on_emptiness_and_fifo() {
    with_all_queues!(2, |queue, name| {
        let mut h = queue.register();
        assert_eq!(h.dequeue(), None, "[{name}] fresh queue dequeues EMPTY");
        h.enqueue(1);
        h.enqueue(2);
        assert_eq!(h.dequeue(), Some(1), "[{name}] FIFO order");
        assert_eq!(h.dequeue(), Some(2), "[{name}] FIFO order");
        assert_eq!(h.dequeue(), None, "[{name}] drained queue dequeues EMPTY");
    });
}

/// Counter conservation, exact form: with every operand ≥ 1 the
/// pre-values observed by `fetch_add` are unique, and sorting them
/// must reproduce the full prefix-sum chain of the operands — nothing
/// double-counted, nothing dropped, one linearization order for all.
fn counter_conservation(counter: &sec_repro::ext::SecCounter, threads: usize, per: usize) {
    let observed: Vec<Vec<(u64, u64)>> = thread::scope(|scope| {
        (0..threads)
            .map(|t| {
                let counter = &counter;
                scope.spawn(move || {
                    let mut h = counter.register();
                    (0..per)
                        .map(|i| {
                            let operand = 1 + ((t * per + i) % 9) as u64;
                            (h.fetch_add(operand), operand)
                        })
                        .collect()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|j| j.join().unwrap())
            .collect()
    });

    let mut pairs: Vec<(u64, u64)> = observed.into_iter().flatten().collect();
    pairs.sort_unstable();
    let mut expect = 0u64;
    for (observed, operand) in pairs {
        assert_eq!(
            observed, expect,
            "observed pre-value breaks the prefix-sum chain"
        );
        expect += operand;
    }
    assert_eq!(
        counter.load(),
        expect,
        "final value must equal the chain sum"
    );
    assert_eq!(
        counter.stats().report().eliminated,
        0,
        "homogeneous family never eliminates"
    );
}

#[test]
fn counter_conserves_the_prefix_sum_chain_4_threads() {
    let counter = sec_repro::ext::SecCounter::new(4);
    counter_conservation(&counter, 4, 1_500);
}

#[test]
fn counter_conserves_the_prefix_sum_chain_oversubscribed() {
    // More threads than this host has cores, under the elastic policy:
    // the engine's parking and re-mapping paths both run hot.
    use sec_repro::{AggregatorPolicy, SecConfig, WaitPolicy};
    let counter = sec_repro::ext::SecCounter::with_config(
        SecConfig::new(1, 12)
            .aggregator_policy(AggregatorPolicy::Adaptive {
                min_k: 1,
                max_k: 4,
                window: 64,
            })
            .wait_policy(WaitPolicy::spin_then_park()),
    );
    counter_conservation(&counter, 12, 400);
}

#[test]
fn all_stacks_agree_on_emptiness() {
    with_all_stacks!(2, |stack, name| {
        let mut h = stack.register();
        assert_eq!(h.pop(), None, "[{name}] fresh stack pops EMPTY");
        assert_eq!(h.peek(), None, "[{name}] fresh stack peeks EMPTY");
        h.push(1);
        h.push(2);
        assert_eq!(h.peek(), Some(2), "[{name}] peek sees the newest");
        assert_eq!(h.pop(), Some(2), "[{name}]");
        assert_eq!(h.pop(), Some(1), "[{name}]");
        assert_eq!(h.pop(), None, "[{name}] drained stack pops EMPTY");
    });
}

/// Map conservation, exact form: values are globally unique
/// (`tid << 40 | seq`), so every value ever inserted must leave the
/// map by exactly one exit — displaced by a later insert on its key,
/// removed by a `remove`, or still present in the end-of-run drain.
/// Counting the exits and checking the sets balance is the keyed
/// analogue of the stack's multiset identity.
fn map_conservation(map: &sec_repro::ext::SecMap<u64, u64>, threads: usize, per: usize) {
    const KEYS: u64 = 128;
    struct Tally {
        inserted: Vec<u64>,
        displaced: Vec<u64>,
        removed: Vec<u64>,
    }
    let tallies: Vec<Tally> = thread::scope(|scope| {
        (0..threads)
            .map(|t| {
                let map = &map;
                scope.spawn(move || {
                    let mut h = map.register();
                    let mut tally = Tally {
                        inserted: Vec::new(),
                        displaced: Vec::new(),
                        removed: Vec::new(),
                    };
                    for i in 0..per {
                        // Multiplicative scramble so neighbouring
                        // iterations hit distant keys (and shards).
                        let key = ((t * per + i) as u64).wrapping_mul(0x9E37_79B9) % KEYS;
                        match i % 5 {
                            0..=2 => {
                                let value = (t as u64) << 40 | i as u64;
                                tally.inserted.push(value);
                                if let Some(prev) = h.insert(key, value) {
                                    tally.displaced.push(prev);
                                }
                            }
                            3 => {
                                if let Some(v) = h.remove(&key) {
                                    tally.removed.push(v);
                                }
                            }
                            _ => {
                                let _ = h.get(&key);
                            }
                        }
                    }
                    tally
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|j| j.join().unwrap())
            .collect()
    });

    let mut inserted: HashSet<u64> = HashSet::new();
    for t in &tallies {
        for &v in &t.inserted {
            assert!(inserted.insert(v), "value {v:#x} inserted twice");
        }
    }
    let mut exited: HashSet<u64> = HashSet::new();
    for t in &tallies {
        for &v in t.displaced.iter().chain(&t.removed) {
            assert!(inserted.contains(&v), "phantom value {v:#x} left the map");
            assert!(exited.insert(v), "value {v:#x} left the map twice");
        }
    }
    let mut h = map.register();
    for key in 0..KEYS {
        if let Some(v) = h.remove(&key) {
            assert!(inserted.contains(&v), "phantom value {v:#x} in drain");
            assert!(exited.insert(v), "value {v:#x} left the map twice (drain)");
        }
    }
    assert!(map.is_empty(), "drain over the whole key space must empty");
    assert_eq!(
        exited.len(),
        inserted.len(),
        "every inserted value must be displaced, removed or drained"
    );
    assert_eq!(
        map.stats().report().eliminated,
        0,
        "keyed family never eliminates"
    );
}

#[test]
fn map_conserves_every_value_4_threads() {
    let map = sec_repro::ext::SecMap::new(5);
    map_conservation(&map, 4, 1_500);
}

#[test]
fn map_conserves_every_value_oversubscribed() {
    // More threads than this host has cores, under the elastic policy
    // with parking waits: re-mapping the bucket → shard routing while
    // threads are forcibly descheduled must not break the identity.
    use sec_repro::{AggregatorPolicy, SecConfig, WaitPolicy};
    let map = sec_repro::ext::SecMap::with_config(
        SecConfig::new(1, 13)
            .aggregator_policy(AggregatorPolicy::Adaptive {
                min_k: 1,
                max_k: 4,
                window: 64,
            })
            .wait_policy(WaitPolicy::spin_then_park()),
    );
    map_conservation(&map, 12, 400);
}

// ----------------------------------------------------------------------
// Bulk operations: the same conservation contract when whole slices
// move through single announcements (push_many/pop_many,
// enqueue_many/dequeue_many mixed freely with singles).
// ----------------------------------------------------------------------

#[test]
fn sec_stack_conserves_values_under_mixed_bulk_and_single_ops() {
    const THREADS: usize = 4;
    const ROUNDS: usize = 150;
    const LEN: usize = 8;
    let stack: sec_repro::SecStack<u64> = sec_repro::SecStack::new(THREADS + 1);
    let popped: Vec<Vec<u64>> = thread::scope(|scope| {
        (0..THREADS)
            .map(|t| {
                let stack = &stack;
                scope.spawn(move || {
                    let mut h = stack.register();
                    let mut got = Vec::new();
                    let mut buf = Vec::new();
                    let mut next = (t * 1_000_000) as u64;
                    for r in 0..ROUNDS {
                        match (t + r) % 4 {
                            0 => {
                                let vals: Vec<u64> = (0..LEN as u64).map(|i| next + i).collect();
                                next += LEN as u64;
                                h.push_many(&vals);
                            }
                            1 => {
                                h.push(next);
                                next += 1;
                            }
                            2 => {
                                h.pop_many(&mut buf, LEN);
                                got.append(&mut buf);
                            }
                            _ => {
                                if let Some(v) = h.pop() {
                                    got.push(v);
                                }
                            }
                        }
                    }
                    (got, next - (t * 1_000_000) as u64)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|j| {
                let (got, _) = j.join().unwrap();
                got
            })
            .collect()
    });

    let mut seen: HashSet<u64> = HashSet::new();
    let mut total_popped = 0usize;
    for v in popped.into_iter().flatten() {
        assert!(seen.insert(v), "value {v} popped twice during run");
        total_popped += 1;
    }
    let mut h = stack.register();
    let mut buf = Vec::new();
    loop {
        // Drain with bulk pops so the drain path itself is bulk.
        if h.pop_many(&mut buf, LEN) == 0 {
            break;
        }
        for v in buf.drain(..) {
            assert!(seen.insert(v), "value {v} popped twice in drain");
            total_popped += 1;
        }
    }
    // Every thread's pushed count is derivable from its round pattern,
    // but the multiset identity is what matters: everything pushed came
    // back exactly once.
    assert_eq!(seen.len(), total_popped);
    let pushed_total: usize = (0..THREADS)
        .map(|t| {
            (0..ROUNDS)
                .map(|r| match (t + r) % 4 {
                    0 => LEN,
                    1 => 1,
                    _ => 0,
                })
                .sum::<usize>()
        })
        .sum();
    assert_eq!(
        seen.len(),
        pushed_total,
        "values lost: popped {} of {} pushed",
        seen.len(),
        pushed_total
    );
}

#[test]
fn sec_queue_conserves_values_under_mixed_bulk_and_single_ops() {
    const THREADS: usize = 4;
    const ROUNDS: usize = 150;
    const LEN: usize = 8;
    let queue: sec_repro::ext::SecQueue<u64> = sec_repro::ext::SecQueue::new(THREADS + 1);
    let popped: Vec<Vec<u64>> = thread::scope(|scope| {
        (0..THREADS)
            .map(|t| {
                let queue = &queue;
                scope.spawn(move || {
                    let mut h = queue.register();
                    let mut got = Vec::new();
                    let mut buf = Vec::new();
                    let mut next = (t * 1_000_000) as u64;
                    for r in 0..ROUNDS {
                        match (t + r) % 4 {
                            0 => {
                                let vals: Vec<u64> = (0..LEN as u64).map(|i| next + i).collect();
                                next += LEN as u64;
                                h.enqueue_many(&vals);
                            }
                            1 => {
                                h.enqueue(next);
                                next += 1;
                            }
                            2 => {
                                h.dequeue_many(&mut buf, LEN);
                                got.append(&mut buf);
                            }
                            _ => {
                                if let Some(v) = h.dequeue() {
                                    got.push(v);
                                }
                            }
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
        assert!(seen.insert(v), "value {v} dequeued twice during run");
    }
    let mut h = queue.register();
    let mut buf = Vec::new();
    while h.dequeue_many(&mut buf, LEN) != 0 {
        for v in buf.drain(..) {
            assert!(seen.insert(v), "value {v} dequeued twice in drain");
        }
    }
    let pushed_total: usize = (0..THREADS)
        .map(|t| {
            (0..ROUNDS)
                .map(|r| match (t + r) % 4 {
                    0 => LEN,
                    1 => 1,
                    _ => 0,
                })
                .sum::<usize>()
        })
        .sum();
    assert_eq!(
        seen.len(),
        pushed_total,
        "values lost: dequeued {} of {} enqueued",
        seen.len(),
        pushed_total
    );
}
