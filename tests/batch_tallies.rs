//! Integration: the freezer's per-slot batch tallies stay exact, its
//! backoff spins only where a late partner pays, and it yields only on
//! evidence of oversubscription.
//!
//! Each registry slot's batch counters have a single writer (the
//! slot's owner, for the batches it froze) and are summed on report, so
//! no count may be lost or doubled whatever the thread count: every op
//! issued belongs to exactly one frozen batch, is either eliminated or
//! combined, and every batch leaves one degree sample. A lone handle's
//! ops skip the batch (DESIGN.md §12 "Lone operations") and are tallied
//! as degree-1 batches on the handle's registry slot, so the same
//! identities hold.

use sec_repro::durable::DurablePolicy;
use sec_repro::ext::{SecCounter, SecMap, SecQueue};
use sec_repro::{BatchReport, SecConfig, SecStack, SecStats};
use std::sync::Barrier;
use std::thread;

const THREADS: usize = 4;
const OPS: usize = 5_000;

/// The exactness identities, against the op weight the test issued.
fn assert_exact(name: &str, stats: &SecStats, issued: u64) {
    let r: BatchReport = stats.report();
    assert_eq!(r.ops, issued, "{name}: every issued op is in one batch");
    assert_eq!(r.eliminated + r.combined, r.ops, "{name}: {r:?}");
    assert_eq!(
        stats.degree_histogram().count(),
        r.batches,
        "{name}: one degree sample per batch"
    );
    assert!(r.batches > 0 && r.batches <= r.ops, "{name}: {r:?}");
}

/// Runs `THREADS` workers of `OPS` stack ops each (2:1 push:pop) and
/// returns the ops issued.
fn drive_stack(stack: &SecStack<u64>) -> u64 {
    thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                let mut h = stack.register();
                for i in 0..OPS {
                    if (t + i) % 3 < 2 {
                        h.push(i as u64);
                    } else {
                        let _ = h.pop();
                    }
                }
            });
        }
    });
    (THREADS * OPS) as u64
}

#[test]
fn stack_tallies_stay_exact_across_two_aggregators() {
    let stack: SecStack<u64> = SecStack::with_config(SecConfig::new(2, THREADS));
    let issued = drive_stack(&stack);
    assert_exact("K=2 stack", stack.stats(), issued);
}

#[test]
fn durable_stack_tallies_stay_exact() {
    let policy = DurablePolicy::volatile().record_capacity(4 * THREADS * OPS);
    let stack = SecStack::durable(THREADS, policy).expect("volatile durable stack");
    let issued = drive_stack(&stack);
    assert_exact("durable stack", stack.stats(), issued);
}

#[test]
fn queue_tallies_stay_exact_over_fixed_ends_and_the_bulk_aggregator() {
    let queue: SecQueue<u64> = SecQueue::new(THREADS);
    // Each op's weight: a bulk enqueue of three values counts three.
    let issued: u64 = thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let queue = &queue;
                s.spawn(move || {
                    let mut h = queue.register();
                    let mut weight = 0u64;
                    for i in 0..OPS as u64 {
                        match (t as u64 + i) % 4 {
                            0 => {
                                h.enqueue_many(&[i, i + 1, i + 2]);
                                weight += 3;
                            }
                            1 => {
                                h.enqueue(i);
                                weight += 1;
                            }
                            _ => {
                                let _ = h.dequeue();
                                weight += 1;
                            }
                        }
                    }
                    weight
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    });
    assert_exact("queue", queue.stats(), issued);
    assert_eq!(
        queue.stats().report().eliminated,
        0,
        "queue batches never pair"
    );
}

/// Ops a lone handle runs in the lone-path tests.
const LONE_OPS: u64 = 4_000;

/// `n` alternating pushes and pops on one handle, the only one live.
fn lone_stack_ops(stack: &SecStack<u64>, n: u64) {
    let mut h = stack.register();
    for i in 0..n {
        if i % 2 == 0 {
            h.push(i);
        } else {
            let _ = h.pop();
        }
    }
}

/// Every one of `n` ops took the lone path: one degree-1, combined
/// batch each, and no freezer ran to spend a yield.
fn assert_all_alone(name: &str, stats: &SecStats, n: u64) {
    let r = stats.report();
    assert_eq!((r.alone, r.batches, r.ops), (n, n, n), "{name}: {r:?}");
    assert_eq!((r.eliminated, r.combined), (0, n), "{name}: {r:?}");
    assert_eq!(r.backoff_yields, 0, "{name}: {r:?}");
    let degrees = stats.degree_histogram();
    assert_eq!(degrees.count(), n, "{name}: one degree sample per op");
    assert_eq!((degrees.min(), degrees.max()), (1, 1), "{name}");
}

#[test]
fn a_lone_stack_handle_runs_every_op_alone() {
    let stack: SecStack<u64> = SecStack::with_config(SecConfig::new(2, 4).freezer_yields(1000));
    lone_stack_ops(&stack, LONE_OPS);
    assert_all_alone("lone stack", stack.stats(), LONE_OPS);
}

#[test]
fn a_lone_counter_handle_runs_every_op_alone() {
    let counter = SecCounter::with_config(SecConfig::new(2, 4).freezer_yields(1000));
    let mut h = counter.register();
    for i in 0..LONE_OPS {
        assert_eq!(h.fetch_add(1), i);
    }
    drop(h);
    assert_eq!(counter.load(), LONE_OPS);
    assert_all_alone("lone counter", counter.stats(), LONE_OPS);
}

#[test]
fn a_lone_durable_stack_handle_still_logs_every_op() {
    let policy = DurablePolicy::volatile().record_capacity(4 * LONE_OPS as usize);
    let stack = SecStack::durable(4, policy).expect("volatile durable stack");
    lone_stack_ops(&stack, LONE_OPS);
    let r = stack.stats().report();
    assert_eq!(r.alone, 0, "durable ops must reach the log: {r:?}");
    assert_exact("lone durable stack", stack.stats(), LONE_OPS);
    assert_eq!(stack.durable_stats().expect("durable").entries, LONE_OPS);
}

#[test]
fn lone_handle_never_yields_in_the_freezer() {
    // A yield budget that an unconditional per-batch backoff would
    // spend 10^7 times over 10k ops. Single ops of a lone handle skip
    // the freezer, so 1k bulk calls per side keep it on the path: they
    // still announce, on the bulk aggregators.
    let stack: SecStack<u64> = SecStack::with_config(SecConfig::new(1, 4).freezer_yields(1000));
    let mut h = stack.register();
    for i in 0..10_000u64 {
        if i % 2 == 0 {
            h.push(i);
        } else {
            let _ = h.pop();
        }
    }
    let mut out = Vec::new();
    for i in 0..1_000u64 {
        h.push_many(&[i, i]);
        h.pop_many(&mut out, 2);
    }
    let r = stack.stats().report();
    assert_eq!(r.ops, 14_000);
    assert_eq!(r.batches - r.alone, 2_000, "every bulk call froze a batch");
    assert_eq!(r.backoff_yields, 0, "nobody can join a lone thread's batch");
}

#[test]
fn oversubscribed_freezers_spend_their_yields() {
    // Twice the hardware threads on one aggregator, no spin window: a
    // freezer whose batch is short has only its yields left, and with
    // more live handles than hardware threads it must spend them.
    let threads = 2 * sec_repro::sync::topology::hardware_threads().max(2);
    let stack: SecStack<u64> = SecStack::with_config(SecConfig::new(1, threads).freezer_backoff(0));
    // Every handle is live before the first op, so no early starter
    // runs its ops as a lone thread.
    let registered = Barrier::new(threads);
    thread::scope(|s| {
        for t in 0..threads {
            let (stack, registered) = (&stack, &registered);
            s.spawn(move || {
                let mut h = stack.register();
                registered.wait();
                for i in 0..500 {
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
    assert_eq!(r.ops, (threads * 500) as u64);
    assert!(r.backoff_yields > 0, "no yield at {threads} threads: {r:?}");
}

/// The freezer spin window of the spin-gate tests: four times the
/// default, so a freezer that spins where it should not shows plainly.
const WINDOW: u32 = 64;

/// Ops the working handle runs in the spin-gate tests.
const GATE_OPS: u64 = 200;

/// One aggregator for the mapped families (so both handles share it),
/// the [`WINDOW`] spin and no yields.
fn spin_only() -> SecConfig {
    SecConfig::new(1, 4)
        .freezer_backoff(WINDOW)
        .freezer_yields(0)
}

/// Each of the `GATE_OPS` measured ops froze its own degree-1 batch,
/// having spent `spins` pauses and no yield.
fn assert_spins_per_batch(name: &str, stats: &SecStats, spins: u64) {
    let r = stats.report();
    assert_eq!(
        (r.alone, r.batches, r.ops),
        (0, GATE_OPS, GATE_OPS),
        "{name}: {r:?}"
    );
    let degrees = stats.degree_histogram();
    assert_eq!((degrees.min(), degrees.max()), (1, 1), "{name}: {r:?}");
    assert_eq!(r.backoff_spins, spins * GATE_OPS, "{name}: {r:?}");
    assert_eq!(r.backoff_yields, 0, "{name}: {r:?}");
}

// In each spin-gate test a second handle is registered and stays idle
// through the measured ops, so two announcers stay possible and every
// freezer's batch is short. Only the spin gate then decides whether
// the freezer waits out its window. The counter's and the queue's
// gates are sec-core unit tests (`counter::tests`, `queue::tests`): an
// op of theirs whose lane is idle skips the batch, so from the public
// API a lone thread never reaches their freezers.

#[test]
fn a_map_get_freezes_without_spinning() {
    // A single-key `get` whose bucket lock is free runs alone; the bulk
    // form of one key announces on the same shard whatever the lock says.
    let map: SecMap<u64, u64> = SecMap::with_config(spin_only());
    let (_idle, mut h) = (map.register(), map.register());
    let mut result = [Some(0)];
    for i in 0..GATE_OPS {
        h.get_many(&[i], &mut result);
        assert_eq!(result, [None]);
    }
    assert_spins_per_batch("map get", map.stats(), 0);
}

#[test]
fn a_stack_push_spends_the_whole_window() {
    let stack: SecStack<u64> = SecStack::with_config(spin_only());
    let (_idle, mut h) = (stack.register(), stack.register());
    for i in 0..GATE_OPS {
        h.push(i);
    }
    assert_spins_per_batch("stack push", stack.stats(), u64::from(WINDOW));
}

#[test]
fn a_durable_stack_shard_spends_the_whole_window() {
    let stack = SecStack::durable_with_config(spin_only(), DurablePolicy::volatile())
        .expect("volatile durable stack");
    let (_idle, mut h) = (stack.register(), stack.register());
    for i in 0..GATE_OPS {
        h.push(i);
    }
    assert_spins_per_batch("durable stack push", stack.stats(), u64::from(WINDOW));
}

#[test]
fn a_durable_shard_waits_for_no_handle_of_another_shard() {
    // Two shards over `slots` registry slots; the handles take the
    // lowest slots, so the last one is alone on the second shard (the
    // 4-thread `durable_bench` geometry: slots 0-2 on shard 0, 3-4 on
    // shard 1). Its freezer has no one to wait for.
    for (slots, handles) in [(2, 2), (5, 4)] {
        let config = SecConfig::new(1, slots)
            .freezer_backoff(WINDOW)
            .freezer_yields(0);
        let stack = SecStack::durable_with_config(config, DurablePolicy::volatile().shards(2))
            .expect("volatile durable stack");
        let mut hs: Vec<_> = (0..handles).map(|_| stack.register()).collect();
        let h = hs.last_mut().expect("a handle");
        for i in 0..GATE_OPS {
            h.push(i);
        }
        assert_spins_per_batch(
            &format!("durable shard 1 of {slots} slots"),
            stack.stats(),
            0,
        );
    }
}
