//! A combining fetch-and-add counter — the smallest full
//! instantiation of the SEC combining engine, and the classic software
//! combining demonstration (Goodman et al.'s combining tree, flat
//! combining's `fetch&add` example).
//!
//! Every `fetch_add` announces into the calling thread's aggregator
//! batch exactly like a stack pop does; the batch freezes, the seq-0
//! announcer combines: it sums the batch's operands, performs **one**
//! atomic `fetch_add` of the total on the central counter, then hands
//! each participant its private pre-sum (`base + Σ operands before
//! it`) back through its announced request, which lives on the
//! participant's own stack frame. `n` concurrent increments cost one
//! shared-memory RMW instead of `n` — the combining degree shows up in
//! [`SecStats`](crate::SecStats) as `combined / batches`, identically
//! to the stack's Table 3 instrumentation. An increment that finds
//! nobody announced in its batch skips it and makes that one RMW
//! itself (DESIGN.md §12 "Lone operations").
//!
//! The whole family is this file and its `op` module: no freezing,
//! parking, elastic re-mapping or recycling code appears here — all of
//! it is inherited from `crate::combine` (DESIGN.md §12), and so is the
//! surface every family shares. Operations ride the **remove** lane
//! (the result-bearing lane); the add lane stays permanently at zero,
//! which makes the engine's elimination test (`my_seq <
//! add_at_freeze`) vacuously false and its combiner election (`my_seq
//! == add_at_freeze`) pick exactly sequence number zero. A homogeneous
//! family degenerates out of the mixed protocol for free.

mod op;

use crate::combine::durable::opcode;
use crate::combine::{FamilyHandle, Lane, Role, Sec};
use core::sync::atomic::Ordering;
use op::{AddReq, CounterOp};

/// A linearizable combining fetch-and-add counter.
///
/// `n` threads incrementing concurrently induce *one* atomic RMW per
/// frozen batch instead of one per increment; everything else is
/// cache-local slot traffic inside the thread's aggregator. The
/// structure's shared surface is [`Sec`]'s; `eliminated` is always
/// zero in its [`stats`](Sec::stats), and `combined / batches` is the
/// counter's combining degree.
///
/// # Examples
///
/// ```
/// use sec_core::SecCounter;
///
/// let counter = SecCounter::new(4); // up to 4 threads
/// let mut h = counter.register();
/// assert_eq!(h.fetch_add(5), 0);
/// assert_eq!(h.fetch_add(1), 5);
/// assert_eq!(counter.load(), 6);
/// ```
pub type SecCounter = Sec<CounterOp>;

/// A thread's handle to a [`SecCounter`].
pub type SecCounterHandle<'a> = FamilyHandle<'a, CounterOp>;

impl SecCounter {
    /// Reads the counter. Linearizes at the load of the central word:
    /// increments whose batch has not combined yet are not visible,
    /// exactly as a `fetch_add(0)` arriving now would not see them.
    pub fn load(&self) -> u64 {
        self.op().total.load(Ordering::Acquire)
    }
}

impl SecCounterHandle<'_> {
    /// The aggregator this thread last announced to.
    pub fn aggregator(&self) -> usize {
        self.state.aggregator()
    }

    /// Atomically adds `n` and returns the counter's value immediately
    /// before this operation — the same contract as
    /// [`AtomicU64::fetch_add`](core::sync::atomic::AtomicU64::fetch_add), delivered through one combined RMW
    /// per batch.
    pub fn fetch_add(&mut self, n: u64) -> u64 {
        let eng = self.sec;
        if eng.durable_core().is_some() {
            return eng
                .run_durable(&self.reclaim, opcode::ADD, n, 0)
                .value()
                .expect("a logged add returns the previous value");
        }
        let mut req = AddReq {
            deltas: &n,
            len: 1,
            base: 0,
        };
        eng.run(
            Lane::Mapped(&mut self.state),
            Role::Remove,
            &mut req,
            &self.reclaim,
        )
        .expect("counter combiner always produces a result")
    }

    /// Convenience for `fetch_add(1)`.
    pub fn increment(&mut self) -> u64 {
        self.fetch_add(1)
    }

    /// Bulk `fetch_add`: applies every delta as consecutive atomic
    /// additions and returns the counter's value immediately before
    /// the first one. The whole slice rides **one** announcement (one
    /// sequence number, one slot) on the counter's dedicated bulk
    /// aggregator, so the protocol cost amortizes over `deltas.len()`
    /// operations, and a chunk that finds that aggregator idle skips
    /// the batch altogether; per-delta pre-values are the prefix sums
    /// off the returned base.
    ///
    /// Slices longer than the engine's per-announcement weight bound
    /// are chunked; the chunks are then individually atomic (other
    /// threads' batches may interleave between them), matching the
    /// guarantee of a plain `fetch_add` loop. An empty slice just
    /// reads the counter.
    pub fn add_many(&mut self, deltas: &[u64]) -> u64 {
        if deltas.is_empty() {
            return self.load();
        }
        if self.sec.durable_core().is_some() {
            // Durable counters make every delta an individually
            // detectable logged op; the bulk is a fold of singles
            // (chunks of a non-durable bulk may interleave with other
            // threads too, so the contract is unchanged).
            let base = self.fetch_add(deltas[0]);
            for &d in &deltas[1..] {
                self.fetch_add(d);
            }
            return base;
        }
        let mut first_base = None;
        for chunk in deltas.chunks(crate::combine::MAX_BULK_OPS) {
            let mut req = AddReq {
                deltas: chunk.as_ptr(),
                len: chunk.len(),
                base: 0,
            };
            let base = self
                .sec
                .run_weighted(
                    Lane::At(self.sec.bulk_agg(0)),
                    Role::Remove,
                    &mut req,
                    chunk.len() as u32,
                    &self.reclaim,
                )
                .expect("counter combiner always produces a result");
            first_base.get_or_insert(base);
        }
        first_base.expect("non-empty slice produced at least one chunk")
    }

    /// Reads the counter (see [`SecCounter::load`]).
    pub fn load(&self) -> u64 {
        self.sec.load()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine::durable::{DurableError, DurablePolicy, Family};
    use crate::combine::tests::{assert_spins_per_batch, spin_only, GATE_OPS};
    use crate::config::{AggregatorPolicy, RecyclePolicy, SecConfig, WaitPolicy};
    use std::sync::Arc;
    use std::thread;

    /// Adds `deltas` through the batch path, whatever the lone rule
    /// would say: on the thread's mapped aggregator, or on the bulk one
    /// with the slice's weight. Returns the request's base.
    fn batched_add(h: &mut SecCounterHandle<'_>, bulk: bool, deltas: &[u64]) -> u64 {
        let mut req = AddReq {
            deltas: deltas.as_ptr(),
            len: deltas.len(),
            base: 0,
        };
        let lane = if bulk {
            Lane::At(h.sec.bulk_agg(0))
        } else {
            Lane::Mapped(&mut h.state)
        };
        let tid = h.reclaim.slot();
        h.sec
            .run_batch(
                lane,
                Role::Remove,
                &mut req,
                deltas.len() as u32,
                &h.reclaim,
                tid,
                None,
            )
            .expect("counter combiner always produces a result")
    }

    /// Adds `deltas` through the lone route whatever the rule would
    /// say, retrying a lost CAS there instead of announcing. Returns
    /// the request's base.
    fn forced_lone_add(h: &mut SecCounterHandle<'_>, bulk: bool, deltas: &[u64]) -> u64 {
        let mut req = AddReq {
            deltas: deltas.as_ptr(),
            len: deltas.len(),
            base: 0,
        };
        loop {
            let mut lane = if bulk {
                Lane::At(h.sec.bulk_agg(0))
            } else {
                Lane::Mapped(&mut h.state)
            };
            let ops = deltas.len() as u32;
            if let Ok(base) =
                h.sec
                    .run_alone(&mut lane, Role::Remove, &mut req, ops, &h.reclaim, None)
            {
                return base.expect("a lone add returns its base");
            }
        }
    }

    #[test]
    fn forced_lone_adds_overlap_batched_adds_and_hand_out_every_value_once() {
        // Thread 0 calls the lone route directly, whatever the lane
        // says, while the other threads announce every add through the
        // batch path: the overlap DESIGN.md §12 "Lone operations"
        // argues is safe, forced on every op. Singles and three-delta
        // bulk adds alternate, so lone ops race the mapped and the
        // bulk combiners alike.
        use std::sync::Barrier;
        const THREADS: usize = 4;
        const PER: usize = 2_000;
        let counter = SecCounter::with_config(SecConfig::new(1, THREADS));
        let registered = Barrier::new(THREADS);
        let mut claimed: Vec<u64> = thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (counter, registered) = (&counter, &registered);
                    s.spawn(move || {
                        let mut h = counter.register();
                        registered.wait();
                        let mut claimed = Vec::new();
                        for i in 0..PER {
                            let bulk = i % 2 == 1;
                            let deltas: &[u64] = if bulk { &[1, 1, 1] } else { &[1] };
                            let base = if t == 0 {
                                forced_lone_add(&mut h, bulk, deltas)
                            } else {
                                batched_add(&mut h, bulk, deltas)
                            };
                            claimed.extend(base..base + deltas.len() as u64);
                        }
                        claimed
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });

        // The fetch_add contract across both paths: every value below
        // the total was handed out exactly once.
        let total = (THREADS * PER / 2 * 4) as u64;
        claimed.sort_unstable();
        assert_eq!(claimed, (0..total).collect::<Vec<_>>());
        assert_eq!(counter.load(), total);

        // Exact tallies: thread 0's ops — and only those — are lone,
        // one batch of its full weight each.
        let r = counter.stats().report();
        assert_eq!(r.ops, total, "{r:?}");
        assert_eq!(r.alone, PER as u64, "{r:?}");
        assert_eq!(r.eliminated + r.combined, r.ops, "{r:?}");
        assert_eq!(counter.stats().degree_histogram().count(), r.batches);
        assert!(r.batches > r.alone, "the batch path ran too: {r:?}");
    }

    #[test]
    fn a_counter_fetch_add_freezes_without_spinning() {
        let counter = SecCounter::with_config(spin_only());
        let (_idle, mut h) = (counter.register(), counter.register());
        for i in 0..GATE_OPS {
            assert_eq!(batched_add(&mut h, false, &[32]), 32 * i);
        }
        assert_spins_per_batch("counter fetch_add", counter.stats(), 0);
    }

    #[test]
    fn a_counter_bulk_add_freezes_without_spinning() {
        let counter = SecCounter::with_config(spin_only());
        let (_idle, mut h) = (counter.register(), counter.register());
        for _ in 0..GATE_OPS {
            batched_add(&mut h, true, &[32]);
        }
        assert_eq!(counter.load(), 32 * GATE_OPS);
        assert_spins_per_batch("counter add_many", counter.stats(), 0);
    }

    #[test]
    fn sequential_fetch_add_matches_atomic_contract() {
        let c = SecCounter::new(1);
        let mut h = c.register();
        assert_eq!(h.fetch_add(3), 0);
        assert_eq!(h.fetch_add(0), 3);
        assert_eq!(h.increment(), 3);
        assert_eq!(h.fetch_add(10), 4);
        assert_eq!(c.load(), 14);
    }

    #[test]
    fn concurrent_increments_return_a_permutation_of_previous_values() {
        const THREADS: usize = 6;
        const PER: usize = 500;
        let c = SecCounter::new(THREADS);
        let mut seen: Vec<u64> = thread::scope(|scope| {
            (0..THREADS)
                .map(|_| {
                    let c = &c;
                    scope.spawn(move || {
                        let mut h = c.register();
                        (0..PER).map(|_| h.increment()).collect::<Vec<_>>()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .flat_map(|j| j.join().unwrap())
                .collect()
        });
        // Each increment observed a distinct previous value: the
        // returns are exactly {0, 1, …, N·M−1}. This is the full
        // fetch_add contract, not just conservation.
        seen.sort_unstable();
        let expect: Vec<u64> = (0..(THREADS * PER) as u64).collect();
        assert_eq!(seen, expect);
        assert_eq!(c.load(), (THREADS * PER) as u64);
        let r = c.stats().report();
        assert_eq!(r.ops, (THREADS * PER) as u64);
        assert_eq!(r.eliminated, 0, "homogeneous family never eliminates");
        assert_eq!(r.combined, r.ops);
    }

    #[test]
    fn mixed_operands_sum_exactly() {
        const THREADS: usize = 4;
        const PER: usize = 300;
        let c = SecCounter::new(THREADS);
        thread::scope(|scope| {
            for t in 0..THREADS {
                let c = &c;
                scope.spawn(move || {
                    let mut h = c.register();
                    for i in 0..PER {
                        let n = ((t * PER + i) % 7) as u64;
                        h.fetch_add(n);
                    }
                });
            }
        });
        let expect: u64 = (0..THREADS)
            .flat_map(|t| (0..PER).map(move |i| ((t * PER + i) % 7) as u64))
            .sum();
        assert_eq!(c.load(), expect);
    }

    #[test]
    fn elastic_policy_resizes_under_load() {
        let c = SecCounter::with_config(
            SecConfig::new(1, 8)
                .aggregator_policy(AggregatorPolicy::Adaptive {
                    min_k: 1,
                    max_k: 4,
                    window: 8,
                })
                .wait_policy(WaitPolicy::SpinThenPark { spin_rounds: 64 }),
        );
        thread::scope(|scope| {
            for _ in 0..8 {
                let c = &c;
                scope.spawn(move || {
                    let mut h = c.register();
                    for _ in 0..2_000 {
                        h.increment();
                    }
                });
            }
        });
        assert_eq!(c.load(), 16_000);
        // Forced resize keeps working after the run, too.
        assert_eq!(c.set_active_aggregators(4), 4);
        let mut h = c.register();
        assert_eq!(h.fetch_add(1), 16_000);
    }

    #[test]
    fn add_many_returns_the_base_of_its_prefix_sums() {
        let c = SecCounter::new(1);
        let mut h = c.register();
        assert_eq!(h.fetch_add(5), 0);
        assert_eq!(h.add_many(&[1, 2, 3]), 5, "base = value before the bulk");
        assert_eq!(c.load(), 11);
        assert_eq!(h.add_many(&[]), 11, "empty bulk reads the counter");
        assert_eq!(c.load(), 11);
        assert_eq!(h.fetch_add(0), 11, "singles still see every bulk delta");
    }

    #[test]
    fn bulk_ops_are_counted_in_ops_not_announcements() {
        const CALLS: u64 = 50;
        const LEN: u64 = 8;
        let c = SecCounter::new(1);
        let mut h = c.register();
        for _ in 0..CALLS {
            h.add_many(&[1; LEN as usize]);
        }
        let r = c.stats().report();
        assert_eq!(r.ops, CALLS * LEN, "degree counts ops, not announcements");
        assert_eq!(r.batches, CALLS, "one announcement (one batch) per call");
        assert_eq!(c.load(), CALLS * LEN);
    }

    #[test]
    fn concurrent_bulk_and_single_adds_sum_exactly() {
        const THREADS: usize = 6;
        const PER: usize = 200;
        let c = SecCounter::new(THREADS);
        thread::scope(|scope| {
            for t in 0..THREADS {
                let c = &c;
                scope.spawn(move || {
                    let mut h = c.register();
                    let deltas: Vec<u64> = (0..4).map(|i| (t + i) as u64 % 5).collect();
                    let per_call: u64 = deltas.iter().sum();
                    for i in 0..PER {
                        if i % 3 == 0 {
                            let base = h.add_many(&deltas);
                            // The bulk is one atomic step: a re-read
                            // directly after it can never be below
                            // base + Σ deltas.
                            assert!(h.load() >= base + per_call);
                        } else {
                            h.fetch_add(1);
                        }
                    }
                });
            }
        });
        let expect: u64 = (0..THREADS)
            .map(|t| {
                let per_call: u64 = (0..4).map(|i| (t + i) as u64 % 5).sum();
                (0..PER)
                    .map(|i| if i % 3 == 0 { per_call } else { 1 })
                    .sum::<u64>()
            })
            .sum();
        assert_eq!(c.load(), expect);
    }

    #[test]
    fn durable_counter_recovers_value_and_classifies_handles() {
        use crate::combine::durable::PendingOutcome;
        const THREADS: usize = 4;
        const PER: usize = 100;
        let c = SecCounter::durable(THREADS, DurablePolicy::volatile().shards(2)).unwrap();
        // Durable identity is the collector slot, and a dropped handle
        // frees its slot for the next registration (slot inheritance).
        // The barrier holds all four handles live at once, so they
        // occupy four distinct slots and each logs exactly PER ops.
        let registered = std::sync::Barrier::new(THREADS);
        thread::scope(|scope| {
            for t in 0..THREADS {
                let (c, registered) = (&c, &registered);
                scope.spawn(move || {
                    let mut h = c.register();
                    registered.wait();
                    for i in 0..PER {
                        h.fetch_add((t + i) as u64 % 5);
                    }
                });
            }
        });
        let expect: u64 = (0..THREADS)
            .flat_map(|t| (0..PER).map(move |i| (t + i) as u64 % 5))
            .sum();
        assert_eq!(c.load(), expect);
        let stats = c.durable_stats().unwrap();
        assert_eq!(stats.entries, (THREADS * PER) as u64);
        assert!(
            stats.records <= stats.entries,
            "batching can only reduce records"
        );
        let heap = c.durable_heap().unwrap();
        drop(c);
        let (r, report) = SecCounter::recover(DurablePolicy::heap(heap)).unwrap();
        assert_eq!(r.load(), expect);
        assert_eq!(report.replayed_ops(), THREADS * PER);
        assert_eq!(report.torn_records, 0);
        for h in &report.handles[..THREADS] {
            assert_eq!(h.executed, PER as u64);
            // A clean shutdown leaves the last op executed (its
            // intent cell still holds it).
            assert!(
                matches!(h.pending, PendingOutcome::Executed { op_seq, .. } if op_seq == PER as u64)
            );
        }
        // New handles resume their sequence numbers past the log.
        let mut h = r.register();
        assert_eq!(h.fetch_add(1), expect);
        assert_eq!(r.load(), expect + 1);
    }

    #[test]
    fn durable_counter_replay_refuses_a_diverged_or_foreign_log() {
        use crate::combine::durable::testing::{assert_corrupt, recover_forged, Entry};
        use crate::combine::durable::OpResult::*;
        let recover = |ops: &[Entry]| recover_forged(Family::Counter, 0, ops, SecCounter::recover);
        // Control: a faithful log replays.
        let c = recover(&[(opcode::ADD, 5, 0, Value(0)), (opcode::ADD, 2, 0, Value(5))]).unwrap();
        assert_eq!(c.load(), 7);
        // An add logged as seeing 3 where the replay sees 5.
        assert_corrupt(
            recover(&[(opcode::ADD, 5, 0, Value(0)), (opcode::ADD, 2, 0, Value(3))]),
            "replay diverged",
        );
        // A map op in a counter log.
        assert_corrupt(recover(&[(opcode::MAP_GET, 1, 0, Empty)]), "foreign opcode");
    }

    #[test]
    fn durable_recovery_is_idempotent() {
        let c = SecCounter::durable(2, DurablePolicy::volatile()).unwrap();
        {
            let mut h = c.register();
            for _ in 0..50 {
                h.increment();
            }
        }
        let heap = c.durable_heap().unwrap();
        drop(c);
        let (r1, rep1) = SecCounter::recover(DurablePolicy::heap(Arc::clone(&heap))).unwrap();
        let (r2, rep2) = SecCounter::recover(DurablePolicy::heap(heap)).unwrap();
        assert_eq!(r1.load(), 50);
        assert_eq!(r2.load(), 50);
        assert_eq!(rep1.replayed_ops(), rep2.replayed_ops());
        assert_eq!(rep1.handles, rep2.handles);
    }

    #[test]
    fn durable_per_op_granularity_matches_per_batch() {
        use crate::combine::durable::LogGranularity;
        for g in [LogGranularity::PerBatch, LogGranularity::PerOp] {
            let c = SecCounter::durable(2, DurablePolicy::volatile().granularity(g)).unwrap();
            thread::scope(|scope| {
                for _ in 0..2 {
                    let c = &c;
                    scope.spawn(move || {
                        let mut h = c.register();
                        for _ in 0..200 {
                            h.increment();
                        }
                    });
                }
            });
            assert_eq!(c.load(), 400);
            let heap = c.durable_heap().unwrap();
            drop(c);
            let (r, rep) = SecCounter::recover(DurablePolicy::heap(heap)).unwrap();
            assert_eq!(r.load(), 400);
            assert_eq!(rep.replayed_ops(), 400);
        }
    }

    #[test]
    fn recovering_a_volatile_policy_is_refused() {
        assert!(matches!(
            SecCounter::recover(DurablePolicy::volatile()),
            Err(DurableError::NothingToRecover)
        ));
    }

    #[test]
    fn recycling_reaches_steady_state() {
        let c = SecCounter::with_config(
            SecConfig::new(1, 2).recycle(RecyclePolicy::PerThread { cache_cap: 64 }),
        );
        thread::scope(|scope| {
            for _ in 0..2 {
                let c = &c;
                scope.spawn(move || {
                    let mut h = c.register();
                    for _ in 0..5_000 {
                        h.increment();
                    }
                });
            }
        });
        assert_eq!(c.load(), 10_000);
        let stats = c.quiesce_reclamation(64);
        assert_eq!(
            stats.retired,
            stats.freed + stats.cached,
            "quiesced counter leaks nothing: {stats:?}"
        );
    }
}
