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
//! it`) back through its announcement slot. `n` concurrent increments
//! cost one shared-memory RMW instead of `n` — the combining degree
//! shows up in [`SecStats`] as `combined / batches`, identically to
//! the stack's Table 3 instrumentation.
//!
//! The whole family is this file: no freezing, parking, elastic
//! re-mapping or recycling code appears here — all of it is inherited
//! from `crate::combine` (DESIGN.md §12). Operations ride the
//! **remove** lane (the result-bearing lane); the add lane stays
//! permanently at zero, which makes the engine's elimination test
//! (`my_seq < add_at_freeze`) vacuously false and its combiner
//! election (`my_seq == add_at_freeze`) pick exactly sequence number
//! zero. A homogeneous family degenerates out of the mixed protocol
//! for free.

use crate::combine::durable::{
    opcode, DurableCore, DurableError, DurablePolicy, DurableStats, Family, OpResult,
    RecoveryReport,
};
use crate::combine::{AggLayout, CombineBatch, CombineEngine, CombineOp, Lane, OpState, Role};
use crate::config::SecConfig;
use crate::sec::node::Node;
use crate::sec::stats::SecStats;
use core::fmt;
use core::mem::ManuallyDrop;
use core::sync::atomic::{AtomicU64, Ordering};
use sec_reclaim::{Guard, Handle as ReclaimHandle};
use sec_sync::CachePadded;

/// The counter's apply logic: one central word, one combiner.
struct CounterOp {
    /// The linearization point of every `fetch_add` and `load`: all
    /// operations of a frozen batch linearize consecutively, in slot
    /// order, at the combiner's single `fetch_add` on this word.
    total: CachePadded<AtomicU64>,
}

/// A bulk `add_many` announcement: the node flowing through the
/// counter's dedicated bulk aggregator. Lives on the announcer's stack
/// frame (the announcer blocks until `applied`, so the frame outlives
/// every combiner access); the engine only stores and forwards the
/// pointer, type-erased as `*mut Node<u64>`.
struct AddManyReq {
    /// The caller's delta slice.
    deltas: *const u64,
    len: usize,
    /// Written by the combiner: the counter's value immediately before
    /// this request's first delta (the request's `fetch_add` base).
    base: u64,
}

impl CombineOp for CounterOp {
    type Node = Node<u64>;
    type Value = u64;

    // `combine_add` and `eliminate` keep their defaults: the add lane
    // of a counter batch is always empty, so the engine never calls
    // them.

    /// Sum the frozen batch's operands, add the total to the central
    /// counter with one RMW, and write each participant's pre-sum back
    /// into its announcement slot. Allocation-free: two passes over
    /// the slot array, no scratch buffer.
    fn combine_remove(
        &self,
        eng: &CombineEngine<Self>,
        batch: &CombineBatch<Node<u64>>,
        my_seq: usize,
        agg_idx: usize,
        _guard: &Guard<'_, '_>,
    ) {
        if agg_idx == eng.bulk_agg(0) {
            return self.combine_add_many(eng, batch, my_seq);
        }
        let cut = batch.frozen_cut(Role::Remove);

        // Pass 1: every included operation published its operand node
        // (slot stores happen right after announcing; freezing only
        // bounds *which* slots, not *when* they land — so spin on the
        // ones still in flight).
        let mut sum = 0u64;
        for slot in &batch.slots[my_seq..cut] {
            let n = crate::combine::wait_ptr(slot, eng.config().wait);
            sum = sum.wrapping_add(unsafe { *(*n).value });
        }

        // The batch's single shared-memory RMW.
        let mut base = self.total.fetch_add(sum, Ordering::AcqRel);

        // Pass 2: hand each participant `base + Σ operands before it`
        // by overwriting its operand in place. Exclusive access: the
        // owners only read their slots back after observing `applied`
        // (Release-published by the engine right after this returns),
        // and slot `i` belongs to exactly one operation.
        for slot in &batch.slots[my_seq..cut] {
            let n = slot.load(Ordering::Acquire);
            let operand = unsafe { *(*n).value };
            unsafe { (*n).value = ManuallyDrop::new(base) };
            base = base.wrapping_add(operand);
        }
    }

    /// Each participant (combiner included) collects its pre-sum from
    /// its own slot. The add lane is empty, so the engine's `offset`
    /// is the operation's own sequence number. Bulk requests received
    /// their base in place (the request struct), so the bulk aggregator
    /// has nothing to take here.
    fn take_result(
        &self,
        eng: &CombineEngine<Self>,
        batch: &CombineBatch<Node<u64>>,
        offset: usize,
        agg_idx: usize,
        guard: &Guard<'_, '_>,
    ) -> Option<u64> {
        if agg_idx == eng.bulk_agg(0) {
            return None;
        }
        let n = batch.slots[offset].load(Ordering::Acquire);
        debug_assert!(
            !n.is_null(),
            "operand published before announcing completed"
        );
        // Safety: unique consumer of our own slot; payload out, husk
        // recycles into this thread's node cache.
        let value = unsafe { Node::take_value(n) };
        unsafe { guard.retire_recycle(n) };
        Some(value)
    }

    /// A lone `fetch_add` (DESIGN.md §12 "Lone operations"): the
    /// degree-1 batch's one RMW, without the batch.
    fn apply_alone(
        &self,
        _eng: &CombineEngine<Self>,
        _role: Role,
        node: *mut Node<u64>,
        guard: &Guard<'_, '_>,
    ) -> Option<Option<u64>> {
        // Safety: the operand node was never announced, so we are its
        // unique consumer; payload out, husk recycles.
        let operand = unsafe { Node::take_value(node) };
        unsafe { guard.retire_recycle(node) };
        Some(Some(self.total.fetch_add(operand, Ordering::AcqRel)))
    }

    /// A durable `fetch_add`: the previous value is the op's result.
    fn apply_logged(
        &self,
        opcode: u8,
        operand: u64,
        _operand2: u64,
        _guard: &Guard<'_, '_>,
    ) -> Option<OpResult> {
        (opcode == opcode::ADD)
            .then(|| OpResult::Value(self.total.fetch_add(operand, Ordering::AcqRel)))
    }
}

impl CounterOp {
    /// The bulk-aggregator combiner: the slot walk of `combine_remove`
    /// with announcement nodes reinterpreted as [`AddManyReq`]s. Still
    /// two passes and still exactly one shared RMW — now covering
    /// `Σ lenᵢ` operations instead of one per slot — and each request's
    /// base lands in its own struct rather than a result chain.
    fn combine_add_many(
        &self,
        eng: &CombineEngine<Self>,
        batch: &CombineBatch<Node<u64>>,
        my_seq: usize,
    ) {
        let cut = batch.frozen_cut(Role::Remove);
        let mut sum = 0u64;
        for slot in &batch.slots[my_seq..cut] {
            let req = crate::combine::wait_ptr(slot, eng.config().wait) as *mut AddManyReq;
            // Safety: the announcer published the request before
            // announcing (wait_ptr's Acquire pairs with its Release
            // slot store) and blocks until `applied`, so the struct and
            // the delta slice behind it are live and unaliased-for-read.
            unsafe {
                for i in 0..(*req).len {
                    sum = sum.wrapping_add(*(*req).deltas.add(i));
                }
            }
        }
        let mut base = self.total.fetch_add(sum, Ordering::AcqRel);
        for slot in &batch.slots[my_seq..cut] {
            let req = slot.load(Ordering::Acquire) as *mut AddManyReq;
            // Safety: as above; `base` is ours to write — the owner
            // reads it only after observing `applied` (Release-
            // published right after this returns).
            unsafe {
                (*req).base = base;
                for i in 0..(*req).len {
                    base = base.wrapping_add(*(*req).deltas.add(i));
                }
            }
        }
    }
}

/// A linearizable combining fetch-and-add counter.
///
/// `n` threads incrementing concurrently induce *one* atomic RMW per
/// frozen batch instead of one per increment; everything else is
/// cache-local slot traffic inside the thread's aggregator.
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
pub struct SecCounter {
    engine: CombineEngine<CounterOp>,
}

impl SecCounter {
    /// Creates a counter with the paper's default configuration (two
    /// aggregators) for up to `max_threads` threads.
    pub fn new(max_threads: usize) -> Self {
        Self::with_config(SecConfig::new(2, max_threads))
    }

    /// Creates a counter from an explicit [`SecConfig`] — aggregator
    /// count, elastic policy, freezer backoff, recycle and wait
    /// policies all apply exactly as they do to the stack.
    pub fn with_config(config: SecConfig) -> Self {
        Self::build(config, None)
    }

    fn build(config: SecConfig, durable: Option<DurableCore>) -> Self {
        Self {
            engine: CombineEngine::new(
                "SecCounter",
                CounterOp {
                    total: CachePadded::new(AtomicU64::new(0)),
                },
                config,
                // One dedicated bulk aggregator after the mapped
                // prefix, carrying `add_many` request batches.
                AggLayout::Mapped {
                    with_slots: true,
                    bulk: 1,
                },
                durable,
            ),
        }
    }

    /// Creates a crash-durable counter over `policy`'s persistent
    /// heap: every `fetch_add` writes an intent cell before announcing
    /// and is redo-logged (with its result) by its batch's combiner
    /// before the result is published. See DESIGN.md §16.
    pub fn durable(max_threads: usize, policy: DurablePolicy) -> Result<Self, DurableError> {
        Self::durable_with_config(SecConfig::new(2, max_threads), policy)
    }

    /// [`SecCounter::durable`] from an explicit [`SecConfig`]: every
    /// field applies as it does to [`SecCounter::with_config`].
    pub fn durable_with_config(
        config: SecConfig,
        policy: DurablePolicy,
    ) -> Result<Self, DurableError> {
        let core = DurableCore::create(&policy, Family::Counter, 0, config.max_threads)?;
        Ok(Self::build(config, Some(core)))
    }

    /// Recovers a durable counter from `policy.mode`'s existing heap:
    /// replays the committed redo log in global order (verifying each
    /// logged result against the replay) and reports, per handle,
    /// whether its last announced op executed and with what result.
    pub fn recover(policy: DurablePolicy) -> Result<(Self, RecoveryReport), DurableError> {
        let (core, report) = DurableCore::open(&policy, Family::Counter)?;
        let counter = Self::build(SecConfig::new(2, core.max_handles()), Some(core));
        counter.engine.replay(&report.ops)?;
        Ok((counter, report))
    }

    /// The persistent heap backing this counter (durable counters
    /// only) — hold it across a drop to recover a Volatile-mode heap.
    pub fn durable_heap(&self) -> Option<std::sync::Arc<sec_reclaim::PersistentHeap>> {
        self.engine.durable_heap()
    }

    /// Redo-log counters (durable counters only).
    pub fn durable_stats(&self) -> Option<DurableStats> {
        self.engine.durable_stats()
    }

    /// Registers the calling thread and returns its operation handle.
    pub fn register(&self) -> SecCounterHandle<'_> {
        let (reclaim, state) = self.engine.register();
        SecCounterHandle {
            counter: self,
            state,
            reclaim,
        }
    }

    /// Reads the counter. Linearizes at the load of the central word:
    /// increments whose batch has not combined yet are not visible,
    /// exactly as a `fetch_add(0)` arriving now would not see them.
    pub fn load(&self) -> u64 {
        self.engine.op().total.load(Ordering::Acquire)
    }

    /// The configuration this counter was built with.
    pub fn config(&self) -> &SecConfig {
        self.engine.config()
    }

    /// The batching/combining instrumentation. `eliminated` is always
    /// zero for a homogeneous family; `combined / batches` is the
    /// counter's combining degree.
    pub fn stats(&self) -> &SecStats {
        self.engine.stats()
    }

    /// Reclamation statistics (diagnostic).
    pub fn reclaim_stats(&self) -> sec_reclaim::CollectorStats {
        self.engine.reclaim_stats()
    }

    /// Drives reclamation to completion (up to `rounds` epoch
    /// advances) and returns the resulting stats.
    pub fn quiesce_reclamation(&self, rounds: usize) -> sec_reclaim::CollectorStats {
        self.engine.quiesce_reclamation(rounds)
    }

    /// Number of currently active aggregators.
    pub fn active_aggregators(&self) -> usize {
        self.engine.active_aggregators()
    }

    /// Forces the active aggregator count (see
    /// [`SecStack::set_active_aggregators`](crate::SecStack::set_active_aggregators)).
    pub fn set_active_aggregators(&self, k: usize) -> usize {
        self.engine.set_active_aggregators(k)
    }

    /// A point-in-time poll of the counter's protocol counters (see
    /// [`SecStack::trace_snapshot`](crate::SecStack::trace_snapshot)).
    pub fn trace_snapshot(&self) -> crate::TraceSnapshot {
        self.engine.trace_snapshot()
    }

    /// The sec-trace recorder, when configured under the `trace` cargo
    /// feature (see [`SecStack::tracer`](crate::SecStack::tracer)).
    pub fn tracer(&self) -> Option<&crate::TraceRecorder> {
        self.engine.tracer()
    }
}

impl fmt::Debug for SecCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SecCounter")
            .field("value", &self.load())
            .field("config", self.config())
            .field("active_aggregators", &self.active_aggregators())
            .finish()
    }
}

/// A thread's handle to a [`SecCounter`].
pub struct SecCounterHandle<'a> {
    counter: &'a SecCounter,
    state: OpState,
    reclaim: ReclaimHandle<'a>,
}

impl SecCounterHandle<'_> {
    /// This thread's id (dense, `0..max_threads`).
    pub fn tid(&self) -> usize {
        self.state.tid()
    }

    /// The aggregator this thread last announced to.
    pub fn aggregator(&self) -> usize {
        self.state.aggregator()
    }

    /// A point-in-time poll of the counter's protocol counters (see
    /// [`SecCounter::trace_snapshot`]).
    pub fn trace_snapshot(&self) -> crate::TraceSnapshot {
        self.counter.trace_snapshot()
    }

    /// Atomically adds `n` and returns the counter's value immediately
    /// before this operation — the same contract as
    /// [`AtomicU64::fetch_add`], delivered through one combined RMW
    /// per batch.
    pub fn fetch_add(&mut self, n: u64) -> u64 {
        let eng = &self.counter.engine;
        if eng.durable().is_some() {
            return eng
                .run_durable(&self.reclaim, opcode::ADD, n, 0)
                .value()
                .expect("a logged add returns the previous value");
        }
        let node = Node::alloc_with(&self.reclaim, n);
        self.counter
            .engine
            .run(
                Lane::Mapped(&mut self.state),
                Role::Remove,
                node,
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
    /// operations; per-delta pre-values are the prefix sums off the
    /// returned base.
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
        if self.counter.engine.durable().is_some() {
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
            let mut req = AddManyReq {
                deltas: chunk.as_ptr(),
                len: chunk.len(),
                base: 0,
            };
            let node = (&mut req as *mut AddManyReq).cast::<Node<u64>>();
            self.counter.engine.run_weighted(
                Lane::At(self.counter.engine.bulk_agg(0)),
                Role::Remove,
                node,
                chunk.len() as u32,
                &self.reclaim,
            );
            // `run_weighted` returned, so `applied` was observed: the
            // combiner's `base` write happens-before this read.
            first_base.get_or_insert(req.base);
        }
        first_base.expect("non-empty slice produced at least one chunk")
    }

    /// Reads the counter (see [`SecCounter::load`]).
    pub fn load(&self) -> u64 {
        self.counter.load()
    }
}

impl fmt::Debug for SecCounterHandle<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SecCounterHandle")
            .field("tid", &self.tid())
            .field("aggregator", &self.aggregator())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AggregatorPolicy, RecyclePolicy, WaitPolicy};
    use std::sync::Arc;
    use std::thread;

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
