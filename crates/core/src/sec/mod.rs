//! The SEC stack: Algorithms 1 and 2 of the paper, instantiated from
//! the generic combining engine.
//!
//! Module layout:
//!
//! * `node` — shared-stack nodes (paper Figure 1, `Node`),
//! * [`elastic`] — the contention monitor behind
//!   [`AggregatorPolicy::Adaptive`](crate::AggregatorPolicy::Adaptive)
//!   (DESIGN.md §8),
//! * [`stats`] — the Table 1–3 instrumentation,
//! * [`model`] — the closed-form binomial prediction of the
//!   elimination/combining degrees the instrumentation measures,
//! * this file — [`SecStack`], [`SecHandle`], and the stack's
//!   `CombineOp` instantiation: the single-CAS substack splice
//!   (push combining), the single-CAS chain unlink (pop combining)
//!   and elimination through the slot array.
//!
//! The protocol itself — announcement, freezing, freezer election,
//! elimination pairing, combiner election, waiter parking, elastic
//! re-mapping — lives in `crate::combine` (DESIGN.md §12); this file
//! contains only what is specific to a *stack*. Comments reference the
//! paper's pseudocode line numbers (Algorithm 1 = push, lines 1–51;
//! Algorithm 2 = pop, lines 52–103). Two pseudocode errata are
//! corrected here, both documented in DESIGN.md §2: the push
//! combiner's substack chain starts at its own node (`top = bot`, not
//! `⊥`), and the pop combiner advances its cursor once per
//! non-eliminated pop (the paper's loop advances one time too few,
//! which would pop `k−1` nodes for `k` pops while handing out `k`
//! values).

pub mod elastic;
pub mod model;
pub(crate) mod node;
pub mod stats;

use crate::combine::durable::{
    self, opcode, DurableCore, DurableError, DurablePolicy, DurableStats, Family, OpResult,
    RecoveryReport,
};
use crate::combine::{
    wait_ptr, AggLayout, CombineBatch, CombineEngine, CombineOp, Lane, OpState, Role,
};
use crate::config::SecConfig;
use crate::trace::{TraceRecorder, TraceSnapshot};
use crate::traits::{ConcurrentStack, StackHandle};
use core::fmt;
use core::ptr;
use core::sync::atomic::{AtomicPtr, Ordering};
use node::Node;
use sec_reclaim::{Guard, Handle as ReclaimHandle};
use sec_sync::{Backoff, CachePadded};
use stats::SecStats;

/// The stack's apply logic: a Treiber-style top pointer plus the
/// paper's two single-CAS combiners. Everything else — batching,
/// freezing, elimination pairing, parking, elastic sharding — is the
/// engine's.
struct StackOp<T: Send + 'static> {
    /// `stackTop` (paper line 2): the *only* cross-aggregator
    /// contention point, touched once per batch by each combiner.
    top: CachePadded<AtomicPtr<Node<T>>>,
}

/// A bulk-pop announcement: `pop_many` announces one of these (cast to
/// the node type — the engine never dereferences announcement
/// pointers, only the family hooks do, and they branch on the
/// aggregator index first) instead of `want` separate pops.
///
/// The pointers reference the announcing thread's frame, which blocks
/// until the batch is `applied` — so they are live for the combiner's
/// whole walk. The combiner's plain writes to `out`/`taken` are
/// published to the announcer by the engine's Release store of
/// `applied` (paired with the waiter's Acquire).
struct PopManyReq<T> {
    /// How many values this request asks for.
    want: usize,
    /// Spare capacity in the caller's buffer; the combiner writes
    /// `taken` initialized values starting here.
    out: *mut T,
    /// How many values the combiner actually delivered (≤ `want`;
    /// short when the stack ran dry).
    taken: usize,
}

/// Walks a published push chain from its announced top to its
/// null-terminated bottom. A single push is a one-node chain (nodes
/// allocate with a null `next`), so the mapped and bulk aggregators
/// share one combiner.
///
/// # Safety
///
/// `top` must be a published announcement node; the chain's links were
/// written by the announcing thread before the Release publication the
/// caller's Acquire slot load paired with.
unsafe fn chain_bottom<T: Send>(top: *mut Node<T>) -> *mut Node<T> {
    let mut cur = top;
    loop {
        // Safety: per the function contract, every link reached from
        // `top` is a live published node.
        let next = unsafe { (*cur).next.load(Ordering::Relaxed) };
        if next.is_null() {
            return cur;
        }
        cur = next;
    }
}

impl<T: Send + 'static> StackOp<T> {
    /// The bulk-pop combiner: tally the batch's total demand, unlink
    /// that many nodes with one CAS (exactly the shape of the mapped
    /// lanes' `combine_remove`), then deal the chain out to the
    /// requests in announcement order — the earliest announcement
    /// takes the shallowest nodes, so a `pop_many(n)` observes `n`
    /// consecutive stack tops (LIFO, as if by `n` sequential pops).
    fn combine_pop_many(
        &self,
        eng: &CombineEngine<Self>,
        batch: &CombineBatch<Node<T>>,
        my_seq: usize,
        guard: &Guard<'_, '_>,
    ) {
        let cut = batch.frozen_cut(Role::Remove);
        let mut total = 0usize;
        for slot in &batch.slots[my_seq..cut] {
            let req = wait_ptr(slot, eng.config().wait) as *mut PopManyReq<T>;
            // Safety: the request outlives the batch (announcer blocks
            // on `applied`); the combiner is its unique accessor.
            total += unsafe { (*req).want };
        }

        // Unlink up to `total` nodes with a single CAS. Successive
        // batches' combiners (and the mapped aggregators') race here,
        // hence the retry loop.
        let mut backoff = Backoff::new();
        let chain = loop {
            let top = self.top.load(Ordering::Acquire);
            let mut bot = top;
            let mut avail = 0usize;
            while avail < total && !bot.is_null() {
                bot = unsafe { (*bot).next.load(Ordering::Acquire) };
                avail += 1;
            }
            if self
                .top
                .compare_exchange(top, bot, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                break top;
            }
            eng.stats().record_cas_failure();
            backoff.spin();
        };

        // Deal the unlinked chain out in slot order. A drained stack
        // leaves `cur` null early; the remaining requests report
        // `taken == 0` (EMPTY), exactly like a sequence of pops that
        // arrived after the stack emptied.
        let mut cur = chain;
        for slot in &batch.slots[my_seq..cut] {
            let req = slot.load(Ordering::Acquire) as *mut PopManyReq<T>;
            let want = unsafe { (*req).want };
            let out = unsafe { (*req).out };
            let mut taken = 0usize;
            while taken < want && !cur.is_null() {
                let next = unsafe { (*cur).next.load(Ordering::Acquire) };
                // Safety: the combiner is each unlinked node's unique
                // consumer; payload moves into the caller's spare
                // capacity (uninitialized — `write`, not assignment),
                // husk recycles.
                unsafe { out.add(taken).write(Node::take_value(cur)) };
                unsafe { guard.retire_recycle(cur) };
                taken += 1;
                cur = next;
            }
            unsafe { (*req).taken = taken };
        }
    }
}

impl<T: Send + 'static> CombineOp for StackOp<T> {
    type Node = Node<T>;
    type Value = T;

    // ------------------------------------------------------------------
    // Push combining (paper lines 33–51)
    // ------------------------------------------------------------------

    /// `PushToStack`: build the substack of all non-eliminated pushes
    /// and splice it onto the shared stack with one CAS.
    fn combine_add(
        &self,
        eng: &CombineEngine<Self>,
        batch: &CombineBatch<Node<T>>,
        my_seq: usize,
        _agg_idx: usize,
        _guard: &Guard<'_, '_>,
    ) {
        let add_at_freeze = batch.frozen_cut(Role::Add);

        // Line 36: our own node is the bottom of the substack (we are
        // the surviving push with the smallest sequence number, hence
        // LIFO-first, hence deepest). A `push_many` publishes a whole
        // downward chain under one announcement, so every slot holds a
        // chain — length one for plain pushes — and splicing links each
        // chain's *bottom* under the running top.
        let first = batch.slots[my_seq].load(Ordering::Acquire);
        debug_assert!(
            !first.is_null(),
            "combiner published its node before freezing"
        );
        // Safety: published chain, links written before publication.
        let bot = unsafe { chain_bottom(first) };

        // Erratum fix (DESIGN.md §2.1): the chain grows from our own
        // node, not from null — otherwise single-push batches would
        // install null and multi-push batches would orphan `bot`.
        let mut top = first;
        for i in my_seq + 1..add_at_freeze {
            // Line 38: the push with sequence number `i` belongs to the
            // batch (i < pushCountAtFreeze), so it *will* publish its
            // node; it may just not have gotten to line 7 yet.
            let n = wait_ptr(&batch.slots[i], eng.config().wait);
            // Lines 41–42: link this announcement's chain below the
            // running top. Relaxed is enough: the successful CAS below
            // releases the whole chain.
            let b = unsafe { chain_bottom(n) };
            unsafe { (*b).next.store(top, Ordering::Relaxed) };
            top = n;
        }

        // Lines 44–50: splice the substack in with a single CAS.
        let mut backoff = Backoff::new();
        loop {
            let cur = self.top.load(Ordering::Acquire);
            unsafe { (*bot).next.store(cur, Ordering::Relaxed) };
            if self
                .top
                .compare_exchange(cur, top, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return;
            }
            // Contention is only with other combiners (≤ one per live
            // batch), so plain spinning suffices. The failure count is
            // the contention monitor's cross-aggregator signal.
            eng.stats().record_cas_failure();
            backoff.spin();
        }
    }

    // ------------------------------------------------------------------
    // Pop combining (paper lines 80–94)
    // ------------------------------------------------------------------

    /// `PopFromStack`: unlink one node per non-eliminated pop (up to
    /// the stack's depth) with a single CAS, and publish the removed
    /// chain.
    fn combine_remove(
        &self,
        eng: &CombineEngine<Self>,
        batch: &CombineBatch<Node<T>>,
        my_seq: usize,
        agg_idx: usize,
        guard: &Guard<'_, '_>,
    ) {
        // The bulk aggregator's slots hold `PopManyReq`s, not nodes —
        // its batches are combined request-by-request.
        if agg_idx == eng.bulk_agg(1) {
            return self.combine_pop_many(eng, batch, my_seq, guard);
        }
        let remove_at_freeze = batch.frozen_cut(Role::Remove);
        // One node per non-eliminated pop. (Erratum fix, DESIGN.md
        // §2.2: the paper's `while ++i < popCountAtFreeze` advances
        // k−1 times.)
        let wanted = remove_at_freeze - my_seq;

        let mut backoff = Backoff::new();
        loop {
            let top = self.top.load(Ordering::Acquire);
            let mut bot = top;
            for _ in 0..wanted {
                if bot.is_null() {
                    break; // stack shallower than the batch: take it all
                }
                bot = unsafe { (*bot).next.load(Ordering::Acquire) };
            }
            if self
                .top
                .compare_exchange(top, bot, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                // Line 93: publish the unlinked chain; the Release
                // store of `applied` (by the engine) orders it for
                // waiters.
                batch.result_head.store(top, Ordering::Release);
                return;
            }
            eng.stats().record_cas_failure();
            backoff.spin();
        }
    }

    /// Lines 65–67: the pop's push partner publishes its node right
    /// after announcing; wait for the slot and take the value.
    fn eliminate(
        &self,
        eng: &CombineEngine<Self>,
        batch: &CombineBatch<Node<T>>,
        my_seq: usize,
        guard: &Guard<'_, '_>,
    ) -> T {
        let n = wait_ptr(&batch.slots[my_seq], eng.config().wait);
        // Safety: pushes and pops pair off by sequence number, so we
        // are this node's unique consumer; payload out, husk recycles.
        let value = unsafe { Node::take_value(n) };
        unsafe { guard.retire_recycle(n) };
        value
    }

    /// `GetValue` (lines 95–103): the pop at `offset` consumes the
    /// `offset`-th unlinked node, or reports EMPTY if the stack ran
    /// out. The chain is *not* null-terminated (its deepest link runs
    /// into the remaining stack) — the walk is bounded by `offset`,
    /// which the combiner's unlink count covers.
    fn take_result(
        &self,
        eng: &CombineEngine<Self>,
        batch: &CombineBatch<Node<T>>,
        offset: usize,
        agg_idx: usize,
        guard: &Guard<'_, '_>,
    ) -> Option<T> {
        if agg_idx == eng.bulk_agg(1) {
            // Bulk pops received their values through their request's
            // buffer; there is no result chain to consume.
            return None;
        }
        let mut cur = batch.result_head.load(Ordering::Acquire);
        for _ in 0..offset {
            if cur.is_null() {
                return None;
            }
            cur = unsafe { (*cur).next.load(Ordering::Acquire) };
        }
        if cur.is_null() {
            return None;
        }
        // Safety: the combiner unlinked exactly `wanted` nodes and each
        // offset is claimed by exactly one pop of this batch, so we are
        // the unique consumer; every reader of this chain is pinned.
        // The payload is out, so the husk recycles.
        let value = unsafe { Node::take_value(cur) };
        unsafe { guard.retire_recycle(cur) };
        Some(value)
    }

    /// A lone push or pop (DESIGN.md §12 "Lone operations"): what the
    /// combiner of a degree-1 batch does, without the batch. A push
    /// CASes its own node onto `top`; a pop CASes `top → top.next` and
    /// consumes the unlinked node, or reports EMPTY off a null `top`.
    /// Other aggregators' combiners may race on `top`, as they race
    /// each other.
    fn apply_alone(
        &self,
        eng: &CombineEngine<Self>,
        role: Role,
        node: *mut Node<T>,
        guard: &Guard<'_, '_>,
    ) -> Option<Option<T>> {
        let mut backoff = Backoff::new();
        loop {
            let top = self.top.load(Ordering::Acquire);
            let new = match role {
                Role::Add => {
                    // Safety: the node was never announced, so it is
                    // still private to us.
                    unsafe { (*node).next.store(top, Ordering::Relaxed) };
                    node
                }
                Role::Remove if top.is_null() => return Some(None),
                // Safety: pinned, so `top` stays allocated (and cannot
                // be recycled into an ABA) while we read its link.
                Role::Remove => unsafe { (*top).next.load(Ordering::Acquire) },
            };
            if self
                .top
                .compare_exchange(top, new, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Some(match role {
                    Role::Add => None,
                    // Safety: our CAS unlinked `top`, so we are its
                    // unique consumer; payload out, husk recycles.
                    Role::Remove => unsafe {
                        let value = Node::take_value(top);
                        guard.retire_recycle(top);
                        Some(value)
                    },
                });
            }
            eng.stats().record_cas_failure();
            backoff.spin();
        }
    }

    /// A durable push or pop, applied one at a time (sequential by the
    /// hook's contract, so `top` needs no CAS). The Release stores keep
    /// concurrent `peek`s safe.
    fn apply_logged(
        &self,
        opcode: u8,
        operand: u64,
        _operand2: u64,
        guard: &Guard<'_, '_>,
    ) -> Option<OpResult> {
        let top = self.top.load(Ordering::Relaxed);
        Some(match opcode {
            opcode::PUSH => {
                let n = Node::alloc_with(guard.handle(), durable::from_word::<T>(operand));
                // Safety: `n` is fresh and still private to us.
                unsafe { (*n).next.store(top, Ordering::Relaxed) };
                self.top.store(n, Ordering::Release);
                OpResult::Unit
            }
            opcode::POP if top.is_null() => OpResult::Empty,
            opcode::POP => {
                // Safety: the sole mutator unlinks `top`, so it is the
                // node's unique consumer; payload out, husk recycles.
                let next = unsafe { (*top).next.load(Ordering::Relaxed) };
                self.top.store(next, Ordering::Release);
                let value = unsafe { Node::take_value(top) };
                unsafe { guard.retire_recycle(top) };
                OpResult::Value(durable::to_word(value))
            }
            _ => return None,
        })
    }
}

impl<T: Send + 'static> Drop for StackOp<T> {
    fn drop(&mut self) {
        // Runs during engine teardown, after the engine freed the
        // current batches and before the collector frees retired
        // husks: free the remaining shared-stack nodes together with
        // their payloads.
        let mut cur = self.top.load(Ordering::Relaxed);
        while !cur.is_null() {
            let next = unsafe { (*cur).next.load(Ordering::Relaxed) };
            unsafe { Node::drop_in_place_with_value(cur) };
            cur = next;
        }
    }
}

/// The Sharded Elimination and Combining stack (blocking, linearizable).
///
/// Construct with [`SecStack::new`] (paper defaults: two aggregators)
/// or [`SecStack::with_config`]; each thread obtains a [`SecHandle`]
/// via [`ConcurrentStack::register`] (or the inherent
/// [`SecStack::register`]) and performs its operations through it.
///
/// # Examples
///
/// ```
/// use sec_core::{SecStack, ConcurrentStack, StackHandle};
///
/// let stack: SecStack<i32> = SecStack::new(4); // up to 4 threads
/// let mut h = stack.register();
/// h.push(1);
/// h.push(2);
/// assert_eq!(h.peek(), Some(2));
/// assert_eq!(h.pop(), Some(2));
/// assert_eq!(h.pop(), Some(1));
/// assert_eq!(h.pop(), None);
/// ```
pub struct SecStack<T: Send + 'static> {
    engine: CombineEngine<StackOp<T>>,
}

// Safety: all shared state is atomics; node/batch ownership transfer
// follows the algorithm's exactly-once consumption discipline, so `T`
// values cross threads only as `Send` payloads.
unsafe impl<T: Send> Send for SecStack<T> {}
unsafe impl<T: Send> Sync for SecStack<T> {}

impl<T: Send + 'static> SecStack<T> {
    /// Creates a stack with the paper's default configuration (two
    /// aggregators) for up to `max_threads` threads.
    pub fn new(max_threads: usize) -> Self {
        Self::with_config(SecConfig::new(2, max_threads))
    }

    /// Creates a stack from an explicit [`SecConfig`].
    pub fn with_config(config: SecConfig) -> Self {
        Self::build(config, None)
    }

    fn build(config: SecConfig, durable: Option<DurableCore>) -> Self {
        Self {
            engine: CombineEngine::new(
                "SecStack",
                StackOp {
                    top: CachePadded::new(AtomicPtr::new(ptr::null_mut())),
                },
                config,
                // Two bulk aggregators past the mapped prefix:
                // `bulk_agg(0)` carries `push_many` chains (add lane),
                // `bulk_agg(1)` carries `pop_many` requests (remove
                // lane). Each is single-lane, so its batches degenerate
                // to pure combining — elimination never applies to a
                // bulk announcement.
                AggLayout::Mapped {
                    with_slots: true,
                    bulk: 2,
                },
                durable,
            ),
        }
    }

    /// Registers the calling thread. Prefer the trait method
    /// [`ConcurrentStack::register`]; this inherent version exists so
    /// callers don't need the trait in scope.
    pub fn register(&self) -> SecHandle<'_, T> {
        let (reclaim, state) = self.engine.register();
        SecHandle {
            stack: self,
            state,
            reclaim,
        }
    }

    /// The configuration this stack was built with.
    pub fn config(&self) -> &SecConfig {
        self.engine.config()
    }

    /// The batching/elimination/combining instrumentation (Tables 1–3).
    pub fn stats(&self) -> &SecStats {
        self.engine.stats()
    }

    /// Reclamation statistics (diagnostic). The recycle hit/miss/
    /// overflow counters are exact once every handle has dropped.
    pub fn reclaim_stats(&self) -> sec_reclaim::CollectorStats {
        self.engine.reclaim_stats()
    }

    /// Drives reclamation to completion (up to `rounds` epoch
    /// advances) and returns the resulting stats. With every handle
    /// dropped, a successful quiesce leaves `retired == freed +
    /// cached` — the leak identity the test battery asserts.
    pub fn quiesce_reclamation(&self, rounds: usize) -> sec_reclaim::CollectorStats {
        self.engine.quiesce_reclamation(rounds)
    }

    /// Number of currently active aggregators.
    pub fn active_aggregators(&self) -> usize {
        self.engine.active_aggregators()
    }

    /// Forces the active aggregator count to `k` (clamped into the
    /// policy's `[min_k, max_k]`; a no-op for
    /// [`AggregatorPolicy::Fixed`](crate::AggregatorPolicy::Fixed),
    /// whose bounds coincide). Returns the count now in force.
    ///
    /// This is the manual override behind the stress and
    /// linearizability suites, which drive grow/shrink transitions at
    /// chosen points instead of waiting for the contention monitor; it
    /// serializes with monitor decisions through the same election and
    /// arms the same epoch fence. Each step of the change is recorded
    /// in the [`SecStats`] resize counters.
    pub fn set_active_aggregators(&self, k: usize) -> usize {
        self.engine.set_active_aggregators(k)
    }

    /// A point-in-time poll of the protocol counters; two snapshots
    /// differentiate into time-windowed rates via
    /// [`TraceSnapshot::rates_since`]. Always available — it reads the
    /// same counters as [`SecStack::stats`].
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        self.engine.trace_snapshot()
    }

    /// The sec-trace recorder (event rings + phase histograms,
    /// DESIGN.md §14): `Some` only when the stack was configured with
    /// [`TraceConfig::enabled`](crate::TraceConfig) *and* the crate was
    /// built with the `trace` cargo feature.
    pub fn tracer(&self) -> Option<&TraceRecorder> {
        self.engine.tracer()
    }
}

impl SecStack<u64> {
    /// Creates a crash-durable stack over `policy`'s persistent heap:
    /// every push/pop writes an intent cell before announcing and is
    /// redo-logged (with its result) by its batch's combiner before
    /// the result is published (DESIGN.md §16). Durable structures
    /// carry `u64` payloads.
    pub fn durable(max_threads: usize, policy: DurablePolicy) -> Result<Self, DurableError> {
        Self::durable_with_config(SecConfig::new(2, max_threads), policy)
    }

    /// [`SecStack::durable`] from an explicit [`SecConfig`]: every
    /// field applies as it does to [`SecStack::with_config`].
    pub fn durable_with_config(
        config: SecConfig,
        policy: DurablePolicy,
    ) -> Result<Self, DurableError> {
        let core = DurableCore::create(&policy, Family::Stack, 0, config.max_threads)?;
        Ok(Self::build(config, Some(core)))
    }

    /// Recovers a durable stack from `policy.mode`'s existing heap:
    /// replays the committed redo log in global order (verifying each
    /// logged result against the replay) and reports, per handle,
    /// whether its last announced op executed and with what result.
    pub fn recover(policy: DurablePolicy) -> Result<(Self, RecoveryReport), DurableError> {
        let (core, report) = DurableCore::open(&policy, Family::Stack)?;
        let stack = Self::build(SecConfig::new(2, core.max_handles()), Some(core));
        stack.engine.replay(&report.ops)?;
        Ok((stack, report))
    }

    /// The persistent heap backing this stack (durable stacks only) —
    /// hold it across a drop to recover a Volatile-mode heap.
    pub fn durable_heap(&self) -> Option<std::sync::Arc<sec_reclaim::PersistentHeap>> {
        self.engine.durable_heap()
    }

    /// Redo-log counters (durable stacks only).
    pub fn durable_stats(&self) -> Option<DurableStats> {
        self.engine.durable_stats()
    }
}

impl<T: Send + 'static> fmt::Debug for SecStack<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SecStack")
            .field("config", self.config())
            .field("active_aggregators", &self.active_aggregators())
            .field("stats", &self.stats().report())
            .finish()
    }
}

impl<T: Send + 'static> ConcurrentStack<T> for SecStack<T> {
    type Handle<'a>
        = SecHandle<'a, T>
    where
        Self: 'a;

    fn register(&self) -> SecHandle<'_, T> {
        SecStack::register(self)
    }

    fn name(&self) -> &'static str {
        "SEC"
    }
}

/// A thread's handle to a [`SecStack`].
pub struct SecHandle<'a, T: Send + 'static> {
    stack: &'a SecStack<T>,
    /// Announcement-mapping state (dense tid, `seen_k`, aggregator
    /// index) — the engine re-maps it lazily on elastic resizes.
    state: OpState,
    reclaim: ReclaimHandle<'a>,
}

impl<'a, T: Send + 'static> SecHandle<'a, T> {
    /// This thread's id (dense, `0..max_threads`).
    pub fn tid(&self) -> usize {
        self.state.tid()
    }

    /// The aggregator this thread last announced to (under an adaptive
    /// policy the assignment moves with the active count).
    pub fn aggregator(&self) -> usize {
        self.state.aggregator()
    }

    /// A point-in-time poll of the stack's protocol counters (see
    /// [`SecStack::trace_snapshot`]) — handle-level so monitoring code
    /// holding only a handle can poll live rates.
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        self.stack.trace_snapshot()
    }

    /// Algorithm 1. Returns when the push is linearized.
    pub fn push(&mut self, value: T) {
        let eng = &self.stack.engine;
        if eng.durable().is_some() {
            eng.run_durable(&self.reclaim, opcode::PUSH, durable::to_word(value), 0);
            return;
        }
        // Line 3: one node per push, reused across batch retries —
        // popped off this thread's recycle cache before touching the
        // heap (DESIGN.md §10). Lines 4–26 are the engine's driver.
        let node = Node::alloc_with(&self.reclaim, value);
        self.stack.engine.run(
            Lane::Mapped(&mut self.state),
            Role::Add,
            node,
            &self.reclaim,
        );
    }

    /// Algorithm 2. Returns the popped value, or `None` for EMPTY.
    pub fn pop(&mut self) -> Option<T> {
        let eng = &self.stack.engine;
        if eng.durable().is_some() {
            return eng.run_durable(&self.reclaim, opcode::POP, 0, 0).value();
        }
        // Lines 54–78 are the engine's driver; elimination, the
        // combiner's unlink and `GetValue` come back through the
        // stack's `CombineOp` hooks.
        self.stack.engine.run(
            Lane::Mapped(&mut self.state),
            Role::Remove,
            ptr::null_mut(),
            &self.reclaim,
        )
    }

    /// Bulk push: pushes every value of `values`, in slice order, as
    /// one announcement (per `MAX_BULK_OPS`-sized chunk) on the
    /// stack's dedicated bulk aggregator — the protocol cost
    /// (announce, freeze, combiner election, one splice CAS share)
    /// amortizes over the whole slice. The pushes linearize
    /// consecutively at the combiner's splice, so afterwards the last
    /// element of `values` is nearest the top, exactly as if pushed
    /// one at a time with no interleaving.
    ///
    pub fn push_many(&mut self, values: &[T])
    where
        T: Clone,
    {
        if self.stack.engine.durable().is_some() {
            // Durable stacks make every push an individually
            // detectable logged op.
            for v in values {
                self.push(v.clone());
            }
            return;
        }
        for chunk in values.chunks(crate::combine::MAX_BULK_OPS) {
            // Build the downward chain the combiner expects: the
            // announced node is the chain's top (the chunk's *last*
            // value — LIFO), the first value's node its null-next
            // bottom.
            let mut top = ptr::null_mut();
            for v in chunk {
                let n = Node::alloc_with(&self.reclaim, v.clone());
                unsafe { (*n).next.store(top, Ordering::Relaxed) };
                top = n;
            }
            self.stack.engine.run_weighted(
                Lane::At(self.stack.engine.bulk_agg(0)),
                Role::Add,
                top,
                chunk.len() as u32,
                &self.reclaim,
            );
        }
    }

    /// Bulk pop: pops up to `max` values into `out` (appended in pop
    /// order — shallowest first), returning how many were taken. One
    /// announcement per `MAX_BULK_OPS`-sized chunk covers the whole
    /// request; the pops linearize consecutively at the combiner's
    /// unlink CAS, so a `pop_many(n)` observes `n` consecutive stack
    /// tops. Returns short (possibly 0) when the stack runs dry —
    /// EMPTY for the remainder, exactly like sequential pops.
    ///
    pub fn pop_many(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        if self.stack.engine.durable().is_some() {
            let mut taken = 0usize;
            while taken < max {
                match self.pop() {
                    Some(v) => {
                        out.push(v);
                        taken += 1;
                    }
                    None => break,
                }
            }
            return taken;
        }
        let mut total = 0usize;
        while total < max {
            let want = (max - total).min(crate::combine::MAX_BULK_OPS);
            out.reserve(want);
            let mut req = PopManyReq {
                want,
                // Safety: `reserve` guaranteed `want` spare slots past
                // the initialized prefix.
                out: unsafe { out.as_mut_ptr().add(out.len()) },
                taken: 0,
            };
            // The cast is the type-erasure trick the counter's bulk
            // path uses: the engine treats announcement pointers as
            // opaque; only `combine_pop_many` looks inside, and it
            // knows the bulk aggregator's slots hold requests.
            let node = (&mut req as *mut PopManyReq<T>).cast::<Node<T>>();
            self.stack.engine.run_weighted(
                Lane::At(self.stack.engine.bulk_agg(1)),
                Role::Remove,
                node,
                want as u32,
                &self.reclaim,
            );
            // Safety: the combiner initialized exactly `taken` values
            // at the spare-capacity cursor before `applied` was
            // published (Acquire-paired in `wait_applied`).
            unsafe { out.set_len(out.len() + req.taken) };
            total += req.taken;
            if req.taken < want {
                break; // drained
            }
        }
        total
    }

    /// Peek (§3.2: "simply a read of stackTop, similar to the Treiber
    /// stack").
    pub fn peek(&mut self) -> Option<T>
    where
        T: Clone,
    {
        let _guard = self.reclaim.pin();
        let top = self.stack.engine.op().top.load(Ordering::Acquire);
        if top.is_null() {
            None
        } else {
            // Safety: pinned, so the node cannot be freed; its value
            // bytes stay intact even if a concurrent pop consumes it
            // (consumption is a non-destructive read; see node.rs).
            Some(core::mem::ManuallyDrop::into_inner(unsafe {
                (*top).value.clone()
            }))
        }
    }
}

impl<T: Send + 'static> StackHandle<T> for SecHandle<'_, T> {
    fn push(&mut self, value: T) {
        SecHandle::push(self, value);
    }

    fn pop(&mut self) -> Option<T> {
        SecHandle::pop(self)
    }

    fn peek(&mut self) -> Option<T>
    where
        T: Clone,
    {
        SecHandle::peek(self)
    }
}

impl<T: Send + 'static> fmt::Debug for SecHandle<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SecHandle")
            .field("tid", &self.tid())
            .field("aggregator", &self.aggregator())
            .finish()
    }
}

#[cfg(test)]
mod tests;
