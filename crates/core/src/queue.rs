//! A concurrent FIFO queue built from the paper's three mechanisms —
//! announcement batching, batch freezing, and single-CAS combining —
//! retargeted from a stack's one contended end to a queue's two.
//!
//! The paper's introduction grounds itself in the FIFO-queue literature
//! (LCRQ, aggregating funnels); this module closes the loop by building
//! the queue those mechanisms imply. Construction: a Michael–Scott-style
//! linked list with a dummy node, plus one SEC batch layer *per end* —
//! two fixed aggregators of the combining engine (`crate::combine`,
//! DESIGN.md §12):
//!
//! * **enqueuers** announce into the tail aggregator's current batch
//!   with one fetch&increment and publish their node in the batch's
//!   slot array; the batch's combiner pre-links all announced nodes in
//!   sequence order and splices the whole chain with a **single CAS on
//!   `tail`** (then writes the old tail's `next` link, the standard
//!   swing-then-link discipline);
//! * **dequeuers** announce into the head aggregator's current batch;
//!   the combiner walks `popCount` nodes from `head` in one traversal
//!   and unlinks them all with a **single CAS on `head`**, publishing
//!   the taken chain (and its length) for the batch's waiters;
//! * **elimination** between enqueues and dequeues is permitted *only
//!   when the combiner observes the queue empty* — any other pairing
//!   would hand a dequeuer a value newer than the queue's front and
//!   break FIFO. When the dequeue combiner validates emptiness
//!   (MS-style: `head == tail` and `head.next == null`), it holds a
//!   bounded rendezvous window open on `head.next`; an enqueue batch
//!   that splices into the empty queue during the window is consumed
//!   directly, combiner-to-combiner, before its values ever age in the
//!   list. The (empty) head link is the elimination slot — routing the
//!   hand-off through it is what keeps emptiness and transfer atomic
//!   (DESIGN.md §9 discusses why a detached slot array cannot).
//!
//! Batches are homogeneous per end: each end uses one lane of the
//! engine's `CombineBatch` while the other lane's counter stays
//! pinned at zero, which makes the engine's combiner election pick
//! exactly the sequence-0 announcer and its cross-lane elimination
//! test vacuous (see `crate::combine`'s module docs). Memory is
//! reclaimed through the same `sec-reclaim` epochs as the stack: the
//! freezer retires its frozen batch, the dequeue combiner retires the
//! outgoing dummy, and each waiter retires the node it consumed
//! (except the chain's last, which becomes the new dummy and is
//! retired by a later combiner).

use crate::combine::durable::{
    self, opcode, DurableCore, DurableError, DurablePolicy, DurableStats, Family, OpResult,
    RecoveryReport,
};
use crate::combine::{wait_ptr, AggLayout, CombineBatch, CombineEngine, CombineOp, Lane, Role};
use crate::config::{AggregatorPolicy, SecConfig, WaitPolicy};
use crate::sec::stats::SecStats;
use crate::traits::{ConcurrentQueue, QueueHandle};
use core::fmt;
use core::mem::MaybeUninit;
use core::ptr;
use core::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use sec_reclaim::{Guard, Handle as ReclaimHandle};
use sec_sync::event::spin_wait;
use sec_sync::{Backoff, CachePadded};

/// Default length (in spin iterations) of the empty-queue rendezvous
/// window the dequeue combiner holds open for a concurrent enqueue
/// splice. Long enough to catch an in-flight combiner hand-off, short
/// enough that `dequeue` on a genuinely empty queue still returns
/// promptly (the liveness suite depends on this bound).
const DEFAULT_RENDEZVOUS_SPINS: u32 = 128;

/// The head-side engine aggregator (dequeues; no announcement slots),
/// the tail-side one (enqueues; slots carry the announced nodes — for
/// `enqueue_many`, forward chains of them), and the bulk dequeue
/// aggregator (slots carry `DequeueManyReq`s).
const HEAD: usize = 0;
const TAIL: usize = 1;
const HEAD_BULK: usize = 2;

/// A queue node. `value` is `MaybeUninit` (not `ManuallyDrop` as in the
/// stack) because the MS-queue representation needs nodes with *no*
/// value at all: the initial dummy is allocated empty, and every node
/// whose value has been consumed lives on as the dummy until a later
/// dequeue combiner retires it.
struct QNode<T> {
    value: MaybeUninit<T>,
    next: AtomicPtr<QNode<T>>,
}

impl<T> QNode<T> {
    /// Allocates a detached node carrying `value`, reusing a recycled
    /// node block from `reclaim`'s free lists when one is available
    /// (DESIGN.md §10).
    fn alloc_with(reclaim: &ReclaimHandle<'_>, value: T) -> *mut QNode<T> {
        reclaim.alloc_boxed(QNode {
            value: MaybeUninit::new(value),
            next: AtomicPtr::new(ptr::null_mut()),
        })
    }

    /// Heap-allocates the valueless dummy node.
    fn alloc_dummy() -> *mut QNode<T> {
        Box::into_raw(Box::new(QNode {
            value: MaybeUninit::uninit(),
            next: AtomicPtr::new(ptr::null_mut()),
        }))
    }

    /// Moves the payload out of `node` without freeing the node.
    ///
    /// # Safety
    ///
    /// The caller must be the unique consumer of this node's value (the
    /// algorithm assigns each taken node to exactly one dequeue), the
    /// value must have been initialized, and the node must stay
    /// allocated for the duration of the call (readers are pinned).
    unsafe fn take_value(node: *mut QNode<T>) -> T {
        // Safety: unique consumption per the caller contract.
        unsafe { ptr::read(&(*node).value).assume_init() }
    }

    /// Frees a node that still owns its payload (teardown path only).
    ///
    /// # Safety
    ///
    /// `node` must be a unique, live node whose value is initialized
    /// and has *not* been taken, with no concurrent accessors.
    unsafe fn drop_with_value(node: *mut QNode<T>) {
        // Safety: per contract we own the node and its payload.
        let boxed = unsafe { Box::from_raw(node) };
        // Safety: the value is initialized per contract.
        unsafe { boxed.value.assume_init() };
        // The payload drops here; the box freed the allocation.
    }
}

/// A bulk-dequeue announcement: `dequeue_many` announces one of these
/// (cast to the node type — the engine never dereferences announcement
/// pointers, only the family hooks do, and they branch on the
/// aggregator index first) instead of `want` separate dequeues.
///
/// The pointers reference the announcing thread's frame, which blocks
/// until the batch is `applied`, so they are live for the combiner's
/// whole walk; the combiner's plain writes to `out`/`taken` are
/// published by the engine's Release store of `applied`.
struct DequeueManyReq<T> {
    /// How many values this request asks for.
    want: usize,
    /// Spare capacity in the caller's buffer; the combiner writes
    /// `taken` initialized values starting here.
    out: *mut T,
    /// How many values the combiner delivered (≤ `want`; short when
    /// the queue ran dry).
    taken: usize,
}

/// Walks a published enqueue chain from its announced first node to
/// its null-terminated last. A plain enqueue is a one-node chain
/// (nodes allocate with a null `next`), so the tail combiner handles
/// both without distinguishing them.
///
/// # Safety
///
/// `first` must be a published announcement node; the chain's links
/// were written by the announcing thread before the Release
/// publication the caller's Acquire slot load paired with.
unsafe fn chain_last<T>(first: *mut QNode<T>) -> *mut QNode<T> {
    let mut cur = first;
    loop {
        // Safety: per the function contract, every link reached from
        // `first` is a live published node.
        let next = unsafe { (*cur).next.load(Ordering::Relaxed) };
        if next.is_null() {
            return cur;
        }
        cur = next;
    }
}

/// The queue's apply logic: the MS-style list (head/tail), the two
/// single-CAS combiners, and the empty-queue rendezvous window.
struct QueueOp<T: Send + 'static> {
    /// Points at the dummy; the queue's front value is `head.next`.
    head: CachePadded<AtomicPtr<QNode<T>>>,
    /// Points at the last spliced node (== the dummy when empty).
    tail: CachePadded<AtomicPtr<QNode<T>>>,
    /// Spin budget of the empty-queue rendezvous window.
    rendezvous_spins: u32,
    /// Dequeue batches that observed the queue empty and then received
    /// an enqueue batch through the rendezvous window (the queue's
    /// elimination counter).
    rendezvous_hits: AtomicU64,
}

impl<T: Send + 'static> QueueOp<T> {
    /// The bulk-dequeue combiner: tally the batch's total demand, take
    /// that many nodes from `head` with one CAS, then deal the block
    /// out to the requests in announcement order — a `dequeue_many(n)`
    /// therefore receives `n` consecutive queue fronts (FIFO, as if by
    /// `n` sequential dequeues).
    ///
    /// Differences from the mapped head combiner: no rendezvous window
    /// (a bulk dequeue on an empty queue reports 0 at once — the
    /// window's purpose is pairing *single* hand-offs, and holding it
    /// per request would stall whole blocks), and the combiner
    /// distributes values itself instead of publishing a chain —
    /// there is one waiter per *request*, not per value.
    fn combine_dequeue_many(
        &self,
        eng: &CombineEngine<Self>,
        batch: &CombineBatch<QNode<T>>,
        my_seq: usize,
        guard: &Guard<'_, '_>,
    ) {
        let cut = batch.frozen_cut(Role::Remove);
        let wait = eng.config().wait;
        let mut total = 0usize;
        for slot in &batch.slots[my_seq..cut] {
            let req = wait_ptr(slot, wait) as *mut DequeueManyReq<T>;
            // Safety: the request outlives the batch (announcer blocks
            // on `applied`); the combiner is its unique accessor.
            total += unsafe { (*req).want };
        }

        // MS-validated traversal + single CAS on `head`, exactly the
        // shape of the mapped combiner's unlink. Races with the other
        // head combiners (mapped and successive bulk batches), hence
        // the retry loop.
        let mut cas_backoff = Backoff::new();
        let (first, taken) = loop {
            let h = self.head.load(Ordering::Acquire);
            let mut cur = h;
            let mut first = ptr::null_mut();
            let mut taken = 0usize;
            while taken < total {
                let nxt = unsafe { (*cur).next.load(Ordering::Acquire) };
                if nxt.is_null() {
                    if ptr::eq(self.tail.load(Ordering::Acquire), cur) {
                        break; // validated: the queue ends at `cur`
                    }
                    // Swing done, link in flight: wait for it.
                    spin_wait(wait, || {
                        !unsafe { (*cur).next.load(Ordering::Acquire) }.is_null()
                    });
                    continue;
                }
                if taken == 0 {
                    first = nxt;
                }
                cur = nxt;
                taken += 1;
            }
            if taken == 0 {
                break (ptr::null_mut(), 0);
            }
            if self
                .head
                .compare_exchange(h, cur, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                // Safety: the CAS made us the unique retirer of the
                // outgoing dummy; its value (if any) was consumed when
                // it became the dummy.
                unsafe { guard.retire_recycle(h) };
                break (first, taken);
            }
            eng.stats().record_cas_failure();
            cas_backoff.spin();
        };

        // Deal the block out in slot order. The chain's last node is
        // the live dummy — its value is consumed here but its husk
        // stays linked (a later head combiner retires it), and its
        // `next` keeps evolving, so the walk never reads past
        // `taken - 1` links. A drained queue leaves later requests
        // (and the tail of a partly-served one) at `taken < want`.
        let mut cur = first;
        let mut idx = 0usize;
        for slot in &batch.slots[my_seq..cut] {
            let req = slot.load(Ordering::Acquire) as *mut DequeueManyReq<T>;
            let want = unsafe { (*req).want };
            let out = unsafe { (*req).out };
            let mut got = 0usize;
            while got < want && idx < taken {
                let nxt = if idx + 1 < taken {
                    unsafe { (*cur).next.load(Ordering::Acquire) }
                } else {
                    ptr::null_mut()
                };
                // Safety: each taken node's value has exactly one
                // consumer (this walk visits each node once); the
                // destination is uninitialized spare capacity —
                // `write`, not assignment.
                unsafe { out.add(got).write(QNode::take_value(cur)) };
                if idx + 1 < taken {
                    // Safety: fully unlinked non-dummy node, payload
                    // out; the husk recycles.
                    unsafe { guard.retire_recycle(cur) };
                }
                cur = nxt;
                got += 1;
                idx += 1;
            }
            unsafe { (*req).taken = got };
        }
    }
}

impl<T: Send + 'static> CombineOp for QueueOp<T> {
    type Node = QNode<T>;
    type Value = T;

    // ------------------------------------------------------------------
    // Enqueue combining (the tail aggregator's add lane)
    // ------------------------------------------------------------------

    /// Pre-link the batch's announced nodes in sequence order and
    /// splice the chain with a single CAS on `tail`.
    fn combine_add(
        &self,
        eng: &CombineEngine<Self>,
        batch: &CombineBatch<QNode<T>>,
        my_seq: usize,
        _agg_idx: usize,
        _guard: &Guard<'_, '_>,
    ) {
        let cut = batch.frozen_cut(Role::Add);
        debug_assert!(cut > my_seq);
        // Wait for each announced node (the announcer published its
        // slot right after the fetch&increment; it may just not have
        // gotten there yet — the stack's line-38 wait). An
        // `enqueue_many` publishes a whole forward chain under one
        // announcement, so each slot holds a chain — length one for
        // plain enqueues — and pre-linking joins each chain's *last*
        // node to the next slot's first.
        let first = wait_ptr(&batch.slots[my_seq], eng.config().wait);
        // Safety: published chains, links written before publication.
        let mut prev = unsafe { chain_last(first) };
        for i in my_seq + 1..cut {
            let n = wait_ptr(&batch.slots[i], eng.config().wait);
            // Relaxed suffices: the chain is published wholesale by the
            // Release store of the old tail's `next` below.
            unsafe { (*prev).next.store(n, Ordering::Relaxed) };
            prev = unsafe { chain_last(n) };
        }
        let last = prev;

        // Swing-then-link: one CAS on `tail` claims the splice point;
        // the `next` link makes the chain reachable. A traverser that
        // reaches the old tail before the link lands waits for it (the
        // gap is bounded by this store). Contention on the CAS is only
        // with other enqueue combiners — ≤ one per live tail batch.
        let mut backoff = Backoff::new();
        loop {
            let t = self.tail.load(Ordering::Acquire);
            if self
                .tail
                .compare_exchange(t, last, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                // Safety: `t` cannot be freed while we are pinned, and
                // only the combiner that moved `tail` off `t` writes
                // `t.next` — that is us.
                unsafe { (*t).next.store(first, Ordering::Release) };
                return;
            }
            eng.stats().record_cas_failure();
            backoff.spin();
        }
    }

    // ------------------------------------------------------------------
    // Dequeue combining (the head aggregator's remove lane)
    // ------------------------------------------------------------------

    /// Walk up to `wanted` nodes from `head`, unlink them with a single
    /// CAS on `head`, and publish the chain + count for the waiters.
    ///
    /// Emptiness is MS-validated: `cur.next == null` with `tail == cur`
    /// means the queue truly ends at `cur` at the moment of the tail
    /// read (a splice would have moved `tail` first). `cur.next ==
    /// null` with `tail != cur` is an in-flight swing-then-link gap;
    /// the link is coming, so the traversal waits for it — the same
    /// class of bounded-by-another-thread's-progress wait as every
    /// other SEC spin.
    fn combine_remove(
        &self,
        eng: &CombineEngine<Self>,
        batch: &CombineBatch<QNode<T>>,
        my_seq: usize,
        agg_idx: usize,
        guard: &Guard<'_, '_>,
    ) {
        // The bulk aggregator's slots hold `DequeueManyReq`s, not
        // nodes — its batches take whole blocks per request.
        if agg_idx == HEAD_BULK {
            return self.combine_dequeue_many(eng, batch, my_seq, guard);
        }
        let wanted = batch.frozen_cut(Role::Remove) - my_seq;
        debug_assert!(wanted >= 1);
        let wait = eng.config().wait;
        // The rendezvous budget spans CAS retries so a contended empty
        // queue cannot pin the combiner in the window forever.
        let mut window = self.rendezvous_spins;
        let mut cas_backoff = Backoff::new();
        'retry: loop {
            // Reset per attempt: a hit is only counted when THIS
            // traversal observed empty and then took values — a lost
            // CAS after a window wait must not count the next round's
            // ordinary unlink as a rendezvous.
            let mut waited_empty = false;
            let h = self.head.load(Ordering::Acquire);
            let mut cur = h;
            let mut first = ptr::null_mut();
            let mut taken = 0usize;
            while taken < wanted {
                let nxt = unsafe { (*cur).next.load(Ordering::Acquire) };
                if nxt.is_null() {
                    if ptr::eq(self.tail.load(Ordering::Acquire), cur) {
                        // Queue ends at `cur`. Empty-only elimination:
                        // if we have taken nothing, the queue is empty
                        // — hold the rendezvous window open for a
                        // concurrent enqueue batch to splice straight
                        // into our hands.
                        if taken == 0 && window > 0 {
                            window -= 1;
                            waited_empty = true;
                            // Policy-aware pause: under the yielding
                            // and parking policies, periodically give
                            // the slice away inside the window — on an
                            // oversubscribed host that is what lets a
                            // producer actually reach its splice (the
                            // wait is anonymous, so parking proper
                            // cannot apply — no waker would know us).
                            if wait == WaitPolicy::Spin || !window.is_multiple_of(32) {
                                core::hint::spin_loop();
                            } else {
                                std::thread::yield_now();
                            }
                            continue;
                        }
                        break;
                    }
                    // Swing done, link in flight: wait for it (bounded
                    // by the enqueue combiner's next store — anonymous,
                    // so never parked).
                    spin_wait(wait, || {
                        !unsafe { (*cur).next.load(Ordering::Acquire) }.is_null()
                    });
                    continue;
                }
                if taken == 0 {
                    first = nxt;
                }
                cur = nxt;
                taken += 1;
            }

            if taken == 0 {
                // Validated empty (and the window, if any, expired):
                // every pop of the batch reports EMPTY.
                batch.result_head.store(ptr::null_mut(), Ordering::Release);
                batch.taken.store(0, Ordering::Release);
                return;
            }
            // One CAS unlinks the whole chain: `cur` becomes the new
            // dummy (its value belongs to the waiter at the last
            // offset, MS-queue style).
            if self
                .head
                .compare_exchange(h, cur, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                if waited_empty {
                    self.rendezvous_hits.fetch_add(1, Ordering::Relaxed);
                }
                batch.result_head.store(first, Ordering::Release);
                batch.taken.store(taken as u64, Ordering::Release);
                // Safety: the CAS made us the unique retirer of the
                // outgoing dummy; its value (if it ever had one) was
                // consumed when it became the dummy — the husk recycles.
                unsafe { guard.retire_recycle(h) };
                return;
            }
            // Another head combiner won; re-traverse from the new head.
            eng.stats().record_cas_failure();
            cas_backoff.spin();
            continue 'retry;
        }
    }

    // `eliminate` keeps its default: the engine's cross-lane pairing
    // never fires on homogeneous batches — the queue's *empty-only*
    // elimination lives inside `combine_remove`'s rendezvous window.

    /// The dequeue at `offset` consumes the `offset`-th unlinked node,
    /// or reports EMPTY if the batch drained the queue first. The
    /// chain is *not* null-terminated (its last node is the live dummy
    /// whose `next` keeps evolving), hence the published `taken` bound.
    fn take_result(
        &self,
        _eng: &CombineEngine<Self>,
        batch: &CombineBatch<QNode<T>>,
        offset: usize,
        agg_idx: usize,
        guard: &Guard<'_, '_>,
    ) -> Option<T> {
        if agg_idx == HEAD_BULK {
            // Bulk dequeues received their values through their
            // request's buffer; there is no result chain to consume.
            return None;
        }
        let taken = batch.taken.load(Ordering::Acquire) as usize;
        if offset >= taken {
            return None;
        }
        let mut cur = batch.result_head.load(Ordering::Acquire);
        for _ in 0..offset {
            // In-chain links were all written before the splice that
            // made them reachable; they never change.
            cur = unsafe { (*cur).next.load(Ordering::Acquire) };
        }
        // Safety: each offset is claimed by exactly one dequeue of this
        // batch, so we are the node's unique value consumer; readers
        // are pinned.
        let value = unsafe { QNode::take_value(cur) };
        if offset + 1 < taken {
            // Safety: fully unlinked (the chain's non-last nodes are
            // unreachable from `head` once the combiner's CAS landed);
            // the payload is out, so the husk recycles.
            unsafe { guard.retire_recycle(cur) };
        }
        // The last taken node is the live dummy: a later dequeue
        // combiner retires it when `head` moves past it.
        Some(value)
    }

    /// A durable enqueue or dequeue, applied one at a time (sequential
    /// by the hook's contract): plain link-then-swing at the tail, and
    /// the MS dummy discipline at the head.
    fn apply_logged(
        &self,
        opcode: u8,
        operand: u64,
        _operand2: u64,
        guard: &Guard<'_, '_>,
    ) -> Option<OpResult> {
        Some(match opcode {
            opcode::ENQUEUE => {
                let n = QNode::alloc_with(guard.handle(), durable::from_word::<T>(operand));
                let t = self.tail.load(Ordering::Relaxed);
                // Safety: `t` is the live tail, which only we mutate.
                unsafe { (*t).next.store(n, Ordering::Release) };
                self.tail.store(n, Ordering::Release);
                OpResult::Unit
            }
            opcode::DEQUEUE => {
                let h = self.head.load(Ordering::Relaxed);
                // Safety: `h` is the live dummy.
                let n = unsafe { (*h).next.load(Ordering::Relaxed) };
                if n.is_null() {
                    OpResult::Empty
                } else {
                    // Safety: `n` becomes the new dummy, so we are its
                    // value's unique consumer; the old dummy's value
                    // was consumed (or never present) — the husk
                    // recycles.
                    let value = unsafe { QNode::take_value(n) };
                    self.head.store(n, Ordering::Release);
                    unsafe { guard.retire_recycle(h) };
                    OpResult::Value(durable::to_word(value))
                }
            }
            _ => return None,
        })
    }
}

impl<T: Send + 'static> Drop for QueueOp<T> {
    fn drop(&mut self) {
        // Runs during engine teardown (no handles exist, everything is
        // quiescent): the list is dummy → remaining values.
        let dummy = self.head.load(Ordering::Relaxed);
        let mut cur = unsafe { (*dummy).next.load(Ordering::Relaxed) };
        // The dummy's value was consumed (or never existed): free the
        // node only.
        drop(unsafe { Box::from_raw(dummy) });
        while !cur.is_null() {
            let next = unsafe { (*cur).next.load(Ordering::Relaxed) };
            unsafe { QNode::drop_with_value(cur) };
            cur = next;
        }
    }
}

/// The SEC-derived FIFO queue (blocking, linearizable).
///
/// Construct with [`SecQueue::new`] or [`SecQueue::with_config`]; each
/// thread obtains a [`SecQueueHandle`] via [`SecQueue::register`] (or
/// the [`ConcurrentQueue`] trait) and performs `enqueue`/`dequeue`
/// through it.
///
/// # Examples
///
/// ```
/// use sec_core::queue::SecQueue;
///
/// let q: SecQueue<u32> = SecQueue::new(2);
/// let mut h = q.register();
/// h.enqueue(1);
/// h.enqueue(2);
/// assert_eq!(h.dequeue(), Some(1));
/// assert_eq!(h.dequeue(), Some(2));
/// assert_eq!(h.dequeue(), None);
/// ```
pub struct SecQueue<T: Send + 'static> {
    engine: CombineEngine<QueueOp<T>>,
}

impl<T: Send + 'static> SecQueue<T> {
    /// Creates a queue for up to `max_threads` threads.
    pub fn new(max_threads: usize) -> Self {
        Self::with_config(SecConfig::new(1, max_threads))
    }

    /// Creates a queue from an explicit [`SecConfig`]. Capacity,
    /// freezer backoff, recycle, wait and trace settings apply as they
    /// do to the stack, and `wait` also decides whether the empty-queue
    /// rendezvous window yields inside its budget. `policy` and
    /// `shard_policy` are ignored, because the queue's aggregators are
    /// its two ends, not shards.
    pub fn with_config(config: SecConfig) -> Self {
        Self::build(config, None)
    }

    fn build(config: SecConfig, durable: Option<DurableCore>) -> Self {
        // One engine aggregator per end plus the bulk dequeue
        // aggregator; every thread may operate on either end, so all
        // batch layers admit all of them (the k = 1 configuration pins
        // the per-aggregator capacity at max_threads). Head batches
        // carry no slots — single dequeuers bring no nodes; the bulk
        // aggregator's slots carry requests. Bulk *enqueues* need no
        // aggregator of their own: they announce chains on TAIL, whose
        // combiner is chain-aware.
        let dummy = QNode::alloc_dummy();
        Self {
            engine: CombineEngine::new(
                "SecQueue",
                QueueOp {
                    head: CachePadded::new(AtomicPtr::new(dummy)),
                    tail: CachePadded::new(AtomicPtr::new(dummy)),
                    rendezvous_spins: DEFAULT_RENDEZVOUS_SPINS,
                    rendezvous_hits: AtomicU64::new(0),
                },
                config.aggregator_policy(AggregatorPolicy::Fixed(1)),
                AggLayout::Fixed {
                    ends: &[false, true, true],
                    bulk: 0,
                },
                durable,
            ),
        }
    }

    /// Sets the empty-queue rendezvous window in spin iterations
    /// (builder style). `0` disables empty-only elimination entirely:
    /// a dequeue batch that validates emptiness reports EMPTY at once.
    pub fn rendezvous_spins(mut self, spins: u32) -> Self {
        self.engine.op_mut().rendezvous_spins = spins;
        self
    }

    /// Registers the calling thread.
    ///
    /// # Panics
    ///
    /// If more threads register than the queue was constructed for.
    pub fn register(&self) -> SecQueueHandle<'_, T> {
        let (reclaim, _) = self.engine.register();
        SecQueueHandle {
            queue: self,
            reclaim,
        }
    }

    /// The configuration this queue was built with.
    pub fn config(&self) -> &SecConfig {
        self.engine.config()
    }

    /// Batching instrumentation: tail batches record as pushes, head
    /// batches as pops, so `batching_degree` reports the combined
    /// splice/unlink amortization. The stack's elimination share is
    /// structurally zero here — see [`SecQueue::rendezvous_hits`] for
    /// the queue's own pairing counter.
    pub fn stats(&self) -> &SecStats {
        self.engine.stats()
    }

    /// Number of dequeue batches that validated the queue empty and
    /// then consumed an enqueue batch through the rendezvous window —
    /// the queue's "empty-only elimination" events.
    pub fn rendezvous_hits(&self) -> u64 {
        self.engine.op().rendezvous_hits.load(Ordering::Relaxed)
    }

    /// Reclamation statistics (diagnostic). The recycle hit/miss/
    /// overflow counters are exact once every handle has dropped.
    pub fn reclaim_stats(&self) -> sec_reclaim::CollectorStats {
        self.engine.reclaim_stats()
    }

    /// Drives reclamation to completion (up to `rounds` epoch
    /// advances); see [`SecStack::quiesce_reclamation`].
    ///
    /// [`SecStack::quiesce_reclamation`]: crate::SecStack::quiesce_reclamation
    pub fn quiesce_reclamation(&self, rounds: usize) -> sec_reclaim::CollectorStats {
        self.engine.quiesce_reclamation(rounds)
    }

    /// A point-in-time poll of the queue's protocol counters (see
    /// [`SecStack::trace_snapshot`](crate::SecStack::trace_snapshot)).
    pub fn trace_snapshot(&self) -> crate::TraceSnapshot {
        self.engine.trace_snapshot()
    }

    /// The sec-trace recorder: `Some` only when configured via
    /// [`SecConfig::trace`] under the `trace` cargo feature.
    pub fn tracer(&self) -> Option<&crate::TraceRecorder> {
        self.engine.tracer()
    }
}

impl SecQueue<u64> {
    /// Creates a crash-durable queue over `policy`'s persistent heap:
    /// every enqueue/dequeue writes an intent cell before announcing
    /// and is redo-logged (with its result) by its batch's combiner
    /// before the result is published (DESIGN.md §16). Durable
    /// structures carry `u64` payloads.
    pub fn durable(max_threads: usize, policy: DurablePolicy) -> Result<Self, DurableError> {
        Self::durable_with_config(SecConfig::new(1, max_threads), policy)
    }

    /// [`SecQueue::durable`] from an explicit [`SecConfig`], read as
    /// [`SecQueue::with_config`] reads it.
    pub fn durable_with_config(
        config: SecConfig,
        policy: DurablePolicy,
    ) -> Result<Self, DurableError> {
        let core = DurableCore::create(&policy, Family::Queue, 0, config.max_threads)?;
        Ok(Self::build(config, Some(core)))
    }

    /// Recovers a durable queue from `policy.mode`'s existing heap:
    /// replays the committed redo log in global order (verifying each
    /// logged result against the replay) and reports, per handle,
    /// whether its last announced op executed and with what result.
    pub fn recover(policy: DurablePolicy) -> Result<(Self, RecoveryReport), DurableError> {
        let (core, report) = DurableCore::open(&policy, Family::Queue)?;
        let queue = Self::build(SecConfig::new(1, core.max_handles()), Some(core));
        queue.engine.replay(&report.ops)?;
        Ok((queue, report))
    }

    /// The persistent heap backing this queue (durable queues only) —
    /// hold it across a drop to recover a Volatile-mode heap.
    pub fn durable_heap(&self) -> Option<std::sync::Arc<sec_reclaim::PersistentHeap>> {
        self.engine.durable_heap()
    }

    /// Redo-log counters (durable queues only).
    pub fn durable_stats(&self) -> Option<DurableStats> {
        self.engine.durable_stats()
    }
}

impl<T: Send + 'static> fmt::Debug for SecQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SecQueue")
            .field("max_threads", &self.engine.config().max_threads)
            .field("rendezvous_spins", &self.engine.op().rendezvous_spins)
            .finish()
    }
}

impl<T: Send + 'static> ConcurrentQueue<T> for SecQueue<T> {
    type Handle<'a>
        = SecQueueHandle<'a, T>
    where
        Self: 'a;

    fn register(&self) -> SecQueueHandle<'_, T> {
        SecQueue::register(self)
    }

    fn name(&self) -> &'static str {
        "SEC-Q"
    }
}

/// A thread's handle to a [`SecQueue`].
pub struct SecQueueHandle<'a, T: Send + 'static> {
    queue: &'a SecQueue<T>,
    reclaim: ReclaimHandle<'a>,
}

impl<T: Send + 'static> SecQueueHandle<'_, T> {
    /// A point-in-time poll of the queue's protocol counters (see
    /// [`SecQueue::trace_snapshot`]).
    pub fn trace_snapshot(&self) -> crate::TraceSnapshot {
        self.queue.trace_snapshot()
    }

    /// Appends `value` at the tail. Returns when the enqueue is
    /// linearized (its batch's splice CAS has landed).
    pub fn enqueue(&mut self, value: T) {
        let eng = &self.queue.engine;
        if eng.durable().is_some() {
            eng.run_durable(&self.reclaim, opcode::ENQUEUE, durable::to_word(value), 0);
            return;
        }
        // One node per enqueue, reused across batch retries — popped
        // off this thread's recycle cache before touching the heap.
        let node = QNode::alloc_with(&self.reclaim, value);
        self.queue
            .engine
            .run(Lane::At(TAIL), Role::Add, node, &self.reclaim);
    }

    /// Removes the queue's oldest value, or `None` when the queue is
    /// (linearizably) empty. A dequeue's offset within its batch's
    /// taken chain is its sequence number: the batch's dequeues drain
    /// in announcement order, which is what makes the block FIFO.
    pub fn dequeue(&mut self) -> Option<T> {
        let eng = &self.queue.engine;
        if eng.durable().is_some() {
            return eng
                .run_durable(&self.reclaim, opcode::DEQUEUE, 0, 0)
                .value();
        }
        self.queue
            .engine
            .run(Lane::At(HEAD), Role::Remove, ptr::null_mut(), &self.reclaim)
    }

    /// Bulk enqueue: appends every value of `values`, in slice order,
    /// as one announcement (per `MAX_BULK_OPS`-sized chunk) on the
    /// tail aggregator — the chain is pre-linked by the caller, so the
    /// whole slice costs one slot of the batch and one share of the
    /// splice CAS. The enqueues linearize consecutively at the splice:
    /// afterwards the values sit in the queue back-to-back, in slice
    /// order, with no foreign value interleaved.
    ///
    pub fn enqueue_many(&mut self, values: &[T])
    where
        T: Clone,
    {
        if self.queue.engine.durable().is_some() {
            // Durable queues make every enqueue an individually
            // detectable logged op.
            for v in values {
                self.enqueue(v.clone());
            }
            return;
        }
        for chunk in values.chunks(crate::combine::MAX_BULK_OPS) {
            // Build the forward chain the tail combiner expects: the
            // announced node is the chunk's *first* value (FIFO), the
            // last value's node keeps its null `next`.
            let mut head: *mut QNode<T> = ptr::null_mut();
            let mut tail: *mut QNode<T> = ptr::null_mut();
            for v in chunk {
                let n = QNode::alloc_with(&self.reclaim, v.clone());
                if head.is_null() {
                    head = n;
                } else {
                    // Relaxed: published wholesale by the announce
                    // (slot Release store) and again by the splice.
                    unsafe { (*tail).next.store(n, Ordering::Relaxed) };
                }
                tail = n;
            }
            self.queue.engine.run_weighted(
                Lane::At(TAIL),
                Role::Add,
                head,
                chunk.len() as u32,
                &self.reclaim,
            );
        }
    }

    /// Bulk dequeue: removes up to `max` values into `out` (appended
    /// in queue order — oldest first), returning how many were taken.
    /// One announcement per `MAX_BULK_OPS`-sized chunk covers the
    /// whole request; the dequeues linearize consecutively at the bulk
    /// combiner's unlink CAS, so a `dequeue_many(n)` receives `n`
    /// consecutive queue fronts. Returns short (possibly 0) when the
    /// queue runs dry.
    ///
    pub fn dequeue_many(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        if self.queue.engine.durable().is_some() {
            // Durable queues make every dequeue an individually
            // detectable logged op.
            let mut total = 0usize;
            while total < max {
                match self.dequeue() {
                    Some(v) => {
                        out.push(v);
                        total += 1;
                    }
                    None => break,
                }
            }
            return total;
        }
        let mut total = 0usize;
        while total < max {
            let want = (max - total).min(crate::combine::MAX_BULK_OPS);
            out.reserve(want);
            let mut req = DequeueManyReq {
                want,
                // Safety: `reserve` guaranteed `want` spare slots past
                // the initialized prefix.
                out: unsafe { out.as_mut_ptr().add(out.len()) },
                taken: 0,
            };
            // Type erasure as in the stack's bulk pop: the engine
            // treats announcement pointers as opaque, and the bulk
            // aggregator's combiner knows its slots hold requests.
            let node = (&mut req as *mut DequeueManyReq<T>).cast::<QNode<T>>();
            self.queue.engine.run_weighted(
                Lane::At(HEAD_BULK),
                Role::Remove,
                node,
                want as u32,
                &self.reclaim,
            );
            // Safety: the combiner initialized exactly `taken` values
            // at the spare-capacity cursor before `applied` was
            // published.
            unsafe { out.set_len(out.len() + req.taken) };
            total += req.taken;
            if req.taken < want {
                break; // drained
            }
        }
        total
    }
}

impl<T: Send + 'static> QueueHandle<T> for SecQueueHandle<'_, T> {
    fn enqueue(&mut self, value: T) {
        SecQueueHandle::enqueue(self, value);
    }

    fn dequeue(&mut self) -> Option<T> {
        SecQueueHandle::dequeue(self)
    }
}

impl<T: Send + 'static> fmt::Debug for SecQueueHandle<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SecQueueHandle").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashSet, VecDeque};
    use std::thread;

    #[test]
    fn sequential_fifo() {
        let q: SecQueue<u32> = SecQueue::new(1);
        let mut h = q.register();
        for i in 0..50 {
            h.enqueue(i);
        }
        for i in 0..50 {
            assert_eq!(h.dequeue(), Some(i));
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn empty_queue_dequeues_none() {
        let q: SecQueue<u32> = SecQueue::new(2);
        let mut h = q.register();
        for _ in 0..100 {
            assert_eq!(h.dequeue(), None);
        }
        h.enqueue(1);
        assert_eq!(h.dequeue(), Some(1));
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn interleaved_matches_vecdeque_model() {
        let q: SecQueue<u64> = SecQueue::new(1);
        let mut h = q.register();
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut x = 0x9E37_79B9_u64 | 1;
        for i in 0..3_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x % 3 < 2 {
                h.enqueue(i);
                model.push_back(i);
            } else {
                assert_eq!(h.dequeue(), model.pop_front(), "op {i}");
            }
        }
        while let Some(expect) = model.pop_front() {
            assert_eq!(h.dequeue(), Some(expect));
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn per_producer_order_is_preserved() {
        // FIFO implies each producer's values are dequeued in its own
        // enqueue order, regardless of interleaving.
        const PRODUCERS: usize = 4;
        const PER: u64 = 2_000;
        let q: SecQueue<u64> = SecQueue::new(PRODUCERS + 1);
        let got: Vec<u64> = thread::scope(|scope| {
            for p in 0..PRODUCERS {
                let q = &q;
                scope.spawn(move || {
                    let mut h = q.register();
                    for i in 0..PER {
                        h.enqueue(((p as u64) << 32) | i);
                    }
                });
            }
            let q = &q;
            scope
                .spawn(move || {
                    let mut h = q.register();
                    let mut got = Vec::new();
                    while got.len() < (PRODUCERS as u64 * PER) as usize {
                        if let Some(v) = h.dequeue() {
                            got.push(v);
                        }
                    }
                    got
                })
                .join()
                .unwrap()
        });
        let mut last = [None::<u64>; PRODUCERS];
        for v in got {
            let p = (v >> 32) as usize;
            let i = v & 0xFFFF_FFFF;
            if let Some(prev) = last[p] {
                assert!(i > prev, "producer {p}: {i} after {prev}");
            }
            last[p] = Some(i);
        }
        for (p, l) in last.iter().enumerate() {
            assert_eq!(*l, Some(PER - 1), "producer {p} fully consumed");
        }
    }

    #[test]
    fn concurrent_conservation_mixed() {
        const THREADS: usize = 8;
        const PER: usize = 1_500;
        let q: SecQueue<u64> = SecQueue::new(THREADS + 1);
        let got: Vec<Vec<u64>> = thread::scope(|scope| {
            (0..THREADS)
                .map(|t| {
                    let q = &q;
                    scope.spawn(move || {
                        let mut h = q.register();
                        let mut got = Vec::new();
                        for i in 0..PER {
                            h.enqueue((t * PER + i) as u64);
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
        for v in got.into_iter().flatten() {
            assert!(seen.insert(v), "duplicate {v}");
        }
        let mut h = q.register();
        while let Some(v) = h.dequeue() {
            assert!(seen.insert(v), "duplicate {v} in drain");
        }
        assert_eq!(seen.len(), THREADS * PER, "values lost");
    }

    #[test]
    fn values_drop_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering as AOrd};
        use std::sync::Arc;
        struct P(Arc<AtomicUsize>);
        impl Drop for P {
            fn drop(&mut self) {
                self.0.fetch_add(1, AOrd::Relaxed);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let q: SecQueue<P> = SecQueue::new(4);
            thread::scope(|scope| {
                for t in 0..4usize {
                    let q = &q;
                    let drops = &drops;
                    scope.spawn(move || {
                        let mut h = q.register();
                        for i in 0..500usize {
                            if (t + i) % 3 < 2 {
                                h.enqueue(P(Arc::clone(drops)));
                            } else {
                                drop(h.dequeue());
                            }
                        }
                    });
                }
            });
        }
        let enqueued: usize = (0..4)
            .map(|t| (0..500).filter(|i| (t + i) % 3 < 2).count())
            .sum();
        assert_eq!(drops.load(AOrd::Relaxed), enqueued);
    }

    #[test]
    fn oversubscribed_progress() {
        const THREADS: usize = 12;
        let q: SecQueue<u64> = SecQueue::new(THREADS);
        thread::scope(|scope| {
            for t in 0..THREADS {
                let q = &q;
                scope.spawn(move || {
                    let mut h = q.register();
                    let mut x = (t as u64) | 1;
                    for i in 0..400u64 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        if x.is_multiple_of(2) {
                            h.enqueue(i);
                        } else {
                            let _ = h.dequeue();
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn stats_record_both_ends() {
        let q: SecQueue<u64> = SecQueue::new(2);
        let mut h = q.register();
        for i in 0..100 {
            h.enqueue(i);
        }
        for _ in 0..100 {
            let _ = h.dequeue();
        }
        let r = q.stats().report();
        assert!(r.batches >= 2, "both ends froze batches: {r:?}");
        assert_eq!(r.ops, 200);
        assert_eq!(r.eliminated, 0, "queue batches are homogeneous");
        assert_eq!(r.combined, r.ops);
    }

    #[test]
    fn rendezvous_window_can_be_disabled() {
        let q: SecQueue<u64> = SecQueue::new(1).rendezvous_spins(0);
        let mut h = q.register();
        assert_eq!(h.dequeue(), None);
        h.enqueue(9);
        assert_eq!(h.dequeue(), Some(9));
        assert_eq!(q.rendezvous_hits(), 0);
    }

    #[test]
    fn empty_rendezvous_pairs_concurrent_batches() {
        // Producer/consumer ping-pong on an empty queue: consumers that
        // validate emptiness while a producer splices should sometimes
        // pick the batch up inside the window. The hit counter is
        // best-effort (scheduling-dependent), so only the mechanics —
        // conservation and termination — are asserted; the counter just
        // has to stay coherent.
        const ROUNDS: usize = 2_000;
        let q: SecQueue<u64> = SecQueue::new(3);
        let consumed: u64 = thread::scope(|scope| {
            let q1 = &q;
            scope.spawn(move || {
                let mut h = q1.register();
                for i in 0..ROUNDS as u64 {
                    h.enqueue(i);
                }
            });
            let q2 = &q;
            scope
                .spawn(move || {
                    let mut h = q2.register();
                    let mut n = 0u64;
                    while n < ROUNDS as u64 {
                        if h.dequeue().is_some() {
                            n += 1;
                        }
                    }
                    n
                })
                .join()
                .unwrap()
        });
        assert_eq!(consumed, ROUNDS as u64);
        assert!(q.rendezvous_hits() <= q.stats().report().batches);
    }

    #[test]
    fn enqueue_many_dequeue_many_sequential_fifo() {
        let q: SecQueue<u64> = SecQueue::new(1);
        let mut h = q.register();
        h.enqueue_many(&[1, 2, 3, 4, 5]);
        let mut out = Vec::new();
        assert_eq!(h.dequeue_many(&mut out, 3), 3);
        assert_eq!(out, vec![1, 2, 3]);
        // Short return on a drained queue.
        assert_eq!(h.dequeue_many(&mut out, 10), 2);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
        assert_eq!(h.dequeue_many(&mut out, 4), 0);
        assert_eq!(h.dequeue(), None);
        // Bulk and single operations interleave on the same list.
        h.enqueue_many(&[6, 7]);
        h.enqueue(8);
        assert_eq!(h.dequeue(), Some(6));
        let mut rest = Vec::new();
        assert_eq!(h.dequeue_many(&mut rest, 8), 2);
        assert_eq!(rest, vec![7, 8]);
        h.enqueue_many(&[]);
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn bulk_ops_are_counted_in_ops_not_announcements() {
        const CALLS: u64 = 50;
        const LEN: usize = 8;
        let q: SecQueue<u64> = SecQueue::new(1);
        let mut h = q.register();
        let mut out = Vec::new();
        for _ in 0..CALLS {
            h.enqueue_many(&[7; LEN]);
            assert_eq!(h.dequeue_many(&mut out, LEN), LEN);
            out.clear();
        }
        let r = q.stats().report();
        assert_eq!(r.ops, 2 * CALLS * LEN as u64, "the freezer counts ops");
        assert_eq!(r.batches, 2 * CALLS, "one announcement (batch) per call");
    }

    #[test]
    fn bulk_blocks_stay_contiguous_under_concurrency() {
        // Each enqueue_many linearizes as one splice, so a producer's
        // block sits in the queue back-to-back: the consumer must see
        // each block's values consecutively, with no foreign value in
        // between.
        const PRODUCERS: usize = 3;
        const BLOCKS: usize = 80;
        const LEN: usize = 7;
        let q: SecQueue<u64> = SecQueue::new(PRODUCERS + 1);
        let got: Vec<u64> = thread::scope(|scope| {
            for p in 0..PRODUCERS as u64 {
                let q = &q;
                scope.spawn(move || {
                    let mut h = q.register();
                    for b in 0..BLOCKS as u64 {
                        let base = (p << 32) | (b * LEN as u64);
                        let vals: Vec<u64> = (0..LEN as u64).map(|i| base + i).collect();
                        h.enqueue_many(&vals);
                    }
                });
            }
            let q = &q;
            scope
                .spawn(move || {
                    let mut h = q.register();
                    let mut got = Vec::new();
                    let total = PRODUCERS * BLOCKS * LEN;
                    while got.len() < total {
                        h.dequeue_many(&mut got, 16);
                    }
                    got
                })
                .join()
                .unwrap()
        });
        assert_eq!(got.len(), PRODUCERS * BLOCKS * LEN);
        // Walk the consumed sequence block by block: every run of LEN
        // values starting at a block base must be that block, intact.
        let mut i = 0;
        while i < got.len() {
            let base = got[i];
            // The low half is the in-producer index; block starts are
            // multiples of LEN.
            assert_eq!(
                (base & 0xFFFF_FFFF) % LEN as u64,
                0,
                "block-aligned at {i}: {base}"
            );
            for j in 0..LEN as u64 {
                assert_eq!(got[i + j as usize], base + j, "block torn at {i}");
            }
            i += LEN;
        }
    }

    #[test]
    fn durable_queue_recovery_preserves_fifo_sequence() {
        use crate::DurablePolicy;
        let q = SecQueue::<u64>::durable(1, DurablePolicy::volatile()).unwrap();
        {
            let mut h = q.register();
            for v in [10u64, 20, 30, 40] {
                h.enqueue(v);
            }
            assert_eq!(h.dequeue(), Some(10));
        }
        let heap = q.durable_heap().unwrap();
        drop(q);
        let (r, report) = SecQueue::<u64>::recover(DurablePolicy::heap(heap)).unwrap();
        assert_eq!(report.replayed_ops(), 5);
        let mut h = r.register();
        assert_eq!(h.dequeue(), Some(20));
        assert_eq!(h.dequeue(), Some(30));
        assert_eq!(h.dequeue(), Some(40));
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn durable_queue_recovers_contents_under_contention() {
        use crate::{DurablePolicy, PendingOutcome};
        const THREADS: usize = 4;
        const PER: usize = 120;
        let q = SecQueue::<u64>::durable(THREADS, DurablePolicy::volatile().shards(2)).unwrap();
        thread::scope(|scope| {
            for t in 0..THREADS {
                let q = &q;
                scope.spawn(move || {
                    let mut h = q.register();
                    for i in 0..PER {
                        let v = (t * PER + i) as u64;
                        if i % 3 == 2 {
                            h.dequeue();
                        } else {
                            h.enqueue(v);
                        }
                    }
                });
            }
        });
        // Drain the live structure into a sorted multiset, then put
        // the values back (the drain itself was logged).
        let mut live: Vec<u64> = Vec::new();
        {
            let mut h = q.register();
            while let Some(v) = h.dequeue() {
                live.push(v);
            }
            for &v in &live {
                h.enqueue(v);
            }
        }
        live.sort_unstable();
        let heap = q.durable_heap().unwrap();
        drop(q);
        let (r, report) = SecQueue::<u64>::recover(DurablePolicy::heap(heap)).unwrap();
        for h in &report.handles[..THREADS] {
            assert!(matches!(
                h.pending,
                PendingOutcome::Executed { .. } | PendingOutcome::None
            ));
        }
        let mut rec: Vec<u64> = Vec::new();
        let mut h = r.register();
        while let Some(v) = h.dequeue() {
            rec.push(v);
        }
        rec.sort_unstable();
        assert_eq!(rec, live);
    }

    #[test]
    fn durable_queue_replay_refuses_a_diverged_or_foreign_log() {
        use crate::combine::durable::testing::{assert_corrupt, recover_forged, Entry};
        use crate::combine::durable::{Family, OpResult::*};
        let recover =
            |ops: &[Entry]| recover_forged(Family::Queue, 0, ops, SecQueue::<u64>::recover);
        // Control: a faithful log replays.
        let q = recover(&[(opcode::ENQUEUE, 7, 0, Unit), (opcode::ENQUEUE, 8, 0, Unit)]).unwrap();
        assert_eq!(q.register().dequeue(), Some(7));
        // A dequeue logged as returning 7 from an empty queue.
        assert_corrupt(
            recover(&[(opcode::DEQUEUE, 0, 0, Value(7))]),
            "replay diverged",
        );
        // A dequeue logged with the wrong end's value.
        assert_corrupt(
            recover(&[
                (opcode::ENQUEUE, 7, 0, Unit),
                (opcode::ENQUEUE, 8, 0, Unit),
                (opcode::DEQUEUE, 0, 0, Value(8)),
            ]),
            "replay diverged",
        );
        // A stack op in a queue log.
        assert_corrupt(recover(&[(opcode::PUSH, 7, 0, Unit)]), "foreign opcode");
    }

    #[test]
    fn durable_queue_bulk_ops_route_through_the_log() {
        use crate::DurablePolicy;
        let q = SecQueue::<u64>::durable(2, DurablePolicy::volatile()).unwrap();
        {
            let mut h = q.register();
            h.enqueue_many(&[1, 2, 3, 4, 5]);
            let mut out = Vec::new();
            assert_eq!(h.dequeue_many(&mut out, 2), 2);
            assert_eq!(out, vec![1, 2]);
        }
        assert_eq!(q.durable_stats().unwrap().entries, 7);
        let heap = q.durable_heap().unwrap();
        drop(q);
        let (r, _) = SecQueue::<u64>::recover(DurablePolicy::heap(heap)).unwrap();
        let mut h = r.register();
        assert_eq!(h.dequeue(), Some(3));
    }
}
