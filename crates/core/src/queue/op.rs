//! The queue's `CombineOp` instantiation: the MS-style list, the two
//! single-CAS combiners, the empty-queue rendezvous window and the
//! durable replay rule. Private, so the op type stays unnameable behind
//! the public [`SecQueue`](super::SecQueue) alias.

use crate::combine::durable::{self, opcode, DurableOp, Export, Family, OpResult};
use crate::combine::{wait_ptr, AggLayout, CombineBatch, CombineOp, LoneRule, Role, Sec};
use crate::config::{AggregatorPolicy, SecConfig, WaitPolicy};
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
pub(super) const HEAD: usize = 0;
pub(super) const TAIL: usize = 1;
pub(super) const HEAD_BULK: usize = 2;

/// A queue node. `value` is `MaybeUninit` (not `ManuallyDrop` as in the
/// stack) because the MS-queue representation needs nodes with *no*
/// value at all: the initial dummy is allocated empty, and every node
/// whose value has been consumed lives on as the dummy until a later
/// dequeue combiner retires it.
pub struct QNode<T> {
    value: MaybeUninit<T>,
    pub(super) next: AtomicPtr<QNode<T>>,
}

impl<T> QNode<T> {
    /// Allocates a detached node carrying `value`, reusing a recycled
    /// node block from `reclaim`'s free lists when one is available
    /// (DESIGN.md §10).
    pub(super) fn alloc_with(reclaim: &ReclaimHandle<'_>, value: T) -> *mut QNode<T> {
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
pub(super) struct DequeueManyReq<T> {
    /// How many values this request asks for.
    pub(super) want: usize,
    /// Spare capacity in the caller's buffer; the combiner writes
    /// `taken` initialized values starting here.
    pub(super) out: *mut T,
    /// How many values the combiner delivered (≤ `want`; short when
    /// the queue ran dry).
    pub(super) taken: usize,
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
pub struct QueueOp<T: Send + 'static> {
    /// Points at the dummy; the queue's front value is `head.next`.
    pub(super) head: CachePadded<AtomicPtr<QNode<T>>>,
    /// Points at the last spliced node (== the dummy when empty).
    pub(super) tail: CachePadded<AtomicPtr<QNode<T>>>,
    /// Spin budget of the empty-queue rendezvous window.
    pub(super) rendezvous_spins: u32,
    /// Dequeue batches and lone dequeues that observed the queue empty
    /// and then received a splice through the rendezvous window (the
    /// queue's elimination counter).
    pub(super) rendezvous_hits: AtomicU64,
}

impl<T: Send + 'static> QueueOp<T> {
    /// Swing-then-link: one CAS on `tail` claims the splice point for
    /// the pre-linked chain `first..=last`; the `next` link makes the
    /// chain reachable. A traverser that reaches the old tail before
    /// the link lands waits for it (the gap is bounded by this store).
    /// Returns `false`, with nothing written, when the CAS lost to
    /// another splicer: an enqueue combiner (at most one per live tail
    /// batch) or a lone enqueue. The caller is pinned.
    fn try_splice(&self, first: *mut QNode<T>, last: *mut QNode<T>) -> bool {
        let t = self.tail.load(Ordering::Acquire);
        if self
            .tail
            .compare_exchange(t, last, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return false;
        }
        // Safety: `t` cannot be freed while we are pinned, and only the
        // splicer that moved `tail` off `t` writes `t.next` — that is
        // us.
        unsafe { (*t).next.store(first, Ordering::Release) };
        true
    }

    /// Walks up to `wanted` nodes from `head` and unlinks them with a
    /// single CAS on `head`; returns the taken chain's first node and
    /// length (`(null, 0)` when the queue is empty), or `None` when the
    /// CAS lost to another taker (a head combiner of either head
    /// aggregator, or a lone dequeue) and nothing was taken. The
    /// chain's last node becomes the new dummy: its value is the
    /// taker's, its husk stays linked until a later unlink retires it.
    ///
    /// Emptiness is MS-validated: `cur.next == null` with `tail == cur`
    /// means the queue truly ends at `cur` at the moment of the tail
    /// read (a splice would have moved `tail` first). `cur.next ==
    /// null` with `tail != cur` is an in-flight swing-then-link gap;
    /// the link is coming, so the traversal waits for it — the same
    /// class of bounded-by-another-thread's-progress wait as every
    /// other SEC spin.
    ///
    /// A queue found empty before anything was taken holds the
    /// rendezvous window open, spending `window` pauses, so a
    /// concurrent splice can land straight in the taker's hands (the
    /// queue's empty-only elimination). The budget is the caller's, so
    /// it spans retries and a contended empty queue cannot hold the
    /// taker forever. The caller is pinned.
    fn try_take_front(
        &self,
        eng: &Sec<Self>,
        wanted: usize,
        window: &mut u32,
        guard: &Guard<'_, '_>,
    ) -> Option<(*mut QNode<T>, usize)> {
        let wait = eng.config().wait;
        // A hit is only counted when THIS traversal observed empty and
        // then took values — a lost CAS after a window wait must not
        // count the next round's ordinary unlink as a rendezvous.
        let mut waited_empty = false;
        let h = self.head.load(Ordering::Acquire);
        let mut cur = h;
        let mut first = ptr::null_mut();
        let mut taken = 0usize;
        while taken < wanted {
            let nxt = unsafe { (*cur).next.load(Ordering::Acquire) };
            if nxt.is_null() {
                if ptr::eq(self.tail.load(Ordering::Acquire), cur) {
                    // Queue ends at `cur`. Empty-only elimination: if
                    // we have taken nothing, the queue is empty — hold
                    // the rendezvous window open.
                    if taken == 0 && *window > 0 {
                        *window -= 1;
                        waited_empty = true;
                        // Policy-aware pause: under the yielding and
                        // parking policies, periodically give the slice
                        // away inside the window — on an oversubscribed
                        // host that is what lets a producer actually
                        // reach its splice (the wait is anonymous, so
                        // parking proper cannot apply — no waker would
                        // know us).
                        if wait == WaitPolicy::Spin || !window.is_multiple_of(32) {
                            core::hint::spin_loop();
                        } else {
                            std::thread::yield_now();
                        }
                        continue;
                    }
                    break; // validated: the queue ends at `cur`
                }
                // Swing done, link in flight: wait for it (bounded by
                // the splicer's next store — anonymous, so never
                // parked).
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
            return Some((ptr::null_mut(), 0));
        }
        // One CAS unlinks the whole chain: `cur` becomes the new dummy
        // (its value belongs to the chain's last taker, MS-queue
        // style).
        self.head
            .compare_exchange(h, cur, Ordering::AcqRel, Ordering::Acquire)
            .ok()?;
        if waited_empty {
            self.rendezvous_hits.fetch_add(1, Ordering::Relaxed);
        }
        // Safety: the CAS made us the unique retirer of the outgoing
        // dummy; its value (if it ever had one) was consumed when it
        // became the dummy — the husk recycles.
        unsafe { guard.retire_recycle(h) };
        Some((first, taken))
    }

    /// A combiner's [`QueueOp::try_take_front`]: retried, after a
    /// backoff, until it lands.
    fn take_front(
        &self,
        eng: &Sec<Self>,
        wanted: usize,
        mut window: u32,
        guard: &Guard<'_, '_>,
    ) -> (*mut QNode<T>, usize) {
        let mut backoff = Backoff::new();
        loop {
            if let Some(taken) = self.try_take_front(eng, wanted, &mut window, guard) {
                return taken;
            }
            // Another taker won; re-traverse from the new head.
            eng.stats().record_cas_failure();
            backoff.spin();
        }
    }

    /// Deals the taken chain `first` (`taken` nodes long) out to the
    /// bulk requests `reqs` in order, so each `dequeue_many(n)`
    /// receives `n` consecutive queue fronts. The chain's last node is
    /// the live dummy — its value is consumed here but its husk stays
    /// linked, and its `next` keeps evolving, so the walk never reads
    /// past `taken - 1` links. A drained queue leaves later requests
    /// (and the tail of a partly-served one) at `taken < want`.
    ///
    /// # Safety
    ///
    /// The chain is the caller's, just taken by [`QueueOp::take_front`],
    /// and each request is live with the caller as its only writer.
    unsafe fn deal(
        first: *mut QNode<T>,
        taken: usize,
        reqs: impl Iterator<Item = *mut DequeueManyReq<T>>,
        guard: &Guard<'_, '_>,
    ) {
        let mut cur = first;
        let mut idx = 0usize;
        for req in reqs {
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

    /// The bulk-dequeue combiner: tally the batch's total demand, take
    /// that many nodes from the front with one CAS, then deal the
    /// block out to the requests in announcement order.
    ///
    /// Differences from the mapped head combiner: no rendezvous window
    /// (a bulk dequeue on an empty queue reports 0 at once — the
    /// window's purpose is pairing *single* hand-offs, and holding it
    /// per request would stall whole blocks), and the combiner
    /// distributes values itself instead of publishing a chain —
    /// there is one waiter per *request*, not per value.
    fn combine_dequeue_many(
        &self,
        eng: &Sec<Self>,
        batch: &CombineBatch<QNode<T>>,
        my_seq: usize,
        guard: &Guard<'_, '_>,
    ) {
        let slots = &batch.slots[my_seq..batch.frozen_cut(Role::Remove)];
        let wait = eng.config().wait;
        let total: usize = slots
            .iter()
            // Safety: the request outlives the batch (announcer blocks
            // on `applied`); the combiner is its unique accessor.
            .map(|slot| unsafe { (*wait_ptr(slot, wait).cast::<DequeueManyReq<T>>()).want })
            .sum();
        let (first, taken) = self.take_front(eng, total, 0, guard);
        let reqs = slots.iter().map(|slot| slot.load(Ordering::Acquire).cast());
        // Safety: as above; the block is ours from `take_front`.
        unsafe { Self::deal(first, taken, reqs, guard) };
    }
}

impl<T: Send + 'static> CombineOp for QueueOp<T> {
    type Node = QNode<T>;
    type Value = T;

    const NAME: &'static str = "SecQueue";
    const DEFAULT_K: usize = 1;
    // One engine aggregator per end plus the bulk dequeue aggregator.
    // Head batches carry no slots — single dequeuers bring no nodes;
    // the bulk aggregator's slots carry requests. Bulk *enqueues* need
    // no aggregator of their own: they announce chains on TAIL, whose
    // combiner is chain-aware.
    const LAYOUT: AggLayout = AggLayout::Fixed {
        ends: &[false, true, true],
        bulk: 0,
    };
    // Per-end batches never eliminate (the rendezvous window pairs
    // only on an empty queue), so a batch pays only when shared.
    const LONE: LoneRule = LoneRule::IdleLane;

    fn create(_param: u64) -> Self {
        let dummy = QNode::alloc_dummy();
        QueueOp {
            head: CachePadded::new(AtomicPtr::new(dummy)),
            tail: CachePadded::new(AtomicPtr::new(dummy)),
            rendezvous_spins: DEFAULT_RENDEZVOUS_SPINS,
            rendezvous_hits: AtomicU64::new(0),
        }
    }

    /// Every thread may operate on either end, so all batch layers
    /// admit all of them: the `k = 1` configuration pins the
    /// per-aggregator capacity at `max_threads`.
    fn normalize(config: SecConfig) -> SecConfig {
        config.aggregator_policy(AggregatorPolicy::Fixed(1))
    }

    // ------------------------------------------------------------------
    // Enqueue combining (the tail aggregator's add lane)
    // ------------------------------------------------------------------

    /// Pre-link the batch's announced nodes in sequence order and
    /// splice the chain with a single CAS on `tail`.
    fn combine_add(
        &self,
        eng: &Sec<Self>,
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
            // splice's Release store of the old tail's `next`.
            unsafe { (*prev).next.store(n, Ordering::Relaxed) };
            prev = unsafe { chain_last(n) };
        }
        let mut backoff = Backoff::new();
        while !self.try_splice(first, prev) {
            eng.stats().record_cas_failure();
            backoff.spin();
        }
    }

    // ------------------------------------------------------------------
    // Dequeue combining (the head aggregator's remove lane)
    // ------------------------------------------------------------------

    /// Take up to one node per batch dequeue off the front with a
    /// single CAS on `head` (holding the rendezvous window on an empty
    /// queue), and publish the chain + count for the waiters.
    fn combine_remove(
        &self,
        eng: &Sec<Self>,
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
        // An empty take (the window, if any, expired) makes every
        // dequeue of the batch report EMPTY.
        let (first, taken) = self.take_front(eng, wanted, self.rendezvous_spins, guard);
        batch.result_head.store(first, Ordering::Release);
        batch.taken.store(taken as u64, Ordering::Release);
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
        _eng: &Sec<Self>,
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

    /// A lone enqueue, dequeue or bulk call (DESIGN.md §12 "Lone
    /// operations"): what a degree-1 batch's combiner does, without
    /// the batch, as a single CAS attempt. An enqueue — a one-node
    /// chain, or an `enqueue_many` chunk's pre-linked chain — is
    /// spliced as the tail combiner splices. A single dequeue brings no
    /// node: it takes one node off the front as the head combiner does,
    /// holding the rendezvous window only while another handle is live
    /// (with one, no splice can arrive). A bulk dequeue brings its
    /// request and is served as a degree-1 bulk batch. A lost CAS is
    /// evidence that others are at the same end, so the op goes back
    /// to be combined with theirs.
    fn try_alone(
        &self,
        eng: &Sec<Self>,
        role: Role,
        node: *mut QNode<T>,
        reclaim: &ReclaimHandle<'_>,
    ) -> Result<Option<T>, *mut QNode<T>> {
        let guard = reclaim.pin();
        let lost = || {
            eng.stats().record_cas_failure();
            Err(node)
        };
        match role {
            Role::Add => {
                // Safety: the caller's own chain, never announced.
                if !self.try_splice(node, unsafe { chain_last(node) }) {
                    return lost();
                }
                Ok(None)
            }
            Role::Remove if node.is_null() => {
                let mut window = if eng.live_handles() > 1 {
                    self.rendezvous_spins
                } else {
                    0
                };
                let Some((first, taken)) = self.try_take_front(eng, 1, &mut window, &guard) else {
                    return lost();
                };
                // Safety: the one node we took; it is the new dummy, so
                // its husk stays linked (as `take_result` leaves the
                // last node of a chain).
                Ok((taken == 1).then(|| unsafe { QNode::take_value(first) }))
            }
            Role::Remove => {
                let req = node.cast::<DequeueManyReq<T>>();
                // Safety: the caller's own request, never announced.
                let want = unsafe { (*req).want };
                let Some((first, taken)) = self.try_take_front(eng, want, &mut 0, &guard) else {
                    return lost();
                };
                unsafe { Self::deal(first, taken, core::iter::once(req), &guard) };
                Ok(None)
            }
        }
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

    /// Enqueues, front to back.
    fn export_logged(&self, out: &mut Export<'_>) {
        // Safety: the apply lock excludes every dequeue, so the dummy
        // and the nodes behind it stay linked and unconsumed.
        let mut cur = unsafe {
            (*self.head.load(Ordering::Acquire))
                .next
                .load(Ordering::Acquire)
        };
        while let Some(node) = unsafe { cur.as_ref() } {
            let value = durable::word_of::<T>(unsafe { node.value.assume_init_ref() });
            out.push(opcode::ENQUEUE, value, 0, OpResult::Unit);
            cur = node.next.load(Ordering::Acquire);
        }
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

impl DurableOp for QueueOp<u64> {
    const FAMILY: Family = Family::Queue;
}
