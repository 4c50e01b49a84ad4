//! The stack's `CombineOp` instantiation: a Treiber-style top pointer,
//! the single-CAS substack splice (push combining), the single-CAS
//! chain unlink (pop combining), elimination through the slot array,
//! the lone path and the durable replay rule. Private, so the op type
//! stays unnameable behind the public [`SecStack`](super::SecStack)
//! alias.

use super::node::Node;
use crate::combine::durable::{self, opcode, DurableOp, Export, Family, OpResult};
use crate::combine::{wait_ptr, AggLayout, CombineBatch, CombineOp, LoneRule, Role, Sec};
use core::ptr;
use core::sync::atomic::{AtomicPtr, Ordering};
use sec_reclaim::{Guard, Handle as ReclaimHandle};
use sec_sync::{Backoff, CachePadded};

/// The stack's apply logic: a Treiber-style top pointer plus the
/// paper's two single-CAS combiners. Everything else — batching,
/// freezing, elimination pairing, parking, elastic sharding — is the
/// engine's.
pub struct StackOp<T: Send + 'static> {
    /// `stackTop` (paper line 2): the *only* cross-aggregator
    /// contention point, touched once per batch by each combiner.
    pub(super) top: CachePadded<AtomicPtr<Node<T>>>,
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
pub(super) struct PopManyReq<T> {
    /// How many values this request asks for.
    pub(super) want: usize,
    /// Spare capacity in the caller's buffer; the combiner writes
    /// `taken` initialized values starting here.
    pub(super) out: *mut T,
    /// How many values the combiner actually delivered (≤ `want`;
    /// short when the stack ran dry).
    pub(super) taken: usize,
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
        eng: &Sec<Self>,
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

        let chain = self.unlink(eng, total);

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

    /// Lines 44–50: splices the pre-linked chain `top..=bot` onto the
    /// shared stack with a single CAS. Other combiners (one per live
    /// batch) and lone ops race here, hence the retry loop; its
    /// failures are the contention monitor's cross-aggregator signal.
    #[inline]
    fn splice(&self, eng: &Sec<Self>, top: *mut Node<T>, bot: *mut Node<T>) {
        let mut backoff = Backoff::new();
        loop {
            let cur = self.top.load(Ordering::Acquire);
            // Relaxed is enough: the successful CAS releases the chain.
            unsafe { (*bot).next.store(cur, Ordering::Relaxed) };
            if self
                .top
                .compare_exchange(cur, top, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return;
            }
            eng.stats().record_cas_failure();
            backoff.spin();
        }
    }

    /// Lines 80–92: unlinks up to `wanted` nodes (fewer when the stack
    /// is shallower) with a single CAS and returns the unlinked chain's
    /// top, null when the stack was empty. The chain is not
    /// null-terminated: its deepest link runs into the remaining stack,
    /// so consumers walk at most `wanted` nodes. The caller is pinned.
    #[inline]
    fn unlink(&self, eng: &Sec<Self>, wanted: usize) -> *mut Node<T> {
        let mut backoff = Backoff::new();
        loop {
            let top = self.top.load(Ordering::Acquire);
            if top.is_null() {
                return top;
            }
            let mut bot = top;
            for _ in 0..wanted {
                if bot.is_null() {
                    break; // stack shallower than the demand: take it all
                }
                bot = unsafe { (*bot).next.load(Ordering::Acquire) };
            }
            if self
                .top
                .compare_exchange(top, bot, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return top;
            }
            eng.stats().record_cas_failure();
            backoff.spin();
        }
    }
}

impl<T: Send + 'static> CombineOp for StackOp<T> {
    type Node = Node<T>;
    type Value = T;

    const NAME: &'static str = "SecStack";
    // Two bulk aggregators past the mapped prefix: `bulk_agg(0)`
    // carries `push_many` chains (add lane), `bulk_agg(1)` carries
    // `pop_many` requests (remove lane). Each is single-lane, so its
    // batches degenerate to pure combining — elimination never applies
    // to a bulk announcement.
    const LAYOUT: AggLayout = AggLayout::Mapped {
        with_slots: true,
        bulk: 2,
    };
    // A push and a pop that meet in one mapped batch eliminate, so a
    // partner caught by the freezer's backoff pays for the wait.
    const ELIMINATES: bool = true;
    // So a second live handle keeps every single op on the batch path,
    // where it may meet its partner.
    const LONE: LoneRule = LoneRule::OneHandle;

    fn create(_param: u64) -> Self {
        StackOp {
            top: CachePadded::new(AtomicPtr::new(ptr::null_mut())),
        }
    }

    // ------------------------------------------------------------------
    // Push combining (paper lines 33–51)
    // ------------------------------------------------------------------

    /// `PushToStack`: build the substack of all non-eliminated pushes
    /// and splice it onto the shared stack with one CAS.
    fn combine_add(
        &self,
        eng: &Sec<Self>,
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

        self.splice(eng, top, bot);
    }

    // ------------------------------------------------------------------
    // Pop combining (paper lines 80–94)
    // ------------------------------------------------------------------

    /// `PopFromStack`: unlink one node per non-eliminated pop (up to
    /// the stack's depth) with a single CAS, and publish the removed
    /// chain.
    fn combine_remove(
        &self,
        eng: &Sec<Self>,
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
        let chain = self.unlink(eng, wanted);
        // Line 93: publish the unlinked chain; the Release store of
        // `applied` (by the engine) orders it for waiters.
        batch.result_head.store(chain, Ordering::Release);
    }

    /// Lines 65–67: the pop's push partner publishes its node right
    /// after announcing; wait for the slot and take the value.
    fn eliminate(
        &self,
        eng: &Sec<Self>,
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
        eng: &Sec<Self>,
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
    /// splices its own one-node chain; a pop unlinks one node and
    /// consumes it, or reports EMPTY off an empty stack. Inlined, with
    /// the two bodies it shares, so a lone thread's op stays one call.
    #[inline]
    fn try_alone(
        &self,
        eng: &Sec<Self>,
        role: Role,
        node: *mut Node<T>,
        reclaim: &ReclaimHandle<'_>,
    ) -> Result<Option<T>, *mut Node<T>> {
        let guard = reclaim.pin();
        Ok(match role {
            Role::Add => {
                self.splice(eng, node, node);
                None
            }
            Role::Remove => {
                let top = self.unlink(eng, 1);
                // Safety: our CAS unlinked `top`, so we are its unique
                // consumer; payload out, husk recycles.
                (!top.is_null()).then(|| unsafe {
                    let value = Node::take_value(top);
                    guard.retire_recycle(top);
                    value
                })
            }
        })
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

    /// Pushes, bottom to top: one walk counts the nodes, a second
    /// writes them from the list's end.
    fn export_logged(&self, out: &mut Export<'_>) {
        // Safety: the apply lock excludes every pop, so no node of the
        // live stack is unlinked or freed during the walks.
        let nodes = || {
            std::iter::successors(
                unsafe { self.top.load(Ordering::Acquire).as_ref() },
                |n| unsafe { n.next.load(Ordering::Acquire).as_ref() },
            )
        };
        let count = nodes().count();
        let mut at = out.reserve(count) + count;
        for node in nodes() {
            at -= 1;
            out.put(
                at,
                opcode::PUSH,
                durable::word_of::<T>(&node.value),
                0,
                OpResult::Unit,
            );
        }
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

impl DurableOp for StackOp<u64> {
    const FAMILY: Family = Family::Stack;
}
