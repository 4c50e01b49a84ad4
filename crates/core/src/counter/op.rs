//! The counter's `CombineOp` instantiation: one central word, one
//! combining RMW per frozen batch, the lone path and the durable replay
//! rule. Private, so the op type stays unnameable behind the public
//! [`SecCounter`](super::SecCounter) alias.

use crate::combine::durable::{opcode, DurableOp, Family, OpResult};
use crate::combine::{AggLayout, CombineBatch, CombineOp, Role, Sec};
use crate::sec::node::Node;
use core::mem::ManuallyDrop;
use core::sync::atomic::{AtomicU64, Ordering};
use sec_reclaim::Guard;
use sec_sync::CachePadded;

/// The counter's apply logic: one central word, one combiner.
pub struct CounterOp {
    /// The linearization point of every `fetch_add` and `load`: all
    /// operations of a frozen batch linearize consecutively, in slot
    /// order, at the combiner's single `fetch_add` on this word.
    pub(super) total: CachePadded<AtomicU64>,
}

/// A bulk `add_many` announcement: the node flowing through the
/// counter's dedicated bulk aggregator. Lives on the announcer's stack
/// frame (the announcer blocks until `applied`, so the frame outlives
/// every combiner access); the engine only stores and forwards the
/// pointer, type-erased as `*mut Node<u64>`.
pub(super) struct AddManyReq {
    /// The caller's delta slice.
    pub(super) deltas: *const u64,
    pub(super) len: usize,
    /// Written by the combiner: the counter's value immediately before
    /// this request's first delta (the request's `fetch_add` base).
    pub(super) base: u64,
}

impl CombineOp for CounterOp {
    type Node = Node<u64>;
    type Value = u64;

    const NAME: &'static str = "SecCounter";
    // One dedicated bulk aggregator after the mapped prefix, carrying
    // `add_many` request batches.
    const LAYOUT: AggLayout = AggLayout::Mapped {
        with_slots: true,
        bulk: 1,
    };

    fn create(_param: u64) -> Self {
        CounterOp {
            total: CachePadded::new(AtomicU64::new(0)),
        }
    }

    // `combine_add` and `eliminate` keep their defaults: the add lane
    // of a counter batch is always empty, so the engine never calls
    // them.

    /// Sum the frozen batch's operands, add the total to the central
    /// counter with one RMW, and write each participant's pre-sum back
    /// into its announcement slot. Allocation-free: two passes over
    /// the slot array, no scratch buffer.
    fn combine_remove(
        &self,
        eng: &Sec<Self>,
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
        eng: &Sec<Self>,
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
        _eng: &Sec<Self>,
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
    fn combine_add_many(&self, eng: &Sec<Self>, batch: &CombineBatch<Node<u64>>, my_seq: usize) {
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

impl DurableOp for CounterOp {
    const FAMILY: Family = Family::Counter;
}
