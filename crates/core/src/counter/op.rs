//! The counter's `CombineOp` instantiation: one central word, one
//! combining RMW per frozen batch or lone op, and the durable replay
//! rule. Private, so the op type stays unnameable behind the public
//! [`SecCounter`](super::SecCounter) alias.

use crate::combine::durable::{opcode, DurableOp, Export, Family, OpResult};
use crate::combine::{wait_ptr, AggLayout, CombineBatch, CombineOp, LoneRule, Role, Sec};
use core::sync::atomic::{AtomicU64, Ordering};
use sec_reclaim::{Guard, Handle as ReclaimHandle};
use sec_sync::CachePadded;

/// The counter's apply logic: one central word, one combiner.
pub struct CounterOp {
    /// The linearization point of every `fetch_add` and `load`: all
    /// operations of a frozen batch linearize consecutively, in slot
    /// order, at the combiner's single `fetch_add` on this word.
    pub(super) total: CachePadded<AtomicU64>,
}

/// One announced addition — a `fetch_add`'s one delta or an
/// `add_many` chunk's slice — and the node flowing through every
/// counter aggregator. Lives on the announcer's stack frame (the
/// announcer blocks until `applied`, so the frame outlives every
/// combiner access), so no counter op allocates.
pub struct AddReq {
    /// The caller's delta slice.
    pub(super) deltas: *const u64,
    pub(super) len: usize,
    /// Written by whoever applies the request: the counter's value
    /// immediately before its first delta (its `fetch_add` base).
    pub(super) base: u64,
}

// Safety: the delta pointer reaches into the announcing thread's frame,
// which outlives every access (the announcer blocks until its request
// is applied), and each request has one applier.
unsafe impl Send for AddReq {}

impl CounterOp {
    /// Applies `reqs` as consecutive additions with one RMW on the
    /// counter, then hands each request its base (`base + Σ deltas
    /// before it`). `rmw` adds the requests' sum and returns the value
    /// it replaced, or `None` when it gave up, leaving the requests
    /// untouched; `add_all` reports which. The one body of the combiner
    /// (over a frozen batch's requests) and of a lone op (over its
    /// own). Two passes over the requests, no scratch buffer.
    ///
    /// # Safety
    ///
    /// Every request `reqs` yields must be live and this call its only
    /// applier, and `reqs` must yield the same requests both times.
    unsafe fn add_all<I: Iterator<Item = *mut AddReq>>(
        &self,
        reqs: impl Fn() -> I,
        rmw: impl FnOnce(u64) -> Option<u64>,
    ) -> bool {
        let deltas =
            |req: *mut AddReq| unsafe { core::slice::from_raw_parts((*req).deltas, (*req).len) };
        let sum = reqs()
            .flat_map(deltas)
            .fold(0u64, |s, &d| s.wrapping_add(d));
        let Some(mut base) = rmw(sum) else {
            return false;
        };
        for req in reqs() {
            // Safety: `base` is ours to write — its owner reads it only
            // once the request is applied.
            unsafe { (*req).base = base };
            base = deltas(req).iter().fold(base, |b, &d| b.wrapping_add(d));
        }
        true
    }
}

impl CombineOp for CounterOp {
    type Node = AddReq;
    type Value = u64;

    const NAME: &'static str = "SecCounter";
    // One dedicated bulk aggregator after the mapped prefix, carrying
    // `add_many` request batches.
    const LAYOUT: AggLayout = AggLayout::Mapped {
        with_slots: true,
        bulk: 1,
    };
    // A batch of additions never eliminates, so it pays only when
    // shared.
    const LONE: LoneRule = LoneRule::IdleLane;

    fn create(_param: u64) -> Self {
        CounterOp {
            total: CachePadded::new(AtomicU64::new(0)),
        }
    }

    // `combine_add` and `eliminate` keep their defaults: the add lane
    // of a counter batch is always empty, so the engine never calls
    // them.

    /// Sum the frozen batch's deltas, add the total to the central
    /// counter with one RMW, and write each request's base back into
    /// it. The mapped and bulk aggregators share this combiner: a
    /// `fetch_add` is a one-delta request.
    fn combine_remove(
        &self,
        eng: &Sec<Self>,
        batch: &CombineBatch<AddReq>,
        my_seq: usize,
        _agg_idx: usize,
        _guard: &Guard<'_, '_>,
    ) {
        let slots = &batch.slots[my_seq..batch.frozen_cut(Role::Remove)];
        let wait = eng.config().wait;
        // Every included operation published its request (slot stores
        // happen right after announcing; freezing only bounds *which*
        // slots, not *when* they land — so wait on the ones still in
        // flight; the second pass finds them all published).
        // Safety: the announcers block until `applied`, and the
        // combiner is each included request's only applier.
        unsafe {
            self.add_all(
                || slots.iter().map(|slot| wait_ptr(slot, wait)),
                |sum| Some(self.total.fetch_add(sum, Ordering::AcqRel)),
            )
        };
    }

    /// Each participant (combiner included) reads its base back from
    /// its own request. The add lane is empty, so the engine's `offset`
    /// is the operation's own sequence number.
    fn take_result(
        &self,
        _eng: &Sec<Self>,
        batch: &CombineBatch<AddReq>,
        offset: usize,
        _agg_idx: usize,
        _guard: &Guard<'_, '_>,
    ) -> Option<u64> {
        let req = batch.slots[offset].load(Ordering::Acquire);
        debug_assert!(
            !req.is_null(),
            "request published before announcing completed"
        );
        // Safety: our own request, applied (the engine observed
        // `applied`, which the combiner's writes happen-before).
        Some(unsafe { (*req).base })
    }

    /// A lone `fetch_add` or `add_many` chunk (DESIGN.md §12 "Lone
    /// operations"): the degree-1 batch's one RMW, without the batch,
    /// as a single CAS attempt. A lost CAS is evidence that others are
    /// adding too, so the request goes back to be combined with theirs.
    fn try_alone(
        &self,
        eng: &Sec<Self>,
        _role: Role,
        req: *mut AddReq,
        _reclaim: &ReclaimHandle<'_>,
    ) -> Result<Option<u64>, *mut AddReq> {
        let once = |sum: u64| {
            let cur = self.total.load(Ordering::Relaxed);
            self.total
                .compare_exchange(
                    cur,
                    cur.wrapping_add(sum),
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                )
                .ok()
        };
        // Safety: the request was never announced, so its owner, the
        // caller, is its only applier.
        if unsafe { self.add_all(|| core::iter::once(req), once) } {
            Ok(Some(unsafe { (*req).base }))
        } else {
            eng.stats().record_cas_failure();
            Err(req)
        }
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

    /// One add of the total, which an empty counter answers with 0.
    fn export_logged(&self, out: &mut Export<'_>) {
        let total = self.total.load(Ordering::Acquire);
        out.push(opcode::ADD, total, 0, OpResult::Value(0));
    }
}

impl DurableOp for CounterOp {
    const FAMILY: Family = Family::Counter;
}
