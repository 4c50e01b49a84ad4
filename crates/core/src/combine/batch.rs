//! The engine's batch and aggregator types — one generalization of the
//! paper's Figure 1 (`struct Batch`, `struct Aggregator`) serving every
//! SEC family.
//!
//! A [`CombineBatch`] carries *two* announcement lanes, add and remove
//! (the stack's `pushCount`/`popCount`). Families with homogeneous
//! batches — the queue's per-end batches, the counter — simply never
//! announce on the other lane, whose counter then stays pinned at zero;
//! the mixed-batch protocol (freezer test&set, inclusion test,
//! elimination pairing, combiner election) degenerates to exactly the
//! homogeneous one, which is what lets a single engine drive all of
//! them (DESIGN.md §12).
//!
//! Field-by-field correspondence with the paper's Figure 1:
//!
//! | paper                 | here               |
//! |-----------------------|--------------------|
//! | `pushCount`           | `add_count`        |
//! | `popCount`            | `remove_count`     |
//! | `pushCountAtFreeze`   | `add_at_freeze`    |
//! | `popCountAtFreeze`    | `remove_at_freeze` |
//! | `eliminationArray[P]` | `slots`            |
//! | `subStackTop`         | `result_head`      |
//! | `isFreezerDecided`    | `freezer_decided`  |
//! | `isBatchApplied`      | `applied`          |
//!
//! `taken` is the queue family's addition: when the result chain's last
//! node lives on (as the queue's dummy), null-termination cannot
//! delimit the chain, so the combiner publishes an explicit length.

use core::alloc::Layout;
use core::ptr;
use core::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use sec_reclaim::{Guard, Handle as ReclaimHandle};
use sec_sync::event::{spin_wait, WaitPolicy, WaitQueue, WaitStats};
use sec_sync::CachePadded;

/// Low half of a packed lane counter: the announcement count.
const COUNT_MASK: u64 = 0xFFFF_FFFF;

/// Largest op weight a single announcement may carry. Bulk APIs chunk
/// above this; the bound keeps the high half of a packed lane counter
/// from overflowing even when every slot of a max-capacity batch
/// carries a maximal bulk announcement: with announcements per batch
/// bounded by the aggregator capacity (≤ max_threads ≪ 2^16), the op
/// half's worst-case sum (2^16 − 1) × 2^16 fits its 32 bits.
pub(crate) const MAX_BULK_OPS: usize = 1 << 16;

/// The packed-counter increment for an announcement carrying `ops`
/// operations (1 for a plain announcement, N for a bulk one).
///
/// Lane counters pack two fields into one `AtomicU64`: the low 32 bits
/// count *announcements* (the sequence-number source — one per node,
/// bulk or not), the high 32 bits count *operations*. Both halves move
/// in the same `fetch_add`, so any prefix of the counter's modification
/// order carries a consistent (announcements, ops) pair — the freezer's
/// single snapshot load therefore yields the announcement cut *and* the
/// exact operation weight below it, which is what keeps `SecStats` op
/// accounting exact when announcements stop being unit-weight.
#[inline]
pub(crate) const fn pack_announce(ops: u32) -> u64 {
    1 | ((ops as u64) << 32)
}

/// The announcement count of a packed lane-counter value.
#[inline]
pub(crate) const fn unpack_count(v: u64) -> usize {
    (v & COUNT_MASK) as usize
}

/// The operation count of a packed lane-counter value.
#[inline]
pub(crate) const fn unpack_ops(v: u64) -> u64 {
    v >> 32
}

/// Which announcement lane an operation uses. Adds bring a node into
/// the batch's slot array; removes take results out of the published
/// chain. Same-sequence add/remove pairs eliminate in mixed batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The inserting lane (`push`, `enqueue`, `push_front`/`push_back`).
    Add,
    /// The removing / result-bearing lane (`pop`, `dequeue`,
    /// `fetch_add` — any operation that receives a value back).
    Remove,
}

/// A batch: the unit of freezing, elimination and combining, generic
/// over the node type `N` flowing through its slots and result chain.
///
/// The two announcement counters are cache-padded: they are the only
/// fields hammered by fetch&increment from every thread of the
/// aggregator, and the two lanes must not false-share.
pub struct CombineBatch<N> {
    /// Announcement counter for the add lane (sequence-number source).
    pub(crate) add_count: CachePadded<AtomicU64>,
    /// Announcement counter for the remove lane.
    pub(crate) remove_count: CachePadded<AtomicU64>,
    /// `add_count` as snapshotted by the freezer; published by the
    /// aggregator's batch-pointer swap.
    pub(crate) add_at_freeze: AtomicU64,
    /// `remove_count` as snapshotted by the freezer.
    pub(crate) remove_at_freeze: AtomicU64,
    /// Test&set word electing the freezer among the (at most two)
    /// sequence-number-0 announcers. Homogeneous batches have a single
    /// seq-0 announcer, for which the swap trivially returns `false` —
    /// the election is uniform across families.
    pub(crate) freezer_decided: AtomicBool,
    /// Set by the combiner once every surviving operation of the batch
    /// has been applied to the shared structure.
    pub(crate) applied: AtomicBool,
    /// Head of the chain of result nodes the remove combiner published
    /// (the stack's `subStackTop`); remove waiter `i` consumes the
    /// `i`-th node.
    pub(crate) result_head: AtomicPtr<N>,
    /// How many results the remove combiner actually produced, for
    /// families whose result chain is not null-terminated (the queue —
    /// see the module docs). Published before `applied`.
    pub(crate) taken: AtomicU64,
    /// Clock ticks at the freeze, stamped by a tracing freezer
    /// (DESIGN.md §14) so the combiner can report the freeze→publish
    /// batch residency. Stays zero when tracing is off; eight dead
    /// bytes per batch is cheaper than a second cfg'd batch layout.
    pub(crate) frozen_at: AtomicU64,
    /// The announcement slot array: slot `i` carries the node brought
    /// by the announcer with sequence number `i` on the slot-publishing
    /// lane. Empty for aggregators whose announcers bring no nodes.
    pub(crate) slots: Box<[AtomicPtr<N>]>,
    /// Announcement bound for the overflow assert (== `slots.len()`
    /// where slots are allocated; kept separately because slotless
    /// aggregators still bound their announcements).
    pub(crate) capacity: usize,
}

impl<N> CombineBatch<N> {
    /// The lane's announcement counter.
    #[inline]
    pub(crate) fn count(&self, role: Role) -> &AtomicU64 {
        match role {
            Role::Add => &self.add_count,
            Role::Remove => &self.remove_count,
        }
    }

    /// The lane's frozen cut.
    #[inline]
    pub(crate) fn cut(&self, role: Role) -> &AtomicU64 {
        match role {
            Role::Add => &self.add_at_freeze,
            Role::Remove => &self.remove_at_freeze,
        }
    }

    /// The lane's frozen *announcement* cut — the sequence-number bound
    /// of the inclusion test and the combiners' slot walks. The cut
    /// fields store the freezer's packed snapshot (see
    /// [`pack_announce`]); this unpacks the low half.
    #[inline]
    pub(crate) fn frozen_cut(&self, role: Role) -> usize {
        unpack_count(self.cut(role).load(Ordering::Acquire))
    }

    /// Heap-allocates a fresh batch (construction-time path; freezers
    /// go through [`CombineBatch::alloc_with`]).
    pub(crate) fn alloc(capacity: usize, with_slots: bool) -> *mut CombineBatch<N> {
        Box::into_raw(Box::new(Self::fresh(
            Self::fresh_slots(capacity, with_slots, None),
            capacity,
        )))
    }

    fn fresh(slots: Box<[AtomicPtr<N>]>, capacity: usize) -> CombineBatch<N> {
        CombineBatch {
            add_count: CachePadded::new(AtomicU64::new(0)),
            remove_count: CachePadded::new(AtomicU64::new(0)),
            add_at_freeze: AtomicU64::new(0),
            remove_at_freeze: AtomicU64::new(0),
            freezer_decided: AtomicBool::new(false),
            applied: AtomicBool::new(false),
            result_head: AtomicPtr::new(ptr::null_mut()),
            taken: AtomicU64::new(0),
            frozen_at: AtomicU64::new(0),
            slots,
            capacity,
        }
    }

    /// Slotless aggregators (announcers bring no nodes) get an empty
    /// array, which owns no allocation; slotted ones go through the
    /// recycled-buffer helper.
    fn fresh_slots(
        capacity: usize,
        with_slots: bool,
        reclaim: Option<&ReclaimHandle<'_>>,
    ) -> Box<[AtomicPtr<N>]> {
        if with_slots {
            alloc_slots_with(reclaim, capacity)
        } else {
            Vec::new().into_boxed_slice()
        }
    }

    /// Allocates a fresh batch, reusing recycled batch-struct and
    /// slot-array blocks from `reclaim`'s free lists when available
    /// (DESIGN.md §10) — the freezer's hot-path replacement for
    /// [`CombineBatch::alloc`].
    pub(crate) fn alloc_with(
        reclaim: &ReclaimHandle<'_>,
        capacity: usize,
        with_slots: bool,
    ) -> *mut CombineBatch<N> {
        let slots = Self::fresh_slots(capacity, with_slots, Some(reclaim));
        reclaim.alloc_boxed(Self::fresh(slots, capacity))
    }

    /// Retires a frozen batch for recycling: the struct block and the
    /// slot array's buffer return to the retiring thread's free lists
    /// once quiesced. Replaces `guard.retire(batch)` — the batch's
    /// destructor must *not* run (it would free the array the free
    /// list now owns), so the two blocks are retired separately.
    ///
    /// # Safety
    ///
    /// Same contract as [`Guard::retire`] for `batch` (unique,
    /// unreachable for new pins, currently-pinned readers may still
    /// use it); additionally every node pointer still in the array
    /// must be owned elsewhere (elimination/combining consumed them).
    pub(crate) unsafe fn retire_with(guard: &Guard<'_, '_>, batch: *mut CombineBatch<N>)
    where
        N: Send,
    {
        // Reading the field is safe: we are pinned and the batch is
        // live until quiescence; `slots` is immutable after
        // construction.
        unsafe { retire_slots(guard, &(*batch).slots) };
        // Safety: forwarded caller contract; the slots buffer's
        // ownership moved to the collector above (empty boxes own no
        // allocation), and the struct block is recycled raw, so the
        // destructor never runs.
        unsafe { guard.retire_recycle(batch) };
    }
}

// Safety: a batch contains only atomics (plus the boxed slot array);
// raw node pointers are managed by the engine and its ops, which
// transfer node ownership only between threads that may own the nodes.
unsafe impl<N: Send> Send for CombineBatch<N> {}
unsafe impl<N: Send> Sync for CombineBatch<N> {}

/// The exact layout of a `capacity`-slot `AtomicPtr<N>` array's buffer
/// — its recycle size class.
fn slots_layout<N>(capacity: usize) -> Layout {
    Layout::array::<AtomicPtr<N>>(capacity).expect("slot-array layout overflow")
}

/// Builds a `capacity`-length boxed slice of null `AtomicPtr`s, reusing
/// a recycled buffer from `reclaim` when one is available (`None` —
/// construction time — always heap-allocates).
pub(crate) fn alloc_slots_with<N>(
    reclaim: Option<&ReclaimHandle<'_>>,
    capacity: usize,
) -> Box<[AtomicPtr<N>]> {
    if capacity == 0 {
        return Vec::new().into_boxed_slice();
    }
    if let Some(block) = reclaim.and_then(|r| r.alloc_raw(slots_layout::<N>(capacity))) {
        let p = block.as_ptr().cast::<AtomicPtr<N>>();
        // Safety: the block has exactly the array's layout
        // (exact-layout size classes) and is unaliased; it originated
        // from a `Box<[AtomicPtr<_>]>` of the same length, so
        // rebuilding the box is sound.
        unsafe {
            for i in 0..capacity {
                p.add(i).write(AtomicPtr::new(ptr::null_mut()));
            }
            return Box::from_raw(ptr::slice_from_raw_parts_mut(p, capacity));
        }
    }
    (0..capacity)
        .map(|_| AtomicPtr::new(ptr::null_mut()))
        .collect()
}

/// Retires a batch's slot-array buffer for recycling (a no-op for the
/// empty slice, which owns no allocation).
///
/// # Safety
///
/// `slots` must be a batch's own boxed-slice array; the owning batch
/// must be retired via raw recycling in the same epoch so its
/// destructor never runs (the free list owns the buffer from here);
/// and every node pointer still in the array must be owned elsewhere.
pub(crate) unsafe fn retire_slots<N>(guard: &Guard<'_, '_>, slots: &[AtomicPtr<N>]) {
    if slots.is_empty() {
        return;
    }
    let buf = slots.as_ptr() as *mut u8;
    // Safety: unique live buffer of exactly `slots_layout(len)` per
    // the caller contract, consumed exactly once.
    unsafe { guard.retire_recycle_raw(buf, slots_layout::<N>(slots.len())) };
}

/// An aggregator: one pointer to its currently active batch, plus the
/// park queue its batches' waiters register on.
pub(crate) struct CombineAggregator<N> {
    pub(crate) batch: AtomicPtr<CombineBatch<N>>,
    /// Parked-waiter registry for every batch generation that passes
    /// through this aggregator, keyed by batch address (DESIGN.md
    /// §11). Living here — not in the batch — keeps it out of the
    /// destructor-less recycled batch blocks.
    pub(crate) event: WaitQueue,
    /// Whether this aggregator's batches carry announcement slots.
    pub(crate) with_slots: bool,
    /// Slot-array size of every batch this aggregator installs. Mapped
    /// aggregators share the policy-derived per-aggregator capacity;
    /// dedicated bulk aggregators are sized for every thread (any
    /// thread may issue a bulk call), and a durable shard for the
    /// slots mapped to it.
    pub(crate) capacity: usize,
    /// Whether this aggregator's freezer spends the
    /// `freezer_backoff` spin: set only where an announcer caught by
    /// the wait pays — the stack's mapped aggregators, whose batches
    /// eliminate, and durable shards, where it shares the batch's log
    /// record and commit. Fixed at construction.
    pub(crate) spins: bool,
}

impl<N> CombineAggregator<N> {
    /// Creates an aggregator with a fresh initial batch.
    pub(crate) fn new(capacity: usize, with_slots: bool, spins: bool) -> Self {
        Self {
            batch: AtomicPtr::new(CombineBatch::alloc(capacity, with_slots)),
            event: WaitQueue::new(),
            with_slots,
            capacity,
            spins,
        }
    }
}

/// The shared `applied`-flag wait: parks (per `policy`) on the
/// aggregator's event queue, keyed by the batch's address, until the
/// batch's combiner flips `applied`. This is the single seam the
/// families' former copy-pasted `while !batch.applied { snooze }`
/// loops collapsed into; the waking half is [`mark_applied`].
#[inline]
pub(crate) fn wait_applied<N>(
    agg: &CombineAggregator<N>,
    batch: &CombineBatch<N>,
    key: *mut CombineBatch<N>,
    policy: WaitPolicy,
    stats: &WaitStats,
) {
    agg.event.wait_until(key as usize, policy, stats, || {
        batch.applied.load(Ordering::Acquire)
    });
}

/// The waking half of [`wait_applied`]: publishes `applied` (Release —
/// the handshake requires the condition to be visible before the
/// notify) and wakes exactly the batch's registered waiters.
#[inline]
pub(crate) fn mark_applied<N>(
    agg: &CombineAggregator<N>,
    batch: &CombineBatch<N>,
    key: *mut CombineBatch<N>,
    stats: &WaitStats,
) {
    batch.applied.store(true, Ordering::Release);
    agg.event.notify_key(key as usize, stats);
}

/// Waits (policy-aware, never parking) for a slot another announcer is
/// about to publish — the "line 38" wait shared by the push combiner,
/// the eliminating pop, the queue's enqueue
/// combiner and the counter's summing combiner. The publisher is
/// between its `fetch&increment` and its slot store — a few
/// instructions — so there is no waker to register with and nothing
/// worth parking for; see [`spin_wait`].
#[inline]
pub(crate) fn wait_ptr<N>(slot: &AtomicPtr<N>, policy: WaitPolicy) -> *mut N {
    let mut p = slot.load(Ordering::Acquire);
    if !p.is_null() {
        return p;
    }
    spin_wait(policy, || {
        p = slot.load(Ordering::Acquire);
        !p.is_null()
    });
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::sync::atomic::Ordering;

    #[test]
    fn fresh_batch_is_virgin() {
        let b = CombineBatch::<u32>::alloc(4, true);
        let r = unsafe { &*b };
        assert_eq!(r.add_count.load(Ordering::Relaxed), 0);
        assert_eq!(r.remove_count.load(Ordering::Relaxed), 0);
        assert!(!r.freezer_decided.load(Ordering::Relaxed));
        assert!(!r.applied.load(Ordering::Relaxed));
        assert_eq!(r.slots.len(), 4);
        assert_eq!(r.capacity, 4);
        assert!(r.slots.iter().all(|p| p.load(Ordering::Relaxed).is_null()));
        drop(unsafe { Box::from_raw(b) });
    }

    #[test]
    fn slotless_batch_keeps_capacity_bound() {
        let b = CombineBatch::<u32>::alloc(8, false);
        let r = unsafe { &*b };
        assert!(r.slots.is_empty());
        assert_eq!(r.capacity, 8);
        drop(unsafe { Box::from_raw(b) });
    }

    #[test]
    fn aggregator_starts_with_live_batch() {
        let a = CombineAggregator::<u32>::new(2, true, false);
        let b = a.batch.load(Ordering::Acquire);
        assert!(!b.is_null());
        drop(unsafe { Box::from_raw(b) });
    }

    #[test]
    fn lane_accessors_pick_the_right_counters() {
        let b = CombineBatch::<u32>::alloc(2, true);
        let r = unsafe { &*b };
        r.count(Role::Add).store(3, Ordering::Relaxed);
        r.count(Role::Remove).store(5, Ordering::Relaxed);
        r.cut(Role::Add).store(7, Ordering::Relaxed);
        r.cut(Role::Remove).store(9, Ordering::Relaxed);
        assert_eq!(r.add_count.load(Ordering::Relaxed), 3);
        assert_eq!(r.remove_count.load(Ordering::Relaxed), 5);
        assert_eq!(r.add_at_freeze.load(Ordering::Relaxed), 7);
        assert_eq!(r.remove_at_freeze.load(Ordering::Relaxed), 9);
        drop(unsafe { Box::from_raw(b) });
    }

    #[test]
    fn packed_counters_round_trip() {
        // A sum of packed announcements unpacks to (count, Σops) —
        // the invariant the freezer's single-snapshot accounting
        // rests on.
        let mut v = 0u64;
        let weights = [1u32, 1, 64, MAX_BULK_OPS as u32, 1];
        for &w in &weights {
            v += pack_announce(w);
        }
        assert_eq!(unpack_count(v), weights.len());
        assert_eq!(
            unpack_ops(v),
            weights.iter().map(|&w| w as u64).sum::<u64>()
        );
        // The worst case — a batch maxed out at 2^16 − 1 announcements
        // (the capacity assert bounds announcements by max_threads,
        // which is far below that) of maximal weight each — stays
        // clear of the halves' boundary.
        let n = MAX_BULK_OPS - 1;
        let full = pack_announce(MAX_BULK_OPS as u32) * (n as u64);
        assert_eq!(unpack_count(full), n);
        assert_eq!(unpack_ops(full), (n * MAX_BULK_OPS) as u64);
    }

    #[test]
    fn frozen_cut_unpacks_the_snapshot() {
        let b = CombineBatch::<u32>::alloc(2, true);
        let r = unsafe { &*b };
        r.cut(Role::Add).store(pack_announce(5), Ordering::Relaxed);
        r.cut(Role::Remove)
            .store(pack_announce(1) + pack_announce(3), Ordering::Relaxed);
        assert_eq!(r.frozen_cut(Role::Add), 1);
        assert_eq!(r.frozen_cut(Role::Remove), 2);
        drop(unsafe { Box::from_raw(b) });
    }
}
