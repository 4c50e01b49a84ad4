//! The per-thread side of the collector: handles, pinning guards,
//! limbo-bag management.

use crate::bag::{Bag, Deferred};
use crate::collector::{Collector, PINNED};
use crate::recycle::ThreadCache;
use crate::{ADVANCE_PERIOD, BAG_PRESSURE};
use core::alloc::Layout;
use core::cell::UnsafeCell;
use core::fmt;
use core::ptr::NonNull;
use core::sync::atomic::{fence, Ordering};

/// Thread-private state behind the handle's `UnsafeCell`.
struct Local {
    /// Limbo bags, indexed by `epoch mod 3`.
    bags: [Bag; 3],
    /// Per-thread recycle free lists (DESIGN.md §10). Present even when
    /// the policy is off (with a zero bound) so the hot paths stay
    /// branch-light; the off check happens once per alloc/dispose.
    cache: ThreadCache,
    /// Re-entrant pin depth (only the outermost pin announces).
    pin_depth: u32,
    /// Epoch announced by the current outermost pin.
    pin_epoch: u64,
    /// Total pins, for amortizing advance attempts.
    pins: u64,
}

/// A registered thread's access point to a [`Collector`].
///
/// One handle per thread; not `Sync` (it owns thread-private limbo
/// bags). Dropping the handle releases its registry slot and hands any
/// unfreed garbage to the collector's orphan list.
pub struct Handle<'c> {
    collector: &'c Collector,
    slot_idx: usize,
    local: UnsafeCell<Local>,
}

// Safety: `Handle` can move between threads (it is only ever used by one
// thread at a time — it is not `Sync`); the bags' contents are `Send`.
unsafe impl Send for Handle<'_> {}

impl<'c> Handle<'c> {
    pub(crate) fn new(collector: &'c Collector, slot_idx: usize) -> Self {
        Self {
            collector,
            slot_idx,
            local: UnsafeCell::new(Local {
                bags: [Bag::new(), Bag::new(), Bag::new()],
                cache: ThreadCache::new(collector.recycle_policy().cache_cap()),
                pin_depth: 0,
                pin_epoch: 0,
                pins: 0,
            }),
        }
    }

    /// The collector this handle belongs to.
    pub fn collector(&self) -> &'c Collector {
        self.collector
    }

    /// Index of this handle's registry slot: a dense thread id in
    /// `0..max_threads`, unique among live handles. The stacks reuse it
    /// as their thread id (e.g. SEC's aggregator assignment).
    pub fn slot(&self) -> usize {
        self.slot_idx
    }

    #[allow(clippy::mut_from_ref)]
    fn local(&self) -> &mut Local {
        // Safety: `Handle` is not `Sync` and the `&mut` never escapes a
        // single method call, so there is no aliasing.
        unsafe { &mut *self.local.get() }
    }

    /// Pins the calling thread, announcing the current epoch.
    ///
    /// While the returned [`Guard`] lives, no object retired *from now
    /// on* will be freed, so shared pointers read under the guard remain
    /// valid. Pinning is re-entrant; only the outermost pin pays the
    /// announcement cost.
    pub fn pin(&self) -> Guard<'_, 'c> {
        let local = self.local();
        local.pin_depth += 1;
        if local.pin_depth == 1 {
            let slot = &self.collector.slots[self.slot_idx];
            // Announce-and-verify loop (crossbeam/DEBRA idiom): the
            // SeqCst fence orders our announcement before the re-read of
            // the global epoch, so by the time we proceed, every other
            // thread's advance scan either sees our announcement or
            // happened before we read `e` (in which case `e` is still
            // current and the advance cannot skip us).
            loop {
                let e = self.collector.load_epoch_relaxed();
                slot.state.store((e << 1) | PINNED, Ordering::Relaxed);
                fence(Ordering::SeqCst);
                if self.collector.load_epoch_relaxed() == e {
                    local.pin_epoch = e;
                    break;
                }
                // Epoch moved under us; re-announce with the fresh value.
            }
            local.pins += 1;
            if local.pins.is_multiple_of(ADVANCE_PERIOD) {
                self.advance_and_collect();
            }
        }
        Guard { handle: self }
    }

    /// `true` while the thread is pinned (diagnostic).
    pub fn is_pinned(&self) -> bool {
        self.local().pin_depth > 0
    }

    /// Number of objects waiting in this thread's limbo bags.
    pub fn pending_local(&self) -> usize {
        self.local().bags.iter().map(Bag::len).sum()
    }

    /// How many recycled blocks this thread's cache has spilled to the
    /// global pool over its lifetime (monotonic; a tracing consumer
    /// diffs successive reads).
    pub fn recycle_overflows(&self) -> u64 {
        self.local().cache.overflows
    }

    /// Tries to advance the epoch and free everything this thread has
    /// retired. Must be called *unpinned*; makes at most `rounds`
    /// advance attempts (other threads' stale pins can block progress).
    ///
    /// Returns the number of objects still pending afterwards.
    pub fn flush(&self, rounds: usize) -> usize {
        assert!(
            !self.is_pinned(),
            "flush must not be called while pinned (it would block itself)"
        );
        for _ in 0..rounds {
            if self.pending_local() == 0 {
                break;
            }
            let e = self.collector.global_epoch();
            let now = self.collector.try_advance(e);
            self.collect(now);
            self.collector.collect_orphans(now);
            if now == e {
                break; // blocked by a pinned straggler; retry later
            }
        }
        self.pending_local()
    }

    fn unpin(&self) {
        let local = self.local();
        debug_assert!(local.pin_depth > 0);
        local.pin_depth -= 1;
        if local.pin_depth == 0 {
            let slot = &self.collector.slots[self.slot_idx];
            // Quiescent: keep the epoch bits (harmless), clear PINNED.
            slot.state.store(local.pin_epoch << 1, Ordering::Release);
        }
    }

    /// Adds `d` to the bag for the current global epoch.
    fn defer(&self, d: Deferred) {
        // Tag with the *global* epoch at retire time (not the pin
        // epoch): a reader pinned at `pin_epoch + 1` may have taken a
        // reference before the unlink, and the `tag + 2` free threshold
        // must account for it.
        let tag = self.collector.global_epoch();
        let Local { bags, cache, .. } = self.local();
        let bag = &mut bags[(tag % 3) as usize];
        if bag.epoch != tag {
            // Reusing the slot for a newer epoch: the old contents are
            // ≥ 3 epochs stale — dispose of them first.
            let (freed, cached) = dispose_drained(self.collector, cache, bag);
            self.collector.note_freed(freed);
            self.collector.note_cached(cached);
            bag.epoch = tag;
        }
        bag.push(d);
        // Single writer: this handle owns the slot, so a plain
        // load+store counts the retire without a locked RMW.
        let retired = &self.collector.slots[self.slot_idx].retired;
        retired.store(retired.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        if bag.len() >= BAG_PRESSURE {
            let pin_epoch = self.local().pin_epoch;
            if !self.advance_and_collect()
                && pin_epoch == tag
                && self.collector.yields_when_blocked()
            {
                // Another thread is pinned in an older epoch, so nothing
                // can drain and every retire grows the bag: yield until
                // the straggler moves (see
                // `Collector::yielding_when_blocked`). When our own pin
                // is the stale one, yielding would not help.
                std::thread::yield_now();
            }
        }
    }

    /// One amortized advance attempt plus a sweep of eligible bags.
    /// Returns whether the epoch moved.
    fn advance_and_collect(&self) -> bool {
        let e = self.collector.global_epoch();
        let now = self.collector.try_advance(e);
        self.collect(now);
        if now != e {
            self.collector.collect_orphans(now);
        }
        now != e
    }

    /// Disposes of every local bag whose epoch is ≥ 2 behind
    /// `epoch_now`: recyclable blocks enter the free lists, the rest
    /// are dropped.
    fn collect(&self, epoch_now: u64) {
        let Local { bags, cache, .. } = self.local();
        for bag in bags {
            if !bag.is_empty() && epoch_now >= bag.epoch + 2 {
                let (freed, cached) = dispose_drained(self.collector, cache, bag);
                self.collector.note_freed(freed);
                self.collector.note_cached(cached);
            }
        }
    }

    /// Pops a recycled block of exactly `layout` from this thread's
    /// free list, refilling from the collector's global pool when the
    /// local bin runs dry. `None` — the caller heap-allocates — when
    /// recycling is off, the layout is zero-sized, or no block of the
    /// class is available. Counts a hit or a miss accordingly.
    pub fn alloc_raw(&self, layout: Layout) -> Option<NonNull<u8>> {
        if layout.size() == 0 || !self.collector.recycle_on() {
            return None;
        }
        let cache = &mut self.local().cache;
        let got = cache
            .pop(layout)
            .or_else(|| cache.refill_from(self.collector.pool(), layout));
        match got {
            Some(p) => {
                cache.hits += 1;
                // Safety: free lists only ever hold non-null blocks.
                Some(unsafe { NonNull::new_unchecked(p) })
            }
            None => {
                cache.misses += 1;
                None
            }
        }
    }

    /// Allocates a heap slot for `value`, reusing a recycled block of
    /// `T`'s layout when one is available. The returned pointer is
    /// always valid for `Box::from_raw::<T>` — recycled blocks
    /// originate from allocations of the same layout.
    pub fn alloc_boxed<T>(&self, value: T) -> *mut T {
        match self.alloc_raw(Layout::new::<T>()) {
            Some(p) => {
                let p = p.as_ptr().cast::<T>();
                // Safety: the block is unaliased, sized and aligned for
                // `T` (exact-layout size classes); old bytes are dead.
                unsafe { p.write(value) };
                p
            }
            None => Box::into_raw(Box::new(value)),
        }
    }
}

/// Disposes one drained bag: recyclable blocks go to the thread cache,
/// overflowing into the collector's global pool (and, past that, the
/// allocator); droppable items run their shim. Returns
/// `(freed, cached)` for the collector's accounting.
fn dispose_drained(
    collector: &Collector,
    cache: &mut ThreadCache,
    bag: &mut Bag,
) -> (usize, usize) {
    let recycle_on = collector.recycle_on();
    let mut freed = 0usize;
    let mut cached = 0usize;
    for d in bag.drain_iter() {
        match d {
            d @ Deferred::Drop { .. } => {
                d.execute();
                freed += 1;
            }
            Deferred::Recycle { ptr, layout } => {
                if !recycle_on {
                    // Safety: unique live block of exactly `layout`
                    // (the retire_recycle contract), consumed here.
                    unsafe { std::alloc::dealloc(ptr, layout) };
                    freed += 1;
                    continue;
                }
                match cache.push(ptr, layout) {
                    Ok(()) => cached += 1,
                    Err(p) => {
                        cache.overflows += 1;
                        match collector.pool().push(p, layout) {
                            Ok(()) => cached += 1,
                            Err(p) => {
                                // Safety: as above.
                                unsafe { std::alloc::dealloc(p, layout) };
                                freed += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    (freed, cached)
}

impl Drop for Handle<'_> {
    fn drop(&mut self) {
        debug_assert_eq!(self.local().pin_depth, 0, "handle dropped while pinned");
        // Hand unfreed garbage to the collector, spill the recycle
        // cache into the shared pool (other threads keep the blocks
        // warm), flush the recycle counters, then release the slot.
        let local = self.local();
        let mut orphaned = Vec::new();
        for bag in &mut local.bags {
            let epoch = bag.epoch;
            for d in bag.take_items() {
                orphaned.push((epoch, d));
            }
        }
        local.cache.spill_all(self.collector.pool());
        self.collector.flush_recycle_counters(
            local.cache.hits,
            local.cache.misses,
            local.cache.overflows,
        );
        self.collector.adopt_orphans(orphaned);
        let slot = &self.collector.slots[self.slot_idx];
        slot.state.store(0, Ordering::Release);
        self.collector.note_handle_dropped();
        slot.claimed.store(0, Ordering::Release);
    }
}

impl fmt::Debug for Handle<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Handle")
            .field("slot", &self.slot_idx)
            .field("pinned", &self.is_pinned())
            .field("pending_local", &self.pending_local())
            .finish()
    }
}

/// RAII pin: the thread stays announced while any guard is alive.
pub struct Guard<'h, 'c> {
    handle: &'h Handle<'c>,
}

impl<'h, 'c> Guard<'h, 'c> {
    /// The epoch this guard announced at its outermost pin.
    pub fn epoch(&self) -> u64 {
        self.handle.local().pin_epoch
    }

    /// The handle this guard pins — gives retire-time code paths (e.g.
    /// a freezer installing a replacement batch) access to the
    /// recycle-aware allocation API without threading a second
    /// reference around.
    pub fn handle(&self) -> &'h Handle<'c> {
        self.handle
    }

    /// Hands an allocation to the collector for deferred dropping.
    ///
    /// # Safety
    ///
    /// * `ptr` must come from [`Box::into_raw`] and be owned by the
    ///   caller (no further use after this call);
    /// * `ptr` must already be unreachable from every shared location,
    ///   so only threads pinned *now* can still hold references;
    /// * `T`'s drop must not call back into this collector.
    pub unsafe fn retire<T: Send>(&self, ptr: *mut T) {
        debug_assert!(!ptr.is_null());
        // Safety: forwarded caller contract.
        let d = unsafe { Deferred::new(ptr) };
        self.handle.defer(d);
    }

    /// Hands an allocation to the collector for deferred *recycling*:
    /// after quiescence its memory enters a free list (or is freed,
    /// when recycling is off or the lists are full) and a later
    /// [`Handle::alloc_raw`]/[`Handle::alloc_boxed`] of the same layout
    /// may reuse it. `T`'s destructor is **never** run.
    ///
    /// # Safety
    ///
    /// Everything [`Guard::retire`] requires, plus: the caller must
    /// have already moved `T`'s payload out (or `T` must need no drop)
    /// — the block's bytes are dead the moment it quiesces.
    pub unsafe fn retire_recycle<T: Send>(&self, ptr: *mut T) {
        // Safety: forwarded caller contract; `Layout::new::<T>` is the
        // exact layout `Box::into_raw::<T>` allocated with.
        unsafe { self.retire_recycle_raw(ptr.cast(), Layout::new::<T>()) }
    }

    /// Raw-layout variant of [`Guard::retire_recycle`], for compound
    /// objects whose parts recycle separately (e.g. a batch struct and
    /// its boxed slot array).
    ///
    /// # Safety
    ///
    /// `ptr` must be a unique, valid allocation of exactly `layout`
    /// (with `layout.size() > 0`), already unreachable from every
    /// shared location, owned by the caller and never touched again;
    /// no destructor is run for its contents.
    pub unsafe fn retire_recycle_raw(&self, ptr: *mut u8, layout: Layout) {
        debug_assert!(!ptr.is_null());
        assert!(
            layout.size() > 0,
            "zero-size blocks cannot be recycled (nothing was allocated)"
        );
        // Safety: forwarded caller contract.
        let d = unsafe { Deferred::recycle(ptr, layout) };
        self.handle.defer(d);
    }
}

impl Drop for Guard<'_, '_> {
    fn drop(&mut self) {
        self.handle.unpin();
    }
}

impl fmt::Debug for Guard<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Guard")
            .field("epoch", &self.epoch())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering as AOrd};
    use std::sync::Arc;

    struct DropCounter(Arc<AtomicUsize>);
    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, AOrd::Relaxed);
        }
    }

    fn retire_counter(g: &Guard<'_, '_>, c: &Arc<AtomicUsize>) {
        let p = Box::into_raw(Box::new(DropCounter(Arc::clone(c))));
        unsafe { g.retire(p) };
    }

    #[test]
    fn nested_pins_announce_once() {
        let c = Collector::new(1);
        let h = c.register().unwrap();
        let g1 = h.pin();
        let e = g1.epoch();
        let g2 = h.pin();
        assert_eq!(g2.epoch(), e);
        drop(g2);
        assert!(h.is_pinned());
        drop(g1);
        assert!(!h.is_pinned());
    }

    #[test]
    fn retired_object_not_freed_while_epoch_stuck() {
        let c = Collector::new(2);
        let h1 = c.register().unwrap();
        let h2 = c.register().unwrap();
        let drops = Arc::new(AtomicUsize::new(0));

        let _blocker = h2.pin(); // pins epoch 1 and never moves
        {
            let g = h1.pin();
            retire_counter(&g, &drops);
        }
        // h2's stale pin blocks the second advance, so the object can
        // never reach tag+2 while _blocker lives.
        assert_eq!(h1.flush(16), 1);
        assert_eq!(drops.load(AOrd::Relaxed), 0);
    }

    #[test]
    fn flush_frees_after_blockers_unpin() {
        let c = Collector::new(2);
        let h1 = c.register().unwrap();
        let h2 = c.register().unwrap();
        let drops = Arc::new(AtomicUsize::new(0));

        {
            let blocker = h2.pin();
            let g = h1.pin();
            retire_counter(&g, &drops);
            drop(g);
            drop(blocker);
        }
        assert_eq!(h1.flush(16), 0);
        assert_eq!(drops.load(AOrd::Relaxed), 1);
    }

    #[test]
    fn handle_drop_orphans_then_collector_drop_frees() {
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let c = Collector::new(1);
            let h = c.register().unwrap();
            {
                let g = h.pin();
                retire_counter(&g, &drops);
                retire_counter(&g, &drops);
            }
            drop(h); // garbage becomes orphaned
            assert_eq!(drops.load(AOrd::Relaxed), 0);
        } // collector drop frees orphans
        assert_eq!(drops.load(AOrd::Relaxed), 2);
    }

    #[test]
    fn bag_pressure_triggers_reclamation() {
        let c = Collector::new(1);
        let h = c.register().unwrap();
        let drops = Arc::new(AtomicUsize::new(0));
        // Retire a lot with nobody blocking: pressure-triggered advances
        // must free most of it without an explicit flush.
        for _ in 0..10 * crate::BAG_PRESSURE {
            let g = h.pin();
            retire_counter(&g, &drops);
        }
        assert!(
            drops.load(AOrd::Relaxed) > 0,
            "pressure/amortized advances must reclaim eventually"
        );
        h.flush(64);
        assert_eq!(drops.load(AOrd::Relaxed), 10 * crate::BAG_PRESSURE);
    }

    #[test]
    #[should_panic(expected = "flush must not be called while pinned")]
    fn flush_while_pinned_panics() {
        let c = Collector::new(1);
        let h = c.register().unwrap();
        let _g = h.pin();
        let _ = h.flush(1);
    }

    #[test]
    fn concurrent_retire_and_read_stress() {
        use std::thread;
        const THREADS: usize = 4;
        const OPS: usize = 3_000;
        let drops = Arc::new(AtomicUsize::new(0));
        let c = Arc::new(Collector::new(THREADS));
        thread::scope(|s| {
            for _ in 0..THREADS {
                let c = &c;
                let drops = &drops;
                s.spawn(move || {
                    let h = c.register().unwrap();
                    for i in 0..OPS {
                        let g = h.pin();
                        if i % 2 == 0 {
                            retire_counter(&g, drops);
                        }
                        drop(g);
                    }
                    h.flush(64);
                });
            }
        });
        // All threads exited; a fresh handle can flush the remainder,
        // and collector drop picks up orphans.
        {
            let h = c.register().unwrap();
            h.flush(64);
        }
        drop(Arc::try_unwrap(c).unwrap());
        assert_eq!(drops.load(AOrd::Relaxed), THREADS * OPS / 2);
    }
}
