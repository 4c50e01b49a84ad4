//! The global side of the collector: epoch word, announcement slots,
//! orphaned garbage.

use crate::bag::Deferred;
use crate::handle::Handle;
use crate::recycle::{GlobalPool, RecyclePolicy};
use core::fmt;
use core::ops::Range;
use core::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use sec_sync::{CachePadded, TtasLock};

/// Announcement state of one registered thread.
///
/// Layout: `(epoch << 1) | pinned`. A quiescent (unpinned) thread never
/// blocks an epoch advance.
pub(crate) struct Slot {
    pub(crate) state: AtomicU64,
    /// Slot allocation flag: 0 free, 1 claimed.
    pub(crate) claimed: AtomicU64,
    /// Items retired through this slot, by every handle that has held
    /// it. Only the slot's current owner writes it, with a plain
    /// load+store (no locked RMW on the retire path); successive
    /// owners are ordered by the Release store that frees the slot and
    /// the AcqRel claim that takes it. [`Collector::stats`] sums it.
    pub(crate) retired: AtomicUsize,
}

pub(crate) const PINNED: u64 = 1;

/// Epoch-based garbage collector shared by all threads that operate on
/// one (or several) data structures.
///
/// Fixed capacity: at most `max_threads` simultaneously registered
/// [`Handle`]s — the same model as DEBRA's static thread registry and a
/// natural fit for the stacks, which are also constructed for a maximum
/// thread count.
pub struct Collector {
    /// Global epoch. Starts at 1 so bag tags (initialized 0) never
    /// alias a live epoch.
    epoch: CachePadded<AtomicU64>,
    pub(crate) slots: Box<[CachePadded<Slot>]>,
    /// Garbage inherited from exited threads: `(retire_epoch, item)`.
    orphans: TtasLock<Vec<(u64, Deferred)>>,
    /// Handles currently registered: a padded line that only
    /// registration and handle drop write, so readers on the hot path
    /// (the SEC freezer's backoff) never contend with anything.
    live: CachePadded<AtomicUsize>,
    /// Diagnostics: total items freed so far. Padded (as is `cached`)
    /// away from `recycle`, which every allocation reads.
    freed: CachePadded<AtomicUsize>,
    /// Retired blocks whose memory entered a free list after
    /// quiescence instead of being freed (DESIGN.md §10).
    cached: CachePadded<AtomicUsize>,
    /// Node-recycling policy (fixed before the first registration).
    recycle: RecyclePolicy,
    /// Whether a retire that finds its bag past `BAG_PRESSURE` and the
    /// advance blocked by another thread's stale pin yields (opt-in
    /// through [`Collector::yielding_when_blocked`]).
    yield_when_blocked: bool,
    /// Shared overflow/refill pool behind the per-thread caches.
    pool: GlobalPool,
    /// Allocations served from a free list (flushed from thread-local
    /// counters when handles drop).
    rec_hits: AtomicU64,
    /// Allocations that fell through to the heap (flushed likewise).
    rec_misses: AtomicU64,
    /// Quiesced blocks that overflowed their thread cache (flushed
    /// likewise).
    rec_overflows: AtomicU64,
}

impl Collector {
    /// Creates a collector supporting up to `max_threads` concurrent
    /// handles (clamped to at least 1), with recycling **off** — the
    /// historical behavior for direct users. The SEC structures pass
    /// their configured policy through
    /// [`Collector::with_recycle`] instead.
    pub fn new(max_threads: usize) -> Self {
        Self::with_recycle(max_threads, RecyclePolicy::Off)
    }

    /// Creates a collector with an explicit [`RecyclePolicy`].
    pub fn with_recycle(max_threads: usize, recycle: RecyclePolicy) -> Self {
        let n = max_threads.max(1);
        Self {
            epoch: CachePadded::new(AtomicU64::new(1)),
            slots: (0..n)
                .map(|_| {
                    CachePadded::new(Slot {
                        state: AtomicU64::new(0),
                        claimed: AtomicU64::new(0),
                        retired: AtomicUsize::new(0),
                    })
                })
                .collect(),
            orphans: TtasLock::new(Vec::new()),
            live: CachePadded::new(AtomicUsize::new(0)),
            freed: CachePadded::new(AtomicUsize::new(0)),
            cached: CachePadded::new(AtomicUsize::new(0)),
            recycle,
            yield_when_blocked: false,
            pool: GlobalPool::new(recycle.cache_cap().saturating_mul(n)),
            rec_hits: AtomicU64::new(0),
            rec_misses: AtomicU64::new(0),
            rec_overflows: AtomicU64::new(0),
        }
    }

    /// Opts this collector into yielding under blocked bag pressure:
    /// once a handle's bag is past `BAG_PRESSURE` items and its eager
    /// advance fails because another thread is pinned in an older epoch
    /// — often one the OS preempted mid-operation — each further retire
    /// yields once, until the straggler moves. Meant for a structure
    /// whose retiring threads never otherwise yield (the SEC freezer),
    /// which would pile up garbage at full speed meanwhile; collectors
    /// that do not opt in never yield on the retire path.
    pub fn yielding_when_blocked(mut self) -> Self {
        self.yield_when_blocked = true;
        self
    }

    pub(crate) fn yields_when_blocked(&self) -> bool {
        self.yield_when_blocked
    }

    /// The recycling policy in force.
    pub fn recycle_policy(&self) -> RecyclePolicy {
        self.recycle
    }

    pub(crate) fn recycle_on(&self) -> bool {
        self.recycle.is_on()
    }

    pub(crate) fn pool(&self) -> &GlobalPool {
        &self.pool
    }

    /// Registers the calling thread, returning its handle, or `None` if
    /// all `max_threads` slots are taken.
    pub fn register(&self) -> Option<Handle<'_>> {
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.claimed.load(Ordering::Relaxed) == 0
                && slot
                    .claimed
                    .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                self.live.fetch_add(1, Ordering::Relaxed);
                return Some(Handle::new(self, i));
            }
        }
        None
    }

    /// Number of handles registered right now. A relaxed snapshot:
    /// exact when no thread is registering or dropping a handle.
    pub fn live_handles(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Number of handles registered right now in the slots `slots`
    /// (a handle's slot is [`Handle::slot`]). A relaxed snapshot, like
    /// [`Collector::live_handles`]; it reads one line per slot.
    pub fn live_in(&self, slots: Range<usize>) -> usize {
        self.slots[slots]
            .iter()
            .filter(|s| s.claimed.load(Ordering::Relaxed) != 0)
            .count()
    }

    pub(crate) fn note_handle_dropped(&self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
    }

    /// Current global epoch (diagnostic).
    pub fn global_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Reclamation statistics (diagnostic; relaxed counters).
    ///
    /// The recycle hit/miss/overflow counters are accumulated
    /// thread-locally and flushed when each [`Handle`] drops, so they
    /// are exact only once every handle has been dropped; `retired`
    /// (summed over the per-slot counts), `freed` and `cached` are
    /// maintained inline (amortized per bag drain) and always current.
    pub fn stats(&self) -> CollectorStats {
        CollectorStats {
            epoch: self.global_epoch(),
            retired: self
                .slots
                .iter()
                .map(|s| s.retired.load(Ordering::Relaxed))
                .sum(),
            freed: self.freed.load(Ordering::Relaxed),
            cached: self.cached.load(Ordering::Relaxed),
            recycle_hits: self.rec_hits.load(Ordering::Relaxed),
            recycle_misses: self.rec_misses.load(Ordering::Relaxed),
            recycle_overflows: self.rec_overflows.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn note_freed(&self, n: usize) {
        self.freed.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn note_cached(&self, n: usize) {
        self.cached.fetch_add(n, Ordering::Relaxed);
    }

    /// Folds a dropping handle's thread-local recycle counters into the
    /// collector-wide totals.
    pub(crate) fn flush_recycle_counters(&self, hits: u64, misses: u64, overflows: u64) {
        self.rec_hits.fetch_add(hits, Ordering::Relaxed);
        self.rec_misses.fetch_add(misses, Ordering::Relaxed);
        self.rec_overflows.fetch_add(overflows, Ordering::Relaxed);
    }

    pub(crate) fn load_epoch_relaxed(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Attempts to advance the global epoch from `seen` to `seen + 1`.
    ///
    /// Succeeds only if every *pinned* thread has announced `seen`;
    /// quiescent threads don't participate. Returns the epoch in force
    /// after the attempt.
    pub(crate) fn try_advance(&self, seen: u64) -> u64 {
        for slot in self.slots.iter() {
            // Unclaimed slots have state 0 (quiescent) — no special-case
            // needed, but skip the claimed check's cost when possible.
            let s = slot.state.load(Ordering::Acquire);
            if s & PINNED == PINNED && s >> 1 != seen {
                // A straggler is still pinned in an older epoch.
                return self.epoch.load(Ordering::Acquire);
            }
        }
        // All pinned threads are in `seen`; move the clock forward. CAS
        // failure just means someone else advanced — equally good.
        let _ = self
            .epoch
            .compare_exchange(seen, seen + 1, Ordering::AcqRel, Ordering::Acquire);
        self.epoch.load(Ordering::Acquire)
    }

    /// Adds garbage from an exiting thread; freed by later advances or
    /// on collector drop.
    pub(crate) fn adopt_orphans(&self, items: Vec<(u64, Deferred)>) {
        if items.is_empty() {
            return;
        }
        self.orphans.lock().extend(items);
    }

    /// Drives reclamation to completion from *outside* any handle: up
    /// to `rounds` epoch advances, each followed by an orphan sweep.
    /// Intended for post-run leak accounting — once every handle has
    /// been dropped (their bags orphan on drop), a successful quiesce
    /// leaves `retired == freed + cached`, i.e.
    /// [`CollectorStats::pending`] `== 0`. A thread still pinned
    /// blocks the advance, in which case the returned stats show what
    /// is left.
    pub fn quiesce(&self, rounds: usize) -> CollectorStats {
        for _ in 0..rounds {
            if self.stats().pending() == 0 {
                break;
            }
            let e = self.global_epoch();
            let now = self.try_advance(e);
            self.collect_orphans(now);
            if now == e {
                break; // blocked by a pinned straggler
            }
        }
        self.stats()
    }

    /// Frees orphaned garbage that is old enough w.r.t. `epoch_now`.
    /// Called opportunistically after successful advances.
    pub(crate) fn collect_orphans(&self, epoch_now: u64) {
        // try_lock: reclamation is best-effort, never block an operation.
        if let Some(mut orphans) = self.orphans.try_lock() {
            let before = orphans.len();
            let mut kept = Vec::with_capacity(before);
            for (e, d) in orphans.drain(..) {
                if epoch_now >= e + 2 {
                    d.execute();
                } else {
                    kept.push((e, d));
                }
            }
            let freed = before - kept.len();
            *orphans = kept;
            drop(orphans);
            self.note_freed(freed);
        }
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        // No handles can outlive the collector (they borrow it), so all
        // remaining orphaned garbage is unreachable: free it now.
        let orphans = std::mem::take(&mut *self.orphans.lock());
        let n = orphans.len();
        for (_, d) in orphans {
            d.execute();
        }
        self.note_freed(n);
    }
}

impl fmt::Debug for Collector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Collector")
            .field("max_threads", &self.slots.len())
            .field("stats", &self.stats())
            .finish()
    }
}

/// Snapshot of collector counters.
///
/// Retirement accounting: every retired object ends its limbo life in
/// exactly one of two ways — `freed` (its memory went back to the
/// allocator, running the drop shim if it had one) or `cached` (its
/// memory entered a recycle free list). The leak identity the test
/// battery asserts is therefore `retired == freed + cached` once
/// everything has drained ([`pending`](Self::pending) `== 0`). A cached
/// block's *later* fate — reuse by an allocation, or deallocation at
/// teardown — is not re-counted.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CollectorStats {
    /// Current global epoch.
    pub epoch: u64,
    /// Objects handed to the collector so far.
    pub retired: usize,
    /// Objects whose memory was returned to the allocator so far.
    pub freed: usize,
    /// Objects whose memory entered a recycle free list so far.
    pub cached: usize,
    /// Allocations served from a free list (exact once all handles
    /// have dropped; see [`Collector::stats`]).
    pub recycle_hits: u64,
    /// Allocations that fell through to the heap (same caveat).
    pub recycle_misses: u64,
    /// Quiesced blocks that overflowed their thread cache into the
    /// global pool or the allocator (same caveat).
    pub recycle_overflows: u64,
}

impl CollectorStats {
    /// Objects still in limbo (retired, not yet freed or cached).
    pub fn pending(&self) -> usize {
        self.retired
            .saturating_sub(self.freed)
            .saturating_sub(self.cached)
    }

    /// Recycle hit rate in percent (hits / (hits + misses)); 0 when no
    /// allocations were attempted.
    pub fn hit_pct(&self) -> f64 {
        let total = self.recycle_hits + self.recycle_misses;
        if total == 0 {
            0.0
        } else {
            100.0 * self.recycle_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_up_to_capacity() {
        let c = Collector::new(2);
        let h1 = c.register().unwrap();
        let h2 = c.register().unwrap();
        assert!(c.register().is_none(), "third registration must fail");
        drop(h1);
        let h3 = c.register().expect("slot is reusable after drop");
        drop(h2);
        drop(h3);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let c = Collector::new(0);
        assert!(c.register().is_some());
    }

    #[test]
    fn epoch_starts_at_one_and_advances_when_idle() {
        let c = Collector::new(4);
        assert_eq!(c.global_epoch(), 1);
        let e = c.try_advance(1);
        assert_eq!(e, 2);
    }

    #[test]
    fn advance_blocked_by_stale_pin() {
        let c = Collector::new(2);
        let h = c.register().unwrap();
        let _g = h.pin(); // pinned at epoch 1
        assert_eq!(c.try_advance(1), 2, "pin in current epoch doesn't block");
        // Now the guard is pinned at epoch 1 while global is 2: the next
        // advance must fail until the guard drops.
        assert_eq!(c.try_advance(2), 2, "stale pin must block advance");
    }

    #[test]
    fn stats_track_retire_and_free() {
        let c = Collector::new(1);
        let h = c.register().unwrap();
        {
            let g = h.pin();
            unsafe { g.retire(Box::into_raw(Box::new(7_u32))) };
        }
        let s = c.stats();
        assert_eq!(s.retired, 1);
        assert!(s.pending() <= 1);
    }

    #[test]
    fn blocked_pressure_yield_is_opt_in() {
        assert!(!Collector::new(2).yields_when_blocked());
        assert!(Collector::new(2)
            .yielding_when_blocked()
            .yields_when_blocked());
    }

    #[test]
    fn retire_identity_holds_while_handles_live() {
        let c = Collector::new(3);
        let a = c.register().unwrap();
        let b = c.register().unwrap();
        assert_eq!(c.live_handles(), 2);
        let retire = |h: &Handle<'_>, n: u32| {
            for i in 0..n {
                let g = h.pin();
                // SAFETY: a fresh, unshared allocation, retired once.
                unsafe { g.retire(Box::into_raw(Box::new(i))) };
            }
        };
        retire(&a, 40);
        retire(&b, 25);
        // Drain what the epochs allow while both handles stay live.
        a.flush(4);
        b.flush(4);
        retire(&a, 7);
        let s = c.stats();
        assert_eq!(s.retired, 72, "per-slot counts sum to every retire");
        assert_eq!(s.retired, s.freed + s.cached + s.pending());
        assert!(s.freed > 0, "the flushes freed something: {s:?}");
        // A dropped handle's count stays in the sum, and its slot's next
        // owner keeps counting on top of it.
        drop(b);
        assert_eq!(c.live_handles(), 1);
        assert_eq!((c.live_in(0..1), c.live_in(1..3)), (1, 0));
        let b2 = c.register().unwrap();
        assert_eq!((b2.slot(), c.live_in(0..3), c.live_in(2..3)), (1, 2, 0));
        retire(&b2, 3);
        let s = c.stats();
        assert_eq!(s.retired, 75);
        assert_eq!(s.retired, s.freed + s.cached + s.pending());
        drop((a, b2));
        assert_eq!(c.live_handles(), 0);
    }

    #[test]
    fn debug_format_works() {
        let c = Collector::new(3);
        assert!(format!("{c:?}").contains("max_threads"));
    }
}
