//! Batching/elimination/combining instrumentation (Tables 1–3 of the
//! paper).
//!
//! The freezer knows, at the moment it freezes a batch, exactly how the
//! batch will decompose: `pushes + pops` operations belong to it,
//! `2 · min(pushes, pops)` of them eliminate each other, and the
//! remaining `|pushes − pops|` are applied by the combiner. It records
//! those numbers, the batch's degree and the backoff pauses and yields
//! it spent into its own registry slot's cache-padded `BatchTally`. A
//! lone operation, which skips the batch (DESIGN.md §12 "Lone
//! operations"), is tallied there too, as one combined batch of its
//! weight (degree 1 for a single op, the call's length for a bulk one).
//! Only the slot's owner writes its tally, so every update is a plain
//! relaxed load+store: no locked read-modify-write and no line shared
//! with another thread. [`SecStats::report`] sums the tallies. The
//! rarer events — combiner CAS failures, elastic resizes, parks and
//! wakes — stay on shared relaxed counters.

use crate::trace::{DegreeDist, Histogram};
use core::sync::atomic::{AtomicU64, Ordering};
use sec_sync::event::WaitStats;
use sec_sync::CachePadded;
use std::sync::OnceLock;

/// One registry slot's per-batch counters, written only by the slot's
/// owner: for the batches it froze and the lone operations it ran.
#[derive(Debug, Default)]
struct BatchTally {
    batches: AtomicU64,
    ops: AtomicU64,
    eliminated: AtomicU64,
    combined: AtomicU64,
    /// Pause iterations the freezers spent in their backoff.
    backoff_spins: AtomicU64,
    /// `yield_now` calls the freezers spent in their backoff.
    backoff_yields: AtomicU64,
    /// Lone operations (also counted in `batches`, `ops`, `combined`).
    alone: AtomicU64,
    /// Distribution of frozen batch degrees (DESIGN.md §14), one
    /// record per batch, so the CSVs can report min/p50/p99/max
    /// instead of only the run-wide mean. Allocated (~8 KiB) by the
    /// slot's first batch, so slots that never run one — and structure
    /// construction — do not pay for it.
    degree: OnceLock<Histogram>,
}

/// Adds `n` to a counter that has one writer at a time.
#[inline]
fn bump(c: &AtomicU64, n: u64) {
    c.store(c.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

/// Counters aggregated over the lifetime of one SEC structure.
///
/// Besides the paper's Table 1 measures, elastic sharding (DESIGN.md
/// §8) adds three counters: central-stack CAS failures (combiner
/// contention on `stackTop`, one of the monitor's inputs) and the
/// grow/shrink resize transitions the monitor or a manual
/// [`Sec::set_active_aggregators`](crate::Sec::set_active_aggregators)
/// performed.
#[derive(Debug)]
pub struct SecStats {
    /// One tally per registry slot.
    tallies: Box<[CachePadded<BatchTally>]>,
    cas_failures: AtomicU64,
    grows: AtomicU64,
    shrinks: AtomicU64,
    /// Park/wake/spurious-wake counters fed by the wait subsystem
    /// (DESIGN.md §11): every `WaitQueue::wait_until`/`notify_key`
    /// call site passes this block through.
    wait: WaitStats,
}

impl Default for SecStats {
    fn default() -> Self {
        Self::new()
    }
}

impl SecStats {
    /// Creates zeroed stats for one registry slot.
    pub fn new() -> Self {
        Self::with_tallies(1)
    }

    /// Creates zeroed stats with one batch tally per registry slot (at
    /// least one).
    pub(crate) fn with_tallies(slots: usize) -> Self {
        Self {
            tallies: (0..slots.max(1)).map(|_| CachePadded::default()).collect(),
            cas_failures: AtomicU64::new(0),
            grows: AtomicU64::new(0),
            shrinks: AtomicU64::new(0),
            wait: WaitStats::default(),
        }
    }

    /// Called by the freezer, the owner of registry slot `slot`, with
    /// the frozen counter snapshot and the backoff pauses and yields it
    /// spent.
    ///
    /// Single-writer invariant: only the slot's current owner records
    /// here (see [`SecStats::record_alone`]).
    #[inline]
    pub(crate) fn record_batch(
        &self,
        slot: usize,
        pushes: u64,
        pops: u64,
        spins: u64,
        yields: u64,
    ) {
        let size = pushes + pops;
        if size == 0 {
            return; // cannot happen (the freezer itself announced), but harmless
        }
        let elim = 2 * pushes.min(pops);
        let t = &self.tallies[slot];
        bump(&t.batches, 1);
        bump(&t.ops, size);
        bump(&t.eliminated, elim);
        bump(&t.combined, size - elim);
        bump(&t.backoff_spins, spins);
        bump(&t.backoff_yields, yields);
        t.degree
            .get_or_init(Histogram::new)
            .record_single_writer(size);
    }

    /// Called by registry slot `slot`'s owner after a lone operation
    /// of weight `ops` (a bulk call's full length): one batch of that
    /// degree whose ops were all combined.
    ///
    /// Single-writer invariant: only the slot's current owner records
    /// here or in [`SecStats::record_batch`], and a slot changes owner
    /// through the collector's Release free and AcqRel claim, which
    /// order the old owner's writes before the new owner's.
    #[inline]
    pub(crate) fn record_alone(&self, slot: usize, ops: u64) {
        let t = &self.tallies[slot];
        bump(&t.batches, 1);
        bump(&t.ops, ops);
        bump(&t.combined, ops);
        bump(&t.alone, 1);
        t.degree
            .get_or_init(Histogram::new)
            .record_single_writer(ops);
    }

    /// Called by a combiner whose splice/unlink CAS on `stackTop` lost
    /// to another combiner (the cross-aggregator contention signal).
    #[inline]
    pub(crate) fn record_cas_failure(&self) {
        self.cas_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Cumulative central-stack CAS failures (monitor input).
    pub(crate) fn cas_failures_now(&self) -> u64 {
        self.cas_failures.load(Ordering::Relaxed)
    }

    /// Records an active-set grow transition.
    #[inline]
    pub(crate) fn record_grow(&self) {
        self.grows.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an active-set shrink transition.
    #[inline]
    pub(crate) fn record_shrink(&self) {
        self.shrinks.fetch_add(1, Ordering::Relaxed);
    }

    /// The park/wake counter block the wait subsystem records into.
    #[inline]
    pub(crate) fn wait(&self) -> &WaitStats {
        &self.wait
    }

    /// Sum of one tally field over every registry slot.
    fn total(&self, field: fn(&BatchTally) -> &AtomicU64) -> u64 {
        self.tallies
            .iter()
            .map(|t| field(t).load(Ordering::Relaxed))
            .sum()
    }

    /// Snapshot of the aggregate measures.
    pub fn report(&self) -> BatchReport {
        BatchReport {
            batches: self.total(|t| &t.batches),
            ops: self.total(|t| &t.ops),
            eliminated: self.total(|t| &t.eliminated),
            combined: self.total(|t| &t.combined),
            backoff_spins: self.total(|t| &t.backoff_spins),
            backoff_yields: self.total(|t| &t.backoff_yields),
            alone: self.total(|t| &t.alone),
            cas_failures: self.cas_failures.load(Ordering::Relaxed),
            grows: self.grows.load(Ordering::Relaxed),
            shrinks: self.shrinks.load(Ordering::Relaxed),
            parks: self.wait.parks(),
            wakes: self.wait.unparks(),
            spurious_wakes: self.wait.spurious(),
            degree: DegreeDist::from_histogram(&self.degree_histogram()),
        }
    }

    /// The full batch-degree distribution, merged over the slots
    /// (the report's [`BatchReport::degree`] is its four-number
    /// summary).
    pub fn degree_histogram(&self) -> Histogram {
        let merged = Histogram::new();
        for h in self.tallies.iter().filter_map(|t| t.degree.get()) {
            merged.merge(h);
        }
        merged
    }

    /// Resets all counters (between measurement phases; not atomic
    /// with respect to freezers still running — quiesce first).
    pub fn reset(&self) {
        for t in self.tallies.iter() {
            for c in [
                &t.batches,
                &t.ops,
                &t.eliminated,
                &t.combined,
                &t.backoff_spins,
                &t.backoff_yields,
                &t.alone,
            ] {
                c.store(0, Ordering::Relaxed);
            }
            if let Some(h) = t.degree.get() {
                h.reset();
            }
        }
        self.cas_failures.store(0, Ordering::Relaxed);
        self.grows.store(0, Ordering::Relaxed);
        self.shrinks.store(0, Ordering::Relaxed);
        self.wait.reset();
    }
}

/// A snapshot of [`SecStats`], with the paper's derived measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchReport {
    /// Batches frozen.
    pub batches: u64,
    /// Operations that belonged to frozen batches.
    pub ops: u64,
    /// Operations eliminated inside their batch.
    pub eliminated: u64,
    /// Operations applied to the shared stack by a combiner.
    pub combined: u64,
    /// Pause iterations freezers spent waiting for their batch to fill
    /// (only where a late announcer pays; see
    /// [`SecConfig::freezer_backoff`](crate::SecConfig::freezer_backoff)).
    pub backoff_spins: u64,
    /// `yield_now` calls freezers spent waiting for their batch to
    /// fill (only on evidence of oversubscription; see
    /// [`SecConfig::freezer_yields`](crate::SecConfig::freezer_yields)).
    pub backoff_yields: u64,
    /// Operations that took the lone path (DESIGN.md §12 "Lone
    /// operations"): each is also one batch in `batches`, of its weight
    /// (1, or a bulk call's length) in `ops` and `combined`, so
    /// `batches - alone` batches went through the batch protocol.
    pub alone: u64,
    /// Combiner CAS attempts on the shared `stackTop` that lost to
    /// another combiner.
    pub cas_failures: u64,
    /// Elastic-sharding grow transitions (active aggregator count +1).
    pub grows: u64,
    /// Elastic-sharding shrink transitions (active aggregator count −1).
    pub shrinks: u64,
    /// Times a waiter parked (`WaitPolicy::SpinThenPark` only).
    pub parks: u64,
    /// Unparks freezers/combiners issued to registered waiters.
    pub wakes: u64,
    /// Wakeups whose awaited condition was still false (the waiter
    /// re-parked): stray park tokens and cross-generation wakes.
    pub spurious_wakes: u64,
    /// Batch-degree distribution summary (min/p50/p99/max), from the
    /// per-batch histogram.
    pub degree: DegreeDist,
}

impl BatchReport {
    /// Total elastic resize transitions (grows + shrinks).
    pub fn resizes(&self) -> u64 {
        self.grows + self.shrinks
    }

    /// Average batch size ("batching degree", Table 1).
    pub fn batching_degree(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.ops as f64 / self.batches as f64
        }
    }

    /// Percentage of operations eliminated ("%elimination", Table 1).
    pub fn pct_eliminated(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            100.0 * self.eliminated as f64 / self.ops as f64
        }
    }

    /// Percentage of operations applied by combiners ("%combining").
    pub fn pct_combined(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            100.0 * self.combined as f64 / self.ops as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_identity_holds() {
        let s = SecStats::new();
        s.record_batch(0, 3, 5, 0, 0); // 8 ops, 6 eliminated, 2 combined
        s.record_batch(0, 4, 4, 0, 0); // 8 ops, 8 eliminated, 0 combined
        s.record_batch(0, 2, 0, 0, 0); // 2 ops, 0 eliminated, 2 combined
        let r = s.report();
        assert_eq!(r.batches, 3);
        assert_eq!(r.ops, 18);
        assert_eq!(r.eliminated, 14);
        assert_eq!(r.combined, 4);
        assert_eq!(r.eliminated + r.combined, r.ops);
    }

    #[test]
    fn derived_measures() {
        let s = SecStats::new();
        s.record_batch(0, 5, 5, 0, 0);
        let r = s.report();
        assert!((r.batching_degree() - 10.0).abs() < 1e-9);
        assert!((r.pct_eliminated() - 100.0).abs() < 1e-9);
        assert!((r.pct_combined() - 0.0).abs() < 1e-9);
    }

    #[test]
    fn empty_report_is_all_zero() {
        let r = SecStats::new().report();
        assert_eq!(r.batching_degree(), 0.0);
        assert_eq!(r.pct_eliminated(), 0.0);
        assert_eq!(r.pct_combined(), 0.0);
    }

    #[test]
    fn zero_size_batch_is_ignored() {
        let s = SecStats::new();
        s.record_batch(0, 0, 0, 0, 0);
        assert_eq!(s.report().batches, 0);
    }

    #[test]
    fn reset_zeroes_counters() {
        let s = SecStats::new();
        s.record_batch(0, 1, 1, 0, 0);
        s.record_cas_failure();
        s.record_grow();
        s.record_shrink();
        s.reset();
        let r = s.report();
        assert_eq!(r.ops, 0);
        assert_eq!(r.cas_failures, 0);
        assert_eq!(r.resizes(), 0);
    }

    #[test]
    fn degree_distribution_tracks_batches() {
        let s = SecStats::new();
        s.record_batch(0, 1, 0, 0, 0); // degree 1
        s.record_batch(0, 2, 2, 0, 0); // degree 4
        s.record_batch(0, 10, 6, 0, 0); // degree 16
        let r = s.report();
        assert_eq!(r.degree.min, 1);
        assert_eq!(r.degree.max, 16);
        assert!(r.degree.p50 >= 4 && r.degree.p50 <= 16);
        assert!(r.degree.p99 >= r.degree.p50);
        assert_eq!(s.degree_histogram().count(), 3);
        s.reset();
        assert_eq!(s.report().degree, DegreeDist::default());
    }

    #[test]
    fn tallies_of_every_slot_sum_into_the_report() {
        // Three registry slots: each freezer's batches and each lone op
        // land in the tally of the slot that ran them.
        let s = SecStats::with_tallies(3);
        s.record_batch(0, 2, 1, 16, 0); // 3 ops, 2 eliminated, 16 pauses
        s.record_batch(2, 1, 0, 0, 4); // 1 op, combined, 4 yields
        s.record_batch(2, 3, 3, 5, 1); // 6 ops, 6 eliminated, 5 pauses, 1 yield
        let r = s.report();
        assert_eq!((r.batches, r.ops), (3, 10));
        assert_eq!((r.eliminated, r.combined), (8, 2));
        assert_eq!((r.backoff_spins, r.backoff_yields), (21, 5));
        let h = s.degree_histogram();
        assert_eq!(h.count(), 3);
        assert_eq!((h.min(), h.max()), (1, 6));
        assert_eq!((r.degree.min, r.degree.max), (1, 6));
        s.reset();
        assert_eq!(
            (s.report().backoff_spins, s.report().backoff_yields),
            (0, 0)
        );
        assert!(s.degree_histogram().is_empty());
    }

    #[test]
    fn lone_ops_count_as_degree_one_combined_batches() {
        let s = SecStats::with_tallies(3);
        s.record_batch(1, 1, 1, 0, 0); // 2 ops, both eliminated
        s.record_alone(0, 1);
        s.record_alone(1, 1);
        s.record_alone(2, 1);
        s.record_alone(2, 1);
        let r = s.report();
        assert_eq!((r.batches, r.ops, r.alone), (5, 6, 4));
        assert_eq!((r.eliminated, r.combined), (2, 4));
        assert_eq!(s.degree_histogram().count(), r.batches);
        assert_eq!((r.degree.min, r.degree.max), (1, 2));
        s.reset();
        assert_eq!(s.report().alone, 0);
    }

    #[test]
    fn a_lone_bulk_op_is_one_batch_of_its_full_weight() {
        let s = SecStats::with_tallies(2);
        s.record_alone(0, 32);
        s.record_alone(1, 1);
        let r = s.report();
        assert_eq!((r.batches, r.ops, r.alone, r.combined), (2, 33, 2, 33));
        assert_eq!(s.degree_histogram().count(), r.batches);
        assert_eq!((r.degree.min, r.degree.max), (1, 32));
    }

    #[test]
    fn resize_and_cas_counters_accumulate() {
        let s = SecStats::new();
        s.record_grow();
        s.record_grow();
        s.record_shrink();
        s.record_cas_failure();
        let r = s.report();
        assert_eq!(r.grows, 2);
        assert_eq!(r.shrinks, 1);
        assert_eq!(r.resizes(), 3);
        assert_eq!(r.cas_failures, 1);
        assert_eq!(s.cas_failures_now(), 1);
    }
}
