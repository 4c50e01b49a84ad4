//! The family shell (DESIGN.md §12 "Family shell"): what every SEC
//! family exposes beyond its own operations, written once for every
//! [`Sec`]. The constructors read the family's [`CombineOp`] items,
//! the durable ones exist for the `u64` instantiations through
//! [`DurableOp`], and [`FamilyHandle`] is the one handle every
//! family's operations hang off. The engine's accessors (`config`,
//! `stats`, `tracer`, …) and `register` sit with the engine itself.

use super::durable::{
    DurableCore, DurableError, DurableOp, DurablePolicy, DurableStats, RecoveryReport,
};
use super::{AggLayout, CombineOp, OpState, Sec};
use crate::config::SecConfig;
use crate::sec::stats::BatchReport;
use crate::trace::TraceSnapshot;
use crate::traits::SecReadout;
use core::fmt;
use sec_reclaim::{CollectorStats, Handle as ReclaimHandle, PersistentHeap};
use std::sync::Arc;

impl<O: CombineOp> Sec<O> {
    /// Creates the structure with its family's default configuration
    /// (two aggregators, one for the queue) for up to `max_threads`
    /// threads.
    pub fn new(max_threads: usize) -> Self {
        Self::with_config(SecConfig::new(O::DEFAULT_K, max_threads))
    }

    /// Creates the structure from an explicit [`SecConfig`]: aggregator
    /// count, elastic policy, freezer backoff, recycle, wait and trace
    /// settings all apply as they do to the stack, with two family
    /// normalizations.
    ///
    /// * The queue's aggregators are its two ends, not shards, so its
    ///   `policy` and `shard_policy` are ignored; its `wait` policy
    ///   also decides whether the empty-queue rendezvous window yields
    ///   inside its budget.
    /// * The map turns an
    ///   [`AggregatorPolicy::Fixed`](crate::AggregatorPolicy::Fixed)`(K)`
    ///   policy into the degenerate adaptive range `[K, K]`. Keyed
    ///   routing lets a hot key send every thread into one shard, so
    ///   map batches must always be sized `max_threads`, which is the
    ///   adaptive capacity rule; the degenerate range never resizes.
    pub fn with_config(config: SecConfig) -> Self {
        Self::build(config, O::PARAM, None)
    }
}

impl<O: DurableOp> Sec<O> {
    /// Creates a crash-durable structure over `policy`'s persistent
    /// heap, with the family's default configuration: every operation
    /// writes an intent cell before announcing and is redo-logged (with
    /// its result) by its batch's combiner before the result is
    /// published (DESIGN.md §16). Durable structures carry `u64`
    /// payloads, keys and values.
    pub fn durable(max_threads: usize, policy: DurablePolicy) -> Result<Self, DurableError> {
        Self::durable_with_config(SecConfig::new(O::DEFAULT_K, max_threads), policy)
    }

    /// [`Sec::durable`] from an explicit [`SecConfig`], read as
    /// [`Sec::with_config`] reads it. The heap header records the
    /// family and its construction parameter (the map's bucket count),
    /// so [`Sec::recover`] rebuilds the same geometry.
    pub fn durable_with_config(
        config: SecConfig,
        policy: DurablePolicy,
    ) -> Result<Self, DurableError> {
        let core = DurableCore::create(&policy, O::FAMILY, O::PARAM, config.max_threads)?;
        Ok(Self::build(config, O::PARAM, Some(core)))
    }

    /// Recovers a durable structure from `policy.mode`'s existing heap:
    /// rebuilds the recorded geometry, replays the committed redo log
    /// in global order (verifying each logged result against the
    /// replay) and reports, per handle, whether its last announced op
    /// executed and with what result.
    pub fn recover(policy: DurablePolicy) -> Result<(Self, RecoveryReport), DurableError> {
        let (core, report) = DurableCore::open(&policy, O::FAMILY)?;
        let config = SecConfig::new(O::DEFAULT_K, core.max_handles());
        let param = core.family_param();
        let sec = Self::build(config, param, Some(core));
        sec.replay(&report.ops)?;
        Ok((sec, report))
    }

    /// The persistent heap backing this structure (durable structures
    /// only) — hold it across a drop to recover a Volatile-mode heap.
    pub fn durable_heap(&self) -> Option<Arc<PersistentHeap>> {
        self.durable_core().map(DurableCore::heap)
    }

    /// Redo-log counters (durable structures only).
    pub fn durable_stats(&self) -> Option<DurableStats> {
        self.durable_core().map(DurableCore::stats)
    }
}

impl<O: CombineOp> fmt::Debug for Sec<O> {
    /// Lock-free: reads only the configuration and the counters.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct(O::NAME)
            .field("config", self.config())
            .field("active_aggregators", &self.active_aggregators())
            .field("stats", &self.stats().report())
            .finish()
    }
}

impl<O: CombineOp> SecReadout for Sec<O> {
    fn report(&self) -> BatchReport {
        self.stats().report()
    }

    fn reclaim(&self) -> CollectorStats {
        self.reclaim_stats()
    }

    fn active(&self) -> Option<usize> {
        matches!(O::LAYOUT, AggLayout::Mapped { .. }).then(|| self.active_aggregators())
    }
}

/// A thread's handle to a [`Sec`] structure, from [`Sec::register`].
/// Each family's operations are methods of its alias:
/// [`SecHandle`](crate::SecHandle) pushes and pops,
/// [`SecQueueHandle`](crate::SecQueueHandle) enqueues and dequeues,
/// [`SecCounterHandle`](crate::SecCounterHandle) adds and
/// [`SecMapHandle`](crate::SecMapHandle) gets, inserts and removes.
pub struct FamilyHandle<'a, O: CombineOp> {
    pub(crate) sec: &'a Sec<O>,
    /// Announcement-mapping state (dense tid, `seen_k`, aggregator
    /// index) — the engine re-maps it lazily on elastic resizes.
    pub(crate) state: OpState,
    pub(crate) reclaim: ReclaimHandle<'a>,
}

impl<O: CombineOp> FamilyHandle<'_, O> {
    /// This thread's id (dense, `0..max_threads`): its registry slot,
    /// and a durable structure's handle identity.
    pub fn tid(&self) -> usize {
        self.state.tid()
    }

    /// A point-in-time poll of the structure's protocol counters (see
    /// [`Sec::trace_snapshot`]) — handle-level so monitoring code
    /// holding only a handle can poll live rates.
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        self.sec.trace_snapshot()
    }
}

impl<O: CombineOp> fmt::Debug for FamilyHandle<'_, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FamilyHandle")
            .field("family", &O::NAME)
            .field("tid", &self.tid())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SecCounterHandle, SecHandle, SecMapHandle, SecQueueHandle};

    /// The shared surface of one family, volatile and durable: `op`
    /// runs one operation through a registered handle.
    fn check_family<O: DurableOp>(op: impl Fn(&mut FamilyHandle<'_, O>)) {
        assert_eq!(Sec::<O>::new(2).active_aggregators(), O::DEFAULT_K);
        // An elastic range, so the clamp below is visible — except on
        // the queue, which normalizes it to its one fixed aggregator.
        let config = SecConfig::adaptive(1, 3, 4);
        let volatile = Sec::<O>::with_config(config);
        let durable = Sec::<O>::durable_with_config(config, DurablePolicy::volatile()).unwrap();
        for (sec, is_durable) in [(volatile, false), (durable, true)] {
            let name = format!("{} (durable: {is_durable})", O::NAME);
            assert!(sec.tracer().is_none(), "{name}: no trace config");
            assert_eq!(sec.durable_heap().is_some(), is_durable, "{name}");
            assert_eq!(sec.durable_stats().is_some(), is_durable, "{name}");
            {
                let mut h = sec.register();
                assert!(h.tid() < sec.config().max_threads, "{name}");
                op(&mut h);
                assert_eq!(h.trace_snapshot().ops, 1, "{name}");
            }
            assert_eq!(sec.stats().report().ops, 1, "{name}");
            let snap = sec.trace_snapshot();
            assert_eq!(snap.ops, 1, "{name}");
            assert_eq!(snap.active_aggregators, sec.active_aggregators(), "{name}");
            assert_eq!(SecReadout::report(&sec).ops, 1, "{name}");
            let mapped = matches!(O::LAYOUT, AggLayout::Mapped { .. });
            assert_eq!(SecReadout::active(&sec).is_some(), mapped, "{name}");
            if is_durable {
                assert_eq!(sec.durable_stats().unwrap().entries, 1, "{name}");
            }

            let policy = sec.config().policy;
            assert_eq!(
                sec.set_active_aggregators(usize::MAX),
                policy.max_k(),
                "{name}"
            );
            assert_eq!(sec.set_active_aggregators(0), policy.min_k(), "{name}");
            assert_eq!(sec.active_aggregators(), policy.min_k(), "{name}");

            let stats = sec.quiesce_reclamation(64);
            assert_eq!(
                stats.retired,
                stats.freed + stats.cached,
                "{name} leaks: {stats:?}"
            );
            assert_eq!(SecReadout::reclaim(&sec).retired, stats.retired, "{name}");
            assert!(format!("{sec:?}").starts_with(O::NAME), "{name}");
        }
    }

    #[test]
    fn every_family_shares_one_shell() {
        check_family(|h: &mut SecHandle<'_, u64>| h.push(1));
        check_family(|h: &mut SecQueueHandle<'_, u64>| h.enqueue(1));
        check_family(|h: &mut SecCounterHandle<'_>| assert_eq!(h.fetch_add(1), 0));
        check_family(|h: &mut SecMapHandle<'_, u64, u64>| assert_eq!(h.insert(1, 1), None));
    }
}
