//! The generic SEC combining engine (DESIGN.md §12).
//!
//! The paper's core contribution is one mechanism — announcement
//! batching, batch freezing, counter-based elimination, and combining —
//! yet it is useful for many structures. This module owns that
//! mechanism *once*:
//!
//! * announcement slots and sequence numbers ([`CombineBatch`]),
//! * seq-0 freezer election and the freeze/publish state machine
//!   ([`Sec::freeze_batch`]),
//! * the `wait_applied`/`mark_applied` waiter seam (batch.rs),
//! * elastic-K re-mapping — the contention monitor, the epoch fence,
//!   and the lazy per-handle `seen_k` re-map ([`OpState`]),
//! * recycle-aware batch/slot allocation (DESIGN.md §10),
//! * per-batch stats recording ([`SecStats`]),
//! * the lone-op route that skips the batch when nobody is in it, and
//!   the one rule that decides when an op takes it ([`LoneRule`],
//!   [`Sec::run_alone`]),
//! * the crash-durable path — intents, redo log, recovery replay
//!   (`durable.rs`, DESIGN.md §16).
//!
//! A data structure instantiates the engine by implementing
//! [`CombineOp`]: a sequential "apply this frozen batch to the shared
//! structure" for each lane, plus hooks for elimination and result
//! consumption, and — for durable families — "apply this one logged
//! operation". The engine is itself the public family type [`Sec`]:
//! `SecStack`, `SecQueue`, `SecCounter` and `SecMap` are aliases of
//! `Sec<O>` for their ops, and the surface every family shares is
//! written once, in `shell.rs`. See DESIGN.md §12 for the state machine
//! and the `CombineOp` contract.
//!
//! ## One driver for mixed and homogeneous batches
//!
//! The engine's driver ([`Sec::run`]) implements the paper's
//! Algorithms 1 and 2 over the two lanes of a [`CombineBatch`]. The
//! key observation that lets the queue's per-end (homogeneous) batches
//! ride the same driver: a homogeneous batch is a mixed batch whose
//! other lane's counter is pinned at zero. The inclusion test, the
//! elimination test (`my_seq < other_cut` — never true), the combiner
//! election (`my_seq == other_cut` — true exactly for seq 0) and the
//! freezer test&set (a single seq-0 announcer always wins) all
//! degenerate to the homogeneous protocol without a single branch of
//! family-specific driver code.

pub(crate) mod batch;
pub(crate) mod durable;
mod shell;

use crate::config::SecConfig;
use crate::sec::elastic::{self, ContentionMonitor, Direction};
use crate::sec::stats::SecStats;
use crate::trace::{TraceEventKind, TraceLane, TraceRecorder, TraceSnapshot};
pub(crate) use batch::{
    mark_applied, wait_applied, wait_ptr, CombineAggregator, CombineBatch, Role, MAX_BULK_OPS,
};
use core::ptr;
use core::sync::atomic::{AtomicUsize, Ordering};
use durable::fault::{self, FaultPoint};
use durable::{DurableCore, OpResult};
use sec_reclaim::{Collector, Guard, Handle as ReclaimHandle};
use sec_sync::event::spin_wait;
use sec_sync::{topology, CachePadded};
pub use shell::FamilyHandle;
use std::time::Instant;

impl Role {
    /// The opposite lane (elimination partners and combiner election
    /// look across).
    #[inline]
    pub(crate) fn other(self) -> Role {
        match self {
            Role::Add => Role::Remove,
            Role::Remove => Role::Add,
        }
    }

    /// The lane tag trace events carry.
    #[inline]
    fn trace_lane(self) -> TraceLane {
        match self {
            Role::Add => TraceLane::Add,
            Role::Remove => TraceLane::Remove,
        }
    }
}

/// A family's sequential apply logic — everything the engine does
/// *not* own. Implementors hold the shared structure itself (the
/// stack's top pointer, the queue's head/tail, the counter's
/// accumulator, the map's buckets) and apply frozen batches to
/// it; the engine guarantees each hook's calling discipline:
///
/// * [`combine_add`]/[`combine_remove`] run on exactly one thread per
///   frozen batch and lane (the surviving operation with the lowest
///   sequence number), strictly after the batch's cuts are published
///   and before `applied` is flipped;
/// * [`eliminate`] runs only for mixed batches, on the remove with a
///   same-sequence add partner in the batch;
/// * [`take_result`] runs once per surviving remove, strictly after
///   `applied` (publication order makes the combiner's writes
///   visible);
/// * [`apply_logged`] runs one operation at a time, never concurrently
///   with itself or with any other mutation of the structure (see
///   its docs);
/// * [`try_alone`] runs a lone operation with no batch at all,
///   possibly concurrently with combiners, when the family's
///   [`LONE`] rule offers it.
///
/// [`combine_add`]: CombineOp::combine_add
/// [`combine_remove`]: CombineOp::combine_remove
/// [`eliminate`]: CombineOp::eliminate
/// [`take_result`]: CombineOp::take_result
/// [`apply_logged`]: CombineOp::apply_logged
/// [`try_alone`]: CombineOp::try_alone
/// [`LONE`]: CombineOp::LONE
///
/// The associated constants and the two constructors below are what
/// differs between families in the shell they share (DESIGN.md §12
/// "Family shell"): [`Sec::new`], [`Sec::with_config`] and the durable
/// constructors read them, so no family writes its own.
///
/// The trait is `pub` only so that the public [`Sec`] may name it in a
/// bound; it lives in a private module, so no other crate can name or
/// implement it.
pub trait CombineOp: Sized + Send + Sync {
    /// The node type flowing through announcement slots and result
    /// chains.
    type Node: Send;
    /// What a remove-lane operation returns.
    type Value;

    /// The family's type name, for `Debug` and diagnostics.
    const NAME: &'static str;
    /// The aggregator count [`Sec::new`], [`Sec::durable`] and
    /// [`Sec::recover`] configure: the paper's two by default.
    const DEFAULT_K: usize = 2;
    /// How the engine lays out the family's aggregators.
    const LAYOUT: AggLayout;
    /// The family's construction parameter, recorded in a durable
    /// heap's header so recovery rebuilds the same geometry: the map's
    /// bucket count, `0` for the families that have none.
    const PARAM: u64 = 0;
    /// Whether the family's mapped batches pair adds with removes, so
    /// that a partner caught by the freezer's backoff eliminates. Only
    /// the stack's do; the engine spends the
    /// [`SecConfig::freezer_backoff`] spin only where a late announcer
    /// pays (DESIGN.md §12 "Freezer backoff").
    const ELIMINATES: bool = false;
    /// When the engine offers an operation to [`CombineOp::try_alone`]
    /// instead of announcing it (DESIGN.md §12 "Lone operations").
    const LONE: LoneRule = LoneRule::Never;

    /// Builds the family's empty shared structure from its
    /// construction parameter ([`CombineOp::PARAM`], or the one a
    /// durable heap recorded).
    fn create(param: u64) -> Self;

    /// The configuration the family actually runs with, given the
    /// caller's. The default keeps it as it is.
    fn normalize(config: SecConfig) -> SecConfig {
        config
    }

    /// Apply the batch's surviving adds (sequence numbers
    /// `my_seq..add_at_freeze`) to the shared structure. `my_seq ==
    /// remove_at_freeze` — the combiner is the lowest-sequence add
    /// that did not eliminate. Families without an add lane never see
    /// this called.
    fn combine_add(
        &self,
        eng: &Sec<Self>,
        batch: &CombineBatch<Self::Node>,
        my_seq: usize,
        agg_idx: usize,
        guard: &Guard<'_, '_>,
    ) {
        let _ = (eng, batch, my_seq, agg_idx, guard);
        unreachable!("this family has no add-lane combiner");
    }

    /// Apply the batch's surviving removes: take `remove_at_freeze -
    /// my_seq` values out of the shared structure and publish them
    /// (typically as a chain through `batch.result_head`) for
    /// [`CombineOp::take_result`].
    fn combine_remove(
        &self,
        eng: &Sec<Self>,
        batch: &CombineBatch<Self::Node>,
        my_seq: usize,
        agg_idx: usize,
        guard: &Guard<'_, '_>,
    );

    /// A remove whose sequence number pairs with an add of the batch:
    /// consume the partner's announced node. Only the stack, the one
    /// mixed-batch family, pairs operations; homogeneous families keep
    /// the default.
    fn eliminate(
        &self,
        eng: &Sec<Self>,
        batch: &CombineBatch<Self::Node>,
        my_seq: usize,
        guard: &Guard<'_, '_>,
    ) -> Self::Value {
        let _ = (eng, batch, my_seq, guard);
        unreachable!("homogeneous batches never eliminate");
    }

    /// Consume the result at `offset` of the published chain (`offset`
    /// = the remove's rank among the batch's non-eliminated removes).
    /// Runs after `applied`; `None` reports EMPTY. Bulk aggregators
    /// (addressed by `agg_idx`) deliver results through the announced
    /// request instead and return `None` here.
    fn take_result(
        &self,
        eng: &Sec<Self>,
        batch: &CombineBatch<Self::Node>,
        offset: usize,
        agg_idx: usize,
        guard: &Guard<'_, '_>,
    ) -> Option<Self::Value>;

    /// The durable families' one replay rule (DESIGN.md §16): apply
    /// the redo-logged operation `(opcode, operand, operand2)` to the
    /// shared structure and return its result, or `None` when `opcode`
    /// is not this family's. The engine calls it from exactly two
    /// places — its durable combiner (under the durable core's apply
    /// lock) and recovery replay (single-threaded) — so what an op did
    /// and what replaying it does cannot drift apart. The contract:
    /// *sequential* (never concurrent with itself or any other
    /// mutation, so plain loads and stores suffice), *deterministic*
    /// (same structure state and op, same result) and *total* on the
    /// family's own opcodes. Allocation and husk retirement go through
    /// `guard`, as in the combiners. Non-durable families keep the
    /// default.
    fn apply_logged(
        &self,
        opcode: u8,
        operand: u64,
        operand2: u64,
        guard: &Guard<'_, '_>,
    ) -> Option<OpResult> {
        let _ = (opcode, operand, operand2, guard);
        None
    }

    /// The lone-operation path (DESIGN.md §12 "Lone operations"):
    /// apply one operation straight to the shared structure, exactly
    /// as the combiner of a degree-1 batch on a private aggregator
    /// would, and return its result; or hand `node` back untouched as
    /// `Err` for the batch path. `node` is what the operation would
    /// announce: its node, its bulk request, or null for operations
    /// that bring none. The engine alone calls this, only for
    /// non-durable operations, and only when the family's
    /// [`CombineOp::LONE`] rule says so. Other threads' combiners may
    /// race this call, so the hook follows the combiners' own
    /// discipline on the shared structure (CAS or RMW), and pins
    /// through `reclaim` whatever it dereferences. The default refuses
    /// every operation.
    fn try_alone(
        &self,
        eng: &Sec<Self>,
        role: Role,
        node: *mut Self::Node,
        reclaim: &ReclaimHandle<'_>,
    ) -> Result<Option<Self::Value>, *mut Self::Node> {
        let _ = (eng, role, reclaim);
        Err(node)
    }
}

/// When the engine offers an operation to [`CombineOp::try_alone`]: a
/// batch pays only when someone joins it, and each rule is the
/// family's cheapest evidence that nobody will. Durable structures
/// never go alone: every op must reach the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoneRule {
    /// Every operation announces.
    Never,
    /// A weight-1 operation on its mapped aggregator, while at most one
    /// handle is live. For a family that eliminates: a second live
    /// handle may bring the partner that makes the batch pay.
    OneHandle,
    /// Any operation whose lane in the target aggregator's current
    /// batch has no announcer: one load of the counter the op would
    /// otherwise `fetch_add`. For a family that never eliminates, the
    /// batch only pays when it is shared. The hook then makes one CAS
    /// attempt and hands a lost one back, flat combining's "try the
    /// lock first": contention is what sends ops to the batch, and
    /// the announcer it sends there is what a later op's check finds.
    IdleLane,
    /// Every operation; the hook checks its own evidence (the map: its
    /// bucket lock is free).
    OwnEvidence,
}

/// Per-thread announcement-mapping state: which aggregator this thread
/// announces to, and the active-K it was computed against (a mismatch
/// triggers the lazy elastic re-map). Families embed this in their
/// handles; fixed-aggregator families ignore it by announcing through
/// [`Lane::At`].
#[derive(Debug, Clone)]
pub(crate) struct OpState {
    tid: usize,
    seen_k: usize,
    agg_idx: usize,
}

impl OpState {
    /// This thread's dense id (== its reclamation slot).
    pub(crate) fn tid(&self) -> usize {
        self.tid
    }

    /// The aggregator this thread last announced to.
    pub(crate) fn aggregator(&self) -> usize {
        self.agg_idx
    }
}

/// How an operation picks its aggregator.
pub(crate) enum Lane<'s> {
    /// Policy-mapped (and elastically re-mapped) by thread id — the
    /// stack's and counter's announcement path.
    Mapped(&'s mut OpState),
    /// A fixed aggregator index — the queue's per-end path and every
    /// family's bulk aggregators.
    At(usize),
    /// An index computed only when the op needs one: the map's key
    /// shard, which an op applied alone under its bucket lock never
    /// does. Resolved once, so an excluded retry stays on it.
    Deferred(&'s dyn Fn() -> usize),
}

/// How the engine lays out its aggregators at construction.
pub enum AggLayout {
    /// One aggregator per policy slot, addressed through
    /// [`Lane::Mapped`]; elastic policies resize the active prefix.
    Mapped {
        /// Whether announcers bring nodes (and batches therefore carry
        /// slot arrays).
        with_slots: bool,
        /// Dedicated bulk aggregators appended after the mapped prefix
        /// (always slotted, sized for every thread), addressed through
        /// `Lane::At(engine.bulk_agg(i))`. Elastic re-mapping never
        /// reaches them: the active count is bounded by the policy's
        /// slots, which the bulk suffix sits beyond.
        bulk: usize,
    },
    /// One aggregator per listed end, addressed through [`Lane::At`];
    /// each entry says whether that end's batches carry slots.
    Fixed {
        /// Per-end slot flags.
        ends: &'static [bool],
        /// Dedicated bulk aggregators appended after the fixed ends,
        /// with the same semantics as [`AggLayout::Mapped::bulk`].
        bulk: usize,
    },
}

/// A SEC structure: the batched-combining engine — aggregators,
/// batches, freezing, elimination pairing, combiner election, waiter
/// parking, elastic sharding, recycling and stats — around one
/// family's shared structure and sequential apply logic.
///
/// Every family is an alias of this type: [`SecStack`](crate::SecStack),
/// [`SecQueue`](crate::SecQueue), [`SecCounter`](crate::SecCounter) and
/// [`SecMap`](crate::SecMap). The methods below are the surface they
/// share; each family's module adds its own operations and builders.
/// Threads operate through the [`FamilyHandle`] that
/// [`Sec::register`] returns.
pub struct Sec<O: CombineOp> {
    /// The family's apply logic + shared structure. Declared before
    /// `collector` so structure teardown (op's `Drop`) runs before the
    /// collector frees retired husks.
    op: O,
    config: SecConfig,
    /// All aggregator slots the layout can ever activate. Under
    /// [`AggregatorPolicy::Adaptive`] only the prefix `aggs[..active]`
    /// receives new [`Lane::Mapped`] announcements; retired slots keep
    /// their current batch (in-flight batches drain themselves) and
    /// are reused when the active set grows back.
    aggs: Box<[CachePadded<CombineAggregator<O::Node>>]>,
    /// Number of currently active aggregators, in
    /// `[policy.min_k(), policy.max_k()]`. Constant for
    /// [`AggregatorPolicy::Fixed`]; irrelevant to [`Lane::At`]
    /// announcements.
    active: CachePadded<AtomicUsize>,
    /// Elastic-sharding window accumulator + epoch fence (inert under
    /// a fixed policy).
    monitor: ContentionMonitor,
    /// Index of the first dedicated bulk aggregator (== the mapped
    /// prefix length for [`AggLayout::Mapped`]; past the end when the
    /// layout carries none).
    bulk_base: usize,
    /// Redo log + intent cells when the structure is crash-durable
    /// (DESIGN.md §16). Every operation of a durable structure then
    /// routes through [`Sec::run_durable`] onto one of the
    /// durable shards, which sit after the bulk aggregators. Padded,
    /// so the core's read-mostly geometry shares no line with the
    /// engine's fields; the core keeps the apply lock and log counters
    /// every batch writes on a padded line of their own.
    durable: Option<CachePadded<DurableCore>>,
    /// Index of the first durable shard's aggregator (== `aggs.len()`
    /// when the engine is not durable, so no index reaches it).
    dur_base: usize,
    collector: Collector,
    stats: SecStats,
    /// Construction instant, anchoring [`TraceSnapshot::at_ns`].
    born: Instant,
    /// The sec-trace recording substrate (DESIGN.md §14), built only
    /// when [`TraceConfig::enabled`](crate::TraceConfig::enabled) is
    /// set. The field itself exists only under the `trace` cargo
    /// feature; every hook goes through
    /// [`Sec::tracer`], which degenerates to a constant
    /// `None` without it — the optimizer then erases the hooks
    /// entirely, so default builds pay nothing.
    #[cfg(feature = "trace")]
    tracer: Option<Box<TraceRecorder>>,
}

// Safety: all engine-shared state is atomics; node/batch ownership
// transfer follows the protocol's exactly-once consumption discipline,
// and the op is itself Send + Sync.
unsafe impl<O: CombineOp> Send for Sec<O> {}
unsafe impl<O: CombineOp> Sync for Sec<O> {}

impl<O: CombineOp> Sec<O> {
    /// Builds the family's structure from its [`CombineOp`] items:
    /// the normalized `config`, the layout, and the op built from
    /// `param`. Crash-durable when `durable` carries a core.
    pub(crate) fn build(config: SecConfig, param: u64, durable: Option<DurableCore>) -> Self {
        Self::assemble(O::create(param), O::normalize(config), O::LAYOUT, durable)
    }

    /// Builds an engine from an op, its configuration and an explicit
    /// aggregator layout.
    pub(crate) fn assemble(
        op: O,
        config: SecConfig,
        layout: AggLayout,
        durable: Option<DurableCore>,
    ) -> Self {
        let cap = config.per_aggregator_capacity();
        // (with_slots, capacity, spins) per aggregator: the mapped
        // prefix and fixed ends use the policy-derived capacity;
        // dedicated bulk aggregators must admit every thread (any
        // thread may issue a bulk call regardless of its mapped
        // aggregator), and a durable shard the slots
        // `DurableCore::shard_of` maps to it. The freezer spins only
        // where a caught announcer pays: on the mapped batches of a
        // family that eliminates, and on durable shards, where it
        // shares the batch's log record and commit.
        let elim = O::ELIMINATES;
        let (mut slotting, bulk_base): (Vec<(bool, usize, bool)>, usize) = match layout {
            AggLayout::Mapped { with_slots, bulk } => {
                let mut v = vec![(with_slots, cap, elim); config.aggregators()];
                v.extend((0..bulk).map(|_| (true, config.max_threads, false)));
                (v, config.aggregators())
            }
            AggLayout::Fixed { ends, bulk } => {
                let mut v: Vec<_> = ends.iter().map(|&ws| (ws, cap, false)).collect();
                let base = v.len();
                v.extend((0..bulk).map(|_| (true, config.max_threads, false)));
                (v, base)
            }
        };
        let dur_base = slotting.len();
        if let Some(d) = &durable {
            slotting.extend((0..d.shards()).map(|s| (true, d.shard_slots(s).len().max(1), true)));
        }
        Self {
            op,
            durable: durable.map(CachePadded::new),
            dur_base,
            aggs: slotting
                .iter()
                .map(|&(ws, c, spins)| CachePadded::new(CombineAggregator::new(c, ws, spins)))
                .collect(),
            active: CachePadded::new(AtomicUsize::new(config.policy.initial_active())),
            monitor: ContentionMonitor::new(),
            bulk_base,
            // The freezer never otherwise yields, so under a preempted
            // straggler it would pile up garbage at full speed.
            collector: Collector::with_recycle(config.max_threads, config.recycle)
                .yielding_when_blocked(),
            stats: SecStats::with_tallies(config.max_threads),
            born: Instant::now(),
            #[cfg(feature = "trace")]
            tracer: config
                .trace
                .enabled
                .then(|| Box::new(TraceRecorder::new(&config.trace, config.max_threads))),
            config,
        }
    }

    /// Registers the calling thread and returns its handle.
    ///
    /// # Panics
    ///
    /// If more threads register than the structure was configured for.
    pub fn register(&self) -> FamilyHandle<'_, O> {
        let reclaim = self.collector.register().unwrap_or_else(|| {
            panic!(
                "{}: more threads registered than the configured max_threads",
                O::NAME
            )
        });
        let tid = reclaim.slot();
        let seen_k = self.active.load(Ordering::Acquire);
        let agg_idx = self.config.aggregator_for(tid, seen_k);
        FamilyHandle {
            sec: self,
            state: OpState {
                tid,
                seen_k,
                agg_idx,
            },
            reclaim,
        }
    }

    /// The configuration this structure was built with, after the
    /// family's normalization (the queue's one fixed aggregator, the
    /// map's `[K, K]` range).
    pub fn config(&self) -> &SecConfig {
        &self.config
    }

    /// The family's apply logic / shared structure.
    pub(crate) fn op(&self) -> &O {
        &self.op
    }

    /// Mutable op access for family builders (pre-registration).
    pub(crate) fn op_mut(&mut self) -> &mut O {
        &mut self.op
    }

    /// The batching/elimination/combining instrumentation (the
    /// paper's Tables 1–3). Homogeneous families — the queue, the
    /// counter, the map — never eliminate, so for them `combined /
    /// batches` is the batching degree.
    pub fn stats(&self) -> &SecStats {
        &self.stats
    }

    /// The sec-trace recorder (event rings + phase histograms,
    /// DESIGN.md §14): `Some` only when the structure was configured
    /// with [`TraceConfig::enabled`](crate::TraceConfig) *and* the
    /// crate was built with the `trace` cargo feature.
    ///
    /// This accessor is also the engine hooks' single seam: without
    /// the feature it is a constant `None`, so every
    /// `if let Some(t) = self.tracer()` hook folds away and the hot
    /// path is byte-identical to an untraced build.
    #[inline]
    pub fn tracer(&self) -> Option<&TraceRecorder> {
        #[cfg(feature = "trace")]
        {
            self.tracer.as_deref()
        }
        #[cfg(not(feature = "trace"))]
        {
            None
        }
    }

    /// A point-in-time poll of the protocol counters; two snapshots
    /// differentiate into time-windowed rates via
    /// [`TraceSnapshot::rates_since`]. Always available — it reads the
    /// same counters as [`Sec::stats`].
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        let r = self.stats.report();
        TraceSnapshot {
            at_ns: self.born.elapsed().as_nanos() as u64,
            ops: r.ops,
            batches: r.batches,
            eliminated: r.eliminated,
            combined: r.combined,
            parks: r.parks,
            wakes: r.wakes,
            grows: r.grows,
            shrinks: r.shrinks,
            active_aggregators: self.active_aggregators(),
        }
    }

    /// Reclamation statistics (diagnostic). The recycle hit/miss/
    /// overflow counters are exact once every handle has dropped.
    pub fn reclaim_stats(&self) -> sec_reclaim::CollectorStats {
        self.collector.stats()
    }

    /// Drives reclamation to completion (up to `rounds` epoch
    /// advances) and returns the resulting stats. With every handle
    /// dropped, a successful quiesce leaves `retired == freed +
    /// cached` — the leak identity the test battery asserts.
    pub fn quiesce_reclamation(&self, rounds: usize) -> sec_reclaim::CollectorStats {
        self.collector.quiesce(rounds)
    }

    /// Number of currently active aggregators (the map's active
    /// shards; always 1 for the queue, whose aggregators are its ends).
    pub fn active_aggregators(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    /// Handles currently registered (a snapshot: it may change at
    /// once).
    #[inline]
    pub(crate) fn live_handles(&self) -> usize {
        self.collector.live_handles()
    }

    /// The aggregator index of the layout's `i`-th dedicated bulk
    /// aggregator (see [`AggLayout::Mapped`]).
    #[inline]
    pub(crate) fn bulk_agg(&self, i: usize) -> usize {
        self.bulk_base + i
    }

    /// Forces the active aggregator count to `k` (clamped into the
    /// policy's `[min_k, max_k]`; a no-op for
    /// [`AggregatorPolicy::Fixed`](crate::AggregatorPolicy::Fixed),
    /// whose bounds coincide). Returns the count now in force.
    ///
    /// This is the manual override behind the stress and
    /// linearizability suites, which drive grow/shrink transitions at
    /// chosen points instead of waiting for the contention monitor; it
    /// serializes with monitor decisions through the same election and
    /// arms the same epoch fence. Each step of the change is recorded
    /// in the [`SecStats`] resize counters. Operations already
    /// announced drain on their old aggregator (for the map, the
    /// bucket locks make that overlap safe).
    pub fn set_active_aggregators(&self, k: usize) -> usize {
        let k = k.clamp(self.config.policy.min_k(), self.config.policy.max_k());
        // A blocking wait on the concurrent decider's `end_decision`:
        // policy-aware, but never parked (decisions are a few loads —
        // there is no waker registration on the monitor).
        spin_wait(self.config.wait, || self.monitor.begin_decision());
        let prev = self.active.swap(k, Ordering::AcqRel);
        for _ in k..prev {
            self.stats.record_shrink();
        }
        for _ in prev..k {
            self.stats.record_grow();
        }
        if k != prev {
            self.monitor.arm_fence(self.collector.global_epoch());
            if let Some(t) = self.tracer() {
                t.record_control(if k > prev {
                    TraceEventKind::Grow { k: k as u32 }
                } else {
                    TraceEventKind::Shrink { k: k as u32 }
                });
            }
        }
        self.monitor.end_decision();
        k
    }

    /// One elastic-resize attempt: called by the freezer whose batch
    /// filled the decision window (DESIGN.md §8). Loses gracefully to
    /// a concurrent decider, and holds while the epoch fence of the
    /// previous transition is still up.
    fn try_elastic_resize(&self) {
        if !self.monitor.begin_decision() {
            return;
        }
        let epoch = self.collector.global_epoch();
        if self.monitor.fence_passed(epoch) {
            let sample = self.monitor.take_window(self.stats.cas_failures_now());
            let active = self.active.load(Ordering::Relaxed);
            let (min_k, max_k) = (self.config.policy.min_k(), self.config.policy.max_k());
            match elastic::decide(&sample, active, min_k, max_k, self.config.max_threads) {
                // Hysteresis: act only when two consecutive windows
                // vote the same way.
                Some(dir) if self.monitor.confirm(dir) => {
                    match dir {
                        Direction::Grow => {
                            self.active.store(active + 1, Ordering::Release);
                            self.stats.record_grow();
                            if let Some(t) = self.tracer() {
                                t.record_control(TraceEventKind::Grow {
                                    k: (active + 1) as u32,
                                });
                            }
                        }
                        Direction::Shrink => {
                            self.active.store(active - 1, Ordering::Release);
                            self.stats.record_shrink();
                            if let Some(t) = self.tracer() {
                                t.record_control(TraceEventKind::Shrink {
                                    k: (active - 1) as u32,
                                });
                            }
                        }
                    }
                    self.monitor.clear_pending();
                    self.monitor.arm_fence(epoch);
                }
                Some(_) => {}
                None => self.monitor.clear_pending(),
            }
        }
        self.monitor.end_decision();
    }

    /// The aggregator for `st`'s thread under the *current* active
    /// count, re-mapping lazily when the count changed since the last
    /// look. One shared (rarely-written, cache-padded) load per call;
    /// the re-map itself is a pure index computation.
    #[inline]
    fn remap(&self, st: &mut OpState) -> usize {
        let k = self.active.load(Ordering::Acquire);
        if k != st.seen_k {
            st.seen_k = k;
            st.agg_idx = self.config.aggregator_for(st.tid, k);
        }
        st.agg_idx
    }

    // ------------------------------------------------------------------
    // Freezing (paper lines 28–32)
    // ------------------------------------------------------------------

    /// The §3.1 freezer backoff ("a short backoff before freezing B to
    /// increase the elimination degree"), spent only on evidence that
    /// someone can still join. Returns the pauses and the yields it
    /// spent.
    ///
    /// The batch can expect at most `min(live handles, capacity)`
    /// announcers, and on a durable shard of several no more than the
    /// live handles among the slots mapped to it. With at most one —
    /// a lone thread — or once the two lanes already hold that many,
    /// waiting gathers nothing, so the freezer freezes at once.
    /// Otherwise, on an aggregator whose late announcers pay
    /// ([`CombineAggregator::spins`]), it spins up to `freezer_backoff`
    /// pauses, stopping as soon as the batch is full. Elsewhere a
    /// caught announcer would only share a combiner it could have been
    /// itself, so the spin buys nothing.
    /// Yields are for oversubscribed hosts only, on every aggregator: a
    /// joining thread that holds no core needs the freezer's, so
    /// `freezer_yields` are spent only while the batch is still short
    /// and more handles are live than the host has hardware threads.
    fn backoff(&self, agg_idx: usize, batch: &CombineBatch<O::Node>) -> (u64, u64) {
        let agg = &*self.aggs[agg_idx];
        let live = self.collector.live_handles();
        // Relaxed: the counts only steer the wait; the cut below
        // re-reads the lanes with Acquire.
        let mut expected = live.min(agg.capacity);
        // Only the handles in a durable shard's own slots announce
        // there. A lone shard's slots are all the slots, which `live`
        // already counts, so only a shard of several reads them.
        if expected > 1 && agg.capacity < self.config.max_threads {
            if let (Some(d), Some(shard)) =
                (self.durable_core(), agg_idx.checked_sub(self.dur_base))
            {
                expected = expected.min(self.collector.live_in(d.shard_slots(shard)));
            }
        }
        let short = || {
            batch::unpack_count(batch.add_count.load(Ordering::Relaxed))
                + batch::unpack_count(batch.remove_count.load(Ordering::Relaxed))
                < expected
        };
        if expected <= 1 || !short() {
            return (0, 0);
        }
        let mut spins = 0;
        if agg.spins {
            while spins < u64::from(self.config.freezer_backoff) {
                core::hint::spin_loop();
                spins += 1;
                if !short() {
                    return (spins, 0);
                }
            }
        }
        // Read (and on first use, cached) only here, off the lone
        // thread's path.
        if live <= topology::hardware_threads() {
            return (spins, 0);
        }
        let mut yields = 0;
        while yields < u64::from(self.config.freezer_yields) && short() {
            std::thread::yield_now();
            yields += 1;
        }
        (spins, yields)
    }

    /// `FreezeBatch`: build the next batch, aggregation backoff,
    /// snapshot both lane counters, install the fresh batch, retire
    /// the frozen one — identical for every family (a homogeneous
    /// batch simply snapshots a zero on its unused lane).
    fn freeze_batch(
        &self,
        agg: &CombineAggregator<O::Node>,
        batch_ptr: *mut CombineBatch<O::Node>,
        guard: &Guard<'_, '_>,
        tid: usize,
        agg_idx: usize,
    ) {
        let batch = unsafe { &*batch_ptr };

        // The fresh batch is built first, off the stretch between the
        // cut and the pointer swap that this batch's waiters spin
        // through, so its recycled-block pops and initialisation
        // overlap the backoff instead. It reuses recycled batch/array
        // blocks when the free lists have them.
        let fresh = CombineBatch::alloc_with(guard.handle(), agg.capacity, agg.with_slots);

        // §3.1: back off so more operations join the batch, raising
        // the elimination and combining degrees — when they can.
        let (spins, yields) = self.backoff(agg_idx, batch);

        // Lines 29–30: the snapshot order (remove lane first) matches
        // the paper; any interleaved announcements simply land on one
        // side of the cut or the other. The values are published to
        // every waiter by the Release store of the batch pointer below.
        // Each snapshot is a packed (announcements, ops) pair — one
        // load is a consistent prefix of the lane's fetch_add order —
        // so op-weighted accounting stays exact under bulk
        // announcements (see `batch::pack_announce`).
        let removes = batch.remove_count.load(Ordering::Acquire);
        let adds = batch.add_count.load(Ordering::Acquire);
        batch.remove_at_freeze.store(removes, Ordering::Relaxed);
        batch.add_at_freeze.store(adds, Ordering::Relaxed);
        let add_ops = batch::unpack_ops(adds);
        let remove_ops = batch::unpack_ops(removes);

        // sec-trace per-batch hooks (never sampled — batches are ~P×
        // rarer than ops): stamp the freeze instant for the combiner's
        // residency measurement and log the frozen degree. The stamp
        // precedes the batch-pointer swap below, whose Release/Acquire
        // edge publishes it to every included waiter.
        if let Some(t) = self.tracer() {
            batch.frozen_at.store(t.now(), Ordering::Relaxed);
            t.record(
                tid,
                agg_idx as u32,
                TraceEventKind::BatchFrozen {
                    adds: add_ops as u32,
                    removes: remove_ops as u32,
                },
            );
        }
        // Elastic sharding: the same frozen snapshot feeds the
        // contention monitor (§8 — measurement free-rides on the
        // freeze), in operations so bulk announcements register their
        // full weight. Inert for fixed-policy families.
        let window_full = self.config.policy.is_adaptive()
            && self
                .monitor
                .on_batch(add_ops, remove_ops, self.config.policy.window());

        // Line 31: installing the new batch is the freeze's
        // linearization aid — it simultaneously (a) signals spinning
        // announcers that the `*_at_freeze` fields are valid (Release)
        // and (b) directs new announcers to the fresh batch.
        agg.batch.store(fresh, Ordering::Release);
        // Wake the frozen batch's registered swap-waiters: the Release
        // store above published the cut, so the handshake's
        // condition-before-notify contract holds (DESIGN.md §11).
        agg.event.notify_key(batch_ptr as usize, self.stats.wait());

        // Tallied in this thread's own registry slot, after the swap so
        // the waiters are not held up by it.
        self.stats
            .record_batch(tid, add_ops, remove_ops, spins, yields);

        // The frozen batch is now unreachable for *new* pins; threads
        // already inside it are pinned and keep it alive. Retirement is
        // centralized in the freezer, which is unique per batch
        // (Observation B.1); once quiesced, its blocks feed future
        // `alloc_with` calls instead of the heap.
        unsafe { CombineBatch::retire_with(guard, batch_ptr) };

        // Recycle pressure: if this thread's free-list cache spilled
        // blocks to the global pool since the last freeze we traced,
        // log the delta (a watermark diff — cheap, and only here, off
        // the announce path).
        if let Some(t) = self.tracer() {
            if let Some(count) = t.overflow_delta(tid, guard.handle().recycle_overflows()) {
                t.record(
                    tid,
                    agg_idx as u32,
                    TraceEventKind::RecycleOverflow { count },
                );
            }
        }

        // The freezer that filled the decision window runs the resize
        // decision — *after* publishing the fresh batch, so the
        // announcers spinning on the batch pointer never wait through
        // the decision work.
        if window_full {
            self.try_elastic_resize();
        }
    }

    /// Announce-and-freeze prologue (lines 8–13 / 57–62): the seq-0
    /// announcer that wins the test&set freezes; everyone else waits
    /// (parked, per the configured policy) for the batch swap.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn freeze_or_wait(
        &self,
        agg: &CombineAggregator<O::Node>,
        batch_ptr: *mut CombineBatch<O::Node>,
        my_seq: usize,
        guard: &Guard<'_, '_>,
        tid: usize,
        agg_idx: usize,
        sampled: Option<&TraceRecorder>,
    ) {
        let batch = unsafe { &*batch_ptr };
        if my_seq == 0 && !batch.freezer_decided.swap(true, Ordering::AcqRel) {
            // We won the test&set among the (at most two) first
            // announcers: play the freezer 𝑓_B.
            if let Some(t) = self.tracer() {
                t.record(tid, agg_idx as u32, TraceEventKind::FreezerElected);
            }
            self.freeze_batch(agg, batch_ptr, guard, tid, agg_idx);
        } else {
            // Line 11/60: wait for the freezer to swap the batch
            // pointer — parked (per the configured policy) on the
            // aggregator's event queue; the freezer wakes us.
            if let Some(t) = sampled {
                t.record(tid, agg_idx as u32, TraceEventKind::Park);
            }
            agg.event.wait_until(
                batch_ptr as usize,
                self.config.wait,
                self.stats.wait(),
                || !ptr::eq(agg.batch.load(Ordering::Acquire), batch_ptr),
            );
            if let Some(t) = sampled {
                t.record(tid, agg_idx as u32, TraceEventKind::Unpark);
            }
        }
    }

    // ------------------------------------------------------------------
    // sec-trace hook helpers (each folds to its bare operation when
    // `trace` is None — always the case in untraced builds)
    // ------------------------------------------------------------------

    /// Runs a combiner's apply closure with the sampled-op combine
    /// hooks around it: `combine_start` event, timed apply, duration
    /// histogram, `combine` span event.
    #[inline]
    fn traced_combine(
        &self,
        trace: Option<&TraceRecorder>,
        tid: usize,
        agg_idx: usize,
        role: Role,
        apply: impl FnOnce(),
    ) {
        if let Some(t) = trace {
            t.record(
                tid,
                agg_idx as u32,
                TraceEventKind::CombineStart {
                    lane: role.trace_lane(),
                },
            );
            let t0 = t.now();
            apply();
            let dur_ns = t.delta_ns(t0);
            t.combine_duration().record(dur_ns);
            t.record(tid, agg_idx as u32, TraceEventKind::CombineEnd { dur_ns });
        } else {
            apply();
        }
    }

    /// Publish hook, run by the combiner right after `mark_applied`:
    /// freeze→publish batch residency, read off the freezer's
    /// `frozen_at` stamp (zero when the freezer was not traced —
    /// nothing is recorded then).
    #[inline]
    fn trace_publish(
        &self,
        trace: Option<&TraceRecorder>,
        tid: usize,
        agg_idx: usize,
        batch: &CombineBatch<O::Node>,
    ) {
        if let Some(t) = trace {
            let frozen = batch.frozen_at.load(Ordering::Relaxed);
            if frozen != 0 {
                let residency_ns = t.delta_ns(frozen);
                t.batch_residency().record(residency_ns);
                t.record(
                    tid,
                    agg_idx as u32,
                    TraceEventKind::Publish { residency_ns },
                );
            }
        }
    }

    /// The applied-flag wait with park/unpark events around it for
    /// sampled ops.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn traced_wait_applied(
        &self,
        trace: Option<&TraceRecorder>,
        tid: usize,
        agg_idx: usize,
        agg: &CombineAggregator<O::Node>,
        batch: &CombineBatch<O::Node>,
        batch_ptr: *mut CombineBatch<O::Node>,
    ) {
        if let Some(t) = trace {
            t.record(tid, agg_idx as u32, TraceEventKind::Park);
        }
        wait_applied(agg, batch, batch_ptr, self.config.wait, self.stats.wait());
        if let Some(t) = trace {
            t.record(tid, agg_idx as u32, TraceEventKind::Unpark);
        }
    }

    // ------------------------------------------------------------------
    // The driver (paper Algorithms 1 and 2, one implementation)
    // ------------------------------------------------------------------

    /// Drives one operation to its result: alone when the family's
    /// [`CombineOp::LONE`] rule finds nobody in its batch, otherwise
    /// through the full announce → freeze → (eliminate | combine |
    /// wait) → publish cycle.
    ///
    /// `node` is the operation's announced node (null for operations
    /// that bring none — the slot store is skipped); excluded
    /// announcements (after the freeze) retry in a newer batch with
    /// the node still exclusively theirs.
    pub(crate) fn run(
        &self,
        lane: Lane<'_>,
        role: Role,
        node: *mut O::Node,
        reclaim: &ReclaimHandle<'_>,
    ) -> Option<O::Value> {
        self.run_weighted(lane, role, node, 1, reclaim)
    }

    /// [`Sec::run`] for an announcement carrying `ops`
    /// operations — the bulk entry point. The node is announced once
    /// (one sequence number, one slot), but the lane counter advances
    /// by `ops` on its operation half, so freezing, stats and the
    /// contention monitor account the batch's true degree.
    pub(crate) fn run_weighted(
        &self,
        mut lane: Lane<'_>,
        role: Role,
        node: *mut O::Node,
        ops: u32,
        reclaim: &ReclaimHandle<'_>,
    ) -> Option<O::Value> {
        debug_assert!(
            (1..=MAX_BULK_OPS as u32).contains(&ops),
            "{}: bulk weight {} outside 1..={} (families chunk above the bound)",
            O::NAME,
            ops,
            MAX_BULK_OPS
        );
        // sec-trace sampling decision, hoisted out of the protocol:
        // unsampled ops (and untraced builds, where `tracer()` is a
        // constant `None`) take exactly one predictable branch here and
        // pass `None` down — every hook inside the driver then folds to
        // nothing.
        let tid = reclaim.slot();
        let trace = self.tracer().filter(|t| t.sample(tid));
        let t_op = trace.map(|t| t.now());
        // A batch nobody is in buys nothing: skip it.
        let out = match self.try_lone(&mut lane, role, node, ops, reclaim, trace) {
            Ok(out) => out,
            Err(node) => self.run_batch(lane, role, node, ops, reclaim, tid, trace),
        };
        if let (Some(t), Some(t0)) = (trace, t_op) {
            t.op_latency().record(t.delta_ns(t0));
        }
        out
    }

    /// The aggregator `lane` names, a [`Lane::Mapped`] one re-mapped
    /// against the current active count first.
    #[inline]
    fn resolve(&self, lane: &mut Lane<'_>) -> usize {
        match lane {
            Lane::Mapped(st) => self.remap(st),
            Lane::At(i) => *i,
            Lane::Deferred(f) => f(),
        }
    }

    /// The one lone-op rule (DESIGN.md §12 "Lone operations"): offers
    /// the op to [`Sec::run_alone`] when the family's
    /// [`CombineOp::LONE`] evidence says nobody is in its batch, and
    /// otherwise hands `node` back for the batch path.
    #[inline]
    fn try_lone(
        &self,
        lane: &mut Lane<'_>,
        role: Role,
        node: *mut O::Node,
        ops: u32,
        reclaim: &ReclaimHandle<'_>,
        trace: Option<&TraceRecorder>,
    ) -> Result<Option<O::Value>, *mut O::Node> {
        if self.durable.is_some() {
            return Err(node);
        }
        match O::LONE {
            LoneRule::Never => Err(node),
            LoneRule::OneHandle => {
                if ops == 1 && matches!(lane, Lane::Mapped(_)) && self.collector.live_handles() <= 1
                {
                    self.run_alone(lane, role, node, ops, reclaim, trace)
                } else {
                    Err(node)
                }
            }
            LoneRule::IdleLane => {
                let agg_idx = self.resolve(lane);
                // One pin covers the check and the hook's apply: the
                // hook's own pin nests inside this one.
                let _guard = reclaim.pin();
                let batch = unsafe { &*self.aggs[agg_idx].batch.load(Ordering::Acquire) };
                // Relaxed: the count only steers the choice, which is
                // safe either way.
                if batch.count(role).load(Ordering::Relaxed) == 0 {
                    self.run_alone(&mut Lane::At(agg_idx), role, node, ops, reclaim, trace)
                } else {
                    Err(node)
                }
            }
            LoneRule::OwnEvidence => self.run_alone(lane, role, node, ops, reclaim, trace),
        }
    }

    /// The lone route: no announce, freeze, batch or wake. The op goes
    /// straight to [`CombineOp::try_alone`], and an applied one is
    /// tallied as one combined batch of its weight `ops` on its
    /// registry slot. A lone op races combiners exactly as combiners of
    /// different aggregators race each other, so the route is safe
    /// whatever the rule's evidence says, and the rule may act on a
    /// stale count.
    pub(crate) fn run_alone(
        &self,
        lane: &mut Lane<'_>,
        role: Role,
        node: *mut O::Node,
        ops: u32,
        reclaim: &ReclaimHandle<'_>,
        trace: Option<&TraceRecorder>,
    ) -> Result<Option<O::Value>, *mut O::Node> {
        let out = self.op.try_alone(self, role, node, reclaim)?;
        let tid = reclaim.slot();
        self.stats.record_alone(tid, u64::from(ops));
        if let Some(t) = trace {
            t.record(
                tid,
                self.resolve(lane) as u32,
                TraceEventKind::Alone {
                    lane: role.trace_lane(),
                },
            );
        }
        Ok(out)
    }

    /// The batch protocol proper (paper Algorithms 1 and 2), never the
    /// lone route: announce, freeze or wait, then eliminate, combine or
    /// wait for the combiner, and take the result. `trace` is `Some`
    /// only for sampled ops of a traced structure (see
    /// [`Sec::run_weighted`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_batch(
        &self,
        mut lane: Lane<'_>,
        role: Role,
        node: *mut O::Node,
        ops: u32,
        reclaim: &ReclaimHandle<'_>,
        tid: usize,
        trace: Option<&TraceRecorder>,
    ) -> Option<O::Value> {
        if let Lane::Deferred(f) = &lane {
            lane = Lane::At(f());
        }
        loop {
            // Re-resolve the mapping each attempt: an excluded retry
            // after an elastic re-mapping must land on the thread's
            // *new* aggregator, or a retired one would keep receiving
            // work.
            let agg_idx = self.resolve(&mut lane);
            let agg = &*self.aggs[agg_idx];
            let guard = reclaim.pin();
            // Line 5/55.
            let batch_ptr = agg.batch.load(Ordering::Acquire);
            let batch = unsafe { &*batch_ptr };
            // Line 6/56: announce. AcqRel: the freezer's counter read
            // and our increment are ordered; the low half of the packed
            // prior value is our sequence number (the high half tallies
            // op weight for the freezer's accounting).
            let my_seq = batch::unpack_count(
                batch
                    .count(role)
                    .fetch_add(batch::pack_announce(ops), Ordering::AcqRel),
            );
            assert!(
                my_seq < batch.capacity,
                "{}: more announcements ({}) than the aggregator capacity ({}) — was \
                 the structure shared by more threads than its configured max_threads?",
                O::NAME,
                my_seq + 1,
                batch.capacity
            );
            // Line 7: publish the node *before* anything else, so
            // neither an eliminating partner nor the combiner waits on
            // us longer than necessary (§3.1).
            if !node.is_null() {
                batch.slots[my_seq].store(node, Ordering::Release);
            }
            if let Some(t) = trace {
                t.record(
                    tid,
                    agg_idx as u32,
                    TraceEventKind::Announce {
                        lane: role.trace_lane(),
                        seq: my_seq as u32,
                    },
                );
            }
            let t_announce = trace.map(|t| t.now());

            // Lines 8–13 / 57–62.
            self.freeze_or_wait(agg, batch_ptr, my_seq, &guard, tid, agg_idx, trace);
            if let (Some(t), Some(t0)) = (trace, t_announce) {
                t.announce_to_freeze().record(t.delta_ns(t0));
            }

            // Line 14/63: inclusion test.
            let my_cut = batch.frozen_cut(role);
            if my_seq >= my_cut {
                // Excluded (announced after the freeze): retry in a
                // newer batch.
                continue;
            }
            let other_cut = batch.frozen_cut(role.other());
            match role {
                Role::Add => {
                    // Line 15: elimination test — if a remove with our
                    // sequence number belongs to the batch, it consumes
                    // our node and we are done the moment the batch
                    // froze.
                    if my_seq >= other_cut {
                        // Line 16: combiner test.
                        if my_seq == other_cut {
                            self.traced_combine(trace, tid, agg_idx, role, || {
                                self.op.combine_add(self, batch, my_seq, agg_idx, &guard);
                            });
                            // Line 18 — and wake the batch's waiters.
                            mark_applied(agg, batch, batch_ptr, self.stats.wait());
                            self.trace_publish(trace, tid, agg_idx, batch);
                        } else {
                            // Line 20: parked wait for the combiner.
                            self.traced_wait_applied(trace, tid, agg_idx, agg, batch, batch_ptr);
                        }
                    }
                    // Line 24: adds return no value.
                    return None;
                }
                Role::Remove => {
                    // Line 64: elimination test — the add with our
                    // sequence number belongs to the batch; take its
                    // value.
                    if my_seq < other_cut {
                        return Some(self.op.eliminate(self, batch, my_seq, &guard));
                    }
                    // Line 69: combiner test.
                    if my_seq == other_cut {
                        self.traced_combine(trace, tid, agg_idx, role, || {
                            if agg_idx >= self.dur_base {
                                self.combine_durable(batch, my_seq, agg_idx, &guard);
                            } else {
                                self.op.combine_remove(self, batch, my_seq, agg_idx, &guard);
                            }
                        });
                        // Line 71 — and wake the batch's waiters.
                        mark_applied(agg, batch, batch_ptr, self.stats.wait());
                        self.trace_publish(trace, tid, agg_idx, batch);
                    } else {
                        // Line 73: parked wait for the combiner.
                        self.traced_wait_applied(trace, tid, agg_idx, agg, batch, batch_ptr);
                    }
                    if agg_idx >= self.dur_base {
                        // Durable requests carry their logged results
                        // in the request itself. This is the kill-9
                        // harness's mid-publish crash point: results
                        // committed, not all consumed yet.
                        fault::hit(FaultPoint::MidPublish);
                        return None;
                    }
                    // Line 76: consume our offset of the result chain.
                    return self
                        .op
                        .take_result(self, batch, my_seq - other_cut, agg_idx, &guard);
                }
            }
        }
    }
}

impl<O: CombineOp> Drop for Sec<O> {
    fn drop(&mut self) {
        // No handles exist (they borrow the engine), so everything is
        // quiescent and each aggregator's current batch is virgin (any
        // announcement freezes its batch before returning, installing
        // a newer one). Retired batches are freed by the collector's
        // own drop. After this, field drop order tears down the op
        // (the family's shared structure) and then the collector.
        for agg in self.aggs.iter() {
            let b = agg.batch.load(Ordering::Relaxed);
            if !b.is_null() {
                drop(unsafe { Box::from_raw(b) });
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests;
