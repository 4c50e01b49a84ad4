//! # `sec-repro` — Sharded Elimination and Combining stacks, reproduced
//!
//! Facade crate for the reproduction of *"Sharded Elimination and
//! Combining for Highly-Efficient Concurrent Stacks"* (Singh,
//! Metaxakis, Fatourou — PPoPP '26). Re-exports the public API of every
//! member crate so applications can depend on one name:
//!
//! * [`SecStack`] — the paper's stack (aggregators → batches →
//!   counter-based elimination → substack combining), an alias of
//!   [`Sec`], the one SEC structure type every family shares,
//! * [`ext::SecQueue`] — the FIFO queue built from the same mechanisms
//!   (per-end batches, single-CAS splice/unlink, empty-only
//!   elimination; DESIGN.md §9),
//! * [`ext::SecCounter`] — the combining fetch-add counter, the
//!   minimal instantiation of the generic combining engine every
//!   SEC-family structure runs on (DESIGN.md §12),
//! * [`ext::SecMap`] — the batched-combining keyed hash map (buckets
//!   block-partitioned into shards, one aggregator per shard, results
//!   through announcement slots; DESIGN.md §13),
//! * [`baselines`] — the five competitor stacks from the evaluation
//!   (Treiber, elimination-backoff, flat-combining, CC-Synch,
//!   timestamped-interval) plus the queue baselines (Michael–Scott,
//!   locked `VecDeque`) and the map baseline (locked `HashMap`),
//! * [`reclaim`] — the DEBRA-style epoch-based reclamation substrate,
//! * [`sync`] — concurrency primitives (backoff, spin-then-park
//!   waiting, cache padding, TTAS lock, TSC clock, topology),
//! * [`linearize`] — history recording + linearizability checking,
//! * [`workload`] — the benchmark harness behind the paper's figures.
//!
//! ## Quick start
//!
//! ```
//! use sec_repro::{ConcurrentStack, SecStack, StackHandle};
//!
//! let stack: SecStack<u64> = SecStack::new(8); // up to 8 threads
//! std::thread::scope(|s| {
//!     for t in 0..4u64 {
//!         let stack = &stack;
//!         s.spawn(move || {
//!             let mut h = stack.register();
//!             h.push(t);
//!             h.pop();
//!         });
//!     }
//! });
//! ```
//!
//! See `examples/` for runnable scenarios (work-pool graph traversal, a
//! shared freelist, an algorithm shoot-out) and `crates/bench` for the
//! figure/table regeneration binaries.

#![warn(missing_docs)]

pub use sec_core::{
    topology_shard, AggregatorPolicy, BatchReport, CollectorStats, ConcurrentMap, ConcurrentQueue,
    ConcurrentStack, DegreeDist, FamilyHandle, MapHandle, QueueHandle, RecyclePolicy, Sec,
    SecConfig, SecHandle, SecStack, SecStats, ShardPolicy, StackHandle, TraceConfig, TraceRates,
    TraceSnapshot, WaitPolicy,
};

/// The sec-trace observability layer (DESIGN.md §14): per-thread event
/// rings, mergeable HDR-style histograms, Chrome-trace export and the
/// `TraceSnapshot` polling API. The types compile unconditionally; the
/// engine only records into them when built with `--features trace`.
pub mod trace {
    pub use sec_core::trace::{
        chrome_trace_json, DegreeDist, Histogram, TraceConfig, TraceEvent, TraceEventKind,
        TraceLane, TraceRates, TraceRecorder, TraceSnapshot,
    };
}

/// The elastic-sharding contention monitor (DESIGN.md §8): pure
/// decision function + window accumulator, exposed for the property
/// suites.
pub mod elastic {
    pub use sec_core::sec::elastic::{decide, ContentionMonitor, Direction, WindowSample};
}

/// Extensions built from the paper's mechanisms (DESIGN.md §9, §12
/// and §13): the batched-combining FIFO queue, the combining
/// fetch-add counter that exercises the generic engine seam, and the
/// batched-combining keyed hash map.
pub mod ext {
    pub use sec_core::counter::{SecCounter, SecCounterHandle};
    pub use sec_core::map::{SecMap, SecMapHandle};
    pub use sec_core::queue::{SecQueue, SecQueueHandle};
}

/// The five competitor stacks of the paper's evaluation, plus the
/// queue-family baselines (Michael–Scott, locked `VecDeque`) and the
/// map-family baseline (locked `HashMap`).
pub mod baselines {
    pub use sec_baselines::{
        CcHandle, CcStack, EbHandle, EbStack, FcHandle, FcStack, LockedHandle, LockedHashMap,
        LockedHashMapHandle, LockedQueue, LockedQueueHandle, LockedStack, MsHandle, MsQueue,
        SeqStack, TreiberHandle, TreiberHpHandle, TreiberHpStack, TreiberStack, TsiHandle,
        TsiStack,
    };
}

/// Crash-durable SEC (DESIGN.md §16): the persistent-heap backend,
/// the per-shard redo log's policy knobs, the recovery report types
/// the `recover()` constructors return, and the fault-injection
/// points the kill-9 harness arms via `SEC_CRASH_POINT`.
pub mod durable {
    pub use sec_core::{
        opcode, DurableError, DurableMode, DurablePolicy, DurableStats, FaultPoint, HandleRecovery,
        LogGranularity, LoggedOp, OpResult, PendingOutcome, RecoveryReport, SyncMode,
    };
    pub use sec_reclaim::PersistentHeap;
}

/// Epoch-based memory reclamation (DEBRA-style) with node recycling
/// (DESIGN.md §10).
pub mod reclaim {
    pub use sec_reclaim::{
        Collector, CollectorStats, Guard, Handle, HpDomain, HpHandle, PersistentHeap, RecyclePolicy,
    };
}

/// Concurrency primitives substrate.
pub mod sync {
    pub use sec_sync::event::{spin_wait, WaitCell, WaitPolicy, WaitQueue, WaitStats};
    pub use sec_sync::{topology, Backoff, CachePadded, Timestamp, TscClock, TtasLock};
}

/// History recording and linearizability checking.
pub mod linearize {
    pub use sec_linearize::{check_conservation, check_history, Event, Op, Recorder, Violation};
}

/// Workload generation and the closed-loop measurement.
pub mod workload {
    pub use sec_workload::{
        drive, replay, run_algo, stats, table, trace, Algo, Budget, ClosedLoop, DurableSetup,
        KeyDist, KeySampler, LatencyHistogram, LatencyReport, MapMix, MapOpKind, Mix, OpKind,
        Probe, ReplayResult, RunConfig, RunResult, Start, Trace, TraceOp, Visitor, ALL_COMPETITORS,
        EXTENDED_LINEUP, MAP_LINEUP, QUEUE_LINEUP, SEC_FAMILIES,
    };
}
