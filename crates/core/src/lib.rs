//! # `sec-core` — the SEC (Sharded Elimination and Combining) stack
//!
//! A from-scratch Rust implementation of the blocking linearizable
//! concurrent stack of *"Sharded Elimination and Combining for
//! Highly-Efficient Concurrent Stacks"* (Singh, Metaxakis, Fatourou —
//! PPoPP '26).
//!
//! ## The algorithm in one paragraph
//!
//! Threads are statically partitioned over `K` **aggregators** (sharding
//! level 1). The operations arriving at an aggregator are grouped into
//! **batches** (sharding level 2): a thread announces its `push`/`pop`
//! with a single `fetch&increment` on the batch's `pushCount`/`popCount`
//! counter, obtaining a *sequence number*. The first announcement wins a
//! test&set and becomes the **freezer**: after a short aggregation
//! backoff it snapshots both counters (`*AtFreeze`) and swaps the
//! aggregator's batch pointer to a fresh batch. Within the frozen batch,
//! the push with sequence number `i` and the pop with sequence number
//! `i` **eliminate** each other through slot `i` of the batch's
//! elimination array — so exactly `min(pushes, pops)` pairs cancel
//! without touching the shared stack. The survivors are all of one type;
//! the one with the lowest surviving sequence number becomes the batch's
//! **combiner** and applies all of them to the shared Treiber-style
//! stack with a *single CAS* (splicing a pre-linked substack in, or
//! unlinking a chain of nodes out). Everybody else spins locally.
//!
//! ## What lives where
//!
//! * [`Sec`] / [`FamilyHandle`] — the one SEC structure type and its
//!   per-thread handle. Every family below is an alias of them, so the
//!   shared surface (constructors, durable constructors, stats,
//!   reclamation, elastic and trace accessors, [`SecReadout`]) is
//!   written once,
//! * [`SecStack`] / [`SecHandle`] — the stack and its per-thread handle,
//! * [`SecConfig`] — aggregator count, capacity, freezer backoff,
//!   sharding policy (paper §3.1 tunables), including the elastic
//!   [`AggregatorPolicy`] that resizes the active aggregator set at
//!   runtime (DESIGN.md §8),
//! * [`SecStats`] — batching/elimination/combining degree counters
//!   backing Tables 1–3 of the paper,
//! * [`ConcurrentStack`] / [`StackHandle`] — the object-independent
//!   interface the baselines and the benchmark harness share,
//! * [`SecQueue`] / [`ConcurrentQueue`] / [`QueueHandle`] — the FIFO
//!   queue built from the same mechanisms (per-end batches, single-CAS
//!   splice/unlink, empty-only elimination; DESIGN.md §9) and the
//!   queue-family interface its baselines share,
//! * [`SecCounter`] — a combining fetch-and-add counter, the smallest
//!   full instantiation of the engine (~120 lines of apply logic),
//! * [`SecMap`] / [`ConcurrentMap`] / [`MapHandle`] — a batched-combining
//!   keyed hash map (buckets block-partitioned into shards, one
//!   aggregator per shard, results through announcement slots;
//!   DESIGN.md §13) and the map-family interface its baseline shares,
//! * `combine` (private) — the generic
//!   announce → freeze → combine → publish engine behind [`Sec`], which
//!   each family instantiates through its sealed `CombineOp` trait
//!   (DESIGN.md §12).
//!
//! ## Quick start
//!
//! ```
//! use sec_core::{ConcurrentStack, SecConfig, SecStack, StackHandle};
//!
//! let stack: SecStack<u64> = SecStack::with_config(SecConfig::new(2, 8));
//! std::thread::scope(|s| {
//!     for t in 0..4 {
//!         let stack = &stack;
//!         s.spawn(move || {
//!             let mut h = stack.register();
//!             h.push(t);
//!             let _ = h.pop();
//!         });
//!     }
//! });
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub(crate) mod combine;
mod config;
pub mod counter;
pub mod map;
pub mod queue;
pub mod sec;
pub mod trace;
mod traits;

pub use combine::durable::{
    fault::FaultPoint, opcode, DurableError, DurableMode, DurablePolicy, DurableStats,
    HandleRecovery, LogGranularity, LoggedOp, OpResult, PendingOutcome, RecoveryReport, SyncMode,
};
pub use combine::{FamilyHandle, Sec};
pub use config::{
    topology_shard, AggregatorPolicy, RecyclePolicy, SecConfig, ShardPolicy, WaitPolicy,
};
pub use counter::{SecCounter, SecCounterHandle};
pub use map::{SecMap, SecMapHandle};
pub use queue::{SecQueue, SecQueueHandle};
pub use sec::stats::{BatchReport, SecStats};
pub use sec::{SecHandle, SecStack};
pub use sec_reclaim::CollectorStats;
pub use trace::{DegreeDist, TraceConfig, TraceRates, TraceRecorder, TraceSnapshot};
pub use traits::{
    ConcurrentMap, ConcurrentQueue, ConcurrentStack, MapHandle, QueueHandle, SecReadout,
    StackHandle,
};
