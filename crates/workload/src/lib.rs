//! # `sec-workload` — workload generation and throughput measurement
//!
//! The evaluation substrate behind every figure and table of the paper
//! (§6 "Methodology"):
//!
//! * [`Mix`] — operation mixes (the paper's read-heavy / mixed /
//!   update-heavy / push-only / pop-only workloads),
//! * [`drive`] / [`Budget`] — the one closed-loop driver: `n` workers,
//!   each built on its own thread, released together by one start
//!   barrier and stepped until a duration passes or a fixed op count
//!   per worker is spent,
//! * [`RunConfig`] / [`ClosedLoop`] — the measurement on top of it:
//!   prefill the structure, let every worker draw operations from the
//!   mix, report aggregate throughput (Mops/s). Its [`Visitor`] methods
//!   are the per-kind mappings from a draw to an operation — stack,
//!   FIFO queue, counter, and the keyed map driven by [`MapMix`] /
//!   [`KeyDist`] (YCSB-style get/insert/remove shares over uniform or
//!   zipfian key draws). A [`Probe`] records each op: `()` for
//!   throughput, a [`LatencyHistogram`] for the [`latency`]
//!   percentiles,
//! * [`Algo`] / [`Algo::build`] / [`Visitor`] — the one registry that
//!   turns an algorithm into its stack, queue, counter or map, and
//!   [`run_algo`], the timed [`ClosedLoop`] over it, so the figure
//!   binaries can sweep algorithms,
//! * [`stats`] — mean/σ across repeated runs, plus the elastic-resize
//!   counter aggregation ([`stats::ResizeTotals`]),
//! * [`table`] — the paper-style table and CSV output (plotted series
//!   plus unplotted counter columns),
//! * [`trace`] — deterministic record/replay workloads (fixed op
//!   sequences replayed against every algorithm for op-for-op
//!   comparability and reproducible stress failures),
//! * [`openloop`] — open-loop traffic replay: timestamped arrival
//!   traces (steady / bursty / diurnal / multi-tenant, plus a
//!   committed text format) replayed against a
//!   `SecQueue`+`SecMap` service with latency charged from scheduled
//!   arrival, so overload shows up instead of being coordinated away.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod algo;
pub mod latency;
pub mod openloop;
mod runner;
mod spec;
pub mod stats;
pub mod table;
pub mod trace;

pub use algo::{
    run_algo, Algo, AlgoRun, SecPatch, SecReadout, Visitor, ALL_COMPETITORS, CHECKED_LINEUP,
    EXTENDED_LINEUP, MAP_LINEUP, QUEUE_LINEUP, SEC_FAMILIES,
};
pub use latency::{LatencyHistogram, LatencyReport};
pub use openloop::{replay_open_loop, Arrival, ArrivalTrace, ReplayReport, ServiceConfig};
pub use runner::{drive, Budget, ClosedLoop, DurableSetup, Probe, RunConfig, RunResult, Start};
pub use spec::{KeyDist, KeySampler, MapMix, MapOpKind, Mix, OpKind};
pub use trace::{replay, ReplayResult, Trace, TraceOp};
