//! # `sec-workload` — workload generation and throughput measurement
//!
//! The evaluation substrate behind every figure and table of the paper
//! (§6 "Methodology"):
//!
//! * [`Mix`] — operation mixes (the paper's read-heavy / mixed /
//!   update-heavy / push-only / pop-only workloads),
//! * [`RunConfig`] / [`run_throughput`] — the measurement loop: prefill
//!   the stack, release `n` threads behind a barrier, let them draw
//!   operations from the mix for a fixed duration, report aggregate
//!   throughput (Mops/s),
//! * [`run_queue_throughput`] — the same loop for the FIFO-queue family
//!   ([`Algo::SecQueue`], [`Algo::MsQ`], [`Algo::LckQ`]),
//! * [`run_map_throughput`] / [`MapMix`] / [`KeyDist`] — the keyed
//!   workload for the map family ([`Algo::SecMap`], [`Algo::LckMap`]):
//!   YCSB-style get/insert/remove shares over uniform or zipfian key
//!   draws,
//! * [`run_counter_throughput`] — the counter family
//!   ([`Algo::SecCounter`]),
//! * [`Algo`] / [`Algo::build`] / [`Visitor`] — the one registry that
//!   turns an algorithm into its stack, queue, counter or map, and
//!   [`run_algo`], the visit that measures it, so the figure binaries
//!   can sweep algorithms,
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
pub use latency::{
    measure_counter_latency, measure_latency, measure_map_latency, measure_queue_latency,
    LatencyHistogram, LatencyReport,
};
pub use openloop::{replay_open_loop, Arrival, ArrivalTrace, ReplayReport, ServiceConfig};
pub use runner::{
    run_counter_throughput, run_map_throughput, run_queue_throughput, run_throughput, DurableSetup,
    RunConfig, RunResult,
};
pub use spec::{KeyDist, KeySampler, MapMix, MapOpKind, Mix, OpKind};
pub use trace::{replay, ReplayResult, Trace, TraceOp};
