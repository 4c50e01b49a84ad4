//! # `sec-sync` — concurrency primitives substrate
//!
//! This crate collects the low-level building blocks shared by the SEC
//! stack, its five competitor implementations, the reclamation subsystem
//! and the benchmark harness:
//!
//! * [`CachePadded`] — false-sharing avoidance for per-thread and
//!   per-shard hot state,
//! * [`Backoff`] — bounded exponential spin backoff that degrades to
//!   [`std::thread::yield_now`], the spin engine of every retry loop
//!   and of the spin phase of every blocking wait,
//! * [`event`] — spin-then-park waiting ([`event::WaitPolicy`],
//!   [`event::WaitCell`], [`event::WaitQueue`]): the no-lost-wakeup
//!   park/unpark subsystem behind SEC's freezer/combiner waits on
//!   oversubscribed machines (DESIGN.md §11),
//! * [`TtasLock`] — a test-and-test-and-set spin lock (the combiner lock
//!   of the flat-combining baseline),
//! * [`TscClock`] — the timestamp source of the TSI baseline (`RDTSC` on
//!   x86_64, a monotonic software clock elsewhere),
//! * [`topology`] — host parallelism discovery for the harness.
//!
//! Everything here is dependency-free: `std` is used for threads and
//! time only.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod backoff;
mod clock;
mod lock;
mod pad;

pub mod event;
pub mod topology;

pub use backoff::Backoff;
pub use clock::{Calibration, Timestamp, TscClock};
pub use lock::{TtasGuard, TtasLock};
pub use pad::CachePadded;
