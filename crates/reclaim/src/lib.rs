//! # `sec-reclaim` — DEBRA-style epoch-based memory reclamation
//!
//! The SEC paper reclaims stack nodes and batch objects with Brown's
//! DEBRA (PODC '15) epoch-based reclamation. This crate is a
//! from-scratch implementation of the same algorithm class, used
//! uniformly by every stack in this repository:
//!
//! * a global **epoch** counter advances when every pinned thread has
//!   been observed in the current epoch;
//! * each registered thread **pins** itself (announces the epoch it read)
//!   for the duration of each operation and unpins afterwards;
//! * **retired** objects go into one of three per-thread limbo *bags*
//!   indexed by `epoch mod 3`; garbage retired at epoch `e` is freed only
//!   once the global epoch reaches `e + 2`, at which point no pinned
//!   thread can still hold a reference to it;
//! * epoch-advance attempts are **amortized**: a thread only scans the
//!   announcement array every `ADVANCE_PERIOD` pins (DEBRA's key cost
//!   saving over scan-per-operation EBR); a bag past `BAG_PRESSURE`
//!   items tries eagerly, and on a collector built with
//!   [`Collector::yielding_when_blocked`] also yields once per retire
//!   while another thread's stale pin blocks the advance, so a
//!   preempted straggler does not let garbage pile up at full speed;
//! * quiesced blocks can be **recycled** instead of freed: under
//!   [`RecyclePolicy::PerThread`] they enter per-thread, size-classed
//!   free lists (bounded, overflowing to a shared pool) and
//!   [`Handle::alloc_boxed`] pops them back out before touching the
//!   heap — see the [`recycle`] module and DESIGN.md §10.
//!
//! ## Usage
//!
//! ```
//! use sec_reclaim::Collector;
//!
//! let collector = Collector::new(4); // up to 4 concurrent threads
//! let handle = collector.register().unwrap();
//! {
//!     let guard = handle.pin();
//!     // ... read shared pointers safely ...
//!     let boxed = Box::into_raw(Box::new(42_u64));
//!     // Transfer the allocation to the collector: freed at a safe time.
//!     unsafe { guard.retire(boxed) };
//! } // unpin
//! ```
//!
//! ## Safety contract
//!
//! A pointer passed to [`Guard::retire`] must be a unique, valid
//! `Box`-allocated pointer that is unreachable for threads that pin
//! *after* the call; threads that were already pinned may keep using it
//! until they unpin. This is exactly the guarantee the stacks need: a
//! node is retired only after it has been unlinked from every shared
//! location.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod bag;
mod collector;
mod handle;
pub mod hp;
pub mod pheap;
pub mod recycle;

pub use collector::{Collector, CollectorStats};
pub use handle::{Guard, Handle};
pub use hp::{HpDomain, HpHandle};
pub use pheap::PersistentHeap;
pub use recycle::RecyclePolicy;

/// A thread scans for an epoch advance every this many pins.
pub(crate) const ADVANCE_PERIOD: u64 = 64;

/// A bag triggers an eager advance attempt past this many deferred
/// items, and (on an opted-in collector) a yield when another thread's
/// stale pin defeats it.
pub(crate) const BAG_PRESSURE: usize = 512;
