//! # `sec-baselines` — the five competitor stacks of the paper's evaluation
//!
//! Each implementation follows its original publication, shares the
//! [`ConcurrentStack`]/[`StackHandle`] interface with SEC, and uses the
//! same epoch-based reclamation substrate (`sec-reclaim`), so the
//! benchmark comparisons measure the algorithms rather than incidental
//! infrastructure differences:
//!
//! | name | type | source |
//! |------|------|--------|
//! | [`TreiberStack`] (**TRB**) | lock-free CAS loop | Treiber '86 |
//! | [`EbStack`] (**EB**) | lock-free + elimination-array backoff | Hendler, Shavit, Yerushalmi SPAA '04 |
//! | [`FcStack`] (**FC**) | flat combining over a sequential stack | Hendler, Incze, Shavit, Tzafrir SPAA '10 |
//! | [`CcStack`] (**CC**) | CC-Synch combining queue over a sequential stack | Fatourou, Kallimanis PPoPP '12 |
//! | [`TsiStack`] (**TSI**) | interval-timestamped per-thread pools | Dodds, Haas, Kirsch POPL '15 |
//!
//! Three auxiliary stacks extend the lineup beyond the paper's figures:
//! [`TreiberHpStack`] (**TRB-HP**) swaps the reclamation substrate to
//! hazard pointers for the reclamation ablation (paper §4's "other
//! schemes apply"), [`LeakTreiberStack`] (**TRB-LEAK**) reclaims
//! nothing while it runs, the ablation's cost floor, and
//! [`LockedStack`] (**LCK**) is the `Mutex<Vec<T>>` sanity floor.
//!
//! The queue family (`SecQueue`'s competitors, sharing the
//! [`ConcurrentQueue`]/[`QueueHandle`] interface):
//!
//! | name | type | source |
//! |------|------|--------|
//! | [`MsQueue`] (**MS**) | lock-free dummy-node linked list | Michael & Scott PODC '96 |
//! | [`LockedQueue`] (**LCK-Q**) | `Mutex<VecDeque<T>>` | the sanity floor |
//!
//! The map family (`SecMap`'s competitor, sharing the
//! [`ConcurrentMap`]/[`MapHandle`] interface):
//!
//! | name | type | source |
//! |------|------|--------|
//! | [`LockedHashMap`] (**LCK-M**) | `Mutex<HashMap<K, V>>` | the sanity floor |
//!
//! [`ConcurrentStack`]: sec_core::ConcurrentStack
//! [`StackHandle`]: sec_core::StackHandle
//! [`ConcurrentQueue`]: sec_core::ConcurrentQueue
//! [`QueueHandle`]: sec_core::QueueHandle
//! [`ConcurrentMap`]: sec_core::ConcurrentMap
//! [`MapHandle`]: sec_core::MapHandle

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod ccsynch;
pub mod eb;
pub mod fc;
pub mod locked;
pub mod ms;
pub mod seq;
pub mod treiber;
pub mod treiber_hp;
pub mod treiber_leak;
pub mod tsi;

pub use ccsynch::{CcHandle, CcStack};
pub use eb::{EbHandle, EbStack};
pub use fc::{FcHandle, FcStack};
pub use locked::{
    LockedHandle, LockedHashMap, LockedHashMapHandle, LockedQueue, LockedQueueHandle, LockedStack,
};
pub use ms::{MsHandle, MsQueue};
pub use seq::SeqStack;
pub use treiber::{TreiberHandle, TreiberStack};
pub use treiber_hp::{TreiberHpHandle, TreiberHpStack};
pub use treiber_leak::{LeakTreiberHandle, LeakTreiberStack};
pub use tsi::{TsiHandle, TsiStack};
