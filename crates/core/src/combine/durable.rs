//! Crash-durable detectable combining (DESIGN.md §16).
//!
//! Combining is the natural persistence seam: instead of every thread
//! flushing every operation, the one elected combiner persists one
//! frozen batch with O(1) flushes — the PBComb / detectable-combining
//! approach. This module adds that seam to the generic engine:
//!
//! * **Persistent heap** — all durable state (redo log, intent cells)
//!   lives in a [`PersistentHeap`](sec_reclaim::PersistentHeap):
//!   a file-backed `MAP_SHARED` mmap whose retired stores survive the
//!   process dying (including `SIGKILL`), or an in-memory `Volatile`
//!   arena with identical code paths for tests and CI.
//! * **Intent cells** — before announcing, a handle writes an *intent*
//!   (its per-handle op sequence number + op descriptor) to its cell,
//!   a cache line no other handle writes, and only then joins a batch. On recovery, comparing the cell's
//!   sequence number against the log tells the announcer whether its
//!   in-flight op executed — every op is *detectable*.
//! * **Per-shard redo log** — the combiner applies the frozen batch to
//!   the in-memory structure, writing each op's descriptor and result
//!   straight into one record per batch, *commits* the record with a
//!   single release store, and only then lets the engine publish
//!   results.
//!   A record whose commit word is unset is a torn record: its ops
//!   never happened.
//! * **Checkpoints** — the log rewinds: once a shard's tail reaches a
//!   trigger, the combiner writes the structure as an op list into the
//!   idle half of a double-buffered region, commits it with one release
//!   store, and every shard's tail starts over behind it.
//! * **Recovery** — [`DurableCore::open`] reads the newest checkpoint,
//!   scans every shard's records after it, orders them by their global
//!   sequence number, verifies that each handle's logged ops continue
//!   the checkpoint gap-free (zero double-applies) and classifies every
//!   pending intent; [`Sec::replay`] then re-applies the checkpoint's op
//!   list and the log to a fresh structure, checking every result.
//!
//! The whole durable path is the engine's: a family contributes only
//! its [`CombineOp::apply_logged`] hook, which the live durable
//! combiner and recovery replay both call — one rule per family for
//! what a logged op does — and its inverse,
//! [`CombineOp::export_logged`], which writes a checkpoint.
//!
//! Durability fine print: `MAP_SHARED` stores live in the kernel page
//! cache, which survives the *process* (kill−9 semantics — exactly
//! what the fault-injection harness exercises). Surviving *power
//! failure* additionally requires `msync`, which [`SyncMode::Sync`]
//! performs once per committed record.

use core::any::TypeId;
use core::mem;
use core::ops::Range;
use core::sync::atomic::{fence, AtomicU64, Ordering};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use sec_reclaim::{Guard, Handle as ReclaimHandle, PersistentHeap};
use sec_sync::CachePadded;

use super::batch::{wait_ptr, CombineBatch, Role};
use super::{CombineOp, Lane, Sec};

/// Magic word ("SECDUR01" in ASCII) committed last when a heap is
/// initialised; recovery refuses heaps without it.
const MAGIC: u64 = 0x5345_4344_5552_3031;
/// On-heap layout version. Version 2 gives every handle's intent cell
/// and every shard's tail word a cache line of its own, and checksums
/// a record's entry count after its entries. Version 3 splits each
/// shard's records into two halves that trade places at every
/// checkpoint and adds the checkpoint words to the header. `open`
/// refuses any other version as [`DurableError::BadMagic`].
const VERSION: u64 = 3;
/// Words per cache line. The heap base is page-aligned, so word `i`
/// sits on line `i / LINE_WORDS`.
const LINE_WORDS: usize = 8;
/// Header size in words (generous; unused words stay zero).
const HDR_WORDS: usize = 2 * LINE_WORDS;
/// Header word indices.
const H_MAGIC: usize = 0;
const H_FAMILY: usize = 1;
const H_MAX_HANDLES: usize = 2;
const H_SHARDS: usize = 3;
const H_RECORD_CAP: usize = 4;
const H_ENTRIES_CAP: usize = 5;
const H_FAMILY_PARAM: usize = 6;
const H_GLOBAL_SEQ: usize = 7;
const H_VERSION: usize = 8;
/// The checkpoint commit word: `(seq + 1) << 1 | half` for the newest
/// committed checkpoint, which took global sequence number `seq` and
/// sits at the start of shard 0's `half`; 0 before the first.
const H_CKPT: usize = 9;
/// The record count of the checkpoint written into half 0 (this word)
/// or half 1 (the next), stored before [`H_CKPT`] commits that half.
const H_CKPT_RECORDS: usize = 10;
/// A shard checkpoints once its tail reaches `max(CKPT_MIN_RECORDS,
/// CKPT_GROWTH × records of the last checkpoint)`, capped at its half:
/// each record then pays for at most `1 / CKPT_GROWTH` of a checkpoint
/// record, and the log reuses the same first records of each half
/// whatever `record_capacity` is.
const CKPT_MIN_RECORDS: usize = 16384;
const CKPT_GROWTH: usize = 4;
/// Intent cell stride: one whole line per handle, so no other writer
/// shares it.
const INTENT_WORDS: usize = LINE_WORDS;
/// Intent cell word indices: op_seq, opcode, operands, checksum — and
/// the slot's resume counter, the last op_seq it handed out.
const I_SEQ: usize = 0;
const I_OPCODE: usize = 1;
const I_A: usize = 2;
const I_B: usize = 3;
const I_SUM: usize = 4;
const I_ISSUED: usize = 5;
/// Words per log entry: meta (handle | opcode | result tag), op_seq,
/// operand, operand2, result.
const ENTRY_WORDS: usize = 5;
/// Record header words: commit (global seq + 1; 0 = torn), n_ops,
/// checksum.
const REC_HDR_WORDS: usize = 3;

/// Operation codes recorded in the redo log, one namespace across all
/// four durable families. Public so the fault-injection harness can
/// fold a recovered log over its own sequential model.
pub mod opcode {
    /// `SecStack::push(operand)`.
    pub const PUSH: u8 = 1;
    /// `SecStack::pop()`.
    pub const POP: u8 = 2;
    /// `SecQueue::enqueue(operand)`.
    pub const ENQUEUE: u8 = 3;
    /// `SecQueue::dequeue()`.
    pub const DEQUEUE: u8 = 4;
    /// `SecCounter::fetch_add(operand)`.
    pub const ADD: u8 = 5;
    /// `SecMap::get(operand)`.
    pub const MAP_GET: u8 = 6;
    /// `SecMap::insert(operand, operand2)`.
    pub const MAP_INSERT: u8 = 7;
    /// `SecMap::remove(operand)`.
    pub const MAP_REMOVE: u8 = 8;
}

/// Result tags stored in an entry's meta word.
const RTAG_UNIT: u8 = 0;
const RTAG_EMPTY: u8 = 1;
const RTAG_VALUE: u8 = 2;

/// The durable family stored in the heap header; recovery refuses to
/// replay a stack log into a queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Family {
    /// `SecStack<u64>`.
    Stack = 1,
    /// `SecQueue<u64>`.
    Queue = 2,
    /// `SecCounter`.
    Counter = 3,
    /// `SecMap<u64, u64>`.
    Map = 4,
}

/// The durable-family hook: implemented by the `u64` instantiations of
/// the four families only, which is what gives them
/// [`Sec::durable`], [`Sec::durable_with_config`], [`Sec::recover`],
/// [`Sec::durable_heap`] and [`Sec::durable_stats`]. Sealed like
/// [`CombineOp`]: `pub` in a private module.
pub trait DurableOp: CombineOp {
    /// The family tag recorded in, and checked against, the heap
    /// header.
    const FAMILY: Family;
}

impl Family {
    fn from_u64(v: u64) -> Option<Self> {
        match v {
            1 => Some(Family::Stack),
            2 => Some(Family::Queue),
            3 => Some(Family::Counter),
            4 => Some(Family::Map),
            _ => None,
        }
    }
}

/// Where the durable heap lives.
#[derive(Clone, Debug)]
pub enum DurableMode {
    /// An anonymous in-memory heap: full durable code paths (intents,
    /// redo log, recovery) with no file I/O. Recover by keeping the
    /// heap alive across structure drops ([`DurableMode::Heap`]).
    Volatile,
    /// A file-backed mmap at this path. Survives kill−9 as-is;
    /// combine with [`SyncMode::Sync`] for power-failure durability.
    File(PathBuf),
    /// An existing heap, shared by reference — how a Volatile-mode
    /// structure is recovered after a drop, and how tests inject
    /// pre-corrupted heaps.
    Heap(Arc<PersistentHeap>),
}

/// When the redo log is flushed (`msync`) to its backing file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncMode {
    /// Never. Stores still survive process death (page cache), but
    /// not power loss. The default, and the only mode the kill−9
    /// harness needs.
    None,
    /// `msync(MS_SYNC)` the record range once per committed record —
    /// the O(1)-flushes-per-batch discipline from the PBComb line of
    /// work. No-op on volatile heaps.
    Sync,
}

/// How many log records a combined batch produces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogGranularity {
    /// One record per frozen batch (chunked only when a batch exceeds
    /// the record's entry capacity) — the combining win.
    PerBatch,
    /// One record per operation — the flush-per-op strawman that
    /// `durable_bench` measures the batch discipline against.
    PerOp,
}

/// Configuration for a crash-durable structure: where the heap lives
/// and how the per-shard redo log is shaped.
///
/// ```
/// use sec_core::DurablePolicy;
/// let p = DurablePolicy::volatile().shards(2).record_capacity(1024);
/// ```
#[derive(Clone, Debug)]
pub struct DurablePolicy {
    /// Heap backing.
    pub mode: DurableMode,
    /// Number of durable combining shards (dedicated aggregators).
    pub shards: usize,
    /// Log records per shard, rounded up to an even count of at least
    /// 4: two halves that trade places at every checkpoint. It bounds
    /// the size of a checkpoint — the structure's op list must fit in
    /// a half, less one record — not the number of operations; the log
    /// rewinds at checkpoints (DESIGN.md §16 "Checkpoint and
    /// truncate").
    pub record_capacity: usize,
    /// Operation entries per record; batches larger than this are
    /// split across consecutive records.
    pub batch_entries: usize,
    /// Flush discipline (see [`SyncMode`]).
    pub sync: SyncMode,
    /// Records per batch or per op (see [`LogGranularity`]).
    pub granularity: LogGranularity,
}

impl DurablePolicy {
    fn with_mode(mode: DurableMode) -> Self {
        Self {
            mode,
            shards: 1,
            record_capacity: 4096,
            batch_entries: 64,
            sync: SyncMode::None,
            granularity: LogGranularity::PerBatch,
        }
    }

    /// An in-memory policy (tests/CI; no file I/O).
    pub fn volatile() -> Self {
        Self::with_mode(DurableMode::Volatile)
    }

    /// A file-backed policy at `path`.
    pub fn file(path: impl Into<PathBuf>) -> Self {
        Self::with_mode(DurableMode::File(path.into()))
    }

    /// A policy over an existing heap (Volatile-mode recovery).
    pub fn heap(heap: Arc<PersistentHeap>) -> Self {
        Self::with_mode(DurableMode::Heap(heap))
    }

    /// Sets the durable shard count (builder style).
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
        self
    }

    /// Sets the per-shard record capacity (builder style; see
    /// [`DurablePolicy::record_capacity`](Self#structfield.record_capacity)).
    pub fn record_capacity(mut self, n: usize) -> Self {
        self.record_capacity = n.max(1);
        self
    }

    /// Sets the per-record entry capacity (builder style).
    pub fn batch_entries(mut self, n: usize) -> Self {
        self.batch_entries = n.max(1);
        self
    }

    /// Sets the flush discipline (builder style).
    pub fn sync(mut self, s: SyncMode) -> Self {
        self.sync = s;
        self
    }

    /// Sets the log granularity (builder style).
    pub fn granularity(mut self, g: LogGranularity) -> Self {
        self.granularity = g;
        self
    }
}

/// Errors from durable construction and recovery.
#[derive(Debug)]
pub enum DurableError {
    /// Heap file I/O failed.
    Io(std::io::Error),
    /// A [`DurableMode::Heap`] heap is smaller than the layout needs.
    HeapTooSmall {
        /// Words the layout requires.
        needed: usize,
        /// Words the heap has.
        have: usize,
    },
    /// The heap carries no valid magic/version — not a durable heap,
    /// or one from an incompatible layout.
    BadMagic,
    /// The heap was written by a different family (e.g. recovering a
    /// queue from a stack's heap).
    WrongFamily,
    /// Recovering over [`DurableMode::Volatile`] is meaningless (the
    /// heap died with the process); use [`DurableMode::Heap`] or
    /// [`DurableMode::File`].
    NothingToRecover,
    /// The log violates an invariant that commit ordering should make
    /// impossible (per-handle gaps, duplicate sequence numbers,
    /// replay/result divergence).
    Corrupt(String),
}

impl core::fmt::Display for DurableError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "durable heap I/O: {e}"),
            DurableError::HeapTooSmall { needed, have } => {
                write!(
                    f,
                    "durable heap too small: need {needed} words, have {have}"
                )
            }
            DurableError::BadMagic => write!(f, "not a durable SEC heap (bad magic/version)"),
            DurableError::WrongFamily => write!(f, "durable heap belongs to a different family"),
            DurableError::NothingToRecover => {
                write!(
                    f,
                    "volatile mode has no heap to recover; pass DurableMode::Heap"
                )
            }
            DurableError::Corrupt(s) => write!(f, "durable log corrupt: {s}"),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> Self {
        DurableError::Io(e)
    }
}

/// The result a logged (or recovered) operation produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpResult {
    /// The op returns nothing (push, enqueue).
    Unit,
    /// The op returned "absent" (pop/dequeue on empty, get/remove miss).
    Empty,
    /// The op returned this value (popped value, previous counter
    /// value, previous/looked-up map value).
    Value(u64),
}

impl OpResult {
    fn to_words(self) -> (u8, u64) {
        match self {
            OpResult::Unit => (RTAG_UNIT, 0),
            OpResult::Empty => (RTAG_EMPTY, 0),
            OpResult::Value(v) => (RTAG_VALUE, v),
        }
    }

    fn from_words(rtag: u8, result: u64) -> Option<Self> {
        match rtag {
            RTAG_UNIT => Some(OpResult::Unit),
            RTAG_EMPTY => Some(OpResult::Empty),
            RTAG_VALUE => Some(OpResult::Value(result)),
            _ => None,
        }
    }

    /// What a durable op hands back to its caller: the value word as
    /// `T`, or `None` for EMPTY (and for the unit results of pushes
    /// and enqueues, which callers ignore).
    pub(crate) fn value<T: 'static>(self) -> Option<T> {
        match self {
            OpResult::Value(w) => Some(from_word(w)),
            OpResult::Empty | OpResult::Unit => None,
        }
    }
}

/// One committed operation recovered from the redo log, in global
/// application order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoggedOp {
    /// The announcing handle's id (collector slot), or
    /// [`LoggedOp::CHECKPOINT`] for an op of a checkpoint's op list.
    pub handle: u32,
    /// The handle's per-op sequence number (1-based, gap-free); 0 for
    /// a checkpoint's op.
    pub op_seq: u64,
    /// One of the [`opcode`] constants.
    pub opcode: u8,
    /// First operand (value/key/delta), 0 when unused.
    pub operand: u64,
    /// Second operand (map insert value), 0 when unused.
    pub operand2: u64,
    /// The result the op produced when it originally executed (for a
    /// checkpoint's op: the result replaying it into the structure
    /// rebuilt so far reproduces).
    pub result: OpResult,
}

impl LoggedOp {
    /// The `handle` of a checkpoint's op: one entry of the structure's
    /// canonical op list, which no handle issued.
    pub const CHECKPOINT: u32 = u32::MAX;

    /// `true` for an op of a checkpoint's op list.
    pub fn is_checkpoint(&self) -> bool {
        self.handle == Self::CHECKPOINT
    }

    /// The op as a log entry's words (the inverse of [`decode_entry`]).
    fn words(&self) -> [u64; ENTRY_WORDS] {
        let (rtag, result) = self.result.to_words();
        let meta = meta_word(self.handle, self.opcode, rtag);
        [meta, self.op_seq, self.operand, self.operand2, result]
    }
}

/// An entry's first word: handle, opcode and result tag.
fn meta_word(handle: u32, opcode: u8, rtag: u8) -> u64 {
    handle as u64 | (opcode as u64) << 32 | (rtag as u64) << 40
}

/// The op an entry's words log, or `None` for a bad result tag.
fn decode_entry([meta, op_seq, operand, operand2, result]: [u64; ENTRY_WORDS]) -> Option<LoggedOp> {
    Some(LoggedOp {
        handle: (meta & 0xffff_ffff) as u32,
        op_seq,
        opcode: ((meta >> 32) & 0xff) as u8,
        operand,
        operand2,
        result: OpResult::from_words(((meta >> 40) & 0xff) as u8, result)?,
    })
}

/// What recovery determined about one handle's in-flight operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PendingOutcome {
    /// The handle had no announced-but-unacknowledged op at the crash.
    None,
    /// The announced op executed; its logged result is here — the
    /// caller must *not* re-issue it.
    Executed {
        /// The executed op's per-handle sequence number.
        op_seq: u64,
        /// The result it produced.
        result: OpResult,
    },
    /// The announced op never executed (no committed record carries
    /// it); re-issuing it is safe and cannot double-apply.
    NeverExecuted {
        /// The never-executed op's per-handle sequence number.
        op_seq: u64,
    },
    /// The crash hit the middle of the intent write itself; the op
    /// was never announced to a batch, so it never executed.
    TornIntent,
}

/// Per-handle recovery verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HandleRecovery {
    /// Number of this handle's committed ops: its last committed
    /// `op_seq`, whether the op's record is still in the log or a
    /// checkpoint vouches for it.
    pub executed: u64,
    /// Classification of the handle's last announced op.
    pub pending: PendingOutcome,
}

/// Everything [`recover()`](crate::Sec::recover) learned from the
/// heap: the ordered op log (already replayed into the returned
/// structure), per-handle detectability verdicts, and scan statistics.
#[derive(Debug)]
pub struct RecoveryReport {
    /// Committed log records found across all shards after the newest
    /// checkpoint (the checkpoint's own records not counted).
    pub committed_records: usize,
    /// Records the newest checkpoint occupies (0 before the first).
    pub checkpoint_records: usize,
    /// Torn records skipped (payload present, commit word unset or
    /// checksum mismatch) — ops that never happened.
    pub torn_records: usize,
    /// Per-handle verdicts, indexed by handle id.
    pub handles: Vec<HandleRecovery>,
    /// The newest checkpoint's op list ([`LoggedOp::is_checkpoint`]),
    /// then every op committed after it in global application order;
    /// replaying these sequentially into an empty structure reproduces
    /// the recovered structure exactly.
    pub ops: Vec<LoggedOp>,
    /// The newest checkpoint's record of each handle's last op before
    /// it (handles with none are absent). These ops are not replayed —
    /// the checkpoint's op list already holds their effect — but they
    /// keep an op detectable after a checkpoint truncated its record:
    /// a handle's ops in `ops` continue at the `op_seq` after its
    /// entry here.
    pub checkpointed: Vec<LoggedOp>,
}

impl RecoveryReport {
    /// Total committed operations.
    pub fn replayed_ops(&self) -> usize {
        self.ops.len()
    }
}

/// Snapshot of a durable structure's logging counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct DurableStats {
    /// Records committed to the redo log.
    pub records: u64,
    /// Operation entries across those records.
    pub entries: u64,
    /// `msync` calls issued ([`SyncMode::Sync`] only).
    pub msyncs: u64,
    /// Checkpoints committed (DESIGN.md §16 "Checkpoint and
    /// truncate"); `records` and `entries` never count theirs.
    pub checkpoints: u64,
}

/// A durable op request, announced by value from the caller's stack
/// frame (cast to the engine's node type, exactly like the bulk-op
/// requests). The combiner fills `rtag`/`result`; the engine's
/// release publish makes them visible to the announcer.
#[repr(C)]
pub(crate) struct DurableReq {
    pub handle: u32,
    pub opcode: u8,
    pub rtag: u8,
    pub op_seq: u64,
    pub operand: u64,
    pub operand2: u64,
    pub result: u64,
}

impl DurableReq {
    pub(crate) fn new(handle: usize, op_seq: u64, opcode: u8, operand: u64, operand2: u64) -> Self {
        Self {
            handle: handle as u32,
            opcode,
            rtag: RTAG_UNIT,
            op_seq,
            operand,
            operand2,
            result: 0,
        }
    }

    /// The combiner's write-back: records the op's result for both the
    /// log entry and the announcer.
    pub(crate) fn set_result(&mut self, r: OpResult) {
        let (rtag, result) = r.to_words();
        self.rtag = rtag;
        self.result = result;
    }

    pub(crate) fn take_result(&self) -> OpResult {
        OpResult::from_words(self.rtag, self.result).expect("combiner left result tag unset")
    }
}

/// Fault-injection points for the kill−9 harness. The hooks are armed
/// through the environment (`SEC_CRASH_POINT`, `SEC_CRASH_AFTER`) and
/// deliver `SIGKILL` to the *current process* on the N-th hit — they
/// exist so a child workload process can crash itself at a seeded
/// protocol point; they are never armed in normal operation.
pub mod fault {
    use core::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;

    /// A protocol point at which the process can be made to die.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    #[repr(u8)]
    pub enum FaultPoint {
        /// Between applying individual ops of a frozen batch.
        MidCombine = 1,
        /// After the record payload is written, before its commit
        /// word: the record must recover as torn.
        PostLog = 2,
        /// After the commit word (log is durable), before the engine
        /// publishes results: ops recover as executed, announcers as
        /// pending-executed.
        PostCommit = 3,
        /// While waiters are consuming published results.
        MidPublish = 4,
        /// Between an intent cell's field stores and its checksum:
        /// the cell must recover as torn (op never announced).
        IntentWrite = 5,
        /// Per committed record during recovery's scan — proves
        /// `recover()` is re-entrant (kill mid-recovery, recover
        /// again).
        RecoverScan = 6,
        /// Inside a checkpoint: its records are written, its commit
        /// word is not. Recovery must use the previous checkpoint and
        /// the log after it.
        Checkpoint = 7,
        /// Just after a checkpoint's commit word, before the shard
        /// tails rewind: recovery must use the new checkpoint.
        PostCheckpoint = 8,
    }

    impl FaultPoint {
        /// Parses the `SEC_CRASH_POINT` value (numeric).
        pub fn from_u8(v: u8) -> Option<Self> {
            match v {
                1 => Some(FaultPoint::MidCombine),
                2 => Some(FaultPoint::PostLog),
                3 => Some(FaultPoint::PostCommit),
                4 => Some(FaultPoint::MidPublish),
                5 => Some(FaultPoint::IntentWrite),
                6 => Some(FaultPoint::RecoverScan),
                7 => Some(FaultPoint::Checkpoint),
                8 => Some(FaultPoint::PostCheckpoint),
                _ => None,
            }
        }
    }

    struct Arm {
        point: u8,
        remaining: AtomicU64,
    }

    static ARM: OnceLock<Option<Arm>> = OnceLock::new();

    fn arm() -> &'static Option<Arm> {
        ARM.get_or_init(|| {
            let point: u8 = std::env::var("SEC_CRASH_POINT").ok()?.parse().ok()?;
            FaultPoint::from_u8(point)?;
            let after: u64 = std::env::var("SEC_CRASH_AFTER")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(1);
            Some(Arm {
                point,
                remaining: AtomicU64::new(after.max(1)),
            })
        })
    }

    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
        fn getpid() -> i32;
    }

    /// The hook the durable code paths call; kills the process with
    /// `SIGKILL` when the armed point's countdown reaches zero.
    #[inline]
    pub(crate) fn hit(p: FaultPoint) {
        if let Some(a) = arm() {
            if a.point == p as u8 && a.remaining.fetch_sub(1, Ordering::Relaxed) == 1 {
                // SAFETY: kill(getpid(), SIGKILL) has no memory-safety
                // preconditions; it simply never returns control here.
                unsafe {
                    kill(getpid(), 9);
                }
                // SIGKILL cannot be blocked; unreachable in practice.
                std::process::abort();
            }
        }
    }
}

use fault::FaultPoint;

/// Converts a (u64-monomorphic) durable payload into its log word.
/// Durable constructors exist only for `u64` element types; generic
/// code paths route through this checked transmute.
pub(crate) fn to_word<T: 'static>(v: T) -> u64 {
    assert_eq!(
        TypeId::of::<T>(),
        TypeId::of::<u64>(),
        "durable SEC structures carry u64 payloads"
    );
    // SAFETY: T is u64 (checked above); sizes and bit validity match.
    let w = unsafe { mem::transmute_copy::<T, u64>(&v) };
    mem::forget(v);
    w
}

/// By-reference twin of [`to_word`] for call sites that only borrow
/// their payload (the map's `get(&K)`/`remove(&K)`). Sound because the
/// checked type is `u64`, which is `Copy`.
pub(crate) fn word_of<T: 'static>(v: &T) -> u64 {
    assert_eq!(
        TypeId::of::<T>(),
        TypeId::of::<u64>(),
        "durable SEC structures carry u64 payloads"
    );
    // SAFETY: T is u64 (checked above); u64 is Copy, so reading the
    // bits out of a borrow duplicates nothing that owns anything.
    unsafe { mem::transmute_copy::<T, u64>(v) }
}

/// Inverse of [`to_word`].
pub(crate) fn from_word<T: 'static>(w: u64) -> T {
    assert_eq!(
        TypeId::of::<T>(),
        TypeId::of::<u64>(),
        "durable SEC structures carry u64 payloads"
    );
    // SAFETY: T is u64 (checked above).
    unsafe { mem::transmute_copy::<u64, T>(&w) }
}

fn mix(h: u64, v: u64) -> u64 {
    let h = (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^ (h >> 29)
}

fn intent_checksum(handle: u64, seq: u64, opcode: u64, a: u64, b: u64) -> u64 {
    let mut h = 0x5EC0_0001;
    for v in [handle, seq, opcode, a, b] {
        h = mix(h, v);
    }
    h
}

/// What the combiners keep under the apply lock besides the heap: each
/// handle's last logged entry as of the last checkpoint, and where the
/// live log is.
struct LogState {
    /// Handle `h`'s last logged entry when the last checkpoint (or
    /// recovery) ran; all zero before its first. Each checkpoint brings
    /// it up to date from the log and carries it.
    last: Box<[[u64; ENTRY_WORDS]]>,
    /// The half of every shard's records the live log fills: the
    /// committed checkpoint's.
    half: usize,
    /// Records the committed checkpoint takes: where shard 0's live log
    /// starts.
    ckpt_records: usize,
    /// Records the last checkpoint took, or needed when it did not
    /// fit: what the trigger grows from.
    last_size: usize,
}

/// What the combiners write on every batch: the apply lock with the
/// log state it guards, and the logging counters. One padded line,
/// apart from the read-mostly geometry every `write_intent` reads.
struct CombinerLine {
    /// Serialises apply+log across all shards: log order is exactly
    /// structure-application order, which is what makes sequential
    /// replay reproduce the recovered structure.
    apply_lock: Mutex<LogState>,
    records: AtomicU64,
    entries: AtomicU64,
    msyncs: AtomicU64,
    checkpoints: AtomicU64,
}

/// The shared durable state a [`Sec`] owns when built with a
/// [`DurablePolicy`]: the heap, the layout geometry and the combiners'
/// line. Each handle's next op sequence number lives in its own intent
/// cell, in the heap.
pub(crate) struct DurableCore {
    heap: Arc<PersistentHeap>,
    family: Family,
    max_handles: usize,
    shards: usize,
    record_cap: usize,
    entries_cap: usize,
    sync: SyncMode,
    granularity: LogGranularity,
    combiner: CachePadded<CombinerLine>,
}

impl DurableCore {
    // ---- layout ---------------------------------------------------
    //
    // header (2 lines) | one line per handle's intent cell | per shard:
    // its tail line, then `record_cap` unpadded records — two halves
    // of `record_cap / 2` — rounded up to a whole line so the next
    // shard's tail starts a line.

    fn record_words(&self) -> usize {
        REC_HDR_WORDS + self.entries_cap * ENTRY_WORDS
    }

    /// Records in one half of a shard's log.
    fn half_cap(&self) -> usize {
        self.record_cap / 2
    }

    fn intent_off(&self, handle: usize) -> usize {
        HDR_WORDS + handle * INTENT_WORDS
    }

    fn shard_words(record_cap: usize, entries_cap: usize) -> usize {
        let records = record_cap * (REC_HDR_WORDS + entries_cap * ENTRY_WORDS);
        (LINE_WORDS + records).next_multiple_of(LINE_WORDS)
    }

    fn tail_off(&self, shard: usize) -> usize {
        HDR_WORDS
            + self.max_handles * INTENT_WORDS
            + shard * Self::shard_words(self.record_cap, self.entries_cap)
    }

    /// Record `idx` of `half` of `shard`'s log.
    fn record_off(&self, shard: usize, half: usize, idx: usize) -> usize {
        self.tail_off(shard) + LINE_WORDS + (half * self.half_cap() + idx) * self.record_words()
    }

    fn words_needed(
        max_handles: usize,
        shards: usize,
        record_cap: usize,
        entries_cap: usize,
    ) -> usize {
        HDR_WORDS + max_handles * INTENT_WORDS + shards * Self::shard_words(record_cap, entries_cap)
    }

    #[inline]
    fn w(&self, idx: usize) -> &AtomicU64 {
        self.heap.word(idx)
    }

    /// The next free record of `shard`'s live half.
    fn tail(&self, shard: usize) -> usize {
        self.w(self.tail_off(shard)).load(Ordering::Relaxed) as usize
    }

    // ---- construction ---------------------------------------------

    fn with_heap(
        heap: Arc<PersistentHeap>,
        policy: &DurablePolicy,
        family: Family,
        max_handles: usize,
        shards: usize,
        record_cap: usize,
        entries_cap: usize,
    ) -> Self {
        Self {
            heap,
            family,
            max_handles,
            shards,
            record_cap,
            entries_cap,
            sync: policy.sync,
            granularity: policy.granularity,
            combiner: CachePadded::new(CombinerLine {
                apply_lock: Mutex::new(LogState {
                    last: vec![[0; ENTRY_WORDS]; max_handles].into_boxed_slice(),
                    half: 0,
                    ckpt_records: 0,
                    last_size: 0,
                }),
                records: AtomicU64::new(0),
                entries: AtomicU64::new(0),
                msyncs: AtomicU64::new(0),
                checkpoints: AtomicU64::new(0),
            }),
        }
    }

    /// Initialises a fresh durable heap for `family` and returns the
    /// core. The heap (created or supplied) must be zeroed.
    pub(crate) fn create(
        policy: &DurablePolicy,
        family: Family,
        family_param: u64,
        max_handles: usize,
    ) -> Result<Self, DurableError> {
        let shards = policy.shards.max(1);
        let record_cap = policy.record_capacity.max(4).next_multiple_of(2);
        let entries_cap = policy.batch_entries.max(1);
        let needed = Self::words_needed(max_handles, shards, record_cap, entries_cap);
        let heap = match &policy.mode {
            DurableMode::Volatile => PersistentHeap::volatile(needed),
            DurableMode::File(path) => PersistentHeap::create_file(path, needed)?,
            DurableMode::Heap(h) => {
                if h.words() < needed {
                    return Err(DurableError::HeapTooSmall {
                        needed,
                        have: h.words(),
                    });
                }
                Arc::clone(h)
            }
        };
        let core = Self::with_heap(
            heap,
            policy,
            family,
            max_handles,
            shards,
            record_cap,
            entries_cap,
        );
        core.w(H_FAMILY).store(family as u64, Ordering::Relaxed);
        core.w(H_MAX_HANDLES)
            .store(max_handles as u64, Ordering::Relaxed);
        core.w(H_SHARDS).store(shards as u64, Ordering::Relaxed);
        core.w(H_RECORD_CAP)
            .store(record_cap as u64, Ordering::Relaxed);
        core.w(H_ENTRIES_CAP)
            .store(entries_cap as u64, Ordering::Relaxed);
        core.w(H_FAMILY_PARAM)
            .store(family_param, Ordering::Relaxed);
        core.w(H_GLOBAL_SEQ).store(0, Ordering::Relaxed);
        core.w(H_VERSION).store(VERSION, Ordering::Relaxed);
        // The magic commits the header: a crash before this store
        // leaves a heap that recovery correctly refuses.
        core.w(H_MAGIC).store(MAGIC, Ordering::Release);
        core.heap.msync(0, HDR_WORDS).ok();
        // The log reuses the first records of each half from one
        // checkpoint to the next: fault them in now, so the first
        // pass through them does not pay a page fault per page while
        // combiners hold the apply lock.
        let window = CKPT_MIN_RECORDS.min(core.half_cap()) * core.record_words();
        for shard in 0..shards {
            for half in 0..2 {
                core.heap.prefault(core.record_off(shard, half, 0), window);
            }
        }
        Ok(core)
    }

    /// Opens an existing durable heap, scans and orders the committed
    /// log, classifies every handle's pending intent, and normalises
    /// the allocator words (idempotently — `open` can itself be killed
    /// and re-run). The returned report's `ops` are ready for the
    /// family to replay.
    pub(crate) fn open(
        policy: &DurablePolicy,
        family: Family,
    ) -> Result<(Self, RecoveryReport), DurableError> {
        let heap = match &policy.mode {
            DurableMode::Volatile => return Err(DurableError::NothingToRecover),
            DurableMode::File(path) => PersistentHeap::open_file(path)?,
            DurableMode::Heap(h) => Arc::clone(h),
        };
        if heap.words() < HDR_WORDS
            || heap.word(H_MAGIC).load(Ordering::Acquire) != MAGIC
            || heap.word(H_VERSION).load(Ordering::Relaxed) != VERSION
        {
            return Err(DurableError::BadMagic);
        }
        if Family::from_u64(heap.word(H_FAMILY).load(Ordering::Relaxed)) != Some(family) {
            return Err(DurableError::WrongFamily);
        }
        let max_handles = heap.word(H_MAX_HANDLES).load(Ordering::Relaxed) as usize;
        let shards = heap.word(H_SHARDS).load(Ordering::Relaxed) as usize;
        let record_cap = heap.word(H_RECORD_CAP).load(Ordering::Relaxed) as usize;
        let entries_cap = heap.word(H_ENTRIES_CAP).load(Ordering::Relaxed) as usize;
        let needed = Self::words_needed(max_handles, shards, record_cap, entries_cap);
        if max_handles == 0
            || shards == 0
            || record_cap < 4
            || !record_cap.is_multiple_of(2)
            || heap.words() < needed
        {
            return Err(DurableError::Corrupt(format!(
                "implausible header geometry ({max_handles} handles, {shards} shards, \
                 {record_cap} records a shard)"
            )));
        }
        let mut core = Self::with_heap(
            heap,
            policy,
            family,
            max_handles,
            shards,
            record_cap,
            entries_cap,
        );
        let (report, state) = core.scan_and_classify()?;
        *core.combiner.apply_lock.get_mut().unwrap() = state;
        Ok((core, report))
    }

    /// Family parameter stored at creation (bucket count for maps).
    pub(crate) fn family_param(&self) -> u64 {
        self.w(H_FAMILY_PARAM).load(Ordering::Relaxed)
    }

    /// Stored handle capacity (drives the recovered `SecConfig`).
    pub(crate) fn max_handles(&self) -> usize {
        self.max_handles
    }

    /// Durable shard count (drives the recovered aggregator layout).
    pub(crate) fn shards(&self) -> usize {
        self.shards
    }

    /// The backing heap (shared so Volatile-mode callers can recover
    /// after dropping the structure).
    pub(crate) fn heap(&self) -> Arc<PersistentHeap> {
        Arc::clone(&self.heap)
    }

    /// Logging counters.
    pub(crate) fn stats(&self) -> DurableStats {
        DurableStats {
            records: self.combiner.records.load(Ordering::Relaxed),
            entries: self.combiner.entries.load(Ordering::Relaxed),
            msyncs: self.combiner.msyncs.load(Ordering::Relaxed),
            checkpoints: self.combiner.checkpoints.load(Ordering::Relaxed),
        }
    }

    /// Fixed thread→shard mapping (block partition, like
    /// `SecConfig::aggregator_for` under a fixed policy).
    fn shard_of(&self, tid: usize) -> usize {
        (tid * self.shards / self.max_handles).min(self.shards - 1)
    }

    /// The registry slots [`DurableCore::shard_of`] maps to `shard`:
    /// consecutive blocks that tile `0..max_handles` in shard order
    /// (empty when there are more shards than slots).
    pub(crate) fn shard_slots(&self, shard: usize) -> Range<usize> {
        let start = |s: usize| (s * self.max_handles).div_ceil(self.shards);
        start(shard)..start(shard + 1)
    }

    // ---- hot path --------------------------------------------------

    /// Persists a handle's next intent before it announces and returns
    /// the op's sequence number: on recovery the cell tells the handle
    /// whether this op executed. Field stores first, checksum last
    /// (release) — a crash in between leaves a checksum mismatch,
    /// classified as [`PendingOutcome::TornIntent`]. Every store lands
    /// on the handle's own line.
    fn write_intent(&self, handle: usize, opcode: u8, a: u64, b: u64) -> u64 {
        let off = self.intent_off(handle);
        // The resume point lives in the cell, not in the handle:
        // whoever holds this collector slot next continues the
        // sequence.
        let seq = self.w(off + I_ISSUED).load(Ordering::Relaxed) + 1;
        self.w(off + I_ISSUED).store(seq, Ordering::Relaxed);
        self.w(off + I_SEQ).store(seq, Ordering::Relaxed);
        self.w(off + I_OPCODE)
            .store(opcode as u64, Ordering::Relaxed);
        self.w(off + I_A).store(a, Ordering::Relaxed);
        self.w(off + I_B).store(b, Ordering::Relaxed);
        fault::hit(FaultPoint::IntentWrite);
        let sum = intent_checksum(handle as u64, seq, opcode as u64, a, b);
        self.w(off + I_SUM).store(sum, Ordering::Release);
        seq
    }

    fn entry_words(req: &DurableReq) -> [u64; ENTRY_WORDS] {
        let meta = meta_word(req.handle, req.opcode, req.rtag);
        [meta, req.op_seq, req.operand, req.operand2, req.result]
    }

    /// A writer for `shard`'s log; the caller holds the apply lock,
    /// whose state is `state`. `export` writes the structure's op list
    /// when the writer checkpoints.
    fn log<'a>(
        &'a self,
        shard: usize,
        state: &'a mut LogState,
        export: &'a dyn Fn(&mut Export<'_>),
    ) -> LogWriter<'a> {
        LogWriter {
            core: self,
            state,
            export,
            shard,
            open: None,
        }
    }

    /// The tail at which a shard checkpoints (see [`CKPT_GROWTH`]).
    fn trigger(&self, state: &LogState) -> usize {
        CKPT_MIN_RECORDS
            .max(CKPT_GROWTH.saturating_mul(state.last_size))
            .min(self.half_cap())
    }

    /// Brings `state.last` up to date with the live log. A handle logs
    /// only on its own shard, and the newest of its entries is the
    /// first met walking the shard's records backwards; a handle whose
    /// intent cell has issued no op past its known last entry has
    /// logged none since. So each shard's walk stops once it has met
    /// every handle that issued since — after a few records, unless
    /// one of them has only an op still in flight.
    fn catch_up(&self, state: &mut LogState) {
        for shard in 0..self.shards {
            let issued = |h: usize| {
                self.w(self.intent_off(h) + I_ISSUED)
                    .load(Ordering::Relaxed)
            };
            let mut behind = self
                .shard_slots(shard)
                .filter(|&h| issued(h) > state.last[h][1])
                .count();
            let start = if shard == 0 { state.ckpt_records } else { 0 };
            for idx in (start..self.tail(shard)).rev() {
                if behind == 0 {
                    break;
                }
                let off = self.record_off(shard, state.half, idx);
                let n = self.w(off + 1).load(Ordering::Relaxed) as usize;
                for i in (0..n).rev() {
                    let entry = self.entry_at(off, i);
                    let last = &mut state.last[(entry[0] & 0xffff_ffff) as usize];
                    if entry[1] > last[1] {
                        *last = entry;
                        behind -= 1;
                    }
                }
            }
        }
    }

    /// Writes a checkpoint — each handle's last logged entry, then the
    /// structure's op list from `export` — into the first records of
    /// shard 0's idle half, commits it with one release store of
    /// [`H_CKPT`], and rewinds every shard's tail into that half. The
    /// caller holds the apply lock and has no record open, so the
    /// checkpoint covers exactly the committed log. When the
    /// checkpoint would leave shard 0 no free record, nothing is
    /// committed and the error holds the entries it needs.
    fn checkpoint(
        &self,
        state: &mut LogState,
        export: &dyn Fn(&mut Export<'_>),
    ) -> Result<(), usize> {
        self.catch_up(state);
        let half = state.half ^ 1;
        let seq = self.w(H_GLOBAL_SEQ).fetch_add(1, Ordering::Relaxed);
        let mut out = Export::new(self, half, (self.half_cap() - 1) * self.entries_cap);
        for entry in state.last.iter().filter(|e| e[1] != 0) {
            out.push_words(*entry);
        }
        export(&mut out);
        let records = out.len.div_ceil(self.entries_cap);
        state.last_size = records;
        if out.len > out.cap {
            return Err(out.len);
        }
        for r in 0..records {
            let off = self.record_off(0, half, r);
            let n = (out.len - r * self.entries_cap).min(self.entries_cap);
            self.w(off + 1).store(n as u64, Ordering::Relaxed);
            self.w(off + 2)
                .store(self.record_sum(off, seq, n), Ordering::Relaxed);
            self.w(off).store(seq + 1, Ordering::Relaxed);
        }
        let synced = self.sync == SyncMode::Sync;
        if synced {
            // On the medium before the word that commits them.
            self.heap
                .msync(self.record_off(0, half, 0), records * self.record_words())
                .ok();
            self.combiner.msyncs.fetch_add(1, Ordering::Relaxed);
        }
        fault::hit(FaultPoint::Checkpoint);
        self.w(H_CKPT_RECORDS + half)
            .store(records as u64, Ordering::Relaxed);
        // The commit point: the records above are ordered before it.
        self.w(H_CKPT)
            .store((seq + 1) << 1 | half as u64, Ordering::Release);
        if synced {
            self.heap.msync(0, HDR_WORDS).ok();
            self.combiner.msyncs.fetch_add(1, Ordering::Relaxed);
        }
        fault::hit(FaultPoint::PostCheckpoint);
        for shard in 0..self.shards {
            let tail = if shard == 0 { records } else { 0 };
            self.w(self.tail_off(shard))
                .store(tail as u64, Ordering::Relaxed);
        }
        state.half = half;
        state.ckpt_records = records;
        self.combiner.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    // ---- recovery --------------------------------------------------

    /// The words of entry `i` of the record at `off`.
    fn entry_at(&self, off: usize, i: usize) -> [u64; ENTRY_WORDS] {
        let base = off + REC_HDR_WORDS + i * ENTRY_WORDS;
        core::array::from_fn(|j| self.w(base + j).load(Ordering::Relaxed))
    }

    /// The checksum of the record at `off` with global sequence number
    /// `seq` and entries `0..n`, as its seal stores it.
    fn record_sum(&self, off: usize, seq: u64, n: usize) -> u64 {
        let sum = (0..n).fold(mix(0x5EC0_0002, seq), |sum, i| {
            self.entry_at(off, i).iter().fold(sum, |s, &w| mix(s, w))
        });
        mix(sum, n as u64)
    }

    /// Entry `i` of the record at `off`, which carries sequence number
    /// `seq`, decoded. The heap is outside input: a validated record
    /// can read differently the second time.
    fn decode_at(&self, off: usize, i: usize, seq: u64) -> Result<LoggedOp, DurableError> {
        let words = self.entry_at(off, i);
        decode_entry(words).ok_or_else(|| {
            DurableError::Corrupt(format!(
                "record seq {seq} entry {i} has bad result tag {}",
                (words[0] >> 40) & 0xff
            ))
        })
    }

    /// Validates the committed record at `off` (record `idx` of
    /// `shard`'s live half) with sequence number `seq`, and returns its
    /// entry count.
    fn validate(
        &self,
        off: usize,
        seq: u64,
        shard: usize,
        idx: usize,
    ) -> Result<usize, DurableError> {
        let n = self.w(off + 1).load(Ordering::Relaxed) as usize;
        if n == 0 || n > self.entries_cap {
            return Err(DurableError::Corrupt(format!(
                "committed record {shard}/{idx} has implausible n_ops {n}"
            )));
        }
        for i in 0..n {
            self.decode_at(off, i, seq)?;
        }
        if self.record_sum(off, seq, n) != self.w(off + 2).load(Ordering::Relaxed) {
            // A commit word over a mismatched payload cannot come from
            // an ordered crash; refuse the heap.
            return Err(DurableError::Corrupt(format!(
                "committed record {shard}/{idx} fails its checksum"
            )));
        }
        Ok(n)
    }

    /// Recovers the log: the newest committed checkpoint, then the
    /// records committed after it in each shard's live half. Validates
    /// every record in one pass, keeping only a `(seq, offset, n)`
    /// index entry per record, then decodes the checkpoint and the
    /// records in global order straight into one op list. Also returns
    /// the log state the recovered structure's combiners continue from.
    fn scan_and_classify(&self) -> Result<(RecoveryReport, LogState), DurableError> {
        let ck = self.w(H_CKPT).load(Ordering::Acquire);
        let half = (ck & 1) as usize;
        // Log records must be newer than the checkpoint: `floor` is its
        // sequence number + 1 (0 before the first checkpoint).
        let floor = ck >> 1;
        let ckpt_records = match ck {
            0 => 0,
            _ => self.w(H_CKPT_RECORDS + half).load(Ordering::Relaxed) as usize,
        };
        if (ck != 0 && floor == 0) || ckpt_records >= self.half_cap() {
            return Err(DurableError::Corrupt(format!(
                "implausible checkpoint word {ck:#x} over {ckpt_records} records"
            )));
        }
        // Each shard's tail word counts its appended records: the
        // index's size unless a crash left the word behind.
        let appended: usize = (0..self.shards)
            .map(|s| self.tail(s).min(self.half_cap()))
            .sum();
        let mut index: Vec<(u64, usize, usize)> = Vec::with_capacity(appended.max(ckpt_records));
        let mut total_ops = 0usize;
        for idx in 0..ckpt_records {
            let off = self.record_off(0, half, idx);
            if self.w(off).load(Ordering::Acquire) != floor {
                return Err(DurableError::Corrupt(format!(
                    "checkpoint record {idx} does not carry the committed checkpoint's sequence number"
                )));
            }
            let n = self.validate(off, floor - 1, 0, idx)?;
            fault::hit(FaultPoint::RecoverScan);
            index.push((floor - 1, off, n));
            total_ops += n;
        }
        let mut torn = 0usize;
        let mut max_seq = floor;
        for shard in 0..self.shards {
            let start = if shard == 0 { ckpt_records } else { 0 };
            let mut tail = start;
            for idx in start..self.half_cap() {
                let off = self.record_off(shard, half, idx);
                let commit = self.w(off).load(Ordering::Acquire);
                if commit == 0 {
                    // Uncommitted slot. Everything past the first
                    // uncommitted slot is also uncommitted (records
                    // are appended in slot order under the apply
                    // lock), so stop scanning this shard — but check
                    // whether the slot holds a torn payload first.
                    if self.w(off + 1).load(Ordering::Relaxed) != 0 {
                        torn += 1;
                    }
                    break;
                }
                let seq = commit - 1;
                if seq < floor {
                    // A stale record from an earlier pass through this
                    // half, older than the checkpoint that holds its
                    // effect; nothing after it is newer.
                    break;
                }
                let n = self.validate(off, seq, shard, idx)?;
                fault::hit(FaultPoint::RecoverScan);
                max_seq = max_seq.max(seq + 1);
                index.push((seq, off, n));
                total_ops += n;
                tail = idx + 1;
            }
            // Normalise the tail allocator: next append goes after the
            // last committed record (idempotent; overwrites any torn
            // slot the crash left at the old tail).
            self.w(self.tail_off(shard))
                .store(tail as u64, Ordering::Relaxed);
        }
        let log = &mut index[ckpt_records..];
        log.sort_unstable_by_key(|&(seq, _, _)| seq);
        if let Some(pair) = log.windows(2).find(|p| p[0].0 == p[1].0) {
            return Err(DurableError::Corrupt(format!(
                "duplicate global sequence number {}",
                pair[0].0
            )));
        }
        // Normalise the global sequence allocator (idempotent). Never
        // lower it: a checkpoint that did not commit may have taken a
        // number that its records, still in the idle half, carry.
        self.w(H_GLOBAL_SEQ).fetch_max(max_seq, Ordering::Relaxed);

        // Per-handle detectability: each handle's committed op_seqs
        // must continue the checkpoint's entry for it (0 without one)
        // gap-free in replay order (anything else would mean a lost or
        // double-applied op).
        let mut last: Vec<Option<LoggedOp>> = vec![None; self.max_handles];
        let mut checkpointed = Vec::new();
        let mut ops = Vec::with_capacity(total_ops);
        for (i, &(seq, off, n)) in index.iter().enumerate() {
            for e in 0..n {
                let op = self.decode_at(off, e, seq)?;
                let h = op.handle as usize;
                if i < ckpt_records && op.is_checkpoint() {
                    ops.push(op);
                    continue;
                }
                if h >= self.max_handles {
                    return Err(DurableError::Corrupt(format!(
                        "logged handle {h} out of range"
                    )));
                }
                let prev = last[h].map_or(0, |o| o.op_seq);
                if i < ckpt_records {
                    if prev != 0 || op.op_seq == 0 {
                        return Err(DurableError::Corrupt(format!(
                            "checkpoint holds handle {h}'s op_seq {} after {prev}",
                            op.op_seq
                        )));
                    }
                    checkpointed.push(op);
                } else {
                    if op.op_seq != prev + 1 {
                        return Err(DurableError::Corrupt(format!(
                            "handle {h}: op_seq {} after {prev} (gap or double-apply)",
                            op.op_seq
                        )));
                    }
                    ops.push(op);
                }
                last[h] = Some(op);
            }
        }
        let committed_records = index.len() - ckpt_records;
        let mut handles = Vec::with_capacity(self.max_handles);
        for (h, last) in last.iter().enumerate() {
            let executed = last.map_or(0, |o| o.op_seq);
            let off = self.intent_off(h);
            let seq = self.w(off + I_SEQ).load(Ordering::Relaxed);
            let opcode = self.w(off + I_OPCODE).load(Ordering::Relaxed);
            let a = self.w(off + I_A).load(Ordering::Relaxed);
            let b = self.w(off + I_B).load(Ordering::Relaxed);
            let sum = self.w(off + I_SUM).load(Ordering::Acquire);
            let pending = match last {
                _ if seq == 0 => PendingOutcome::None,
                _ if sum != intent_checksum(h as u64, seq, opcode, a, b) => {
                    PendingOutcome::TornIntent
                }
                Some(op) if seq == executed => PendingOutcome::Executed {
                    op_seq: seq,
                    result: op.result,
                },
                _ if seq == executed + 1 => PendingOutcome::NeverExecuted { op_seq: seq },
                _ => {
                    return Err(DurableError::Corrupt(format!(
                        "handle {h}: intent seq {seq} vs last committed {executed}"
                    )))
                }
            };
            // Resume after the committed prefix (idempotent): a
            // never-executed intent's op_seq is handed out again.
            self.w(off + I_ISSUED).store(executed, Ordering::Relaxed);
            handles.push(HandleRecovery { executed, pending });
        }
        let state = LogState {
            last: last
                .iter()
                .map(|o| o.map_or([0; ENTRY_WORDS], |op| op.words()))
                .collect(),
            half,
            ckpt_records,
            last_size: ckpt_records,
        };
        let report = RecoveryReport {
            committed_records,
            checkpoint_records: ckpt_records,
            torn_records: torn,
            handles,
            ops,
            checkpointed,
        };
        Ok((report, state))
    }
}

/// A checkpoint's op list being written: the structure's canonical op
/// list, entry by entry, straight into the first records of shard 0's
/// idle half (DESIGN.md §16 "Checkpoint and truncate"). What
/// [`CombineOp::export_logged`] writes into. Nothing is allocated.
pub struct Export<'a> {
    core: &'a DurableCore,
    /// The half of shard 0 the list goes into.
    half: usize,
    /// Entries pushed or reserved so far, counted on past `cap`.
    len: usize,
    /// Entries that fit.
    cap: usize,
}

impl<'a> Export<'a> {
    /// An empty list at the first record of `half` of shard 0, with
    /// room for `cap` entries.
    fn new(core: &'a DurableCore, half: usize, cap: usize) -> Self {
        Export {
            core,
            half,
            len: 0,
            cap,
        }
    }

    /// Appends one op of the list, with the result that replaying it
    /// into the structure rebuilt so far reproduces.
    pub(crate) fn push(&mut self, opcode: u8, operand: u64, operand2: u64, result: OpResult) {
        let at = self.reserve(1);
        self.put(at, opcode, operand, operand2, result);
    }

    /// Appends `n` places for ops and returns the index of the first,
    /// for a family whose walk runs against list order (the stack's,
    /// top to bottom): it counts first, then [`Export::put`]s each op
    /// from the end.
    pub(crate) fn reserve(&mut self, n: usize) -> usize {
        self.len += n;
        self.len - n
    }

    /// Writes op `at` of the list, a place [`Export::reserve`] made.
    /// Does nothing once the list no longer fits.
    pub(crate) fn put(
        &mut self,
        at: usize,
        opcode: u8,
        operand: u64,
        operand2: u64,
        result: OpResult,
    ) {
        let op = LoggedOp {
            handle: LoggedOp::CHECKPOINT,
            op_seq: 0,
            opcode,
            operand,
            operand2,
            result,
        };
        self.put_words(at, op.words());
    }

    fn push_words(&mut self, words: [u64; ENTRY_WORDS]) {
        let at = self.reserve(1);
        self.put_words(at, words);
    }

    fn put_words(&mut self, at: usize, words: [u64; ENTRY_WORDS]) {
        if self.len > self.cap {
            return;
        }
        let d = self.core;
        let off = d.record_off(0, self.half, at / d.entries_cap)
            + REC_HDR_WORDS
            + at % d.entries_cap * ENTRY_WORDS;
        for (j, word) in words.into_iter().enumerate() {
            d.w(off + j).store(word, Ordering::Relaxed);
        }
    }
}

/// A record being written: its slot, its global sequence number, and
/// the entries and running checksum streamed into it so far.
struct OpenRecord {
    tail: usize,
    off: usize,
    seq: u64,
    n: usize,
    sum: u64,
}

/// A combiner's cursor into one shard's log, used under the apply
/// lock. Entries go straight into the shard's open record, which
/// commits when it holds `entries_cap` entries (after every entry
/// under [`LogGranularity::PerOp`]) and when the caller ends the
/// batch with [`LogWriter::commit`]. A record opened at or past the
/// checkpoint trigger first checkpoints.
struct LogWriter<'a> {
    core: &'a DurableCore,
    state: &'a mut LogState,
    export: &'a dyn Fn(&mut Export<'_>),
    shard: usize,
    open: Option<OpenRecord>,
}

impl LogWriter<'_> {
    /// Logs one op: opens the shard's next record (and takes its global
    /// sequence number) if none is open, and only then runs `apply`,
    /// which applies the op and returns its entry, and writes the
    /// entry into the record. Opening may checkpoint, and a checkpoint
    /// must not see an op applied but not logged.
    fn append(&mut self, apply: impl FnOnce() -> [u64; ENTRY_WORDS]) {
        let d = self.core;
        if self.open.is_none() {
            let tail = self.next_tail();
            let off = d.record_off(self.shard, self.state.half, tail);
            // A reused slot still holds a stale commit word: clear it
            // before the payload, so that a crash mid-write leaves a
            // torn record, not a stale one.
            d.w(off).store(0, Ordering::Relaxed);
            fence(Ordering::Release);
            let seq = d.w(H_GLOBAL_SEQ).fetch_add(1, Ordering::Relaxed);
            self.open = Some(OpenRecord {
                tail,
                off,
                seq,
                n: 0,
                sum: mix(0x5EC0_0002, seq),
            });
        }
        let Some(rec) = &mut self.open else {
            unreachable!("a record was just opened");
        };
        let entry = apply();
        let base = rec.off + REC_HDR_WORDS + rec.n * ENTRY_WORDS;
        for (j, word) in entry.into_iter().enumerate() {
            d.w(base + j).store(word, Ordering::Relaxed);
            rec.sum = mix(rec.sum, word);
        }
        rec.n += 1;
        if rec.n == d.entries_cap || d.granularity == LogGranularity::PerOp {
            self.commit();
        }
    }

    /// The shard's next free record, after a checkpoint when its tail
    /// has reached the trigger. A checkpoint that does not fit leaves
    /// the log appending until the half is full.
    fn next_tail(&mut self) -> usize {
        let d = self.core;
        let tail = d.tail(self.shard);
        if tail < d.trigger(self.state) {
            return tail;
        }
        match d.checkpoint(self.state, self.export) {
            Ok(()) => d.tail(self.shard),
            Err(_) if tail < d.half_cap() => tail,
            Err(entries) => panic!(
                "durable log full: shard {} filled its half of {} records, and the \
                 structure's checkpoint of {entries} entries does not fit in {} records \
                 of {} entries; raise DurablePolicy::record_capacity or batch_entries",
                self.shard,
                d.half_cap(),
                d.half_cap() - 1,
                d.entries_cap
            ),
        }
    }

    /// Seals the open record, if any, with its entry count and
    /// checksum and commits it with a release store of its global
    /// sequence number.
    fn commit(&mut self) {
        let Some(rec) = self.open.take() else {
            return;
        };
        let d = self.core;
        let off = rec.off;
        d.w(off + 1).store(rec.n as u64, Ordering::Relaxed);
        d.w(off + 2)
            .store(mix(rec.sum, rec.n as u64), Ordering::Relaxed);
        fault::hit(FaultPoint::PostLog);
        // The commit point: everything above is ordered before this
        // release store, so a visible commit word implies a complete,
        // checksummed payload.
        d.w(off).store(rec.seq + 1, Ordering::Release);
        let tail_off = d.tail_off(self.shard);
        d.w(tail_off).store(rec.tail as u64 + 1, Ordering::Relaxed);
        if d.sync == SyncMode::Sync {
            d.heap.msync(off, d.record_words()).ok();
            d.heap.msync(H_GLOBAL_SEQ, 1).ok();
            d.heap.msync(tail_off, 1).ok();
            d.combiner.msyncs.fetch_add(1, Ordering::Relaxed);
        }
        fault::hit(FaultPoint::PostCommit);
        d.combiner.records.fetch_add(1, Ordering::Relaxed);
        d.combiner
            .entries
            .fetch_add(rec.n as u64, Ordering::Relaxed);
    }
}

// ---- the engine's durable path ------------------------------------

impl<O: CombineOp> Sec<O> {
    /// The redo log and intent cells, when the engine was built durable.
    pub(crate) fn durable_core(&self) -> Option<&DurableCore> {
        self.durable.as_deref()
    }

    /// One detectable operation of the calling thread: persist its
    /// intent, announce a [`DurableReq`] on the thread's durable shard,
    /// and return the result the combiner logged for it. The only op
    /// path of a durable structure.
    pub(crate) fn run_durable(
        &self,
        reclaim: &ReclaimHandle<'_>,
        opcode: u8,
        operand: u64,
        operand2: u64,
    ) -> OpResult {
        let d = self
            .durable_core()
            .expect("durable op on a non-durable structure");
        let tid = reclaim.slot();
        let seq = d.write_intent(tid, opcode, operand, operand2);
        let mut req = DurableReq::new(tid, seq, opcode, operand, operand2);
        // Type erasure as in the bulk paths: the engine never looks
        // inside announcement pointers, and `combine_durable` knows the
        // durable shards carry requests.
        let node = (&mut req as *mut DurableReq).cast::<O::Node>();
        self.run(
            Lane::At(self.dur_base + d.shard_of(tid)),
            Role::Remove,
            node,
            reclaim,
        );
        req.take_result()
    }

    /// The durable combiner: waits for its frozen requests, then under
    /// the apply lock applies each through the family's
    /// [`CombineOp::apply_logged`] hook and writes its entry straight
    /// into the shard's open log record (one record per batch or per
    /// op, by policy), committing before returning. A record opened
    /// at the checkpoint trigger first writes a checkpoint through the
    /// family's [`CombineOp::export_logged`] hook. The engine
    /// publishes results only after this returns, so a published
    /// result is always a logged result. The lock spans all shards,
    /// and every op of a durable structure comes through here, so log
    /// order is exactly application order — the property replay
    /// relies on. Never inlined: the engine's batch path, which every
    /// family runs, calls it only for durable shards.
    #[inline(never)]
    pub(super) fn combine_durable(
        &self,
        batch: &CombineBatch<O::Node>,
        my_seq: usize,
        agg_idx: usize,
        guard: &Guard<'_, '_>,
    ) {
        let d = self
            .durable_core()
            .expect("durable shard without a durable core");
        let slots = &batch.slots[my_seq..batch.frozen_cut(Role::Remove)];
        // Every announcer is in flight; wait for their pointers before
        // the lock, so no combiner holds it while a peer stalls.
        for s in slots {
            wait_ptr(s, self.config.wait);
        }
        let mut state = d
            .combiner
            .apply_lock
            .lock()
            .expect("a combiner panicked under the durable apply lock");
        let export = |out: &mut Export<'_>| self.op.export_logged(out);
        let mut log = d.log(agg_idx - self.dur_base, &mut state, &export);
        for s in slots {
            // Safety: every pointer was announced into this frozen
            // batch as a request (and seen non-null above), and its
            // owner blocks until `applied`.
            let req = unsafe { &mut *s.load(Ordering::Acquire).cast::<DurableReq>() };
            log.append(|| {
                fault::hit(FaultPoint::MidCombine);
                let result = self
                    .op
                    .apply_logged(req.opcode, req.operand, req.operand2, guard)
                    .unwrap_or_else(|| unreachable!("{}: foreign opcode {}", O::NAME, req.opcode));
                req.set_result(result);
                DurableCore::entry_words(req)
            });
        }
        log.commit();
    }

    /// Recovery replay: applies `ops` (a recovered log, in global
    /// order) to this freshly built structure through the family's
    /// [`CombineOp::apply_logged`] hook — the same rule the live
    /// combiner applied — and refuses the log with
    /// [`DurableError::Corrupt`] at the first foreign opcode or at
    /// the first result that differs from the logged one. Runs before
    /// any handle registers, on a collector slot it frees again.
    pub(crate) fn replay(&self, ops: &[LoggedOp]) -> Result<(), DurableError> {
        let reclaim = self
            .collector
            .register()
            .expect("replay runs before any thread registers");
        for op in ops {
            // One pin per op, so the husks replayed pops retire are
            // reclaimed as the epoch advances instead of piling up
            // behind one guard for the whole replay.
            let guard = reclaim.pin();
            let replayed = self
                .op
                .apply_logged(op.opcode, op.operand, op.operand2, &guard)
                .ok_or_else(|| {
                    DurableError::Corrupt(format!(
                        "{} log holds foreign opcode {}",
                        O::NAME,
                        op.opcode
                    ))
                })?;
            if replayed != op.result {
                return Err(DurableError::Corrupt(format!(
                    "replay diverged at handle {} op {}: logged {:?}, replayed {:?}",
                    op.handle, op.op_seq, op.result, replayed
                )));
            }
        }
        Ok(())
    }
}

impl core::fmt::Debug for DurableCore {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("DurableCore")
            .field("family", &self.family)
            .field("shards", &self.shards)
            .field("record_cap", &self.record_cap)
            .field("entries_cap", &self.entries_cap)
            .field("heap", &self.heap)
            .finish()
    }
}

/// Forged logs for the families' replay-verification tests.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;

    /// One forged log entry: `(opcode, operand, operand2, logged result)`.
    pub(crate) type Entry = (u8, u64, u64, OpResult);

    /// Writes `ops` as handle 0's ops 1..=n into one committed record
    /// of a fresh `family` heap, then recovers it through `recover`.
    pub(crate) fn recover_forged<S>(
        family: Family,
        family_param: u64,
        ops: &[Entry],
        recover: fn(DurablePolicy) -> Result<(S, RecoveryReport), DurableError>,
    ) -> Result<S, DurableError> {
        let policy = DurablePolicy::volatile().batch_entries(ops.len().max(1));
        let core = DurableCore::create(&policy, family, family_param, 1).unwrap();
        let mut state = core.combiner.apply_lock.lock().unwrap();
        let mut log = core.log(0, &mut state, &|_| {
            unreachable!("a forged log never checkpoints")
        });
        for (&(opcode, a, b, result), seq) in ops.iter().zip(1..) {
            let mut req = DurableReq::new(0, seq, opcode, a, b);
            req.set_result(result);
            log.append(|| DurableCore::entry_words(&req));
        }
        log.commit();
        drop(state);
        recover(DurablePolicy::heap(core.heap())).map(|(s, _)| s)
    }

    /// Checkpoints `sec` now and recovers a copy of its heap: the
    /// structure its export alone rebuilds, since the checkpoint
    /// leaves no record after it.
    pub(crate) fn rebuild_from_checkpoint<O: DurableOp>(sec: &Sec<O>) -> Sec<O> {
        let d = sec.durable_core().expect("a durable structure");
        {
            let mut state = d.combiner.apply_lock.lock().unwrap();
            let export = |out: &mut Export<'_>| sec.op.export_logged(out);
            d.checkpoint(&mut state, &export)
                .unwrap_or_else(|n| panic!("a checkpoint of {n} entries does not fit"));
        }
        let copy = PersistentHeap::volatile(d.heap.words());
        for i in 0..d.heap.words() {
            copy.word(i)
                .store(d.w(i).load(Ordering::Relaxed), Ordering::Relaxed);
        }
        let (rebuilt, report) = Sec::<O>::recover(DurablePolicy::heap(copy)).unwrap();
        assert_eq!(
            report.committed_records, 0,
            "records outlived the checkpoint"
        );
        assert!(report.ops.iter().all(LoggedOp::is_checkpoint));
        rebuilt
    }

    /// Asserts that recovery refused its log as corrupt, for the
    /// reason `needle` names.
    #[track_caller]
    pub(crate) fn assert_corrupt<S>(r: Result<S, DurableError>, needle: &str) {
        match r {
            Err(DurableError::Corrupt(msg)) => assert!(msg.contains(needle), "{msg}"),
            Err(e) => panic!("expected Corrupt({needle}), got {e}"),
            Ok(_) => panic!("expected Corrupt({needle}), but the log replayed"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Words per 64-byte line; the heap base is page-aligned.
    const LINE: usize = 64 / mem::size_of::<u64>();

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Writer {
        Header,
        Intent(usize),
        Tail(usize),
        Record,
    }

    /// Claims `line` for `who`, failing when another writer owns it.
    fn claim(lines: &mut std::collections::HashMap<usize, Writer>, line: usize, who: Writer) {
        let owner = *lines.entry(line).or_insert(who);
        assert_eq!(owner, who, "line {line} has two writers");
    }

    #[test]
    fn shard_slots_hold_exactly_the_slots_mapped_to_each_shard() {
        for max_handles in 1..=9 {
            for shards in 1..=11 {
                let policy = DurablePolicy::volatile()
                    .shards(shards)
                    .record_capacity(1)
                    .batch_entries(1);
                let d = DurableCore::create(&policy, Family::Stack, 0, max_handles).unwrap();
                for s in 0..shards {
                    let mapped: Vec<_> = (0..max_handles).filter(|&t| d.shard_of(t) == s).collect();
                    assert_eq!(
                        mapped,
                        d.shard_slots(s).collect::<Vec<_>>(),
                        "{max_handles} slots, {shards} shards: shard {s}"
                    );
                }
            }
        }
    }

    #[test]
    fn durable_layout_gives_every_handle_and_tail_its_own_line() {
        for max_handles in 1..=9 {
            for shards in 1..=3 {
                for (record_cap, entries_cap) in [(1, 1), (5, 2), (4, 5)] {
                    let policy = DurablePolicy::volatile()
                        .shards(shards)
                        .record_capacity(record_cap)
                        .batch_entries(entries_cap);
                    let d = DurableCore::create(&policy, Family::Stack, 0, max_handles).unwrap();
                    let mut lines = std::collections::HashMap::new();
                    for w in 0..HDR_WORDS {
                        claim(&mut lines, w / LINE, Writer::Header);
                    }
                    for h in 0..max_handles {
                        let off = d.intent_off(h);
                        assert_eq!(
                            off / LINE,
                            (off + INTENT_WORDS - 1) / LINE,
                            "handle {h}'s intent cell straddles a line"
                        );
                        for w in off..off + INTENT_WORDS {
                            claim(&mut lines, w / LINE, Writer::Intent(h));
                        }
                    }
                    for s in 0..shards {
                        claim(&mut lines, d.tail_off(s) / LINE, Writer::Tail(s));
                    }
                    assert!(d.half_cap() >= 2 && d.record_cap >= record_cap);
                    let last = d.record_off(shards - 1, 1, d.half_cap() - 1) + d.record_words() - 1;
                    let needed =
                        DurableCore::words_needed(max_handles, shards, d.record_cap, entries_cap);
                    assert!(
                        last < needed && needed <= d.heap.words(),
                        "last record word {last} outside the {needed} words needed"
                    );
                    for s in 0..shards {
                        for w in d.record_off(s, 0, 0)..d.record_off(s, 1, d.half_cap()) {
                            claim(&mut lines, w / LINE, Writer::Record);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn durable_heap_of_layout_version_1_is_refused_as_bad_magic() {
        for version in [1, 2] {
            let d = DurableCore::create(&DurablePolicy::volatile(), Family::Stack, 0, 2).unwrap();
            d.w(H_VERSION).store(version, Ordering::Relaxed);
            match crate::SecStack::<u64>::recover(DurablePolicy::heap(d.heap())) {
                Err(DurableError::BadMagic) => {}
                Err(e) => panic!("expected BadMagic, got {e}"),
                Ok(_) => panic!("a version-{version} heap recovered"),
            }
        }
    }
}
