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
//! * **Recovery** — [`DurableCore::open`] scans every shard, orders
//!   committed records by their global sequence number, verifies that
//!   each handle's logged ops form a gap-free prefix (zero
//!   double-applies) and classifies every pending intent;
//!   [`Sec::replay`] then re-applies the ordered op list to
//!   a fresh structure, checking every result against the log.
//!
//! The whole durable path is the engine's: a family contributes only
//! its [`CombineOp::apply_logged`] hook, which the live durable
//! combiner and recovery replay both call — one rule per family for
//! what a logged op does.
//!
//! Durability fine print: `MAP_SHARED` stores live in the kernel page
//! cache, which survives the *process* (kill−9 semantics — exactly
//! what the fault-injection harness exercises). Surviving *power
//! failure* additionally requires `msync`, which [`SyncMode::Sync`]
//! performs once per committed record.

use core::any::TypeId;
use core::mem;
use core::sync::atomic::{AtomicU64, Ordering};
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
/// a record's entry count after its entries; `open` refuses a
/// version-1 heap as [`DurableError::BadMagic`].
const VERSION: u64 = 2;
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
    /// Log records per shard; the log is not circular, so this bounds
    /// the structure's total batch count between recoveries.
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

    /// Sets the per-shard record capacity (builder style).
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
    /// The announcing handle's id (collector slot).
    pub handle: u32,
    /// The handle's per-op sequence number (1-based, gap-free).
    pub op_seq: u64,
    /// One of the [`opcode`] constants.
    pub opcode: u8,
    /// First operand (value/key/delta), 0 when unused.
    pub operand: u64,
    /// Second operand (map insert value), 0 when unused.
    pub operand2: u64,
    /// The result the op produced when it originally executed.
    pub result: OpResult,
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
    /// Number of this handle's ops found committed in the log.
    pub executed: u64,
    /// Classification of the handle's last announced op.
    pub pending: PendingOutcome,
}

/// Everything [`recover()`](crate::Sec::recover) learned from the
/// heap: the ordered op log (already replayed into the returned
/// structure), per-handle detectability verdicts, and scan statistics.
#[derive(Debug)]
pub struct RecoveryReport {
    /// Committed records found across all shards.
    pub committed_records: usize,
    /// Torn records skipped (payload present, commit word unset or
    /// checksum mismatch) — ops that never happened.
    pub torn_records: usize,
    /// Per-handle verdicts, indexed by handle id.
    pub handles: Vec<HandleRecovery>,
    /// Every committed op in global application order; replaying these
    /// sequentially reproduces the recovered structure exactly.
    pub ops: Vec<LoggedOp>,
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

/// What the combiners write on every batch: the apply lock and the
/// logging counters. One padded line, apart from the read-mostly
/// geometry every `write_intent` reads.
struct CombinerLine {
    /// Serialises apply+log across all shards: log order is exactly
    /// structure-application order, which is what makes sequential
    /// replay reproduce the recovered structure.
    apply_lock: Mutex<()>,
    records: AtomicU64,
    entries: AtomicU64,
    msyncs: AtomicU64,
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
    // its tail line, then `record_cap` unpadded records, rounded up to
    // a whole line so the next shard's tail starts a line.

    fn record_words(&self) -> usize {
        REC_HDR_WORDS + self.entries_cap * ENTRY_WORDS
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

    fn record_off(&self, shard: usize, idx: usize) -> usize {
        self.tail_off(shard) + LINE_WORDS + idx * self.record_words()
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
                apply_lock: Mutex::new(()),
                records: AtomicU64::new(0),
                entries: AtomicU64::new(0),
                msyncs: AtomicU64::new(0),
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
        let record_cap = policy.record_capacity.max(1);
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
        if max_handles == 0 || shards == 0 || heap.words() < needed {
            return Err(DurableError::Corrupt(format!(
                "implausible header geometry ({max_handles} handles, {shards} shards)"
            )));
        }
        let core = Self::with_heap(
            heap,
            policy,
            family,
            max_handles,
            shards,
            record_cap,
            entries_cap,
        );
        let report = core.scan_and_classify()?;
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
        }
    }

    /// Fixed thread→shard mapping (block partition, like
    /// `SecConfig::aggregator_for` under a fixed policy).
    fn shard_of(&self, tid: usize) -> usize {
        (tid * self.shards / self.max_handles).min(self.shards - 1)
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
        let meta = req.handle as u64 | ((req.opcode as u64) << 32) | ((req.rtag as u64) << 40);
        [meta, req.op_seq, req.operand, req.operand2, req.result]
    }

    /// A writer for `shard`'s log; the caller holds the apply lock.
    fn log(&self, shard: usize) -> LogWriter<'_> {
        LogWriter {
            core: self,
            shard,
            open: None,
        }
    }

    // ---- recovery --------------------------------------------------

    /// The words of entry `i` of the record at `off`.
    fn entry_at(&self, off: usize, i: usize) -> [u64; ENTRY_WORDS] {
        let base = off + REC_HDR_WORDS + i * ENTRY_WORDS;
        core::array::from_fn(|j| self.w(base + j).load(Ordering::Relaxed))
    }

    /// Validates every committed record in one pass, keeping only a
    /// `(seq, offset, n)` index entry per record, then decodes the
    /// records in global order straight into one op list.
    fn scan_and_classify(&self) -> Result<RecoveryReport, DurableError> {
        // Each shard's tail word counts its appended records: the
        // index's size unless a crash left the word behind.
        let appended: usize = (0..self.shards)
            .map(|s| {
                (self.w(self.tail_off(s)).load(Ordering::Relaxed) as usize).min(self.record_cap)
            })
            .sum();
        let mut committed: Vec<(u64, usize, usize)> = Vec::with_capacity(appended);
        let mut total_ops = 0usize;
        let mut torn = 0usize;
        let mut max_seq: u64 = 0;
        for shard in 0..self.shards {
            let mut shard_max_idx: Option<usize> = None;
            for idx in 0..self.record_cap {
                let off = self.record_off(shard, idx);
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
                let n = self.w(off + 1).load(Ordering::Relaxed) as usize;
                let stored_sum = self.w(off + 2).load(Ordering::Relaxed);
                if n == 0 || n > self.entries_cap {
                    return Err(DurableError::Corrupt(format!(
                        "committed record {shard}/{idx} has implausible n_ops {n}"
                    )));
                }
                let mut sum = mix(0x5EC0_0002, seq);
                for i in 0..n {
                    let words = self.entry_at(off, i);
                    sum = words.iter().fold(sum, |s, &w| mix(s, w));
                    if decode_entry(words).is_none() {
                        return Err(DurableError::Corrupt(format!(
                            "record {shard}/{idx} entry {i} has bad result tag {}",
                            (words[0] >> 40) & 0xff
                        )));
                    }
                }
                if mix(sum, n as u64) != stored_sum {
                    // A commit word over a mismatched payload cannot
                    // come from an ordered crash; refuse the heap.
                    return Err(DurableError::Corrupt(format!(
                        "committed record {shard}/{idx} fails its checksum"
                    )));
                }
                fault::hit(FaultPoint::RecoverScan);
                max_seq = max_seq.max(seq + 1);
                committed.push((seq, off, n));
                total_ops += n;
                shard_max_idx = Some(idx);
            }
            // Normalise the tail allocator: next append goes after the
            // last committed record (idempotent; overwrites any torn
            // slot the crash left at the old tail).
            let tail = shard_max_idx.map_or(0, |i| i as u64 + 1);
            self.w(self.tail_off(shard)).store(tail, Ordering::Relaxed);
        }
        committed.sort_unstable_by_key(|&(seq, _, _)| seq);
        for pair in committed.windows(2) {
            if pair[0].0 == pair[1].0 {
                return Err(DurableError::Corrupt(format!(
                    "duplicate global sequence number {}",
                    pair[0].0
                )));
            }
        }
        // Normalise the global sequence allocator (idempotent).
        self.w(H_GLOBAL_SEQ).store(max_seq, Ordering::Relaxed);
        let committed_records = committed.len();
        let mut ops = Vec::with_capacity(total_ops);
        for &(seq, off, n) in &committed {
            for i in 0..n {
                // The heap is outside input: a second read can differ.
                let words = self.entry_at(off, i);
                ops.push(decode_entry(words).ok_or_else(|| {
                    DurableError::Corrupt(format!(
                        "record seq {seq} entry {i} has bad result tag {}",
                        (words[0] >> 40) & 0xff
                    ))
                })?);
            }
        }

        // Per-handle detectability: committed op_seqs must form the
        // gap-free prefix 1..=n in replay order (anything else would
        // mean a lost or double-applied op).
        let mut last = vec![0u64; self.max_handles];
        let mut last_result = vec![OpResult::Unit; self.max_handles];
        for op in &ops {
            let h = op.handle as usize;
            if h >= self.max_handles {
                return Err(DurableError::Corrupt(format!(
                    "logged handle {h} out of range"
                )));
            }
            if op.op_seq != last[h] + 1 {
                return Err(DurableError::Corrupt(format!(
                    "handle {h}: op_seq {} after {} (gap or double-apply)",
                    op.op_seq, last[h]
                )));
            }
            last[h] = op.op_seq;
            last_result[h] = op.result;
        }
        let mut handles = Vec::with_capacity(self.max_handles);
        for h in 0..self.max_handles {
            let off = self.intent_off(h);
            let seq = self.w(off + I_SEQ).load(Ordering::Relaxed);
            let opcode = self.w(off + I_OPCODE).load(Ordering::Relaxed);
            let a = self.w(off + I_A).load(Ordering::Relaxed);
            let b = self.w(off + I_B).load(Ordering::Relaxed);
            let sum = self.w(off + I_SUM).load(Ordering::Acquire);
            let pending = if seq == 0 {
                PendingOutcome::None
            } else if sum != intent_checksum(h as u64, seq, opcode, a, b) {
                PendingOutcome::TornIntent
            } else if seq == last[h] {
                PendingOutcome::Executed {
                    op_seq: seq,
                    result: last_result[h],
                }
            } else if seq == last[h] + 1 {
                PendingOutcome::NeverExecuted { op_seq: seq }
            } else {
                return Err(DurableError::Corrupt(format!(
                    "handle {h}: intent seq {seq} vs last committed {}",
                    last[h]
                )));
            };
            // Resume after the logged prefix (idempotent): a
            // never-executed intent's op_seq is handed out again.
            self.w(off + I_ISSUED).store(last[h], Ordering::Relaxed);
            handles.push(HandleRecovery {
                executed: last[h],
                pending,
            });
        }
        Ok(RecoveryReport {
            committed_records,
            torn_records: torn,
            handles,
            ops,
        })
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
/// batch with [`LogWriter::commit`].
struct LogWriter<'a> {
    core: &'a DurableCore,
    shard: usize,
    open: Option<OpenRecord>,
}

impl LogWriter<'_> {
    /// Writes one entry into the open record, opening the shard's next
    /// record (and taking its global sequence number) if none is open.
    fn push(&mut self, entry: [u64; ENTRY_WORDS]) {
        let d = self.core;
        let rec = match &mut self.open {
            Some(rec) => rec,
            None => {
                let tail = d.w(d.tail_off(self.shard)).load(Ordering::Relaxed) as usize;
                assert!(
                    tail < d.record_cap,
                    "durable log full: shard {} exhausted its {} records; \
                     raise DurablePolicy::record_capacity (the log is not circular)",
                    self.shard,
                    d.record_cap
                );
                let seq = d.w(H_GLOBAL_SEQ).fetch_add(1, Ordering::Relaxed);
                self.open.insert(OpenRecord {
                    tail,
                    off: d.record_off(self.shard, tail),
                    seq,
                    n: 0,
                    sum: mix(0x5EC0_0002, seq),
                })
            }
        };
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
    /// op, by policy), committing before returning. The engine
    /// publishes results only after this returns, so a published
    /// result is always a logged result. The lock spans all shards,
    /// and every op of a durable structure comes through here, so log
    /// order is exactly application order — the property replay
    /// relies on.
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
        let _g = d
            .combiner
            .apply_lock
            .lock()
            .expect("a combiner panicked under the durable apply lock");
        let mut log = d.log(agg_idx - self.dur_base);
        for s in slots {
            // Safety: every pointer was announced into this frozen
            // batch as a request (and seen non-null above), and its
            // owner blocks until `applied`.
            let req = unsafe { &mut *s.load(Ordering::Acquire).cast::<DurableReq>() };
            fault::hit(FaultPoint::MidCombine);
            let result = self
                .op
                .apply_logged(req.opcode, req.operand, req.operand2, guard)
                .unwrap_or_else(|| unreachable!("{}: foreign opcode {}", O::NAME, req.opcode));
            req.set_result(result);
            log.push(DurableCore::entry_words(req));
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
        let mut log = core.log(0);
        for (&(opcode, a, b, result), seq) in ops.iter().zip(1..) {
            let mut req = DurableReq::new(0, seq, opcode, a, b);
            req.set_result(result);
            log.push(DurableCore::entry_words(&req));
        }
        log.commit();
        recover(DurablePolicy::heap(core.heap())).map(|(s, _)| s)
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
    fn durable_layout_gives_every_handle_and_tail_its_own_line() {
        for max_handles in 1..=9 {
            for shards in 1..=3 {
                for (record_cap, entries_cap) in [(1, 1), (3, 2), (2, 5)] {
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
                    let last = d.record_off(shards - 1, record_cap - 1) + d.record_words() - 1;
                    let needed =
                        DurableCore::words_needed(max_handles, shards, record_cap, entries_cap);
                    assert!(
                        last < needed && needed <= d.heap.words(),
                        "last record word {last} outside the {needed} words needed"
                    );
                    for s in 0..shards {
                        for w in d.record_off(s, 0)..d.record_off(s, record_cap) {
                            claim(&mut lines, w / LINE, Writer::Record);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn durable_heap_of_layout_version_1_is_refused_as_bad_magic() {
        let d = DurableCore::create(&DurablePolicy::volatile(), Family::Stack, 0, 2).unwrap();
        d.w(H_VERSION).store(1, Ordering::Relaxed);
        match crate::SecStack::<u64>::recover(DurablePolicy::heap(d.heap())) {
            Err(DurableError::BadMagic) => {}
            Err(e) => panic!("expected BadMagic, got {e}"),
            Ok(_) => panic!("a version-1 heap recovered"),
        }
    }
}
