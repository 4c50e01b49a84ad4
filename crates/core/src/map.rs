//! A batched-combining hash map — the SEC engine applied to the keyed
//! workloads that million-user services actually hammer (YCSB-style
//! get/insert/remove over a skewed key space).
//!
//! Layout (DESIGN.md §13): a fixed array of **buckets** (each a small
//! mutex-protected association list) is block-partitioned into
//! **shards**, one engine aggregator per shard. An operation hashes its
//! key to a bucket, routes to the bucket's shard under the *current*
//! active shard count, and announces into that shard's batch exactly
//! like a stack pop does (`Lane::At`, the queue's fixed-index path).
//! The batch freezes; the seq-0 announcer combines: it walks the slot
//! array in announcement order and, for each operation, locks the
//! target bucket, applies the command, and writes the result back into
//! the announcement node. `get` therefore returns the value snapshot at
//! its own application under the bucket lock — the batch's operations
//! linearize consecutively, in slot order, at those bucket-lock
//! applications.
//!
//! All three operations are result-bearing, so the whole family rides
//! the **remove** lane: the add lane stays pinned at zero, elimination
//! is vacuously absent and the combiner election picks exactly sequence
//! number zero, the same degeneration the counter uses. No freezing,
//! parking, elastic re-mapping or recycling code appears here — all of
//! it is inherited from `crate::combine` (DESIGN.md §12).
//!
//! Two map-specific wrinkles, both outside the protocol:
//!
//! * **Batches are always sized `max_threads`.** Thread-mapped families
//!   bound a batch by the threads sharded onto its aggregator; a keyed
//!   map cannot — a hot key legally routes *every* thread into one
//!   shard. [`SecMap::with_config`] therefore normalizes a fixed-`K`
//!   policy into the degenerate adaptive range `[K, K]` (same active
//!   count forever, `max_threads`-sized batches).
//! * **Buckets are individually locked.** Successive batches of the
//!   same shard may combine concurrently (the freezer installs the
//!   fresh batch before the previous combiner finishes), and during an
//!   elastic re-shard two shards can transiently route operations for
//!   the same bucket. The per-bucket mutex serializes exactly those
//!   overlaps; in steady state each bucket belongs to one shard whose
//!   combiners run one batch at a time, so the lock is uncontended.

use crate::combine::durable::{
    self, opcode, DurableCore, DurableError, DurablePolicy, DurableStats, Family, OpResult,
    RecoveryReport,
};
use crate::combine::{AggLayout, CombineBatch, CombineEngine, CombineOp, Lane, OpState, Role};
use crate::config::{AggregatorPolicy, SecConfig};
use crate::sec::stats::SecStats;
use crate::traits::{ConcurrentMap, MapHandle};
use core::fmt;
use core::hash::{Hash, Hasher};
use core::mem::ManuallyDrop;
use core::sync::atomic::Ordering;
use sec_reclaim::{Guard, Handle as ReclaimHandle};
use std::collections::hash_map::DefaultHasher;
use std::sync::Mutex;

/// Default bucket-array size (see [`SecMap::bucket_count`]).
const DEFAULT_BUCKETS: usize = 512;

/// One announced map operation, owned by its node until the combiner
/// consumes it.
///
/// The bulk variants carry raw pointers into the announcing thread's
/// frame instead of owned payloads: the announcer blocks until
/// `applied`, so the slices are live for the combiner's whole walk, and
/// one announcement (one sequence number, one slot) then covers the
/// entire slice of operations.
enum MapCmd<K, V> {
    /// `get(key)`.
    Get(K),
    /// `insert(key, value)`.
    Insert(K, V),
    /// `remove(key)`.
    Remove(K),
    /// `get_many(keys)`: one lookup per key, results written through
    /// `results` (same length).
    GetMany {
        /// The caller's key slice.
        keys: *const K,
        /// The caller's result slice (old contents dropped in place).
        results: *mut Option<V>,
        len: usize,
    },
    /// `insert_many(entries)`: entries are *moved* out of the caller's
    /// buffer (the caller forgets them afterwards), previous mappings
    /// written through `prevs` (same length).
    InsertMany {
        /// The caller's entry buffer; each element is `ptr::read` once.
        entries: *const (K, V),
        /// The caller's previous-mapping slice.
        prevs: *mut Option<V>,
        len: usize,
    },
}

/// A map announcement node: the command in, the result out, through the
/// same slot. `cmd` and `result` are `ManuallyDrop` because ownership
/// moves through raw pointers (combiner consumes `cmd`, the announcer
/// consumes `result`) before the node husk is recycled without running
/// a destructor.
struct MapNode<K, V> {
    /// The target bucket, computed once by the announcing thread so the
    /// combiner never re-hashes.
    bucket: usize,
    cmd: ManuallyDrop<MapCmd<K, V>>,
    result: ManuallyDrop<Option<V>>,
}

impl<K: Send, V: Send> MapNode<K, V> {
    /// Allocates a detached node carrying `cmd`, reusing a recycled
    /// block from `reclaim`'s free lists when one is available.
    fn alloc_with(reclaim: &ReclaimHandle<'_>, bucket: usize, cmd: MapCmd<K, V>) -> *mut Self {
        reclaim.alloc_boxed(MapNode {
            bucket,
            cmd: ManuallyDrop::new(cmd),
            result: ManuallyDrop::new(None),
        })
    }
}

// Safety: the raw pointers of the bulk `MapCmd` variants point into the
// announcing thread's frame, which outlives the batch (the announcer
// blocks until `applied`); the combiner is their unique accessor while
// the batch is live, per the engine's exactly-once discipline. The
// owned variants are Send whenever K and V are.
unsafe impl<K: Send, V: Send> Send for MapNode<K, V> {}

/// The map's apply logic: the bucket array, one combiner per frozen
/// batch.
struct MapOp<K, V> {
    /// `buckets[i]` holds the live `(key, value)` pairs whose key
    /// hashes to `i`. Individually locked — see the module docs for why
    /// a shard cannot simply own its buckets unlocked.
    buckets: Box<[Bucket<K, V>]>,
}

/// One association-list bucket: the live `(key, value)` pairs under
/// their per-bucket lock.
type Bucket<K, V> = Mutex<Vec<(K, V)>>;

impl<K: Hash + Eq, V> MapOp<K, V> {
    fn with_buckets(n: usize) -> Self {
        Self {
            buckets: (0..n.max(1)).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// The bucket `key` hashes to. [`DefaultHasher::new`] is
    /// deterministic, so every handle of every instance agrees.
    fn bucket_of(&self, key: &K) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % self.buckets.len()
    }

    /// Applies one command under its bucket's lock — the operation's
    /// linearization point.
    fn apply(&self, bucket: usize, cmd: MapCmd<K, V>) -> Option<V>
    where
        V: Clone,
    {
        let mut pairs = self.buckets[bucket].lock().unwrap();
        match cmd {
            MapCmd::Get(key) => pairs
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.clone()),
            MapCmd::Insert(key, value) => match pairs.iter_mut().find(|(k, _)| *k == key) {
                Some((_, v)) => Some(core::mem::replace(v, value)),
                None => {
                    pairs.push((key, value));
                    None
                }
            },
            MapCmd::Remove(key) => pairs
                .iter()
                .position(|(k, _)| *k == key)
                .map(|i| pairs.swap_remove(i).1),
            // Bulk commands are decomposed by the combiner before
            // `apply` is reached (each constituent lookup/insert takes
            // its own bucket's lock).
            MapCmd::GetMany { .. } | MapCmd::InsertMany { .. } => {
                unreachable!("bulk commands never reach apply")
            }
        }
    }
}

impl<K, V> CombineOp for MapOp<K, V>
where
    K: Hash + Eq + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    type Node = MapNode<K, V>;
    type Value = Option<V>;

    // `combine_add` and `eliminate` keep their defaults: every map
    // operation is result-bearing, so the add lane of a map batch is
    // always empty and the engine never calls them.

    /// Apply the frozen batch in announcement order: for each slot,
    /// consume the command, apply it under its bucket's lock, and write
    /// the result back into the node in place. Exclusive node access is
    /// the counter's argument: the owners only read their slots back
    /// after observing `applied` (Release-published by the engine right
    /// after this returns), and slot `i` belongs to exactly one
    /// operation.
    fn combine_remove(
        &self,
        eng: &CombineEngine<Self>,
        batch: &CombineBatch<MapNode<K, V>>,
        my_seq: usize,
        _agg_idx: usize,
        _guard: &Guard<'_, '_>,
    ) {
        let cut = batch.frozen_cut(Role::Remove);
        for slot in &batch.slots[my_seq..cut] {
            let n = crate::combine::wait_ptr(slot, eng.config().wait);
            // Safety: the combiner is the unique consumer of each
            // included slot's command; the node stays allocated (owner
            // is pinned, waiting on `applied`).
            let cmd = unsafe { ManuallyDrop::take(&mut (*n).cmd) };
            match cmd {
                MapCmd::GetMany { keys, results, len } => {
                    // Safety (both bulk arms): the slices live in the
                    // announcer's frame, which blocks until `applied`;
                    // result assignment (not `write`) drops whatever
                    // the caller's slice previously held.
                    for i in 0..len {
                        let key = unsafe { &*keys.add(i) };
                        let r = {
                            let pairs = self.buckets[self.bucket_of(key)].lock().unwrap();
                            pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
                        };
                        unsafe { *results.add(i) = r };
                    }
                }
                MapCmd::InsertMany {
                    entries,
                    prevs,
                    len,
                } => {
                    for i in 0..len {
                        // Safety: each entry is moved out exactly once;
                        // the caller truncates its buffer afterwards
                        // without dropping the moved-from elements.
                        let (key, value) = unsafe { entries.add(i).read() };
                        let bucket = self.bucket_of(&key);
                        let r = self.apply(bucket, MapCmd::Insert(key, value));
                        unsafe { *prevs.add(i) = r };
                    }
                }
                cmd => {
                    let result = self.apply(unsafe { (*n).bucket }, cmd);
                    // Safety: same exclusive access; the old `result`
                    // is the construction-time `None`, which owns
                    // nothing.
                    unsafe { (*n).result = ManuallyDrop::new(result) };
                    continue;
                }
            }
            // Bulk results went through the request's slices; the node
            // keeps its construction-time `None` for `take_result`.
        }
    }

    /// Each participant (combiner included) collects its result from
    /// its own slot. The add lane is empty, so the engine's `offset` is
    /// the operation's own sequence number.
    fn take_result(
        &self,
        _eng: &CombineEngine<Self>,
        batch: &CombineBatch<MapNode<K, V>>,
        offset: usize,
        _agg_idx: usize,
        guard: &Guard<'_, '_>,
    ) -> Option<Option<V>> {
        let n = batch.slots[offset].load(Ordering::Acquire);
        debug_assert!(
            !n.is_null(),
            "command published before announcing completed"
        );
        // Safety: unique consumer of our own slot; result out, husk
        // recycles into this thread's node cache. The command was
        // consumed by the combiner, so the husk owns nothing.
        let result = unsafe { ManuallyDrop::take(&mut (*n).result) };
        unsafe { guard.retire_recycle(n) };
        Some(result)
    }

    /// A durable get, insert or remove, applied under its bucket lock
    /// exactly like a live command.
    fn apply_logged(
        &self,
        opcode: u8,
        operand: u64,
        operand2: u64,
        _guard: &Guard<'_, '_>,
    ) -> Option<OpResult> {
        let key: K = durable::from_word(operand);
        let bucket = self.bucket_of(&key);
        let cmd = match opcode {
            opcode::MAP_GET => MapCmd::Get(key),
            opcode::MAP_INSERT => MapCmd::Insert(key, durable::from_word(operand2)),
            opcode::MAP_REMOVE => MapCmd::Remove(key),
            _ => return None,
        };
        Some(match self.apply(bucket, cmd) {
            None => OpResult::Empty,
            Some(v) => OpResult::Value(durable::to_word(v)),
        })
    }
}

/// A linearizable batched-combining hash map.
///
/// `n` threads hammering a hot key induce one bucket-lock acquisition
/// *per frozen batch* on that key's shard instead of a contended lock
/// or CAS per operation; everything else is cache-local slot traffic
/// inside the shard's aggregator. Under an adaptive policy the
/// contention monitor re-shards the bucket space at runtime, exactly as
/// it re-shards the stack's thread space (DESIGN.md §8).
///
/// # Examples
///
/// ```
/// use sec_core::SecMap;
///
/// let map: SecMap<u64, u64> = SecMap::new(4); // up to 4 threads
/// let mut h = map.register();
/// assert_eq!(h.insert(7, 70), None);
/// assert_eq!(h.get(&7), Some(70));
/// assert_eq!(h.remove(&7), Some(70));
/// assert_eq!(h.get(&7), None);
/// ```
pub struct SecMap<K, V>
where
    K: Hash + Eq + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    engine: CombineEngine<MapOp<K, V>>,
}

impl<K, V> SecMap<K, V>
where
    K: Hash + Eq + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Creates a map with the paper's default configuration (two
    /// shards) for up to `max_threads` threads.
    pub fn new(max_threads: usize) -> Self {
        Self::with_config(SecConfig::new(2, max_threads))
    }

    /// Creates a map from an explicit [`SecConfig`] — shard count,
    /// elastic policy, freezer backoff, recycle and wait policies all
    /// apply exactly as they do to the stack, with one normalization: a
    /// [`AggregatorPolicy::Fixed`]`(K)` policy becomes the degenerate
    /// adaptive range `[K, K]`. Keyed routing lets a hot key send every
    /// thread into one shard, so map batches must always be sized
    /// `max_threads` — which is the adaptive capacity rule; the
    /// degenerate range can never actually resize.
    pub fn with_config(config: SecConfig) -> Self {
        Self::build(config, DEFAULT_BUCKETS, None)
    }

    fn build(config: SecConfig, buckets: usize, durable: Option<DurableCore>) -> Self {
        let config = match config.policy {
            AggregatorPolicy::Fixed(_) => {
                let k = config.aggregators();
                config.aggregator_policy(AggregatorPolicy::Adaptive {
                    min_k: k,
                    max_k: k,
                    window: AggregatorPolicy::DEFAULT_WINDOW,
                })
            }
            AggregatorPolicy::Adaptive { .. } => config,
        };
        Self {
            engine: CombineEngine::new(
                "SecMap",
                MapOp::with_buckets(buckets),
                config,
                AggLayout::Mapped {
                    with_slots: true,
                    bulk: 0,
                },
                durable,
            ),
        }
    }

    /// Sets the bucket-array size (builder style; apply before any
    /// thread registers, which the receiver guarantees). More buckets
    /// mean shorter association lists and finer re-sharding granularity;
    /// the default is 512.
    ///
    /// On a durable map the redo log keeps working, but the heap
    /// header still records the default count of 512 that
    /// [`SecMap::durable`] creates it with, and [`SecMap::recover`]
    /// rebuilds with that count. Results are unaffected — bucket
    /// placement never changes them — but the recovered map does not
    /// mirror this resize.
    pub fn bucket_count(mut self, n: usize) -> Self {
        *self.engine.op_mut() = MapOp::with_buckets(n);
        self
    }

    /// Registers the calling thread and returns its operation handle.
    pub fn register(&self) -> SecMapHandle<'_, K, V> {
        let (reclaim, state) = self.engine.register();
        SecMapHandle {
            map: self,
            state,
            reclaim,
        }
    }

    /// Number of live key-value pairs (takes every bucket lock in
    /// turn; a diagnostic, not a linearizable operation).
    pub fn len(&self) -> usize {
        self.engine
            .op()
            .buckets
            .iter()
            .map(|b| b.lock().unwrap().len())
            .sum()
    }

    /// `true` when the map holds no pairs (see [`SecMap::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The number of buckets the key space hashes onto.
    pub fn buckets(&self) -> usize {
        self.engine.op().buckets.len()
    }

    /// The configuration this map was built with (after the fixed-`K`
    /// normalization documented on [`SecMap::with_config`]).
    pub fn config(&self) -> &SecConfig {
        self.engine.config()
    }

    /// The batching/combining instrumentation. `eliminated` is always
    /// zero for a homogeneous family; `combined / batches` is the map's
    /// batching degree.
    pub fn stats(&self) -> &SecStats {
        self.engine.stats()
    }

    /// Reclamation statistics (diagnostic).
    pub fn reclaim_stats(&self) -> sec_reclaim::CollectorStats {
        self.engine.reclaim_stats()
    }

    /// Drives reclamation to completion (up to `rounds` epoch
    /// advances) and returns the resulting stats.
    pub fn quiesce_reclamation(&self, rounds: usize) -> sec_reclaim::CollectorStats {
        self.engine.quiesce_reclamation(rounds)
    }

    /// Number of currently active shards.
    pub fn active_aggregators(&self) -> usize {
        self.engine.active_aggregators()
    }

    /// Forces the active shard count (see
    /// [`SecStack::set_active_aggregators`](crate::SecStack::set_active_aggregators)).
    /// Operations already announced drain on their old shard; the
    /// bucket locks make the overlap safe.
    pub fn set_active_aggregators(&self, k: usize) -> usize {
        self.engine.set_active_aggregators(k)
    }

    /// A point-in-time poll of the map's protocol counters (see
    /// [`SecStack::trace_snapshot`](crate::SecStack::trace_snapshot)).
    pub fn trace_snapshot(&self) -> crate::TraceSnapshot {
        self.engine.trace_snapshot()
    }

    /// The sec-trace recorder, when configured under the `trace` cargo
    /// feature (see [`SecStack::tracer`](crate::SecStack::tracer)).
    pub fn tracer(&self) -> Option<&crate::TraceRecorder> {
        self.engine.tracer()
    }

    /// The shard currently serving `bucket`: the bucket range is
    /// block-partitioned over the active shards.
    fn shard_of(&self, bucket: usize) -> usize {
        let k = self.engine.active_aggregators().max(1);
        let buckets = self.engine.op().buckets.len();
        (bucket * k / buckets).min(k - 1)
    }
}

impl SecMap<u64, u64> {
    /// Creates a crash-durable map over `policy`'s persistent heap:
    /// every get/insert/remove writes an intent cell before announcing
    /// and is redo-logged (with its result) by its batch's combiner
    /// before the result is published (DESIGN.md §16). Durable
    /// structures carry `u64` keys and values; the creation-time
    /// bucket count is recorded in the heap header so
    /// [`SecMap::recover`] rebuilds identically.
    pub fn durable(max_threads: usize, policy: DurablePolicy) -> Result<Self, DurableError> {
        Self::durable_with_config(SecConfig::new(2, max_threads), policy)
    }

    /// [`SecMap::durable`] from an explicit [`SecConfig`], read as
    /// [`SecMap::with_config`] reads it.
    pub fn durable_with_config(
        config: SecConfig,
        policy: DurablePolicy,
    ) -> Result<Self, DurableError> {
        let max_threads = config.max_threads;
        let core = DurableCore::create(&policy, Family::Map, DEFAULT_BUCKETS as u64, max_threads)?;
        Ok(Self::build(config, DEFAULT_BUCKETS, Some(core)))
    }

    /// Recovers a durable map from `policy.mode`'s existing heap:
    /// rebuilds the creation-time bucket geometry, replays the
    /// committed redo log in global order (verifying each logged
    /// result against the replay) and reports, per handle, whether its
    /// last announced op executed and with what result.
    pub fn recover(policy: DurablePolicy) -> Result<(Self, RecoveryReport), DurableError> {
        let (core, report) = DurableCore::open(&policy, Family::Map)?;
        let config = SecConfig::new(2, core.max_handles());
        let buckets = (core.family_param() as usize).max(1);
        let map = Self::build(config, buckets, Some(core));
        map.engine.replay(&report.ops)?;
        Ok((map, report))
    }

    /// The persistent heap backing this map (durable maps only) —
    /// hold it across a drop to recover a Volatile-mode heap.
    pub fn durable_heap(&self) -> Option<std::sync::Arc<sec_reclaim::PersistentHeap>> {
        self.engine.durable_heap()
    }

    /// Redo-log counters (durable maps only).
    pub fn durable_stats(&self) -> Option<DurableStats> {
        self.engine.durable_stats()
    }
}

impl<K, V> fmt::Debug for SecMap<K, V>
where
    K: Hash + Eq + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SecMap")
            .field("len", &self.len())
            .field("buckets", &self.buckets())
            .field("config", self.config())
            .field("active_shards", &self.active_aggregators())
            .finish()
    }
}

impl<K, V> ConcurrentMap<K, V> for SecMap<K, V>
where
    K: Hash + Eq + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    type Handle<'a>
        = SecMapHandle<'a, K, V>
    where
        Self: 'a;

    fn register(&self) -> SecMapHandle<'_, K, V> {
        SecMap::register(self)
    }

    fn name(&self) -> &'static str {
        "SEC-M"
    }
}

/// A thread's handle to a [`SecMap`].
pub struct SecMapHandle<'a, K, V>
where
    K: Hash + Eq + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    map: &'a SecMap<K, V>,
    state: OpState,
    reclaim: ReclaimHandle<'a>,
}

impl<K, V> SecMapHandle<'_, K, V>
where
    K: Hash + Eq + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// This thread's id (dense, `0..max_threads`).
    pub fn tid(&self) -> usize {
        self.state.tid()
    }

    /// A point-in-time poll of the map's protocol counters (see
    /// [`SecMap::trace_snapshot`]).
    pub fn trace_snapshot(&self) -> crate::TraceSnapshot {
        self.map.trace_snapshot()
    }

    /// Announces `cmd` on its key's shard and rides the engine to the
    /// result. The shard is resolved against the active count at
    /// announce time; an operation excluded by a freeze retries on the
    /// same shard, which is safe even across a re-shard (a shard past
    /// the active prefix still freezes and combines its own batches —
    /// only *routing* of fresh operations moves).
    fn run_op(&mut self, bucket: usize, cmd: MapCmd<K, V>) -> Option<V> {
        let shard = self.map.shard_of(bucket);
        let node = MapNode::alloc_with(&self.reclaim, bucket, cmd);
        self.map
            .engine
            .run(Lane::At(shard), Role::Remove, node, &self.reclaim)
            .expect("map combiner always produces a result")
    }

    /// Returns the value mapped to `key` at the linearization point
    /// (its application under the bucket lock, in batch slot order), or
    /// `None` when absent.
    pub fn get(&mut self, key: &K) -> Option<V>
    where
        K: Clone,
    {
        if self.map.engine.durable().is_some() {
            return self.run_durable(opcode::MAP_GET, durable::word_of(key), 0);
        }
        let bucket = self.map.engine.op().bucket_of(key);
        self.run_op(bucket, MapCmd::Get(key.clone()))
    }

    /// Maps `key` to `value`, returning the previously mapped value (or
    /// `None` when the key was absent).
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if self.map.engine.durable().is_some() {
            let (k, v) = (durable::to_word(key), durable::to_word(value));
            return self.run_durable(opcode::MAP_INSERT, k, v);
        }
        let bucket = self.map.engine.op().bucket_of(&key);
        self.run_op(bucket, MapCmd::Insert(key, value))
    }

    /// Removes `key`'s mapping, returning the removed value (or `None`
    /// when the key was absent).
    pub fn remove(&mut self, key: &K) -> Option<V>
    where
        K: Clone,
    {
        if self.map.engine.durable().is_some() {
            return self.run_durable(opcode::MAP_REMOVE, durable::word_of(key), 0);
        }
        let bucket = self.map.engine.op().bucket_of(key);
        self.run_op(bucket, MapCmd::Remove(key.clone()))
    }

    /// A durable map op: one detectable logged op on the engine's
    /// durable path.
    fn run_durable(&mut self, opcode: u8, operand: u64, operand2: u64) -> Option<V> {
        self.map
            .engine
            .run_durable(&self.reclaim, opcode, operand, operand2)
            .value()
    }

    /// Bulk `get`: looks up every key of `keys`, writing `results[i]`
    /// = the mapping of `keys[i]` (old contents of `results` are
    /// dropped). The whole slice rides **one** announcement on the
    /// first key's shard, so the protocol cost amortizes over
    /// `keys.len()` lookups; the lookups linearize consecutively at
    /// their bucket-lock applications, in slice order.
    ///
    /// Slices longer than the engine's per-announcement weight bound
    /// are chunked (each chunk is then individually atomic). Keys may
    /// hash anywhere — the combiner locks each key's own bucket, which
    /// is exactly what makes cross-shard application safe.
    ///
    /// # Panics
    ///
    /// If `keys` and `results` differ in length.
    pub fn get_many(&mut self, keys: &[K], results: &mut [Option<V>]) {
        assert_eq!(
            keys.len(),
            results.len(),
            "get_many: keys and results must pair up"
        );
        if keys.is_empty() {
            return;
        }
        if self.map.engine.durable().is_some() {
            // Durable maps make every lookup an individually
            // detectable logged op.
            for (k, r) in keys.iter().zip(results.iter_mut()) {
                *r = self.run_durable(opcode::MAP_GET, durable::word_of(k), 0);
            }
            return;
        }
        let chunk_size = crate::combine::MAX_BULK_OPS;
        for (kc, rc) in keys.chunks(chunk_size).zip(results.chunks_mut(chunk_size)) {
            let bucket = self.map.engine.op().bucket_of(&kc[0]);
            let cmd = MapCmd::GetMany {
                keys: kc.as_ptr(),
                results: rc.as_mut_ptr(),
                len: kc.len(),
            };
            self.run_bulk(bucket, cmd, kc.len());
        }
    }

    /// Bulk `insert`: applies every `(key, value)` entry as consecutive
    /// inserts, writing `prevs[i]` = the previous mapping of entry `i`
    /// (old contents of `prevs` are dropped). The entries are **moved**
    /// out of the vector — on return it is empty with its capacity
    /// retained, ready for allocation-free reuse. One announcement per
    /// weight-bound chunk, same amortization and linearization as
    /// [`SecMapHandle::get_many`].
    ///
    /// # Panics
    ///
    /// If `entries` and `prevs` differ in length.
    pub fn insert_many(&mut self, entries: &mut Vec<(K, V)>, prevs: &mut [Option<V>]) {
        assert_eq!(
            entries.len(),
            prevs.len(),
            "insert_many: entries and prevs must pair up"
        );
        if entries.is_empty() {
            return;
        }
        if self.map.engine.durable().is_some() {
            // Durable maps make every insert an individually
            // detectable logged op.
            for (i, (k, v)) in entries.drain(..).enumerate() {
                prevs[i] =
                    self.run_durable(opcode::MAP_INSERT, durable::to_word(k), durable::to_word(v));
            }
            return;
        }
        let chunk_size = crate::combine::MAX_BULK_OPS;
        for (ec, pc) in entries.chunks(chunk_size).zip(prevs.chunks_mut(chunk_size)) {
            let bucket = self.map.engine.op().bucket_of(&ec[0].0);
            let cmd = MapCmd::InsertMany {
                entries: ec.as_ptr(),
                prevs: pc.as_mut_ptr(),
                len: ec.len(),
            };
            self.run_bulk(bucket, cmd, ec.len());
        }
        // Every entry was moved into the map by a combiner; forget them
        // without dropping (capacity stays for reuse).
        // Safety: 0 ≤ current length, and elements `..len` are
        // moved-from (reading them again would be unsound — set_len
        // prevents exactly that).
        unsafe { entries.set_len(0) };
    }

    /// Announces one bulk command (weight = `ops`) on `bucket`'s shard
    /// and blocks until it is applied. The result channel is the
    /// request's own slices; the node's in-band result stays `None`.
    fn run_bulk(&mut self, bucket: usize, cmd: MapCmd<K, V>, ops: usize) {
        let shard = self.map.shard_of(bucket);
        let node = MapNode::alloc_with(&self.reclaim, bucket, cmd);
        self.map
            .engine
            .run_weighted(
                Lane::At(shard),
                Role::Remove,
                node,
                ops as u32,
                &self.reclaim,
            )
            .expect("map combiner always produces a result");
    }
}

impl<K, V> MapHandle<K, V> for SecMapHandle<'_, K, V>
where
    K: Hash + Eq + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn get(&mut self, key: &K) -> Option<V> {
        SecMapHandle::get(self, key)
    }

    fn insert(&mut self, key: K, value: V) -> Option<V> {
        SecMapHandle::insert(self, key, value)
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        SecMapHandle::remove(self, key)
    }
}

impl<K, V> fmt::Debug for SecMapHandle<'_, K, V>
where
    K: Hash + Eq + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SecMapHandle")
            .field("tid", &self.tid())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RecyclePolicy, WaitPolicy};
    use std::thread;

    #[test]
    fn sequential_contract_matches_hash_map() {
        let m: SecMap<u64, String> = SecMap::new(1);
        let mut h = m.register();
        assert_eq!(h.get(&1), None);
        assert_eq!(h.insert(1, "a".into()), None);
        assert_eq!(h.insert(1, "b".into()), Some("a".into()));
        assert_eq!(h.get(&1), Some("b".into()));
        assert_eq!(h.insert(2, "c".into()), None);
        assert_eq!(m.len(), 2);
        assert_eq!(h.remove(&1), Some("b".into()));
        assert_eq!(h.remove(&1), None);
        assert_eq!(h.get(&1), None);
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
        assert_eq!(h.remove(&2), Some("c".into()));
        assert!(m.is_empty());
    }

    #[test]
    fn disjoint_keys_account_exactly() {
        const THREADS: usize = 4;
        const PER: usize = 400;
        let m: SecMap<u64, u64> = SecMap::new(THREADS);
        thread::scope(|scope| {
            for t in 0..THREADS {
                let m = &m;
                scope.spawn(move || {
                    let mut h = m.register();
                    for i in 0..PER {
                        let k = (t * PER + i) as u64;
                        assert_eq!(h.insert(k, k * 10), None, "key {k} inserted twice");
                    }
                    for i in 0..PER {
                        let k = (t * PER + i) as u64;
                        assert_eq!(h.get(&k), Some(k * 10));
                        assert_eq!(h.remove(&k), Some(k * 10), "key {k} lost");
                    }
                });
            }
        });
        assert!(m.is_empty());
        let r = m.stats().report();
        assert_eq!(r.ops, (THREADS * PER * 3) as u64);
        assert_eq!(r.eliminated, 0, "homogeneous family never eliminates");
        assert_eq!(r.combined, r.ops);
    }

    #[test]
    fn hot_key_sees_exactly_one_first_insert() {
        const THREADS: usize = 6;
        let m: SecMap<u64, usize> = SecMap::new(THREADS);
        let prevs: Vec<Option<usize>> = thread::scope(|scope| {
            (0..THREADS)
                .map(|t| {
                    let m = &m;
                    scope.spawn(move || m.register().insert(42, t))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|j| j.join().unwrap())
                .collect()
        });
        // Exactly one insert observed the absent key; every other saw
        // some thread's value (the previous mapping at its
        // linearization point).
        assert_eq!(prevs.iter().filter(|p| p.is_none()).count(), 1);
        assert_eq!(m.len(), 1);
        let last = m.register().get(&42).expect("key present");
        assert!(last < THREADS);
    }

    #[test]
    fn hot_key_on_a_multi_shard_fixed_map_never_overflows_a_batch() {
        // Keyed routing can send every thread into one shard; the
        // fixed-K normalization must size batches for that.
        const THREADS: usize = 8;
        let m: SecMap<u64, u64> = SecMap::with_config(SecConfig::new(4, THREADS));
        assert_eq!(m.active_aggregators(), 4);
        thread::scope(|scope| {
            for _ in 0..THREADS {
                let m = &m;
                scope.spawn(move || {
                    let mut h = m.register();
                    for i in 0..1_000 {
                        h.insert(7, i);
                        let _ = h.get(&7);
                    }
                });
            }
        });
        assert_eq!(m.len(), 1);
        // The degenerate range never resizes.
        let r = m.stats().report();
        assert_eq!(r.resizes(), 0);
    }

    #[test]
    fn elastic_policy_resizes_under_load() {
        let m: SecMap<u64, u64> = SecMap::with_config(
            SecConfig::adaptive_windowed(1, 4, 8, 8)
                .wait_policy(WaitPolicy::SpinThenPark { spin_rounds: 64 }),
        );
        thread::scope(|scope| {
            for t in 0..8u64 {
                let m = &m;
                scope.spawn(move || {
                    let mut h = m.register();
                    for i in 0..2_000u64 {
                        h.insert(i % 64, t);
                        let _ = h.get(&(i % 64));
                    }
                });
            }
        });
        assert_eq!(m.len(), 64);
        // Forced re-sharding keeps working after the run, too.
        assert_eq!(m.set_active_aggregators(4), 4);
        let mut h = m.register();
        assert_eq!(h.insert(1_000_000, 1), None);
        assert_eq!(h.remove(&1_000_000), Some(1));
    }

    #[test]
    fn recycling_reaches_steady_state() {
        let m: SecMap<u64, u64> = SecMap::with_config(
            SecConfig::new(1, 2).recycle(RecyclePolicy::PerThread { cache_cap: 64 }),
        );
        thread::scope(|scope| {
            for t in 0..2u64 {
                let m = &m;
                scope.spawn(move || {
                    let mut h = m.register();
                    for i in 0..5_000u64 {
                        h.insert(i % 32, t);
                        let _ = h.remove(&(i % 32));
                    }
                });
            }
        });
        let stats = m.quiesce_reclamation(64);
        assert_eq!(
            stats.retired,
            stats.freed + stats.cached,
            "quiesced map leaks nothing: {stats:?}"
        );
    }

    #[test]
    fn bucket_count_builder_applies() {
        let m: SecMap<u64, u64> = SecMap::new(1).bucket_count(8);
        assert_eq!(m.buckets(), 8);
        let mut h = m.register();
        for k in 0..100u64 {
            assert_eq!(h.insert(k, k), None);
        }
        assert_eq!(m.len(), 100);
        for k in 0..100u64 {
            assert_eq!(h.get(&k), Some(k));
        }
    }

    #[test]
    fn values_drop_with_the_map() {
        use std::sync::atomic::{AtomicUsize, Ordering as AOrd};
        use std::sync::Arc;

        #[derive(Clone)]
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, AOrd::Relaxed);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let m: SecMap<u64, Counted> = SecMap::new(1);
            let mut h = m.register();
            for k in 0..10 {
                assert!(h.insert(k, Counted(Arc::clone(&drops))).is_none());
            }
            // Two values displaced by overwrites drop before teardown.
            for k in 0..2 {
                let prev = h.insert(k, Counted(Arc::clone(&drops)));
                drop(prev);
            }
        }
        // 10 live at teardown (8 originals + 2 overwrites), 2
        // displaced along the way = all 12 created.
        assert_eq!(drops.load(AOrd::Relaxed), 12);
    }

    #[test]
    fn bulk_insert_and_get_match_singles() {
        let m: SecMap<u64, u64> = SecMap::new(1);
        let mut h = m.register();
        let mut entries: Vec<(u64, u64)> = (0..200).map(|k| (k, k * 10)).collect();
        let mut prevs = vec![None; 200];
        h.insert_many(&mut entries, &mut prevs);
        assert!(entries.is_empty(), "entries are drained");
        assert!(entries.capacity() >= 200, "capacity retained for reuse");
        assert!(prevs.iter().all(Option::is_none), "all keys were fresh");
        assert_eq!(m.len(), 200);

        let keys: Vec<u64> = (0..250).collect();
        let mut results = vec![None; 250];
        h.get_many(&keys, &mut results);
        for (k, r) in keys.iter().zip(&results) {
            assert_eq!(*r, if *k < 200 { Some(k * 10) } else { None });
        }

        // Overwrites report the displaced values, in slice order.
        let mut entries: Vec<(u64, u64)> = (0..5).map(|k| (k, k + 1000)).collect();
        let mut prevs = vec![None; 5];
        h.insert_many(&mut entries, &mut prevs);
        for (k, p) in prevs.iter().enumerate() {
            assert_eq!(*p, Some(k as u64 * 10));
        }
        assert_eq!(h.get(&3), Some(1003));
    }

    #[test]
    fn bulk_ops_are_counted_in_ops_not_announcements() {
        const CALLS: u64 = 40;
        const LEN: usize = 16;
        let m: SecMap<u64, u64> = SecMap::new(1);
        let mut h = m.register();
        for c in 0..CALLS {
            let mut entries: Vec<(u64, u64)> =
                (0..LEN as u64).map(|i| (c * LEN as u64 + i, i)).collect();
            let mut prevs = vec![None; LEN];
            h.insert_many(&mut entries, &mut prevs);
        }
        let r = m.stats().report();
        assert_eq!(r.ops, CALLS * LEN as u64, "the freezer counts ops");
        assert_eq!(r.batches, CALLS, "one announcement (batch) per call");
        assert_eq!(m.len(), CALLS as usize * LEN);
    }

    #[test]
    fn concurrent_bulk_and_single_ops_agree() {
        const THREADS: usize = 4;
        const PER: usize = 200;
        let m: SecMap<u64, u64> = SecMap::new(THREADS);
        thread::scope(|scope| {
            for t in 0..THREADS as u64 {
                let m = &m;
                scope.spawn(move || {
                    let mut h = m.register();
                    // Disjoint key ranges per thread; alternate bulk
                    // and single inserts.
                    let base = t * (PER as u64);
                    let mut entries: Vec<(u64, u64)> =
                        (0..PER as u64 / 2).map(|i| (base + i, base + i)).collect();
                    let mut prevs = vec![None; entries.len()];
                    h.insert_many(&mut entries, &mut prevs);
                    for i in PER as u64 / 2..PER as u64 {
                        assert_eq!(h.insert(base + i, base + i), None);
                    }
                    let keys: Vec<u64> = (0..PER as u64).map(|i| base + i).collect();
                    let mut results = vec![None; keys.len()];
                    h.get_many(&keys, &mut results);
                    for (k, r) in keys.iter().zip(&results) {
                        assert_eq!(*r, Some(*k), "thread {t}");
                    }
                });
            }
        });
        assert_eq!(m.len(), THREADS * PER);
    }

    #[test]
    fn durable_map_recovers_mappings_and_results() {
        use crate::DurablePolicy;
        let m = SecMap::<u64, u64>::durable(1, DurablePolicy::volatile()).unwrap();
        {
            let mut h = m.register();
            assert_eq!(h.insert(7, 70), None);
            assert_eq!(h.insert(7, 71), Some(70));
            assert_eq!(h.insert(8, 80), None);
            assert_eq!(h.remove(&8), Some(80));
            assert_eq!(h.get(&7), Some(71));
            assert_eq!(h.get(&9), None);
        }
        let heap = m.durable_heap().unwrap();
        drop(m);
        let (r, report) = SecMap::<u64, u64>::recover(DurablePolicy::heap(heap)).unwrap();
        assert_eq!(report.replayed_ops(), 6);
        assert_eq!(r.len(), 1);
        let mut h = r.register();
        assert_eq!(h.get(&7), Some(71));
        assert_eq!(h.get(&8), None);
    }

    #[test]
    fn durable_map_recovers_under_contention() {
        use crate::{DurablePolicy, PendingOutcome};
        const THREADS: usize = 4;
        const PER: usize = 100;
        let m = SecMap::<u64, u64>::durable(THREADS, DurablePolicy::volatile().shards(2)).unwrap();
        thread::scope(|scope| {
            for t in 0..THREADS as u64 {
                let m = &m;
                scope.spawn(move || {
                    let mut h = m.register();
                    let base = t * PER as u64;
                    for i in 0..PER as u64 {
                        match i % 4 {
                            0 | 1 => {
                                h.insert(base + i, i);
                            }
                            2 => {
                                h.get(&(base + i - 1));
                            }
                            _ => {
                                h.remove(&(base + i - 3));
                            }
                        }
                    }
                });
            }
        });
        // Snapshot the live mapping through a fresh handle.
        let mut live: Vec<(u64, u64)> = Vec::new();
        {
            let mut h = m.register();
            for k in 0..(THREADS * PER) as u64 {
                if let Some(v) = h.get(&k) {
                    live.push((k, v));
                }
            }
        }
        let heap = m.durable_heap().unwrap();
        drop(m);
        let (r, report) = SecMap::<u64, u64>::recover(DurablePolicy::heap(heap)).unwrap();
        for h in &report.handles[..THREADS] {
            assert!(matches!(
                h.pending,
                PendingOutcome::Executed { .. } | PendingOutcome::None
            ));
        }
        let mut h = r.register();
        for (k, v) in live {
            assert_eq!(h.get(&k), Some(v), "key {k}");
        }
    }

    #[test]
    fn durable_map_replay_refuses_a_diverged_or_foreign_log() {
        use crate::combine::durable::testing::{assert_corrupt, recover_forged, Entry};
        use crate::combine::durable::OpResult::*;
        let recover = |ops: &[Entry]| {
            recover_forged(
                Family::Map,
                DEFAULT_BUCKETS as u64,
                ops,
                SecMap::<u64, u64>::recover,
            )
        };
        // Control: a faithful log replays.
        let m = recover(&[
            (opcode::MAP_INSERT, 1, 10, Empty),
            (opcode::MAP_INSERT, 1, 11, Value(10)),
        ])
        .unwrap();
        assert_eq!(m.register().get(&1), Some(11));
        // A get logged as finding 7 in an empty map.
        assert_corrupt(
            recover(&[(opcode::MAP_GET, 1, 0, Value(7))]),
            "replay diverged",
        );
        // A remove logged as missing a key the replay holds.
        assert_corrupt(
            recover(&[
                (opcode::MAP_INSERT, 1, 10, Empty),
                (opcode::MAP_REMOVE, 1, 0, Empty),
            ]),
            "replay diverged",
        );
        // A counter op in a map log.
        assert_corrupt(recover(&[(opcode::ADD, 1, 0, Value(0))]), "foreign opcode");
    }

    #[test]
    fn durable_map_bulk_ops_route_through_the_log() {
        use crate::DurablePolicy;
        let m = SecMap::<u64, u64>::durable(2, DurablePolicy::volatile()).unwrap();
        {
            let mut h = m.register();
            let mut entries: Vec<(u64, u64)> = vec![(1, 10), (2, 20), (3, 30)];
            let mut prevs = vec![None; 3];
            h.insert_many(&mut entries, &mut prevs);
            assert!(entries.is_empty());
            assert_eq!(prevs, vec![None, None, None]);
            let keys = [1u64, 2, 4];
            let mut results = vec![None; 3];
            h.get_many(&keys, &mut results);
            assert_eq!(results, vec![Some(10), Some(20), None]);
        }
        assert_eq!(m.durable_stats().unwrap().entries, 6);
        let heap = m.durable_heap().unwrap();
        drop(m);
        let (r, _) = SecMap::<u64, u64>::recover(DurablePolicy::heap(heap)).unwrap();
        let mut h = r.register();
        assert_eq!(h.get(&3), Some(30));
    }
}
