//! The map's `CombineOp` instantiation: the individually locked
//! bucket array, the slot-order combiner and the durable replay rule.
//! Private, so the op type stays unnameable behind the public
//! [`SecMap`](super::SecMap) alias.

use crate::combine::durable::{self, opcode, DurableOp, Family, OpResult};
use crate::combine::{AggLayout, CombineBatch, CombineOp, LoneRule, Role, Sec};
use crate::config::{AggregatorPolicy, SecConfig};
use core::hash::{Hash, Hasher};
use core::mem::ManuallyDrop;
use core::sync::atomic::Ordering;
use sec_reclaim::{Guard, Handle as ReclaimHandle};
use std::collections::hash_map::DefaultHasher;
use std::sync::{Mutex, TryLockError};

/// Default bucket-array size (see [`SecMap::bucket_count`]).
pub(super) const DEFAULT_BUCKETS: usize = 512;

/// One announced map operation, owned by its node until the combiner
/// consumes it.
///
/// The bulk variants carry raw pointers into the announcing thread's
/// frame instead of owned payloads: the announcer blocks until
/// `applied`, so the slices are live for the combiner's whole walk, and
/// one announcement (one sequence number, one slot) then covers the
/// entire slice of operations.
pub(super) enum MapCmd<K, V> {
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
/// same slot. Lives on the announcer's stack frame (the announcer blocks
/// until `applied`, so the frame outlives every combiner access), so no
/// map op allocates a node. `cmd` and `result` are `ManuallyDrop`
/// because ownership moves through raw pointers: whoever applies the
/// op consumes `cmd`, the announcer consumes `result`.
pub struct MapNode<K, V> {
    /// The target bucket, computed once by the announcing thread so the
    /// combiner never re-hashes.
    bucket: usize,
    cmd: ManuallyDrop<MapCmd<K, V>>,
    result: ManuallyDrop<Option<V>>,
}

impl<K, V> MapNode<K, V> {
    /// A node carrying `cmd` for `bucket`, with no result yet.
    pub(super) fn new(bucket: usize, cmd: MapCmd<K, V>) -> Self {
        MapNode {
            bucket,
            cmd: ManuallyDrop::new(cmd),
            result: ManuallyDrop::new(None),
        }
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
pub struct MapOp<K, V> {
    /// `buckets[i]` holds the live `(key, value)` pairs whose key
    /// hashes to `i`. Individually locked — see the module docs for why
    /// a shard cannot simply own its buckets unlocked.
    pub(super) buckets: Box<[Bucket<K, V>]>,
}

/// One association-list bucket: the live `(key, value)` pairs under
/// their per-bucket lock.
type Bucket<K, V> = Mutex<Vec<(K, V)>>;

impl<K: Hash + Eq, V> MapOp<K, V> {
    pub(super) fn with_buckets(n: usize) -> Self {
        Self {
            buckets: (0..n.max(1)).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// The bucket `key` hashes to. [`DefaultHasher::new`] is
    /// deterministic, so every handle of every instance agrees.
    pub(super) fn bucket_of(&self, key: &K) -> usize {
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
        apply_to(&mut self.buckets[bucket].lock().unwrap(), cmd)
    }
}

/// Applies one single-key command to its bucket's pairs, which the
/// caller has locked: the one body that both the combiner and a lone
/// op run.
fn apply_to<K: Eq, V: Clone>(pairs: &mut Vec<(K, V)>, cmd: MapCmd<K, V>) -> Option<V> {
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
        // `apply_to` is reached (each constituent lookup/insert takes
        // its own bucket's lock).
        MapCmd::GetMany { .. } | MapCmd::InsertMany { .. } => {
            unreachable!("bulk commands never reach apply_to")
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

    const NAME: &'static str = "SecMap";
    // Shards are the mapped prefix, addressed by key through
    // `Lane::At` under the active shard count.
    const LAYOUT: AggLayout = AggLayout::Mapped {
        with_slots: true,
        bulk: 0,
    };
    const PARAM: u64 = DEFAULT_BUCKETS as u64;
    // Every single op is offered; its bucket lock decides.
    const LONE: LoneRule = LoneRule::OwnEvidence;

    fn create(buckets: u64) -> Self {
        MapOp::with_buckets(buckets as usize)
    }

    /// A fixed-`K` policy becomes the degenerate adaptive range
    /// `[K, K]`: a hot key may route every thread into one shard, and
    /// the adaptive capacity rule sizes every batch for that.
    fn normalize(config: SecConfig) -> SecConfig {
        match config.policy {
            AggregatorPolicy::Fixed(_) => {
                let k = config.aggregators();
                config.aggregator_policy(AggregatorPolicy::Adaptive {
                    min_k: k,
                    max_k: k,
                    window: AggregatorPolicy::DEFAULT_WINDOW,
                })
            }
            AggregatorPolicy::Adaptive { .. } => config,
        }
    }

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
        eng: &Sec<Self>,
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
        _eng: &Sec<Self>,
        batch: &CombineBatch<MapNode<K, V>>,
        offset: usize,
        _agg_idx: usize,
        _guard: &Guard<'_, '_>,
    ) -> Option<Option<V>> {
        let n = batch.slots[offset].load(Ordering::Acquire);
        debug_assert!(
            !n.is_null(),
            "command published before announcing completed"
        );
        // Safety: unique consumer of our own node's result; the
        // command was consumed by the combiner, so the node, which
        // lives on our frame, owns nothing afterwards.
        Some(unsafe { ManuallyDrop::take(&mut (*n).result) })
    }

    /// A single `get`, `insert` or `remove` whose bucket lock is free
    /// (DESIGN.md §12 "Lone operations"): it applies under the lock at
    /// once, as a combiner would, the lock being the evidence that
    /// nobody needs to join it. A held lock, and any bulk command,
    /// hands the node back for the batch path. A poisoned lock panics,
    /// as the combiner's does.
    fn try_alone(
        &self,
        _eng: &Sec<Self>,
        _role: Role,
        node: *mut MapNode<K, V>,
        _reclaim: &ReclaimHandle<'_>,
    ) -> Result<Option<Option<V>>, *mut MapNode<K, V>> {
        // Safety: the caller's own node, never announced.
        let n = unsafe { &mut *node };
        if matches!(*n.cmd, MapCmd::GetMany { .. } | MapCmd::InsertMany { .. }) {
            return Err(node);
        }
        match self.buckets[n.bucket].try_lock() {
            // Safety: the command is consumed exactly once, here.
            Ok(mut pairs) => Ok(Some(apply_to(&mut pairs, unsafe {
                ManuallyDrop::take(&mut n.cmd)
            }))),
            Err(TryLockError::WouldBlock) => Err(node),
            Err(TryLockError::Poisoned(e)) => panic!("{e}"),
        }
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

impl DurableOp for MapOp<u64, u64> {
    const FAMILY: Family = Family::Map;
}
