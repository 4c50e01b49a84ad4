//! The map's `CombineOp` instantiation: the individually locked
//! bucket array, the slot-order combiner and the durable replay rule.
//! Private, so the op type stays unnameable behind the public
//! [`SecMap`](super::SecMap) alias.

use crate::combine::durable::{self, opcode, DurableOp, Export, Family, OpResult};
use crate::combine::{AggLayout, CombineBatch, CombineOp, LoneRule, Role, Sec};
use crate::config::{AggregatorPolicy, SecConfig};
use core::hash::{Hash, Hasher};
use core::mem::ManuallyDrop;
use core::sync::atomic::Ordering;
use sec_reclaim::{Guard, Handle as ReclaimHandle};
use sec_sync::CachePadded;
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

/// One bucket: its lock and its pairs in one padded block, so a lone
/// op on a short bucket touches no other line (DESIGN.md §13).
type Bucket<K, V> = CachePadded<Mutex<Pairs<K, V>>>;

/// Pairs a bucket keeps inline, beside its lock. With `u64` keys and
/// values, four fill `Mutex<Pairs>` to exactly one 128-byte block
/// (three leave 24 bytes idle and measured slower).
const INLINE: usize = 4;

/// A bucket's live `(key, value)` pairs: the first [`INLINE`] in
/// place, the rest spilled to a `Vec`. Removing an inline pair leaves
/// a hole, which the bucket's next new key fills before it spills.
pub(super) struct Pairs<K, V> {
    inline: [Option<(K, V)>; INLINE],
    spill: Vec<(K, V)>,
}

impl<K: Eq, V> Pairs<K, V> {
    const fn new() -> Self {
        Pairs {
            inline: [const { None }; INLINE],
            spill: Vec::new(),
        }
    }

    /// The value mapped to `key`.
    fn find(&self, key: &K) -> Option<&V> {
        self.inline
            .iter()
            .flatten()
            .chain(&self.spill)
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The value mapped to `key`, writable.
    fn find_mut(&mut self, key: &K) -> Option<&mut V> {
        self.inline
            .iter_mut()
            .flatten()
            .chain(&mut self.spill)
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Maps `key` to `value`, returning the displaced value. A new key
    /// takes the first inline hole, and spills only when there is none.
    fn insert(&mut self, key: K, value: V) -> Option<V> {
        if let Some(v) = self.find_mut(&key) {
            return Some(core::mem::replace(v, value));
        }
        match self.inline.iter_mut().find(|slot| slot.is_none()) {
            Some(hole) => *hole = Some((key, value)),
            None => self.spill.push((key, value)),
        }
        None
    }

    /// Unmaps `key`, returning its value.
    fn remove(&mut self, key: &K) -> Option<V> {
        if let Some(slot) = self
            .inline
            .iter_mut()
            .find(|slot| matches!(slot, Some((k, _)) if k == key))
        {
            return slot.take().map(|(_, v)| v);
        }
        let i = self.spill.iter().position(|(k, _)| k == key)?;
        Some(self.spill.swap_remove(i).1)
    }

    /// Number of live pairs.
    pub(super) fn len(&self) -> usize {
        self.inline.iter().flatten().count() + self.spill.len()
    }
}

impl<K: Hash + Eq, V> MapOp<K, V> {
    pub(super) fn with_buckets(n: usize) -> Self {
        Self {
            buckets: (0..n.max(1))
                .map(|_| CachePadded::new(Mutex::new(Pairs::new())))
                .collect(),
        }
    }

    /// The bucket `key` hashes to: the high bits of its [`KeyHasher`]
    /// hash scaled onto the bucket count, so any count works. The hash
    /// is deterministic, so every handle of every instance agrees.
    pub(super) fn bucket_of(&self, key: &K) -> usize {
        let mut h = KeyHasher(0);
        key.hash(&mut h);
        ((h.finish() as u128 * self.buckets.len() as u128) >> 64) as usize
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

/// The map's key hash: FxHash's rotate-xor-multiply per word, then
/// one xorshift-multiply so that the high bits, which pick the bucket,
/// depend on every input bit. Unkeyed and deterministic, so it resists
/// no HashDoS (DESIGN.md §13).
struct KeyHasher(u64);

impl KeyHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for KeyHasher {
    // Integers other than `u64` arrive here as their bytes, so each
    // becomes one zero-padded word.
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().unwrap()));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn finish(&self) -> u64 {
        (self.0 ^ (self.0 >> 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }
}

/// Applies one single-key command to its bucket's pairs, which the
/// caller has locked: the one body that the combiner, a lone op and a
/// durable replay run.
fn apply_to<K: Eq, V: Clone>(pairs: &mut Pairs<K, V>, cmd: MapCmd<K, V>) -> Option<V> {
    match cmd {
        MapCmd::Get(key) => pairs.find(&key).cloned(),
        MapCmd::Insert(key, value) => pairs.insert(key, value),
        MapCmd::Remove(key) => pairs.remove(&key),
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
                        let r = self.buckets[self.bucket_of(key)]
                            .lock()
                            .unwrap()
                            .find(key)
                            .cloned();
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

    /// One insert per pair, bucket by bucket, each finding its key
    /// absent.
    fn export_logged(&self, out: &mut Export<'_>) {
        for bucket in self.buckets.iter() {
            let pairs = bucket.lock().unwrap();
            for (k, v) in pairs.inline.iter().flatten().chain(&pairs.spill) {
                let (k, v) = (durable::word_of(k), durable::word_of(v));
                out.push(opcode::MAP_INSERT, k, v, OpResult::Empty);
            }
        }
    }
}

impl DurableOp for MapOp<u64, u64> {
    const FAMILY: Family = Family::Map;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::rc::Rc;

    #[test]
    fn each_bucket_is_one_padded_block() {
        let block = core::mem::align_of::<Bucket<u64, u64>>();
        assert!(
            block >= 64,
            "a bucket is not padded: {block}-byte alignment"
        );
        assert!(
            core::mem::size_of::<Bucket<u64, u64>>() <= 128,
            "a bucket outgrew one 128-byte block: {} bytes",
            core::mem::size_of::<Bucket<u64, u64>>()
        );
        let op: MapOp<u64, u64> = MapOp::with_buckets(8);
        for b in op.buckets.iter() {
            assert_eq!(
                b as *const _ as usize % block,
                0,
                "a bucket starts mid-block"
            );
        }
    }

    #[test]
    fn the_hash_agrees_across_instances_and_spreads_keys() {
        const BUCKETS: usize = 512;
        const KEYS: u64 = 4096;
        let (a, b) = (
            MapOp::<u64, u64>::with_buckets(BUCKETS),
            MapOp::<u64, u64>::with_buckets(BUCKETS),
        );
        let spreads: [fn(u64) -> u64; 2] = [|k| k, |k| k << 32];
        for spread in spreads {
            let mut load = [0usize; BUCKETS];
            for k in (0..KEYS).map(spread) {
                let i = a.bucket_of(&k);
                assert_eq!(i, b.bucket_of(&k), "instances disagree on key {k}");
                load[i] += 1;
            }
            let max = *load.iter().max().unwrap();
            let mean = KEYS as usize / BUCKETS;
            assert!(max <= 3 * mean, "a bucket holds {max} keys, mean {mean}");
        }
    }

    /// A value that logs its id when an original (not a clone handed
    /// out by `get`) drops.
    #[derive(Debug)]
    struct Tracked {
        id: u64,
        original: bool,
        drops: Rc<RefCell<Vec<u64>>>,
    }

    impl Clone for Tracked {
        fn clone(&self) -> Self {
            Tracked {
                id: self.id,
                original: false,
                drops: Rc::clone(&self.drops),
            }
        }
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            if self.original {
                self.drops.borrow_mut().push(self.id);
            }
        }
    }

    #[test]
    fn a_spilling_bucket_matches_a_model_and_drops_every_value_once() {
        let op: MapOp<u64, Tracked> = MapOp::with_buckets(512);
        let bucket = op.bucket_of(&0);
        let keys: Vec<u64> = (0..)
            .filter(|k| op.bucket_of(k) == bucket)
            .take(2 * INLINE + 2)
            .collect();
        let drops = Rc::new(RefCell::new(Vec::new()));
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut next_id = 0u64;
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..4000 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let key = keys[(rng >> 8) as usize % keys.len()];
            match rng % 4 {
                0 | 1 => {
                    next_id += 1;
                    let v = Tracked {
                        id: next_id,
                        original: true,
                        drops: Rc::clone(&drops),
                    };
                    let prev = op.apply(bucket, MapCmd::Insert(key, v));
                    assert_eq!(prev.as_ref().map(|t| t.id), model.insert(key, next_id));
                }
                2 => {
                    let got = op.apply(bucket, MapCmd::Get(key));
                    assert_eq!(got.as_ref().map(|t| t.id), model.get(&key).copied());
                    assert!(got.is_none_or(|t| !t.original), "get moved a value out");
                }
                _ => {
                    let gone = op.apply(bucket, MapCmd::Remove(key));
                    assert_eq!(gone.as_ref().map(|t| t.id), model.remove(&key));
                }
            }
            // Every displaced or removed value was dropped on the
            // spot; every mapped one is still alive.
            let dropped = drops.borrow();
            assert_eq!(dropped.len() as u64, next_id - model.len() as u64);
            assert!(model.values().all(|id| !dropped.contains(id)));
            drop(dropped);
            assert_eq!(op.buckets[bucket].lock().unwrap().len(), model.len());
        }
        drop(op);
        let mut dropped = drops.borrow().clone();
        dropped.sort_unstable();
        assert_eq!(dropped, (1..=next_id).collect::<Vec<_>>());
    }

    #[test]
    fn a_new_key_fills_an_inline_hole_before_it_spills() {
        let mut pairs: Pairs<u64, u64> = Pairs::new();
        for k in 0..2 * INLINE as u64 {
            assert_eq!(pairs.insert(k, k), None);
        }
        assert_eq!(pairs.spill.len(), INLINE);
        assert_eq!(pairs.remove(&1), Some(1));
        assert_eq!(pairs.insert(100, 100), None);
        assert_eq!(pairs.spill.len(), INLINE, "the new key spilled past a hole");
        assert_eq!(pairs.find(&100), Some(&100));
        assert_eq!(pairs.len(), 2 * INLINE);
    }
}
