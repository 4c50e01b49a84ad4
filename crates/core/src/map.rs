//! A batched-combining hash map — the SEC engine applied to the keyed
//! workloads that million-user services actually hammer (YCSB-style
//! get/insert/remove over a skewed key space).
//!
//! Layout (DESIGN.md §13): a fixed array of **buckets** is
//! block-partitioned into **shards**, one engine aggregator per shard.
//! Each bucket is one padded block holding its lock and its first four
//! pairs inline; later keys spill to a `Vec`, and a removed inline pair
//! leaves a hole that the bucket's next new key fills, so a lone op on
//! a short bucket touches that one block and nothing else. Keys are
//! hashed by a private FxHash-style hasher (deterministic and unkeyed,
//! so it resists no HashDoS) whose high bits pick the bucket. An
//! operation hashes its key to a bucket and first tries that bucket's
//! lock. If the lock is free, the op applies under it at once and
//! returns — the lone route (DESIGN.md §12 "Lone operations"). Only an
//! op that finds the lock taken routes to the bucket's shard under the
//! *current* active shard count and announces into that shard's batch
//! exactly like a stack pop does (`Lane::At`, the queue's fixed-index
//! path). The batch freezes; the seq-0 announcer combines: it walks the
//! slot array in announcement order and, for each operation, locks the
//! target bucket, applies the command, and writes the result back into
//! the announcement node. Either way an op linearizes at its own
//! application under its bucket lock, so `get` returns the value
//! snapshot at that point.
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
//!   shard. The map's `CombineOp::normalize` therefore turns a
//!   fixed-`K` policy into the degenerate adaptive range `[K, K]`
//!   (same active count forever, `max_threads`-sized batches), for
//!   [`with_config`](crate::Sec::with_config) and the durable
//!   constructors alike.
//! * **Buckets are individually locked.** Successive batches of the
//!   same shard may combine concurrently (the freezer installs the
//!   fresh batch before the previous combiner finishes), and during an
//!   elastic re-shard two shards can transiently route operations for
//!   the same bucket, and lone ops apply beside the combiners. The
//!   per-bucket mutex serializes exactly those overlaps.

mod op;

use crate::combine::durable::{self, opcode};
use crate::combine::{FamilyHandle, Lane, Role, Sec};
use crate::traits::{ConcurrentMap, MapHandle};
use core::hash::Hash;
use op::{MapCmd, MapNode, MapOp};

/// A linearizable batched-combining hash map.
///
/// An op whose bucket lock is free applies under it at once. When `n`
/// threads hammer a hot key, the ops that find the lock taken announce
/// on that key's shard instead, and one combiner per frozen batch
/// applies them, so they do not queue on the lock one by one. Under an
/// adaptive policy the contention monitor re-shards the bucket space
/// at runtime, exactly as it re-shards the stack's thread space
/// (DESIGN.md §8). The structure's shared surface is [`Sec`]'s; its
/// aggregators are the map's shards, and
/// [`with_config`](Sec::with_config) documents the fixed-`K`
/// normalization.
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
pub type SecMap<K, V> = Sec<MapOp<K, V>>;

/// A thread's handle to a [`SecMap`].
pub type SecMapHandle<'a, K, V> = FamilyHandle<'a, MapOp<K, V>>;

impl<K, V> SecMap<K, V>
where
    K: Hash + Eq + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Sets the bucket-array size (builder style; apply before any
    /// thread registers, which the receiver guarantees). More buckets
    /// mean shorter association lists and finer re-sharding granularity;
    /// the default is 512.
    ///
    /// On a durable map the redo log keeps working, but the heap
    /// header still records the default count of 512 that
    /// [`durable`](Sec::durable) creates it with, and
    /// [`recover`](Sec::recover) rebuilds with that count. Results are
    /// unaffected — bucket placement never changes them — but the
    /// recovered map does not mirror this resize.
    pub fn bucket_count(mut self, n: usize) -> Self {
        *self.op_mut() = MapOp::with_buckets(n);
        self
    }

    /// Number of live key-value pairs (takes every bucket lock in
    /// turn; a diagnostic, not a linearizable operation).
    pub fn len(&self) -> usize {
        self.op()
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
        self.op().buckets.len()
    }

    /// The shard currently serving `bucket`: the bucket range is
    /// block-partitioned over the active shards.
    fn shard_of(&self, bucket: usize) -> usize {
        let k = self.active_aggregators().max(1);
        let buckets = self.op().buckets.len();
        (bucket * k / buckets).min(k - 1)
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
        Sec::register(self)
    }

    fn name(&self) -> &'static str {
        "SEC-M"
    }
}

impl<K, V> SecMapHandle<'_, K, V>
where
    K: Hash + Eq + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Applies `cmd` under its bucket's lock at once when the lock is
    /// free; otherwise announces it on its key's shard and rides the
    /// engine to the result. The shard is resolved against the active
    /// count only then; an operation excluded by a freeze retries on
    /// the same shard, which is safe even across a re-shard (a shard
    /// past the active prefix still freezes and combines its own
    /// batches — only *routing* of fresh operations moves).
    fn run_op(&mut self, bucket: usize, cmd: MapCmd<K, V>) -> Option<V> {
        let sec = self.sec;
        let mut node = MapNode::new(bucket, cmd);
        sec.run(
            Lane::Deferred(&|| sec.shard_of(bucket)),
            Role::Remove,
            &mut node,
            &self.reclaim,
        )
        .expect("map combiner always produces a result")
    }

    /// Returns the value mapped to `key` at the linearization point
    /// (its application under the bucket lock), or `None` when absent.
    pub fn get(&mut self, key: &K) -> Option<V>
    where
        K: Clone,
    {
        if self.sec.durable_core().is_some() {
            return self.run_durable(opcode::MAP_GET, durable::word_of(key), 0);
        }
        let bucket = self.sec.op().bucket_of(key);
        self.run_op(bucket, MapCmd::Get(key.clone()))
    }

    /// Maps `key` to `value`, returning the previously mapped value (or
    /// `None` when the key was absent).
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if self.sec.durable_core().is_some() {
            let (k, v) = (durable::to_word(key), durable::to_word(value));
            return self.run_durable(opcode::MAP_INSERT, k, v);
        }
        let bucket = self.sec.op().bucket_of(&key);
        self.run_op(bucket, MapCmd::Insert(key, value))
    }

    /// Removes `key`'s mapping, returning the removed value (or `None`
    /// when the key was absent).
    pub fn remove(&mut self, key: &K) -> Option<V>
    where
        K: Clone,
    {
        if self.sec.durable_core().is_some() {
            return self.run_durable(opcode::MAP_REMOVE, durable::word_of(key), 0);
        }
        let bucket = self.sec.op().bucket_of(key);
        self.run_op(bucket, MapCmd::Remove(key.clone()))
    }

    /// A durable map op: one detectable logged op on the engine's
    /// durable path.
    fn run_durable(&mut self, opcode: u8, operand: u64, operand2: u64) -> Option<V> {
        self.sec
            .run_durable(&self.reclaim, opcode, operand, operand2)
            .value()
    }

    /// Bulk `get`: looks up every key of `keys`, writing `results[i]`
    /// = the mapping of `keys[i]` (old contents of `results` are
    /// dropped). The whole slice rides **one** announcement on the
    /// first key's shard, so the protocol cost amortizes over
    /// `keys.len()` lookups; each lookup linearizes at its own
    /// bucket-lock application, in slice order. Other threads' ops,
    /// lone or combined, may apply between two of them.
    ///
    /// Slices longer than the engine's per-announcement weight bound
    /// are chunked, one announcement per chunk. Keys may hash anywhere
    /// — the combiner locks each key's own bucket, which is exactly
    /// what makes cross-shard application safe.
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
        if self.sec.durable_core().is_some() {
            // Durable maps make every lookup an individually
            // detectable logged op.
            for (k, r) in keys.iter().zip(results.iter_mut()) {
                *r = self.run_durable(opcode::MAP_GET, durable::word_of(k), 0);
            }
            return;
        }
        let chunk_size = crate::combine::MAX_BULK_OPS;
        for (kc, rc) in keys.chunks(chunk_size).zip(results.chunks_mut(chunk_size)) {
            let bucket = self.sec.op().bucket_of(&kc[0]);
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
        if self.sec.durable_core().is_some() {
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
            let bucket = self.sec.op().bucket_of(&ec[0].0);
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
        let shard = self.sec.shard_of(bucket);
        let mut node = MapNode::new(bucket, cmd);
        self.sec
            .run_weighted(
                Lane::At(shard),
                Role::Remove,
                &mut node,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine::durable::Family;
    use crate::config::{RecyclePolicy, SecConfig, WaitPolicy};
    use op::DEFAULT_BUCKETS;
    use std::thread;
    use std::time::{Duration, Instant};

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

    /// Runs `op` on a fresh handle in another thread while this thread
    /// holds `key`'s bucket lock. The op must find the lock taken, so it
    /// announces and freezes a batch instead of running alone; once
    /// that batch is tallied the lock is released and `op`'s result
    /// returned.
    fn run_against_a_held_bucket<R: Send>(
        m: &SecMap<u64, u64>,
        key: u64,
        op: impl FnOnce(&mut SecMapHandle<'_, u64, u64>) -> R + Send,
    ) -> R {
        let before = m.stats().report();
        let pairs = m.op().buckets[m.op().bucket_of(&key)].lock().unwrap();
        thread::scope(|scope| {
            let worker = scope.spawn(|| op(&mut m.register()));
            // A guard against hanging, not a timing assumption: an op
            // that waited on the lock instead would never get here.
            let deadline = Instant::now() + Duration::from_secs(30);
            while m.stats().report().batches == before.batches {
                assert!(Instant::now() < deadline, "the op never froze a batch");
                thread::yield_now();
            }
            let frozen = m.stats().report();
            assert_eq!(frozen.alone, before.alone, "{frozen:?}");
            assert_eq!(frozen.batches, before.batches + 1, "{frozen:?}");
            drop(pairs);
            worker.join().unwrap()
        })
    }

    #[test]
    fn an_op_that_finds_its_bucket_locked_announces_and_batches() {
        let m: SecMap<u64, u64> = SecMap::new(2);
        let mut h = m.register();
        assert_eq!(h.insert(7, 70), None);
        let r = m.stats().report();
        assert_eq!(
            (r.alone, r.batches),
            (1, 1),
            "a free lock runs alone: {r:?}"
        );

        assert_eq!(
            run_against_a_held_bucket(&m, 7, |h| h.insert(7, 71)),
            Some(70)
        );
        assert_eq!(run_against_a_held_bucket(&m, 7, |h| h.get(&7)), Some(71));
        assert_eq!(run_against_a_held_bucket(&m, 7, |h| h.remove(&7)), Some(71));
        let r = m.stats().report();
        assert_eq!((r.alone, r.batches, r.ops), (1, 4, 4), "{r:?}");

        assert_eq!(h.get(&7), None);
        assert_eq!(m.stats().report().alone, 2, "a free lock runs alone again");
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
    fn durable_map_checkpoint_export_replays_to_the_live_map_spills_included() {
        use crate::combine::durable::testing::rebuild_from_checkpoint;
        use crate::DurablePolicy;
        const KEYS: u64 = 4096;
        let m = SecMap::<u64, u64>::durable(2, DurablePolicy::volatile().record_capacity(1024))
            .unwrap();
        let mut h = m.register();
        for k in 0..KEYS {
            h.insert(k, k * 7);
        }
        for k in (0..KEYS).step_by(5) {
            h.remove(&k);
        }
        drop(h);
        // Eight keys a bucket on average: many buckets hold more than
        // their four inline pairs, and the removals leave inline holes.
        let spilled = m
            .op()
            .buckets
            .iter()
            .filter(|b| b.lock().unwrap().len() > 4);
        assert!(spilled.count() > 0, "no bucket spilled");
        let rebuilt = rebuild_from_checkpoint(&m);
        assert_eq!(rebuilt.len(), m.len());
        let (mut live, mut back) = (m.register(), rebuilt.register());
        for k in 0..KEYS {
            let want = (k % 5 != 0).then_some(k * 7);
            assert_eq!(live.get(&k), want, "live key {k}");
            assert_eq!(back.get(&k), want, "rebuilt key {k}");
        }
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
