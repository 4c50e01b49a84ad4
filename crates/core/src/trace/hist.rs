//! Mergeable log-bucketed concurrent histograms (HDR-style).
//!
//! The bucket layout is the classic HDR compromise: values below 16
//! are recorded exactly; above that, each power-of-two range is split
//! into 16 linear sub-buckets, so any recorded value is off by at most
//! one sixteenth (6.25%) of itself. That is precise enough for p50/p99
//! latency work and cheap enough that recording is a single relaxed
//! `fetch_add` (plus min/max maintenance) — no locks, no allocation,
//! usable from any number of threads concurrently.

use core::sync::atomic::{AtomicU64, Ordering};

/// log2 of the sub-bucket count per power-of-two range.
const SUB_BITS: u32 = 4;
/// Linear sub-buckets per power-of-two range.
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count: 16 exact low buckets + 16 per range for
/// ranges `[2^4, 2^5) ..= [2^63, 2^64)`.
const BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

/// Maps a value to its bucket index.
#[inline]
fn index_of(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let m = 63 - v.leading_zeros(); // highest set bit, ≥ SUB_BITS
        let group = (m - SUB_BITS + 1) as u64;
        let sub = (v >> (m - SUB_BITS)) - SUB;
        (group * SUB + sub) as usize
    }
}

/// Inclusive upper edge of bucket `idx` — the value `percentile`
/// reports for every sample that landed in the bucket.
#[inline]
fn bucket_high(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB {
        idx
    } else {
        let group = idx / SUB - 1;
        let sub = idx % SUB;
        // Next bucket's lower edge, minus one; the last bucket's edge
        // saturates at u64::MAX.
        ((SUB + sub + 1) << group).wrapping_sub(1)
    }
}

/// A concurrent log-bucketed histogram with ≤ 6.25% relative error.
///
/// Recording is wait-free (one relaxed `fetch_add` on the bucket plus
/// min/max upkeep) and never allocates; the full bucket array is
/// allocated once at construction (~8 KiB). Queries walk the bucket
/// array and are meant for end-of-run or periodic reporting, not the
/// hot path.
///
/// Every query ([`count`](Self::count), [`mean`](Self::mean),
/// [`percentile`](Self::percentile)) copies the bucket array into a
/// local snapshot first and derives everything — count, rank, walk,
/// reported value — from that one snapshot, so a query racing
/// concurrent `record` calls is internally consistent (a percentile
/// can never chase a count that grew under its feet, and never
/// reflects a sample its own snapshot missed). The only best-effort
/// queries are [`min`](Self::min)/[`max`](Self::max) themselves:
/// they read separate atomics, so concurrently with recording they
/// may include an in-flight sample whose bucket increment a
/// simultaneous bucket query missed (or vice versa). They are exact
/// — never torn, never lossy — once recording has quiesced, and a
/// concurrent percentile still satisfies
/// `p ≤ max() · 17/16 + 1` because `max` only grows.
///
/// # Examples
///
/// ```
/// use sec_core::trace::Histogram;
/// let h = Histogram::new();
/// for v in [100, 200, 300, 400] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.percentile(50.0) >= 200);
/// assert_eq!(h.max(), 400);
/// ```
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        // `AtomicU64` is not `Copy`; build the boxed array from a
        // zeroed vec to keep the large array off the stack.
        let v: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets = v.into_boxed_slice().try_into().ok().unwrap();
        Self {
            buckets,
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample. Wait-free, allocation-free, callable
    /// concurrently from any thread.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[index_of(v)].fetch_add(1, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// [`record`](Self::record) for a histogram with exactly one
    /// recording thread at a time: plain relaxed load+store in place of
    /// the locked `fetch_add`/`fetch_min`/`fetch_max`. Queries from
    /// other threads stay safe (every cell is still an atomic), but two
    /// concurrent recorders would lose samples — the caller must order
    /// successive recorders by a happens-before edge.
    #[inline]
    pub(crate) fn record_single_writer(&self, v: u64) {
        let b = &self.buckets[index_of(v)];
        b.store(b.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        if v < self.min.load(Ordering::Relaxed) {
            self.min.store(v, Ordering::Relaxed);
        }
        if v > self.max.load(Ordering::Relaxed) {
            self.max.store(v, Ordering::Relaxed);
        }
    }

    /// Copies the bucket array into a local snapshot (one relaxed load
    /// per bucket, ~8 KiB of stack). Every statistic of one query is
    /// derived from the same snapshot — see the type-level note on
    /// query consistency.
    fn snapshot(&self) -> [u64; BUCKETS] {
        let mut snap = [0u64; BUCKETS];
        for (dst, b) in snap.iter_mut().zip(self.buckets.iter()) {
            *dst = b.load(Ordering::Relaxed);
        }
        snap
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.snapshot().iter().sum()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// How many recorded samples equal `v`. Each value below 16 has a
    /// bucket of its own, so its count is exact; above that a bucket
    /// spans several values and the answer is `None`.
    pub fn count_of(&self, v: u64) -> Option<u64> {
        (v < SUB).then(|| self.buckets[v as usize].load(Ordering::Relaxed))
    }

    /// Smallest recorded sample (0 when empty). Best-effort while
    /// recording is in flight (see the type-level note); exact once
    /// recorders have quiesced.
    pub fn min(&self) -> u64 {
        let m = self.min.load(Ordering::Relaxed);
        if m == u64::MAX {
            0
        } else {
            m
        }
    }

    /// Largest recorded sample (0 when empty). Best-effort while
    /// recording is in flight (see the type-level note); exact once
    /// recorders have quiesced. Monotone non-decreasing between
    /// resets, so a reading taken *after* a bucket snapshot is ≥
    /// every sample that snapshot holds.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean of the recorded samples at bucket resolution (each sample
    /// counts as its bucket's upper edge, so the mean carries the same
    /// ≤ 6.25% relative error as `percentile`; 0.0 when empty).
    ///
    /// Count and sum come from one bucket snapshot, so the mean is
    /// consistent under concurrent recording — the previous exact
    /// running total was read separately from the bucket walk and
    /// could pair a stale sum with a fresh count (or vice versa).
    pub fn mean(&self) -> f64 {
        let snap = self.snapshot();
        let n: u64 = snap.iter().sum();
        if n == 0 {
            return 0.0;
        }
        let sum: f64 = snap
            .iter()
            .enumerate()
            .map(|(i, &c)| c as f64 * bucket_high(i) as f64)
            .sum();
        sum / n as f64
    }

    /// Value at or below which `p` percent of the samples fall, within
    /// the bucket resolution (≤ 6.25% relative error): the upper edge
    /// of the bucket holding the rank. Returns 0 when empty.
    ///
    /// The count that fixes the rank, the walk that finds it and the
    /// reported value all come from one bucket snapshot: a racing
    /// `record` can neither bump a later bucket between the two passes
    /// and shift the reported percentile off its own rank, nor leak an
    /// in-flight sample into the answer through the `min`/`max`
    /// atomics (earlier versions clamped the edge into `[min, max]`
    /// read *after* the snapshot, so a concurrent record could tug the
    /// reported value toward a sample the snapshot never saw).
    pub fn percentile(&self, p: f64) -> u64 {
        let snap = self.snapshot();
        let n: u64 = snap.iter().sum();
        if n == 0 {
            return 0;
        }
        let rank = ((p / 100.0 * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, &c) in snap.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_high(i);
            }
        }
        // Unreachable: rank ≤ n and the walk visits every bucket.
        bucket_high(BUCKETS - 1)
    }

    /// Adds every sample of `other` into `self`. Min/max merge
    /// exactly; buckets add pairwise (identical layouts).
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let t = theirs.load(Ordering::Relaxed);
            if t != 0 {
                mine.fetch_add(t, Ordering::Relaxed);
            }
        }
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Forgets every sample (not atomic with respect to concurrent
    /// recorders — quiesce first if exactness matters).
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl core::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("min", &self.min())
            .field("p50", &self.percentile(50.0))
            .field("p99", &self.percentile(99.0))
            .field("max", &self.max())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn low_values_are_exact() {
        let h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        // Every value below SUB has its own bucket: p100 of {0..15} is
        // exactly 15, p50 exactly 7 (rank 8 of 16).
        assert_eq!(h.percentile(100.0), 15);
        assert_eq!(h.percentile(50.0), 7);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
        h.record(3);
        assert_eq!((h.count_of(3), h.count_of(4)), (Some(2), Some(1)));
        assert_eq!(h.count_of(16), None);
    }

    #[test]
    fn bucket_edges_are_continuous() {
        // index_of and bucket_high must agree: the upper edge of bucket
        // i lands in bucket i, and edge+1 lands in bucket i+1.
        for i in 0..BUCKETS - 1 {
            let hi = bucket_high(i);
            assert_eq!(index_of(hi), i, "edge {hi} of bucket {i}");
            assert_eq!(index_of(hi + 1), i + 1, "edge+1 of bucket {i}");
        }
        assert_eq!(index_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let a = Histogram::new();
        let b = Histogram::new();
        let c = Histogram::new();
        for v in [3u64, 70, 900, 44_000] {
            a.record(v);
            c.record(v);
        }
        for v in [1u64, 5_000_000, 17] {
            b.record(v);
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        assert_eq!(a.min(), c.min());
        assert_eq!(a.max(), c.max());
        for p in [1.0, 25.0, 50.0, 90.0, 99.0, 99.9] {
            assert_eq!(a.percentile(p), c.percentile(p));
        }
    }

    #[test]
    fn single_writer_recording_matches_record() {
        let (a, b) = (Histogram::new(), Histogram::new());
        for v in [40u64, 3, 900, 3, 1 << 33, 17] {
            a.record(v);
            b.record_single_writer(v);
        }
        assert_eq!(a.count(), b.count());
        assert_eq!((a.min(), a.max()), (b.min(), b.max()));
        for p in [1.0, 50.0, 99.0] {
            assert_eq!(a.percentile(p), b.percentile(p));
        }
    }

    #[test]
    fn reset_forgets_everything() {
        let h = Histogram::new();
        h.record(123);
        h.record(456_789);
        h.reset();
        assert!(h.is_empty());
        assert_eq!(h.percentile(99.0), 0);
    }

    #[test]
    fn mean_is_exact_low_and_bucket_bounded_high() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 4] {
            h.record(v);
        }
        // Values below SUB sit in exact buckets, so the bucket-derived
        // mean is the true mean.
        assert_eq!(h.mean(), 2.5);

        let g = Histogram::new();
        for v in [1_000u64, 2_000, 4_000] {
            g.record(v);
        }
        let exact = (1_000.0 + 2_000.0 + 4_000.0) / 3.0;
        let m = g.mean();
        // Upper-edge convention: never below the true mean, above it by
        // at most one sub-bucket width (1/16 relative) plus one.
        assert!(m >= exact, "mean {m} below exact {exact}");
        assert!(m <= exact * (1.0 + 1.0 / 16.0) + 1.0, "mean {m} too high");
    }

    /// Regression for the query/record race: rank and walk now come
    /// from one snapshot, so percentiles stay ordered and counts stay
    /// monotone while another thread is recording.
    #[test]
    fn queries_stay_consistent_under_concurrent_recording() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let h = Arc::new(Histogram::new());
        let stop = Arc::new(AtomicBool::new(false));
        let rec = {
            let h = Arc::clone(&h);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut v = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    h.record(v % 100_000);
                    v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                }
            })
        };
        let mut last_count = 0u64;
        for _ in 0..2_000 {
            let c = h.count();
            assert!(c >= last_count, "count went backwards: {last_count} -> {c}");
            last_count = c;
            let (p50, p99) = (h.percentile(50.0), h.percentile(99.0));
            assert!(p50 <= p99, "p50 {p50} above p99 {p99}");
            // The documented concurrent bound: `max` is monotone and
            // read *after* the percentile's snapshot, so it dominates
            // every sample the snapshot saw; the reported bucket edge
            // can exceed it only by the bucket width (1/16) plus one.
            let max = h.max();
            assert!(
                p99 <= max + max / 16 + 1,
                "p99 {p99} above concurrent bound for max {max}"
            );
            let m = h.mean();
            assert!(m >= 0.0 && m.is_finite());
        }
        stop.store(true, Ordering::Relaxed);
        rec.join().unwrap();
    }

    /// The percentile answer is a pure function of the bucket
    /// snapshot: perturbing the best-effort `min`/`max` atomics (as an
    /// in-flight recorder would between a query's snapshot and its
    /// return) must not move it. Guards against reintroducing the old
    /// post-snapshot clamp into `[min, max]`.
    #[test]
    fn percentile_ignores_in_flight_min_max() {
        let h = Histogram::new();
        h.record(1_000);
        let before = h.percentile(50.0);
        assert_eq!(before, bucket_high(index_of(1_000)));
        // Simulate a racing `record(1)` / `record(1 << 40)` whose
        // bucket increments a concurrent snapshot missed.
        h.min.store(1, Ordering::Relaxed);
        h.max.store(1 << 40, Ordering::Relaxed);
        for p in [0.0, 50.0, 100.0] {
            assert_eq!(h.percentile(p), before, "p{p} moved with min/max");
        }
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        use std::sync::Arc;
        const THREADS: usize = 4;
        const PER: u64 = 10_000;
        let h = Arc::new(Histogram::new());
        let joins: Vec<_> = (0..THREADS)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..PER {
                        h.record(t as u64 * 1_000 + i % 997);
                    }
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(h.count(), THREADS as u64 * PER);
        // Quiesced, min/max are exact — the best-effort caveat only
        // covers readings taken while recorders are in flight.
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), (THREADS as u64 - 1) * 1_000 + 996);
    }

    proptest! {
        /// The histogram percentile must bracket the exact (sorted
        /// vector) percentile: never below it, and above it by at most
        /// one sub-bucket width (1/16 relative) plus one.
        #[test]
        fn percentile_tracks_sorted_oracle(
            values in proptest::collection::vec(0u64..1_000_000_000, 1..400),
            p_tenths in 5u64..1000,
        ) {
            let p = p_tenths as f64 / 10.0;
            let mut values = values;
            let h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            values.sort_unstable();
            let rank = ((p / 100.0 * values.len() as f64).ceil() as usize)
                .clamp(1, values.len());
            let exact = values[rank - 1];
            let got = h.percentile(p);
            prop_assert!(got >= exact,
                "histogram p{p} = {got} below exact {exact}");
            let bound = exact + exact / 16 + 1;
            prop_assert!(got <= bound,
                "histogram p{p} = {got} above bound {bound} (exact {exact})");
        }

        /// Merging a partition of the samples equals recording them all
        /// into one histogram.
        #[test]
        fn merge_is_partition_invariant(
            values in proptest::collection::vec(0u64..u64::MAX, 0..200),
            split in 0usize..200,
        ) {
            let split = split.min(values.len());
            let (left, right) = values.split_at(split);
            let a = Histogram::new();
            let whole = Histogram::new();
            let b = Histogram::new();
            for &v in left { a.record(v); whole.record(v); }
            for &v in right { b.record(v); whole.record(v); }
            a.merge(&b);
            prop_assert_eq!(a.count(), whole.count());
            prop_assert_eq!(a.min(), whole.min());
            prop_assert_eq!(a.max(), whole.max());
            for p in [10.0, 50.0, 99.0] {
                prop_assert_eq!(a.percentile(p), whole.percentile(p));
            }
        }
    }
}
