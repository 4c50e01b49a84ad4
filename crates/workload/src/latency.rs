//! Per-operation latency measurement.
//!
//! Throughput (the paper's headline metric) hides tail behaviour —
//! and SEC is *blocking*: a non-combiner waits for its batch's freezer
//! and combiner, so its latency distribution has structure that
//! Mops/s can't show (the paper touches this when discussing TSI's
//! interval delays "increasing latency"). This module provides a
//! latency histogram and a fixed-work latency runner; the `latency`
//! bench binary prints p50/p90/p99/p999/max per algorithm.

use crate::spec::{KeyDist, MapMix, MapOpKind, Mix, OpKind};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sec_core::counter::SecCounter;
use sec_core::trace::Histogram;
use sec_core::{
    ConcurrentMap, ConcurrentQueue, ConcurrentStack, MapHandle, QueueHandle, StackHandle,
};
use std::sync::Barrier;
use std::time::Instant;

/// A latency histogram over nanoseconds: a thin wrapper around the
/// sec-trace HDR-style [`Histogram`] (16 linear sub-buckets per power
/// of two, ≤ 6.25% relative error — the same layout the engine's phase
/// histograms use, so the bench CSVs report comparable numbers).
#[derive(Debug, Default)]
pub struct LatencyHistogram(Histogram);

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.0.record(ns);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.0.count()
    }

    /// Exact maximum recorded value.
    pub fn max_ns(&self) -> u64 {
        self.0.max()
    }

    /// Approximate `p`-th percentile (`0.0 < p <= 100.0`) in ns,
    /// never above [`max_ns`](Self::max_ns). The wrapped histogram
    /// reports bucket upper edges, which can overshoot the largest
    /// sample by up to one sub-bucket width; recording takes `&mut
    /// self`, so here the max cannot race the bucket walk and clamping
    /// to it is exact (sec-trace's shared histogram cannot do the same
    /// — see [`Histogram::percentile`]).
    pub fn percentile(&self, p: f64) -> u64 {
        self.0.percentile(p).min(self.max_ns())
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        self.0.merge(&other.0);
    }

    /// The wrapped sec-trace histogram (for callers that want the full
    /// distribution, e.g. to merge with engine-phase histograms).
    pub fn inner(&self) -> &Histogram {
        &self.0
    }
}

/// Percentile summary of one latency measurement.
#[derive(Debug, Clone, Copy)]
pub struct LatencyReport {
    /// Median, ns.
    pub p50: u64,
    /// 90th percentile, ns.
    pub p90: u64,
    /// 99th percentile, ns.
    pub p99: u64,
    /// 99.9th percentile, ns.
    pub p999: u64,
    /// Maximum, ns.
    pub max: u64,
    /// Samples.
    pub samples: u64,
}

impl LatencyReport {
    /// Summarizes a merged histogram.
    pub fn from_histogram(h: &LatencyHistogram) -> Self {
        Self {
            p50: h.percentile(50.0),
            p90: h.percentile(90.0),
            p99: h.percentile(99.0),
            p999: h.percentile(99.9),
            max: h.max_ns(),
            samples: h.count(),
        }
    }
}

/// Runs `ops_per_thread` timed operations of `mix` on each of `threads`
/// workers and returns the merged latency distribution.
pub fn measure_latency<S: ConcurrentStack<u64>>(
    stack: &S,
    threads: usize,
    ops_per_thread: u64,
    mix: Mix,
) -> LatencyReport {
    let barrier = Barrier::new(threads);
    let merged = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let stack = &stack;
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut h = stack.register();
                    let mut rng = SmallRng::seed_from_u64(0xA11CE ^ (t as u64) << 8);
                    let mut hist = LatencyHistogram::new();
                    barrier.wait();
                    for _ in 0..ops_per_thread {
                        let kind = mix.classify(rng.gen_range(0..100));
                        let start = Instant::now();
                        match kind {
                            OpKind::Push => h.push(rng.gen_range(0..100_000)),
                            OpKind::Pop => {
                                let _ = h.pop();
                            }
                            OpKind::Peek => {
                                let _ = h.peek();
                            }
                        }
                        hist.record(start.elapsed().as_nanos() as u64);
                    }
                    hist
                })
            })
            .collect();
        let mut merged = LatencyHistogram::new();
        for h in handles {
            merged.merge(&h.join().expect("latency worker panicked"));
        }
        merged
    });
    LatencyReport::from_histogram(&merged)
}

/// The queue-family twin of [`measure_latency`]: a [`Mix`] draw that
/// would `peek` a stack performs a `dequeue` (queues have no read-only
/// operation).
pub fn measure_queue_latency<Q: ConcurrentQueue<u64>>(
    queue: &Q,
    threads: usize,
    ops_per_thread: u64,
    mix: Mix,
) -> LatencyReport {
    let barrier = Barrier::new(threads);
    let merged = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let queue = &queue;
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut h = queue.register();
                    let mut rng = SmallRng::seed_from_u64(0xA11CE ^ (t as u64) << 8);
                    let mut hist = LatencyHistogram::new();
                    barrier.wait();
                    for _ in 0..ops_per_thread {
                        let kind = mix.classify(rng.gen_range(0..100));
                        let start = Instant::now();
                        match kind {
                            OpKind::Push => h.enqueue(rng.gen_range(0..100_000)),
                            OpKind::Pop | OpKind::Peek => {
                                let _ = h.dequeue();
                            }
                        }
                        hist.record(start.elapsed().as_nanos() as u64);
                    }
                    hist
                })
            })
            .collect();
        let mut merged = LatencyHistogram::new();
        for h in handles {
            merged.merge(&h.join().expect("latency worker panicked"));
        }
        merged
    });
    LatencyReport::from_histogram(&merged)
}

/// The map-family twin of [`measure_latency`]: operations draw a key
/// from `dist` and a get/insert/remove kind from `map_mix`.
pub fn measure_map_latency<M: ConcurrentMap<u64, u64>>(
    map: &M,
    threads: usize,
    ops_per_thread: u64,
    map_mix: MapMix,
    dist: KeyDist,
) -> LatencyReport {
    let sampler = dist.sampler();
    let barrier = Barrier::new(threads);
    let merged = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let map = &map;
                let barrier = &barrier;
                let sampler = &sampler;
                scope.spawn(move || {
                    let mut h = map.register();
                    let mut rng = SmallRng::seed_from_u64(0xA11CE ^ (t as u64) << 8);
                    let mut hist = LatencyHistogram::new();
                    barrier.wait();
                    for _ in 0..ops_per_thread {
                        let key = sampler.sample(&mut rng);
                        let kind = map_mix.classify(rng.gen_range(0..100));
                        let value = rng.gen_range(0..100_000);
                        let start = Instant::now();
                        match kind {
                            MapOpKind::Get => {
                                let _ = h.get(&key);
                            }
                            MapOpKind::Insert => {
                                let _ = h.insert(key, value);
                            }
                            MapOpKind::Remove => {
                                let _ = h.remove(&key);
                            }
                        }
                        hist.record(start.elapsed().as_nanos() as u64);
                    }
                    hist
                })
            })
            .collect();
        let mut merged = LatencyHistogram::new();
        for h in handles {
            merged.merge(&h.join().expect("latency worker panicked"));
        }
        merged
    });
    LatencyReport::from_histogram(&merged)
}

/// The counter-family twin of [`measure_latency`]: a [`Mix`] draw that
/// would `push` or `pop` performs a `fetch_add`; a `peek` draw performs
/// a `load`.
pub fn measure_counter_latency(
    counter: &SecCounter,
    threads: usize,
    ops_per_thread: u64,
    mix: Mix,
) -> LatencyReport {
    let barrier = Barrier::new(threads);
    let merged = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let counter = &counter;
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut h = counter.register();
                    let mut rng = SmallRng::seed_from_u64(0xA11CE ^ (t as u64) << 8);
                    let mut hist = LatencyHistogram::new();
                    barrier.wait();
                    for _ in 0..ops_per_thread {
                        let kind = mix.classify(rng.gen_range(0..100));
                        let delta = rng.gen_range(0..100_000);
                        let start = Instant::now();
                        match kind {
                            OpKind::Push | OpKind::Pop => {
                                let _ = h.fetch_add(delta);
                            }
                            OpKind::Peek => {
                                let _ = h.load();
                            }
                        }
                        hist.record(start.elapsed().as_nanos() as u64);
                    }
                    hist
                })
            })
            .collect();
        let mut merged = LatencyHistogram::new();
        for h in handles {
            merged.merge(&h.join().expect("latency worker panicked"));
        }
        merged
    });
    LatencyReport::from_histogram(&merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sec_core::SecStack;

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn percentiles_are_monotone_and_bounded() {
        let mut h = LatencyHistogram::new();
        for ns in [10u64, 20, 30, 100, 1_000, 10_000, 100_000] {
            h.record(ns);
        }
        let p50 = h.percentile(50.0);
        let p90 = h.percentile(90.0);
        let p99 = h.percentile(99.0);
        assert!(p50 <= p90 && p90 <= p99);
        let max = h.max_ns();
        assert!(p99 <= max, "p99 {p99} vs max {max}");
        assert_eq!(h.max_ns(), 100_000);
    }

    #[test]
    fn percentiles_never_exceed_the_observed_max() {
        // A lone 3.71 ms sample sits low in its bucket, whose upper
        // edge is 3,801,087 ns; every percentile must still report at
        // most the sample itself.
        let mut h = LatencyHistogram::new();
        h.record(3_710_000);
        for p in [50.0, 99.0, 99.9] {
            let v = h.percentile(p);
            assert!(v <= h.max_ns(), "p{p} {v} > max {}", h.max_ns());
        }
    }

    #[test]
    fn bucket_resolution_within_2x() {
        let mut h = LatencyHistogram::new();
        for _ in 0..1000 {
            h.record(700);
        }
        let p50 = h.percentile(50.0);
        assert!((700..=1400).contains(&p50), "got {p50}");
    }

    #[test]
    fn merge_combines_counts_and_max() {
        let mut a = LatencyHistogram::new();
        a.record(100);
        let mut b = LatencyHistogram::new();
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max_ns(), 1_000_000);
    }

    #[test]
    fn zero_nanosecond_sample_is_accepted() {
        let mut h = LatencyHistogram::new();
        h.record(0); // small values are exact in the HDR layout
        assert_eq!(h.count(), 1);
        assert_eq!(h.percentile(100.0), 0);
    }

    #[test]
    fn report_carries_p999() {
        let mut h = LatencyHistogram::new();
        for _ in 0..999 {
            h.record(100);
        }
        h.record(1_000_000);
        let r = LatencyReport::from_histogram(&h);
        assert!(r.p50 < r.p999, "p50 {} p999 {}", r.p50, r.p999);
        assert!(r.p999 <= r.max);
    }

    #[test]
    fn end_to_end_latency_measurement() {
        let stack: SecStack<u64> = SecStack::new(3);
        let r = measure_latency(&stack, 2, 500, Mix::UPDATE_100);
        assert_eq!(r.samples, 1_000);
        assert!(r.p50 > 0);
        assert!(r.p50 <= r.p99);
        assert!(r.p99 <= r.max);
    }

    #[test]
    fn end_to_end_queue_latency_measurement() {
        use sec_core::SecQueue;
        let queue: SecQueue<u64> = SecQueue::new(2);
        let r = measure_queue_latency(&queue, 2, 500, Mix::UPDATE_100);
        assert_eq!(r.samples, 1_000);
        assert!(r.p50 > 0);
        assert!(r.p50 <= r.p99);
        assert!(r.p99 <= r.max);
    }

    #[test]
    fn end_to_end_map_latency_measurement() {
        use sec_core::SecMap;
        let map: SecMap<u64, u64> = SecMap::new(3);
        let r = measure_map_latency(
            &map,
            2,
            500,
            MapMix::WRITE_HEAVY,
            KeyDist::Uniform { keys: 64 },
        );
        assert_eq!(r.samples, 1_000);
        assert!(r.p50 > 0);
        assert!(r.p50 <= r.p99);
        assert!(r.p99 <= r.max);
    }

    #[test]
    fn end_to_end_counter_latency_measurement() {
        let counter = SecCounter::new(3);
        let r = measure_counter_latency(&counter, 2, 500, Mix::UPDATE_100);
        assert_eq!(r.samples, 1_000);
        assert!(r.p50 > 0);
        assert!(r.p50 <= r.p99);
        assert!(r.p99 <= r.max);
    }
}
