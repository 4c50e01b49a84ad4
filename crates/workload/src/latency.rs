//! Per-operation latency measurement.
//!
//! Throughput (the paper's headline metric) hides tail behaviour —
//! and SEC is *blocking*: a non-combiner waits for its batch's freezer
//! and combiner, so its latency distribution has structure that
//! Mops/s can't show (the paper touches this when discussing TSI's
//! interval delays "increasing latency"). This module provides a
//! latency histogram, which is also the [`Probe`] that turns a
//! [`ClosedLoop`] into a latency measurement; the `latency` bench
//! binary prints p50/p90/p99/p999/max per algorithm.
//!
//! [`ClosedLoop`]: crate::ClosedLoop

use crate::runner::Probe;
use sec_core::trace::Histogram;
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

/// A latency worker is a throughput worker that times each op: as a
/// [`ClosedLoop`] probe, the histogram records every operation's
/// duration.
///
/// [`ClosedLoop`]: crate::ClosedLoop
impl Probe for LatencyHistogram {
    #[inline]
    fn time(&mut self, op: impl FnOnce()) {
        let start = Instant::now();
        op();
        self.record(start.elapsed().as_nanos() as u64);
    }

    fn merge(&mut self, other: Self) {
        LatencyHistogram::merge(self, &other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AlgoRun, Budget, ClosedLoop, KeyDist, MapMix, Mix, RunConfig, Visitor};
    use sec_core::{SecCounter, SecStack};

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

    /// `ops` timed operations per worker of `cfg` on `visit`'s kind.
    fn latency(
        cfg: &RunConfig,
        ops: u64,
        visit: impl FnOnce(ClosedLoop<'_, LatencyHistogram>) -> (AlgoRun, LatencyHistogram),
    ) -> LatencyReport {
        LatencyReport::from_histogram(&visit(ClosedLoop::new(cfg, Budget::Ops(ops))).1)
    }

    #[test]
    fn end_to_end_latency_measurement() {
        let stack: SecStack<u64> = SecStack::new(3);
        let cfg = RunConfig {
            prefill: 0,
            ..RunConfig::new(2, Mix::UPDATE_100)
        };
        let r = latency(&cfg, 500, |run| run.stack(&stack, None));
        assert_eq!(r.samples, 1_000);
        assert!(r.p50 > 0);
        assert!(r.p50 <= r.p99);
        assert!(r.p99 <= r.max);
    }

    #[test]
    fn end_to_end_queue_latency_measurement() {
        use sec_core::SecQueue;
        let queue: SecQueue<u64> = SecQueue::new(2);
        let cfg = RunConfig {
            prefill: 0,
            ..RunConfig::new(2, Mix::UPDATE_100)
        };
        let r = latency(&cfg, 500, |run| run.queue(&queue, None));
        assert_eq!(r.samples, 1_000);
        assert!(r.p50 > 0);
        assert!(r.p50 <= r.p99);
        assert!(r.p99 <= r.max);
    }

    #[test]
    fn end_to_end_map_latency_measurement() {
        use sec_core::SecMap;
        let map: SecMap<u64, u64> = SecMap::new(3);
        let cfg = RunConfig {
            prefill: 0,
            map_mix: MapMix::WRITE_HEAVY,
            key_dist: KeyDist::Uniform { keys: 64 },
            ..RunConfig::new(2, Mix::UPDATE_100)
        };
        let r = latency(&cfg, 500, |run| run.map(&map, None));
        assert_eq!(r.samples, 1_000);
        assert!(r.p50 > 0);
        assert!(r.p50 <= r.p99);
        assert!(r.p99 <= r.max);
    }

    #[test]
    fn end_to_end_counter_latency_measurement() {
        let counter = SecCounter::new(3);
        let cfg = RunConfig {
            prefill: 0,
            ..RunConfig::new(2, Mix::UPDATE_100)
        };
        let r = latency(&cfg, 500, |run| run.counter(&counter, None));
        assert_eq!(r.samples, 1_000);
        assert!(r.p50 > 0);
        assert!(r.p50 <= r.p99);
        assert!(r.p99 <= r.max);
    }
}
