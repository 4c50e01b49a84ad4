//! Metric names and units, what one round measures, and the engine
//! counters every combining structure reports.

use crate::stats::{percentile, Latency};
use sec_core::{BatchReport, CollectorStats};

/// End-to-end metrics, from untraced rounds.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_mops", "Mops/s"),
    ("op_p50_ns", "ns"),
    ("op_p99_ns", "ns"),
    ("cpu_ns_per_op", "ns"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Engine counters, reported once per structure as
/// `<layer>[.<structure>].<metric>`. Every `_per_kop` is per 1000 of
/// the structure's own operations (`combine[.<structure>].ops`).
const ENGINE: [(&str, &str, &str); 19] = [
    ("combine", "batches_per_kop", "1/kop"),
    ("combine", "degree_mean", "ops"),
    ("combine", "degree_p99", "ops"),
    ("combine", "elim_frac", "frac"),
    ("combine", "cas_fail_per_kbatch", "1/kbatch"),
    ("combine", "ops", "count"),
    ("combine", "batches", "count"),
    ("sync", "parks_per_kop", "1/kop"),
    ("sync", "wakes_per_kop", "1/kop"),
    ("sync", "spurious_frac", "frac"),
    ("sync", "wakes", "count"),
    ("elastic", "resizes", "count"),
    ("elastic", "active_aggregators_end", "count"),
    ("reclaim", "recycle_hit_frac", "frac"),
    ("reclaim", "allocs", "count"),
    ("reclaim", "recycle_overflows_per_kop", "1/kop"),
    ("reclaim", "epoch_advances_per_kop", "1/kop"),
    ("reclaim", "pending_end", "count"),
    ("reclaim", "quiesce_ms", "ms"),
];

/// The structures engine counters are reported for: the stack
/// workloads' one stack (unnamed), and kv-pipeline's three.
const STRUCTURES: [&str; 4] = ["", "counter", "queue", "map"];

/// Per-call timings, outcome ratios with their base counts, and the
/// benchmark's own set-up, teardown and overhead figures.
const OTHER: [(&str, &str); 32] = [
    ("sec.push_ns.p50", "ns"),
    ("sec.push_ns.p99", "ns"),
    ("sec.pop_ns.p50", "ns"),
    ("sec.pop_ns.p99", "ns"),
    ("sec.pop_empty_frac", "frac"),
    ("sec.pops", "count"),
    ("counter.fetch_add_ns.p50", "ns"),
    ("counter.fetch_add_ns.p99", "ns"),
    ("queue.enqueue_many_ns.p50", "ns"),
    ("queue.enqueue_many_ns.p99", "ns"),
    ("queue.dequeue_many_ns.p50", "ns"),
    ("queue.dequeue_many_ns.p99", "ns"),
    ("queue.dequeue_fill_frac", "frac"),
    ("queue.items_requested", "count"),
    ("map.get_ns.p50", "ns"),
    ("map.get_ns.p99", "ns"),
    ("map.insert_ns.p50", "ns"),
    ("map.insert_ns.p99", "ns"),
    ("map.get_hit_frac", "frac"),
    ("map.gets", "count"),
    ("durable.entries_per_record", "ops"),
    ("durable.records_per_kop", "1/kop"),
    ("durable.msyncs_per_kop", "1/kop"),
    ("durable.recover_ms", "ms"),
    ("durable.records", "count"),
    ("setup.construct_ms", "ms"),
    ("setup.prefill_ms", "ms"),
    ("setup.register_us", "us"),
    ("teardown.drop_ms", "ms"),
    ("bench.trace_overhead_frac", "frac"),
    ("bench.op_samples", "count"),
    ("bench.ops", "count"),
];

fn engine_name(layer: &str, structure: &str, metric: &str) -> String {
    if structure.is_empty() {
        format!("{layer}.{metric}")
    } else {
        format!("{layer}.{structure}.{metric}")
    }
}

/// Every per-layer metric with its unit, in report order. A traced run
/// prints all of them; one that does not apply to its workload reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = STRUCTURES
        .iter()
        .flat_map(|s| {
            ENGINE
                .iter()
                .map(move |&(l, m, u)| (engine_name(l, s, m), u))
        })
        .collect();
    all.extend(OTHER.iter().map(|&(n, u)| (n.to_owned(), u)));
    all
}

/// Per-layer values one traced round measured.
pub type Layers = Vec<(String, f64)>;

/// Records `name.p50` and `name.p99` of one call's timings.
pub fn push_calls(out: &mut Layers, name: &str, samples: &mut [u64]) {
    out.push((format!("{name}.p50"), percentile(samples, 0.50) as f64));
    out.push((format!("{name}.p99"), percentile(samples, 0.99) as f64));
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A structure's engine counters at one instant.
#[derive(Clone, Copy)]
pub struct EngineSnap {
    pub report: BatchReport,
    pub reclaim: CollectorStats,
}

/// The engine counters of `structure` over a timed phase. `after` must
/// be taken once every handle has dropped, when the recycle counters
/// are exact; `active_end` is `None` for a structure with a fixed
/// aggregator layout.
pub fn push_engine(
    out: &mut Layers,
    structure: &str,
    before: &EngineSnap,
    after: &EngineSnap,
    active_end: Option<usize>,
    quiesce_ns: u64,
) {
    let (b, a) = (&before.report, &after.report);
    let (rb, ra) = (&before.reclaim, &after.reclaim);
    let ops = a.ops - b.ops;
    let batches = a.batches - b.batches;
    let wakes = a.wakes - b.wakes;
    let hits = ra.recycle_hits - rb.recycle_hits;
    let allocs = hits + ra.recycle_misses - rb.recycle_misses;
    let per_kop = |n: u64| 1e3 * ratio(n, ops);
    let values = [
        ("combine", "batches_per_kop", per_kop(batches)),
        ("combine", "degree_mean", ratio(ops, batches)),
        ("combine", "degree_p99", a.degree.p99 as f64),
        (
            "combine",
            "elim_frac",
            ratio(a.eliminated - b.eliminated, ops),
        ),
        (
            "combine",
            "cas_fail_per_kbatch",
            1e3 * ratio(a.cas_failures - b.cas_failures, batches),
        ),
        ("combine", "ops", ops as f64),
        ("combine", "batches", batches as f64),
        ("sync", "parks_per_kop", per_kop(a.parks - b.parks)),
        ("sync", "wakes_per_kop", per_kop(wakes)),
        (
            "sync",
            "spurious_frac",
            ratio(a.spurious_wakes - b.spurious_wakes, wakes),
        ),
        ("sync", "wakes", wakes as f64),
        ("elastic", "resizes", (a.resizes() - b.resizes()) as f64),
        (
            "elastic",
            "active_aggregators_end",
            active_end.unwrap_or(0) as f64,
        ),
        ("reclaim", "recycle_hit_frac", ratio(hits, allocs)),
        ("reclaim", "allocs", allocs as f64),
        (
            "reclaim",
            "recycle_overflows_per_kop",
            per_kop(ra.recycle_overflows - rb.recycle_overflows),
        ),
        (
            "reclaim",
            "epoch_advances_per_kop",
            per_kop(ra.epoch - rb.epoch),
        ),
        ("reclaim", "pending_end", ra.pending() as f64),
        ("reclaim", "quiesce_ms", quiesce_ns as f64 / 1e6),
    ];
    out.extend(
        values
            .iter()
            .map(|&(l, m, v)| (engine_name(l, structure, m), v)),
    );
}

/// What one round — set-up, timed phase, checks, teardown — measured.
pub struct Round {
    /// Application operations completed in the timed phase (for
    /// kv-pipeline, requests).
    pub ops: u64,
    pub wall_ns: u64,
    pub cpu_ns: u64,
    /// Sampled end-to-end latencies (untraced rounds only).
    pub latency: Latency,
    pub construct_ns: u64,
    pub prefill_ns: u64,
    /// Mean time of one worker `register` call.
    pub register_ns: u64,
    pub drop_ns: u64,
    /// Operations the correctness checks covered, and how many failed.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Per-layer values (traced rounds only).
    pub layers: Layers,
}

impl Round {
    /// Throughput of the timed phase, in millions of ops per second.
    pub fn mops(&self) -> f64 {
        self.ops as f64 * 1e3 / self.wall_ns as f64
    }

    /// Adds `n` failed operations, described by `what`.
    pub fn fail(&mut self, n: u64, what: String) {
        if n > 0 {
            self.failed += n;
            self.failures.push(what);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        let all = per_layer();
        assert_eq!(all.len(), 4 * ENGINE.len() + OTHER.len());
        assert!(all.len() <= 128);
        let mut names: Vec<&str> = all.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
        for n in names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
    }
}
