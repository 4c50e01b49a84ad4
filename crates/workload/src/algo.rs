//! The structure registry: [`Algo::build`] turns any of the evaluated
//! stacks, queues, counters or maps into a structure and hands it to a
//! [`Visitor`]; [`run_algo`] measures it with the [`ClosedLoop`]
//! visit.

use crate::runner::{ClosedLoop, RunConfig, RunResult};
use core::fmt;
use sec_baselines::{
    CcStack, EbStack, FcStack, LeakTreiberStack, LockedHashMap, LockedQueue, LockedStack, MsQueue,
    TreiberHpStack, TreiberStack, TsiStack,
};
pub use sec_core::SecReadout;
use sec_core::{
    BatchReport, CollectorStats, ConcurrentMap, ConcurrentQueue, ConcurrentStack, DurableError,
    DurablePolicy, SecConfig, SecCounter, SecMap, SecQueue, SecStack,
};

/// One of the evaluated stack algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// SEC with `k` aggregators (the paper's default is 2).
    Sec {
        /// Number of aggregators.
        aggregators: usize,
    },
    /// SEC with elastic sharding: the active aggregator count moves in
    /// `[min_k, max_k]` under the contention monitor (DESIGN.md §8).
    SecAdaptive {
        /// Lower bound on the active aggregator count.
        min_k: usize,
        /// Upper bound on the active aggregator count.
        max_k: usize,
    },
    /// Treiber stack.
    Trb,
    /// Elimination-backoff stack.
    Eb,
    /// Flat-combining stack.
    Fc,
    /// CC-Synch stack.
    Cc,
    /// Interval timestamped stack.
    Tsi,
    /// Treiber stack over hazard-pointer reclamation (ablation lineup).
    TrbHp,
    /// Treiber stack that reclaims nothing while it runs (the
    /// reclamation ablation's cost floor).
    TrbLeak,
    /// Mutex-protected sequential stack (sanity floor, not in the
    /// paper's figures).
    Lck,
    /// The SEC-derived batched-combining FIFO queue (DESIGN.md §9).
    SecQueue,
    /// Michael–Scott queue (the queue family's Treiber).
    MsQ,
    /// Mutex-protected `VecDeque` (the queue family's sanity floor).
    LckQ,
    /// The combining fetch-and-add counter (DESIGN.md §12); the
    /// [`ClosedLoop`] maps update draws to `fetch_add` and peek draws
    /// to `load`.
    SecCounter,
    /// The SEC-derived batched-combining hash map (DESIGN.md §13);
    /// measured under [`RunConfig::map_mix`] / [`RunConfig::key_dist`].
    SecMap,
    /// Mutex-protected `HashMap` (the map family's sanity floor).
    LckMap,
}

/// The lineup of Figure 2/3 (`sweep fig2`, `sweep fig3`): SEC (2
/// aggregators) plus the five competitors, in the paper's legend order.
pub const ALL_COMPETITORS: [Algo; 6] = [
    Algo::Cc,
    Algo::Eb,
    Algo::Fc,
    Algo::Sec { aggregators: 2 },
    Algo::Trb,
    Algo::Tsi,
];

/// The extended lineup: the paper's six plus the two auxiliary stacks
/// (hazard-pointer Treiber, mutex floor). Used by the validation binary
/// and the ablation benchmarks.
pub const EXTENDED_LINEUP: [Algo; 8] = [
    Algo::Cc,
    Algo::Eb,
    Algo::Fc,
    Algo::Sec { aggregators: 2 },
    Algo::Trb,
    Algo::Tsi,
    Algo::TrbHp,
    Algo::Lck,
];

/// The queue lineup of `sweep queue_bench`: the SEC-derived queue
/// against the Michael–Scott reference and the locked floor.
pub const QUEUE_LINEUP: [Algo; 3] = [Algo::SecQueue, Algo::MsQ, Algo::LckQ];

/// The map lineup of `sweep map_bench`: the SEC-derived map against
/// the locked floor.
pub const MAP_LINEUP: [Algo; 2] = [Algo::SecMap, Algo::LckMap];

/// One SEC family per structure kind — the validation/soak sweep that
/// proves every family is reachable from the harness (stack, elastic
/// stack, queue, counter, map), and the lineup of `sweep families`.
pub const SEC_FAMILIES: [Algo; 5] = [
    Algo::Sec { aggregators: 2 },
    Algo::SecAdaptive { min_k: 1, max_k: 4 },
    Algo::SecQueue,
    Algo::SecCounter,
    Algo::SecMap,
];

/// The structures `validate` and `soak` check: the extended stack
/// lineup, the queue lineup, the counter and the map lineup.
pub const CHECKED_LINEUP: [Algo; 14] = [
    Algo::Cc,
    Algo::Eb,
    Algo::Fc,
    Algo::Sec { aggregators: 2 },
    Algo::Trb,
    Algo::Tsi,
    Algo::TrbHp,
    Algo::Lck,
    Algo::SecQueue,
    Algo::MsQ,
    Algo::LckQ,
    Algo::SecCounter,
    Algo::SecMap,
    Algo::LckMap,
];

impl Algo {
    /// The paper's legend label.
    pub fn label(&self) -> String {
        match self {
            Algo::Sec { aggregators: 2 } => "SEC".into(),
            Algo::Sec { aggregators } => format!("SEC_Agg{aggregators}"),
            Algo::SecAdaptive { min_k, max_k } => format!("SEC_Ada{min_k}to{max_k}"),
            Algo::Trb => "TRB".into(),
            Algo::Eb => "EB".into(),
            Algo::Fc => "FC".into(),
            Algo::Cc => "CC".into(),
            Algo::Tsi => "TSI".into(),
            Algo::TrbHp => "TRB-HP".into(),
            Algo::TrbLeak => "TRB-LEAK".into(),
            Algo::Lck => "LCK".into(),
            Algo::SecQueue => "SEC-Q".into(),
            Algo::MsQ => "MS".into(),
            Algo::LckQ => "LCK-Q".into(),
            Algo::SecCounter => "SecCounter".into(),
            Algo::SecMap => "SecMap".into(),
            Algo::LckMap => "LCK-M".into(),
        }
    }

    /// The label for the aggregator-count ablations (`sweep fig4`,
    /// `sweep adaptive_k`): like [`label`](Self::label), except a static
    /// SEC series always carries its K — `SEC_Agg2`, not the
    /// fig2-legend `SEC` — so the ablation columns stay comparable
    /// across K. Single owner of that naming rule; the bench binaries
    /// must not re-encode it.
    pub fn ablation_label(&self) -> String {
        match self {
            Algo::Sec { aggregators } => format!("SEC_Agg{aggregators}"),
            _ => self.label(),
        }
    }

    /// Builds a fresh instance of `self` for `cap` registered threads
    /// and hands it to the `visitor` method of its kind — the one place
    /// an [`Algo`] becomes a structure.
    ///
    /// The SEC families start from their default [`SecConfig`] — the
    /// stack `new(K, cap)` or `adaptive(min_k, max_k, cap)`, the queue
    /// `new(1, cap)`, the counter and the map `new(2, cap)` — patched
    /// by `sec`, and are built durable under `durable`; they also hand
    /// the visitor their [`SecReadout`]. The other structures ignore
    /// `sec` and `durable`.
    ///
    /// # Panics
    ///
    /// If a durable SEC structure cannot be created.
    pub fn build<V: Visitor>(
        self,
        cap: usize,
        sec: SecPatch,
        durable: Option<DurablePolicy>,
        visitor: V,
    ) -> V::Out {
        let config = |aggregators| sec(SecConfig::new(aggregators, cap));
        match self {
            Algo::Sec { aggregators } => {
                let s: SecStack<u64> = build_sec(
                    SecStack::with_config,
                    SecStack::durable_with_config,
                    config(aggregators),
                    durable,
                );
                visitor.stack(&s, Some(&s))
            }
            Algo::SecAdaptive { min_k, max_k } => {
                let config = sec(SecConfig::adaptive(min_k, max_k, cap));
                let s: SecStack<u64> = build_sec(
                    SecStack::with_config,
                    SecStack::durable_with_config,
                    config,
                    durable,
                );
                visitor.stack(&s, Some(&s))
            }
            Algo::SecQueue => {
                let q: SecQueue<u64> = build_sec(
                    SecQueue::with_config,
                    SecQueue::durable_with_config,
                    config(1),
                    durable,
                );
                visitor.queue(&q, Some(&q))
            }
            Algo::SecCounter => {
                let c = build_sec(
                    SecCounter::with_config,
                    SecCounter::durable_with_config,
                    config(2),
                    durable,
                );
                visitor.counter(&c, Some(&c))
            }
            Algo::SecMap => {
                let m: SecMap<u64, u64> = build_sec(
                    SecMap::with_config,
                    SecMap::durable_with_config,
                    config(2),
                    durable,
                );
                visitor.map(&m, Some(&m))
            }
            Algo::Trb => visitor.stack(&TreiberStack::<u64>::new(cap), None),
            Algo::Eb => visitor.stack(&EbStack::<u64>::new(cap), None),
            Algo::Fc => visitor.stack(&FcStack::<u64>::new(cap), None),
            Algo::Cc => visitor.stack(&CcStack::<u64>::new(cap), None),
            Algo::Tsi => visitor.stack(&TsiStack::<u64>::new(cap), None),
            Algo::TrbHp => visitor.stack(&TreiberHpStack::<u64>::new(cap), None),
            Algo::TrbLeak => visitor.stack(&LeakTreiberStack::<u64>::default(), None),
            Algo::Lck => visitor.stack(&LockedStack::<u64>::new(cap), None),
            Algo::MsQ => visitor.queue(&MsQueue::<u64>::new(cap), None),
            Algo::LckQ => visitor.queue(&LockedQueue::<u64>::new(cap), None),
            Algo::LckMap => visitor.map(&LockedHashMap::<u64, u64>::new(cap), None),
        }
    }
}

impl fmt::Display for Algo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// A [`RunConfig::sec`] patch: a plain `fn`, so configurations that
/// carry one stay `Copy`.
pub type SecPatch = fn(SecConfig) -> SecConfig;

/// What [`Algo::build`] hands a structure to: one method per structure
/// kind. The structure lives for the call; `sec` is its engine readout
/// when it is a SEC family. The counter method takes the one counter
/// there is.
pub trait Visitor {
    /// What the visit returns.
    type Out;
    /// Visits a stack.
    fn stack<S: ConcurrentStack<u64>>(self, stack: &S, sec: Option<&dyn SecReadout>) -> Self::Out;
    /// Visits a FIFO queue.
    fn queue<Q: ConcurrentQueue<u64>>(self, queue: &Q, sec: Option<&dyn SecReadout>) -> Self::Out;
    /// Visits the combining counter.
    fn counter(self, counter: &SecCounter, sec: Option<&dyn SecReadout>) -> Self::Out;
    /// Visits a map.
    fn map<M: ConcurrentMap<u64, u64>>(self, map: &M, sec: Option<&dyn SecReadout>) -> Self::Out;
}

/// Builds a SEC family with its `with_config` constructor, or with its
/// `durable_with_config` one over `policy`.
fn build_sec<S>(
    with_config: fn(SecConfig) -> S,
    durable_with_config: fn(SecConfig, DurablePolicy) -> Result<S, DurableError>,
    config: SecConfig,
    policy: Option<DurablePolicy>,
) -> S {
    match policy {
        Some(p) => durable_with_config(config, p)
            .unwrap_or_else(|e| panic!("create a durable SEC structure: {e}")),
        None => with_config(config),
    }
}

/// Measurement outcome plus SEC's per-run batch instrumentation (only
/// populated for the SEC families — [`Algo::Sec`] /
/// [`Algo::SecAdaptive`] / [`Algo::SecQueue`] / [`Algo::SecCounter`] /
/// [`Algo::SecMap`]; feeds Tables 1–3, the elastic-sharding ablation
/// and the queue/map benches' batching columns).
#[derive(Debug, Clone, Copy)]
pub struct AlgoRun {
    /// Throughput measurement.
    pub result: RunResult,
    /// SEC batching/elimination/combining report, if applicable.
    pub sec_report: Option<BatchReport>,
    /// Active aggregator count at the end of the run (SEC only; equals
    /// the configured `K` for a fixed policy).
    pub sec_active: Option<usize>,
    /// Reclamation/recycling counters (SEC family only): retired/
    /// freed/cached plus the recycle hit/miss/overflow totals that
    /// feed the `recycle` CSV columns (DESIGN.md §10). Read after the
    /// workers join, so the per-thread counters have been flushed.
    pub reclaim: Option<CollectorStats>,
}

impl AlgoRun {
    /// `result` plus what the structure's SEC readout, if any, reports.
    pub(crate) fn new(result: RunResult, sec: Option<&dyn SecReadout>) -> Self {
        Self {
            result,
            sec_report: sec.map(|s| s.report()),
            sec_active: sec.and_then(|s| s.active()),
            reclaim: sec.map(|s| s.reclaim()),
        }
    }
}

/// Constructs a fresh instance of `algo` sized for the run — SEC
/// families patched by [`RunConfig::sec`] and durable when
/// [`RunConfig::durable`] is set — and measures its throughput under
/// `cfg` ([`ClosedLoop::timed`]).
pub fn run_algo(algo: Algo, cfg: &RunConfig) -> AlgoRun {
    ClosedLoop::timed(cfg).algo(algo).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mix;
    use std::time::Duration;

    /// The registry visit that names the method a structure reached,
    /// and whether it came with a SEC readout.
    struct KindOf;

    impl Visitor for KindOf {
        type Out = (&'static str, bool);
        fn stack<S: ConcurrentStack<u64>>(self, _: &S, sec: Option<&dyn SecReadout>) -> Self::Out {
            ("stack", sec.is_some())
        }
        fn queue<Q: ConcurrentQueue<u64>>(self, _: &Q, sec: Option<&dyn SecReadout>) -> Self::Out {
            ("queue", sec.is_some())
        }
        fn counter(self, _: &SecCounter, sec: Option<&dyn SecReadout>) -> Self::Out {
            ("counter", sec.is_some())
        }
        fn map<M: ConcurrentMap<u64, u64>>(self, _: &M, sec: Option<&dyn SecReadout>) -> Self::Out {
            ("map", sec.is_some())
        }
    }

    fn kind(algo: Algo) -> &'static str {
        algo.build(2, |c| c, None, KindOf).0
    }

    #[test]
    fn every_lineup_variant_reaches_the_visitor_method_of_its_kind() {
        // An oracle written apart from the registry: each variant's
        // kind, and whether it is a SEC family.
        let expected = |algo: Algo| match algo {
            Algo::Sec { .. } | Algo::SecAdaptive { .. } => ("stack", true),
            Algo::SecQueue => ("queue", true),
            Algo::SecCounter => ("counter", true),
            Algo::SecMap => ("map", true),
            Algo::MsQ | Algo::LckQ => ("queue", false),
            Algo::LckMap => ("map", false),
            _ => ("stack", false),
        };
        // The fig4 / adaptive_k ablation lineup is built in `sweep`,
        // and so is recl_ablation's, the only one with the leak floor.
        let ablation = [1, 2, 3, 4, 5]
            .map(|k| Algo::Sec { aggregators: k })
            .into_iter()
            .chain([Algo::SecAdaptive { min_k: 1, max_k: 5 }]);
        let every = ALL_COMPETITORS
            .into_iter()
            .chain(EXTENDED_LINEUP)
            .chain(QUEUE_LINEUP)
            .chain(MAP_LINEUP)
            .chain(SEC_FAMILIES)
            .chain(CHECKED_LINEUP)
            .chain(ablation)
            .chain([Algo::TrbLeak]);
        for algo in every {
            assert_eq!(algo.build(2, |c| c, None, KindOf), expected(algo), "{algo}");
        }
        let checked = CHECKED_LINEUP.map(kind);
        for k in ["stack", "queue", "counter", "map"] {
            assert!(checked.contains(&k), "CHECKED_LINEUP has no {k}");
        }
    }

    #[test]
    fn labels_match_paper_legend() {
        assert_eq!(Algo::Sec { aggregators: 2 }.label(), "SEC");
        assert_eq!(Algo::Sec { aggregators: 4 }.label(), "SEC_Agg4");
        assert_eq!(Algo::Sec { aggregators: 2 }.ablation_label(), "SEC_Agg2");
        assert_eq!(Algo::SecQueue.ablation_label(), "SEC-Q");
        assert_eq!(
            Algo::SecAdaptive { min_k: 1, max_k: 5 }.label(),
            "SEC_Ada1to5"
        );
        assert_eq!(Algo::Trb.label(), "TRB");
        assert_eq!(Algo::Tsi.label(), "TSI");
    }

    #[test]
    fn adaptive_algo_runs_and_reports_active_count() {
        let cfg = RunConfig {
            duration: Duration::from_millis(20),
            prefill: 64,
            ..RunConfig::new(3, Mix::UPDATE_100)
        };
        let out = run_algo(Algo::SecAdaptive { min_k: 1, max_k: 4 }, &cfg);
        assert!(out.result.ops > 0);
        let active = out.sec_active.expect("adaptive SEC reports active k");
        assert!((1..=4).contains(&active), "active {active} out of range");
        let report = out.sec_report.expect("adaptive SEC reports batch stats");
        assert_eq!(report.eliminated + report.combined, report.ops);
    }

    #[test]
    fn run_config_policy_overrides_algo_policy() {
        use sec_core::AggregatorPolicy;
        let cfg = RunConfig {
            duration: Duration::from_millis(10),
            prefill: 16,
            sec: |c| c.aggregator_policy(AggregatorPolicy::Fixed(3)),
            ..RunConfig::new(2, Mix::UPDATE_100)
        };
        let out = run_algo(Algo::Sec { aggregators: 1 }, &cfg);
        assert_eq!(out.sec_active, Some(3), "override wins over the variant");
    }

    #[test]
    fn durable_setup_runs_every_sec_family() {
        use crate::DurableSetup;
        for algo in SEC_FAMILIES {
            let cfg = RunConfig {
                duration: Duration::from_millis(15),
                prefill: 64,
                durable: Some(DurableSetup::volatile()),
                ..RunConfig::new(2, Mix::UPDATE_50)
            };
            let out = run_algo(algo, &cfg);
            assert!(out.result.ops > 0, "{algo} made no durable progress");
        }
    }

    #[test]
    fn durable_runs_honour_the_sec_patch() {
        use crate::DurableSetup;
        use sec_core::RecyclePolicy;
        let cfg = RunConfig {
            duration: Duration::from_millis(15),
            prefill: 64,
            sec: |c| c.recycle(RecyclePolicy::Off),
            durable: Some(DurableSetup::volatile()),
            ..RunConfig::new(2, Mix::UPDATE_50)
        };
        for algo in [
            Algo::Sec { aggregators: 2 },
            Algo::SecQueue,
            Algo::SecCounter,
            Algo::SecMap,
        ] {
            let out = run_algo(algo, &cfg);
            assert!(out.result.ops > 0, "{algo} made no durable progress");
            let rs = out.reclaim.expect("SEC runs report reclaim stats");
            assert_eq!(rs.recycle_hits, 0, "{algo}: durable Off must not hit");
            assert_eq!(rs.cached, 0, "{algo}: durable Off must not cache");
        }
    }

    #[test]
    fn durable_file_backed_run_cleans_up_its_heap() {
        use crate::DurableSetup;
        let cfg = RunConfig {
            duration: Duration::from_millis(15),
            prefill: 64,
            durable: Some(DurableSetup::file_backed()),
            ..RunConfig::new(2, Mix::UPDATE_100)
        };
        let out = run_algo(Algo::SecCounter, &cfg);
        assert!(out.result.ops > 0);
        // The generated temp heap must be gone once the run returns.
        let leftovers: Vec<_> = std::fs::read_dir(std::env::temp_dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(&format!("sec-durable-run-{}-", std::process::id())))
            .collect();
        assert!(
            leftovers.is_empty(),
            "heap files left behind: {leftovers:?}"
        );
    }

    #[test]
    fn extended_lineup_labels_are_distinct() {
        let labels: std::collections::HashSet<String> =
            EXTENDED_LINEUP.iter().map(|a| a.label()).collect();
        assert_eq!(labels.len(), EXTENDED_LINEUP.len());
    }

    #[test]
    fn every_algorithm_runs_the_mixed_workload() {
        for algo in EXTENDED_LINEUP {
            let cfg = RunConfig {
                duration: Duration::from_millis(15),
                prefill: 64,
                ..RunConfig::new(2, Mix::UPDATE_50)
            };
            let out = run_algo(algo, &cfg);
            assert!(out.result.ops > 0, "{algo} made no progress");
        }
    }

    #[test]
    fn sec_run_reports_batch_stats() {
        let cfg = RunConfig {
            duration: Duration::from_millis(15),
            prefill: 64,
            ..RunConfig::new(2, Mix::UPDATE_100)
        };
        let out = run_algo(Algo::Sec { aggregators: 2 }, &cfg);
        let report = out.sec_report.expect("SEC must report batch stats");
        assert!(report.batches > 0);
        assert_eq!(report.eliminated + report.combined, report.ops);
    }

    #[test]
    fn queue_lineup_runs_the_update_workload() {
        for algo in QUEUE_LINEUP {
            assert_eq!(kind(algo), "queue");
            let cfg = RunConfig {
                duration: Duration::from_millis(15),
                prefill: 64,
                ..RunConfig::new(2, Mix::UPDATE_100)
            };
            let out = run_algo(algo, &cfg);
            assert!(out.result.ops > 0, "{algo} made no progress");
            assert!(out.sec_active.is_none(), "{algo}: queues have no active K");
        }
    }

    #[test]
    fn sec_queue_reports_batch_stats() {
        let cfg = RunConfig {
            duration: Duration::from_millis(15),
            prefill: 64,
            ..RunConfig::new(2, Mix::UPDATE_100)
        };
        let out = run_algo(Algo::SecQueue, &cfg);
        let report = out.sec_report.expect("SEC-Q must report batch stats");
        assert!(report.batches > 0);
        assert_eq!(report.eliminated, 0, "queue batches are homogeneous");
        assert_eq!(report.combined, report.ops);
        assert_eq!(report.resizes(), 0, "queues do not resize aggregators");
    }

    #[test]
    fn queue_labels_are_distinct_from_stack_labels() {
        let mut labels: std::collections::HashSet<String> =
            EXTENDED_LINEUP.iter().map(|a| a.label()).collect();
        for a in QUEUE_LINEUP {
            assert!(labels.insert(a.label()), "{a} collides with a stack label");
            assert!(!a.label().is_empty());
        }
    }

    #[test]
    fn sec_runs_report_reclaim_stats_and_honor_recycle_override() {
        use sec_core::RecyclePolicy;
        // Reuse needs retired blocks to come back through the epoch,
        // which takes a run of real progress, not a time window: a
        // loaded host can give a 15 ms run almost no CPU. Retry with a
        // doubling window until one run completes MIN_OPS, and only
        // then ask for hits.
        const MIN_OPS: u64 = 2_000;
        let mut cfg = RunConfig {
            duration: Duration::from_millis(15),
            prefill: 64,
            ..RunConfig::new(2, Mix::UPDATE_100)
        };
        let mut out = run_algo(Algo::Sec { aggregators: 2 }, &cfg);
        for _ in 0..8 {
            if out.result.ops >= MIN_OPS {
                break;
            }
            cfg.duration *= 2;
            out = run_algo(Algo::Sec { aggregators: 2 }, &cfg);
        }
        assert!(out.result.ops >= MIN_OPS, "no run reached {MIN_OPS} ops");
        let rs = out.reclaim.expect("SEC reports reclaim stats");
        assert!(
            rs.recycle_hits > 0,
            "the default policy must reuse blocks: {rs:?}"
        );

        let cfg_off = RunConfig {
            sec: |c| c.recycle(RecyclePolicy::Off),
            ..cfg
        };
        for algo in [Algo::Sec { aggregators: 2 }, Algo::SecQueue] {
            let out = run_algo(algo, &cfg_off);
            let rs = out.reclaim.expect("reclaim stats present when off");
            assert_eq!(rs.recycle_hits, 0, "{algo}: Off must not hit");
            assert_eq!(rs.cached, 0, "{algo}: Off must not cache");
        }
        assert!(
            run_algo(Algo::Trb, &cfg).reclaim.is_none(),
            "non-SEC runs carry no collector snapshot"
        );
    }

    #[test]
    fn wait_policy_override_reaches_both_sec_families() {
        use sec_core::WaitPolicy;
        // Contention is manufactured, not hoped for: a single
        // aggregator plus a widened freezer backoff (both plumbed
        // through `RunConfig`, like the wait policy under test) holds
        // each batch open for its announcers. On the stack the spin
        // window does it. A queue end's freezer never spins, so there
        // only the yields do, and the freezer spends them only while
        // threads outnumber hardware threads: the run therefore always
        // has more threads than the host has. Each yield donates the
        // freezer's quantum mid-protocol, so even a 1-core host —
        // whose scheduler otherwise runs short rounds
        // near-sequentially, parking nothing — gets waiters announcing
        // into the open batch and parking on it (spin phase cut to
        // zero). The retry loop stays as a backstop so no single
        // scheduling outcome decides the assertion.
        let threads = (sec_sync::topology::hardware_threads() + 1).max(4);
        for algo in [Algo::Sec { aggregators: 1 }, Algo::SecQueue] {
            let mut parked = 0;
            for round in 0..10 {
                let cfg = RunConfig {
                    duration: Duration::from_millis(20),
                    prefill: 64,
                    sec: |c| {
                        c.wait_policy(WaitPolicy::SpinThenPark { spin_rounds: 0 })
                            .freezer_backoff(1 << 12)
                            .freezer_yields(4)
                    },
                    seed: 0xBEEF ^ round,
                    ..RunConfig::new(threads, Mix::UPDATE_100)
                };
                let rep = run_algo(algo, &cfg).sec_report.expect("SEC reports");
                parked += rep.parks;
                if parked > 0 {
                    break;
                }
            }
            assert!(parked > 0, "{algo}: no park recorded in 10 rounds");
        }
    }

    #[test]
    fn counter_algo_runs_and_reports_batch_stats() {
        let cfg = RunConfig {
            duration: Duration::from_millis(15),
            ..RunConfig::new(2, Mix::UPDATE_100)
        };
        let out = run_algo(Algo::SecCounter, &cfg);
        assert!(out.result.ops > 0);
        let report = out.sec_report.expect("SecCounter must report batch stats");
        assert!(report.batches > 0);
        assert_eq!(report.eliminated, 0, "counter batches are homogeneous");
        assert_eq!(report.combined, report.ops);
        assert!(out.sec_active.is_some());
        assert!(out.reclaim.is_some());
    }

    #[test]
    fn map_lineup_runs_and_sec_map_reports_batch_stats() {
        use crate::spec::{KeyDist, MapMix};
        for algo in MAP_LINEUP {
            assert_eq!(kind(algo), "map");
            let cfg = RunConfig {
                duration: Duration::from_millis(15),
                prefill: 64,
                map_mix: MapMix::WRITE_HEAVY,
                key_dist: KeyDist::Zipfian {
                    keys: 128,
                    theta: 0.99,
                },
                ..RunConfig::new(2, Mix::UPDATE_100)
            };
            let out = run_algo(algo, &cfg);
            assert!(out.result.ops > 0, "{algo} made no progress");
            if algo == Algo::SecMap {
                let report = out.sec_report.expect("SecMap must report batch stats");
                assert!(report.batches > 0);
                assert_eq!(report.eliminated, 0, "map batches are homogeneous");
                assert_eq!(report.combined, report.ops);
            } else {
                assert!(out.sec_report.is_none(), "{algo} has no batch stats");
            }
        }
    }

    #[test]
    fn sec_families_cover_all_five_kinds_with_distinct_labels() {
        let labels: std::collections::HashSet<String> =
            SEC_FAMILIES.iter().map(|a| a.label()).collect();
        assert_eq!(labels.len(), SEC_FAMILIES.len());
        assert!(labels.contains("SecCounter"));
        assert!(labels.contains("SecMap"));
        let kinds = SEC_FAMILIES.map(kind);
        for k in ["stack", "queue", "counter", "map"] {
            assert!(kinds.contains(&k), "SEC_FAMILIES has no {k}");
        }
    }

    #[test]
    fn sec_policy_override_reaches_counter_and_map() {
        use sec_core::AggregatorPolicy;
        let cfg = RunConfig {
            duration: Duration::from_millis(10),
            prefill: 16,
            sec: |c| {
                c.aggregator_policy(AggregatorPolicy::Adaptive {
                    min_k: 3,
                    max_k: 3,
                    window: 64,
                })
            },
            ..RunConfig::new(2, Mix::UPDATE_100)
        };
        for algo in [Algo::SecCounter, Algo::SecMap] {
            let out = run_algo(algo, &cfg);
            assert_eq!(out.sec_active, Some(3), "{algo}: override wins");
        }
    }

    #[test]
    fn non_sec_runs_have_no_batch_stats() {
        let cfg = RunConfig {
            duration: Duration::from_millis(10),
            prefill: 16,
            ..RunConfig::new(1, Mix::UPDATE_100)
        };
        assert!(run_algo(Algo::Trb, &cfg).sec_report.is_none());
    }
}
