//! Regenerates the figures, Table 1 and the ablations. A figure runs a
//! lineup across its thread axis under each of its workloads and
//! prints one table + ASCII plot and writes one CSV per workload; a
//! long table (marked below) writes one row per measured cell.
//!
//! ```text
//! cargo run -p sec-bench --release --bin sweep -- fig2 fig3 fig4
//! cargo run -p sec-bench --release --bin sweep -- fig2 --duration-ms 5000 --runs 5
//! ```
//!
//! Figures are named by positional arguments and run in the order
//! given; the flags are the shared [`BenchOpts`] ones.
//!
//! | name | CSVs | lineup |
//! |------|------|--------|
//! | `fig2` | `fig2_upd{100,50,10}` | **Figure 2** (Figures 5/9): the six algorithms under the three update mixes |
//! | `fig3` | `fig3_{push,pop}_only` | **Figure 3** (Figures 6/10): the same six where no elimination is possible |
//! | `fig4` | `fig4_{upd100,upd50,upd10,push_only,pop_only}` | **Figure 4** (Figures 7/8/11/12): `SEC_Agg1`…`SEC_Agg5` plus the elastic `SEC_Ada1to5` (DESIGN.md §8) |
//! | `adaptive_k` | `adaptive_k_{upd100,upd50,push_only}` | the fig4 lineup, plus a best-static-K table per workload and a PASS/WARN line (target: elastic within 5% of the best static K everywhere) |
//! | `queue_bench` | `queue_{upd100,enq_only,deq_only}` | SEC-Q (DESIGN.md §9) vs Michael–Scott vs the locked floor |
//! | `map_bench` | `map_{uniform,zipf}_{read,write}` | SEC-M (DESIGN.md §13) vs the locked floor over key distribution × read/write-heavy |
//! | `families` | `families`, `BENCH_families.json` | every SEC family on the one engine (DESIGN.md §12), update-heavy |
//! | `oversub` | `oversub_{stack,queue}` | the SEC stack and queue under each wait policy (DESIGN.md §11) at 1×/2×/4×/8× the hardware threads unless `--threads` is given |
//! | `shard_policy` | `shard_policy`, `shard_policy_elim` | Block vs RoundRobin thread-to-aggregator mapping at K = 2 and 4 (DESIGN.md §7): throughput, and % of ops eliminated |
//! | `recl_ablation` | `recl_ablation` | the Treiber stack over epochs, hazard pointers and no reclamation (the leak floor), plus SEC (paper §4) |
//! | `table1` | `table1` (long) | **Table 1** (Tables 2/3): SEC's batching degree, %elimination and %combining per update mix, averaged over the threads ≥ 2 of the sweep, next to the binomial model's prediction at the measured degree |
//! | `freezer_backoff` | `freezer_backoff` (long) | the §3.1 freezer backoff: SEC throughput, batching degree and %elimination per (spins, yields) configuration, at the sweep's last thread count |
//! | `latency` | `latency` (long) | per-op p50/p90/p99/p999/max per (mix, algorithm) at the sweep's last thread count, plus the SEC stack and queue under each wait policy oversubscribed (4× the hardware threads unless `--threads` is given; its last value then) |
//! | `durable_bench` | `durable` (long), `BENCH_durable.json` | every durable SEC family per logging mode (DESIGN.md §16), from no log to a flush per op, at `--max-threads` clamped to 2..=4 threads |
//!
//! Columns after the plotted series are unplotted counters over a
//! cell's runs: SEC's node recycling in `fig2` (DESIGN.md §10), the
//! elastic series' grows/shrinks in `fig4` and `adaptive_k`, the full
//! SEC counter block in `queue_bench` and `map_bench`, each family's
//! batching degree and fixed-work p99 latency in `families`, and each
//! wait policy's p50/p99/p999 latency and park/wake/spurious totals in
//! `oversub` (EXPERIMENTS.md reads each block).
//!
//! Every figure measures run-major: each of the `--runs` passes visits
//! every cell once (a thread-axis figure: every thread count and,
//! within it, every series), so drift on the host (a noisy co-tenant,
//! thermal throttling) biases all cells alike instead of poisoning
//! whole series. Latency columns come from one fixed-work pass per
//! cell after the throughput runs, on a structure built with the
//! series' own SEC patch; a figure whose columns are all latencies
//! (`latency`) runs only that pass.
//!
//! One writer stops on a number no measurement produces
//! ([`Table::check`]), naming the figure, row and column. A JSON drop
//! also records the host and the cache-line round trip before and
//! after the figure.

use sec_bench::{
    algo_latency, map_bench_capacity, map_bench_sec, wait_label, write_bench_json, write_reported,
    BenchOpts, Json, WAIT_POLICIES,
};
use sec_core::sec::model;
use sec_core::{LogGranularity, SecConfig, ShardPolicy, SyncMode};
use sec_sync::topology;
use sec_workload::stats::{DegreeTotals, ReclaimTotals, ResizeTotals, Summary, WaitTotals};
use sec_workload::table::{Figure, Table};
use sec_workload::{
    run_algo, Algo, AlgoRun, DurableSetup, KeyDist, LatencyReport, MapMix, Mix, RunConfig,
    SecPatch, ALL_COMPETITORS, MAP_LINEUP, QUEUE_LINEUP, SEC_FAMILIES,
};

/// The figure names, in catalog order.
const FIGURES: &str = "fig2 fig3 fig4 adaptive_k queue_bench map_bench families oversub \
                       shard_policy recl_ablation table1 freezer_backoff latency durable_bench";

/// A value column: its name (a thread-axis figure's counter columns
/// are `<series>_<name>`) and its value in a cell. A name ending in
/// `_ns` reads the cell's latency pass.
type Col = (&'static str, fn(&Cell) -> f64);

const GROWS: Col = ("grows", |c| c.resizes.grows as f64);
const SHRINKS: Col = ("shrinks", |c| c.resizes.shrinks as f64);
const RECYCLE_HIT_PCT: Col = ("recycle_hit_pct", |c| c.recycle.hit_pct());
const RECYCLE_MISSES: Col = ("recycle_misses", |c| c.recycle.misses as f64);
const RECYCLE_OVERFLOWS: Col = ("recycle_overflows", |c| c.recycle.overflows as f64);
const BATCH_DEGREE: Col = ("batch_degree", |c| c.mean(c.degree_sum));
const P50_NS: Col = ("p50_ns", |c| c.latency(|l| l.p50));
const P90_NS: Col = ("p90_ns", |c| c.latency(|l| l.p90));
const P99_NS: Col = ("p99_ns", |c| c.latency(|l| l.p99));
const P999_NS: Col = ("p999_ns", |c| c.latency(|l| l.p999));
const MAX_NS: Col = ("max_ns", |c| c.latency(|l| l.max));
const PARKS: Col = ("parks", |c| c.waits.parks as f64);
const WAKES: Col = ("wakes", |c| c.waits.wakes as f64);
const SPURIOUS: Col = ("spurious", |c| c.waits.spurious as f64);
const MOPS: Col = ("mops", |c| c.summary().mean);
const MOPS_MEAN: Col = ("mops_mean", |c| c.summary().mean);
const CV_PCT: Col = ("cv_pct", |c| c.summary().cv_pct());
const PCT_ELIM: Col = ("pct_elim", |c| c.mean(c.elim_pct_sum));
const REL_OFF: Col = ("rel_off", |c| c.summary().mean / c.reference);

/// The SEC counter block: mean batching degree, its distribution
/// (sec-trace's per-batch histogram — the mean says how much combining
/// happened, min/p50/p99/max how it was shaped), combiner CAS failures,
/// resize totals (structurally zero for the queue, which does not
/// resize) and recycling.
const SEC_BLOCK: &[Col] = &[
    BATCH_DEGREE,
    ("degree_min", |c| c.degrees.min as f64),
    ("degree_p50", |c| c.degrees.p50_mean()),
    ("degree_p99", |c| c.degrees.p99_mean()),
    ("degree_max", |c| c.degrees.max as f64),
    ("cas_failures", |c| c.cas_failures as f64),
    GROWS,
    SHRINKS,
    RECYCLE_HIT_PCT,
    RECYCLE_MISSES,
    RECYCLE_OVERFLOWS,
];

/// Table 1's columns: the measured degrees, then the binomial model's
/// %elimination and %combining for a batch of the measured mean size
/// (every Table 1 mix pushes as often as it pops: push share 0.5).
/// Measurement tracking the model is §6's "elimination degree is
/// optimal within each batch", quantified.
const TABLE1: &[Col] = &[
    ("batching_degree", |c| c.mean(c.degree_sum)),
    ("pct_elimination", |c| c.mean(c.elim_pct_sum)),
    ("pct_combining", |c| c.mean(c.comb_pct_sum)),
    ("model_pct_elimination", |c| {
        c.model(model::expected_pct_eliminated)
    }),
    ("model_pct_combining", |c| {
        c.model(model::expected_pct_combined)
    }),
];

/// The freezer backoff configurations `freezer_backoff` sweeps, as
/// SEC patches: pause-loop spins, then scheduler yields. The defaults
/// are 16 spins and 1 yield.
const BACKOFFS: [SecPatch; 10] = [
    |c| c.freezer_backoff(0).freezer_yields(0),
    |c| c.freezer_backoff(64).freezer_yields(0),
    |c| c.freezer_backoff(256).freezer_yields(0),
    |c| c.freezer_backoff(1024).freezer_yields(0),
    |c| c.freezer_backoff(4096).freezer_yields(0),
    |c| c.freezer_backoff(0).freezer_yields(1),
    |c| c.freezer_backoff(16).freezer_yields(1),
    |c| c.freezer_backoff(64).freezer_yields(1),
    |c| c.freezer_backoff(0).freezer_yields(2),
    |c| c.freezer_backoff(0).freezer_yields(4),
];

/// Fixed-work operations per thread of a latency pass.
const LATENCY_OPS_PER_THREAD: u64 = 2_000;

/// One series of a lineup: the structure, the SEC patch its runs are
/// built with, and its CSV label.
#[derive(Clone)]
struct Series {
    algo: Algo,
    sec: SecPatch,
    label: String,
}

impl Series {
    /// `algo` as configured by default, under its legend label.
    fn of(algo: Algo) -> Self {
        Series {
            algo,
            sec: |c| c,
            label: algo.label(),
        }
    }
}

/// A second CSV a case writes from the same cells: another per-cell
/// value of every series.
struct Companion {
    stem: &'static str,
    title: &'static str,
    unit: &'static str,
    value: fn(&Cell) -> f64,
}

/// One workload of a thread-axis figure: its CSV stem, table title,
/// lineup, the configuration of every cell (the sweep sets `threads`
/// and the series' `sec`), and an optional companion CSV.
struct Case {
    stem: &'static str,
    title: String,
    cfg: RunConfig,
    lineup: Vec<Series>,
    companion: Option<Companion>,
}

/// One measured cell: its key fields in a long table, its series, and
/// the configuration of each run it folds in (a `table1` row folds one
/// per thread count).
struct Row {
    keys: Vec<String>,
    series: Series,
    cfgs: Vec<RunConfig>,
    /// The row that this one's `rel_off` reads against
    /// (`durable_bench`: the family's `off` row).
    against: Option<usize>,
}

/// A long table: one CSV row per measured cell, its key columns first.
/// Its leading `mops*` columns plot throughput.
struct Long {
    stem: &'static str,
    keys: &'static [&'static str],
    cols: &'static [Col],
    rows: Vec<Row>,
}

/// A cell's configuration under `mix`, before the sweep sets `threads`.
fn mix_cfg(opts: &BenchOpts, mix: Mix) -> RunConfig {
    // Pop-only: scale the prefill with the measurement window so pops
    // measure removal, not the EMPTY path (capped to bound memory on
    // paper-length runs).
    let prefill = if mix == Mix::POP_ONLY {
        (opts.duration.as_millis() as usize * 4_000).clamp(100_000, 2_000_000)
    } else {
        opts.prefill
    };
    RunConfig {
        duration: opts.duration,
        prefill,
        ..RunConfig::new(1, mix)
    }
}

/// One figure: its thread-axis workloads with their axis and counter
/// columns, or its long table; and the JSON drop it also writes.
struct Spec {
    banner: String,
    cases: Vec<Case>,
    /// The thread axis.
    threads: fn(&BenchOpts) -> Vec<usize>,
    /// Registration capacity per thread count (`None` keeps the tight
    /// `threads + 1`).
    capacity: fn(usize) -> Option<usize>,
    /// The series that export [`counters`](Self::counters).
    counted: fn(&Algo) -> bool,
    counters: &'static [Col],
    long: Option<Long>,
    /// The `BENCH_*.json` file that repeats the figure's cells.
    json: Option<&'static str>,
}

impl Spec {
    fn new(banner: impl Into<String>, cases: Vec<Case>) -> Self {
        Spec {
            banner: banner.into(),
            cases,
            threads: BenchOpts::sweep,
            capacity: |_| None,
            counted: |_| false,
            counters: &[],
            long: None,
            json: None,
        }
    }
}

/// The figure called `name`, or `None` for an unknown name.
fn spec(name: &str, opts: &BenchOpts) -> Option<Spec> {
    let cases = |title: &str, lineup: &[Series], mixes: &[(Mix, &'static str)]| -> Vec<Case> {
        mixes
            .iter()
            .map(|&(mix, stem)| Case {
                stem,
                title: format!("{title} — {mix}"),
                cfg: mix_cfg(opts, mix),
                lineup: lineup.to_vec(),
                companion: None,
            })
            .collect()
    };
    let plain = |lineup: &[Algo]| lineup.iter().map(|&a| Series::of(a)).collect::<Vec<_>>();
    // SEC_Agg1..5 plus the elastic K ∈ [1, 5], every static series
    // labelled with its K.
    let ablation = |banner, title, mixes: &[(Mix, &'static str)]| {
        let lineup: Vec<Series> = (1..=5)
            .map(|k| Algo::Sec { aggregators: k })
            .chain([Algo::SecAdaptive { min_k: 1, max_k: 5 }])
            .map(|algo| Series {
                label: algo.ablation_label(),
                ..Series::of(algo)
            })
            .collect();
        Spec {
            counted: |a| matches!(a, Algo::SecAdaptive { .. }),
            counters: &[GROWS, SHRINKS],
            ..Spec::new(banner, cases(title, &lineup, mixes))
        }
    };
    let row = |keys: Vec<String>, series: Series, cfg: RunConfig| Row {
        keys,
        series,
        cfgs: vec![cfg],
        against: None,
    };
    let last_thread = || *opts.sweep().last().unwrap_or(&2);
    let at = |threads, cfg| RunConfig { threads, ..cfg };
    let sec2 = |sec: SecPatch| Series {
        sec,
        ..Series::of(Algo::Sec { aggregators: 2 })
    };
    let long = |banner: String, stem, keys, cols, rows| Spec {
        long: Some(Long {
            stem,
            keys,
            cols,
            rows,
        }),
        ..Spec::new(banner, Vec::new())
    };
    let (upd100, upd50, upd10) = (Mix::UPDATE_100, Mix::UPDATE_50, Mix::UPDATE_10);
    let (push_only, pop_only) = (Mix::PUSH_ONLY, Mix::POP_ONLY);
    Some(match name {
        "fig2" => Spec {
            counted: |a| matches!(a, Algo::Sec { .. }),
            counters: &[RECYCLE_HIT_PCT, RECYCLE_MISSES, RECYCLE_OVERFLOWS],
            ..Spec::new(
                "Figure 2: throughput vs #threads, 6 algorithms, 3 mixes",
                cases(
                    "Figure 2",
                    &plain(&ALL_COMPETITORS),
                    &[
                        (upd100, "fig2_upd100"),
                        (upd50, "fig2_upd50"),
                        (upd10, "fig2_upd10"),
                    ],
                ),
            )
        },
        "fig3" => Spec::new(
            "Figure 3: push-only and pop-only throughput",
            cases(
                "Figure 3",
                &plain(&ALL_COMPETITORS),
                &[(push_only, "fig3_push_only"), (pop_only, "fig3_pop_only")],
            ),
        ),
        "fig4" => ablation(
            "Figure 4: SEC with 1..=5 aggregators",
            "Figure 4",
            &[
                (upd100, "fig4_upd100"),
                (upd50, "fig4_upd50"),
                (upd10, "fig4_upd10"),
                (push_only, "fig4_push_only"),
                (pop_only, "fig4_pop_only"),
            ],
        ),
        "adaptive_k" => ablation(
            "Elastic sharding ablation: adaptive K vs best static K",
            "adaptive_k",
            &[
                (upd100, "adaptive_k_upd100"),
                (upd50, "adaptive_k_upd50"),
                (push_only, "adaptive_k_push_only"),
            ],
        ),
        "queue_bench" => Spec {
            counted: |a| *a == Algo::SecQueue,
            counters: SEC_BLOCK,
            ..Spec::new(
                "Queue bench: SEC-Q vs MS vs LCK-Q, 3 mixes",
                cases(
                    "Queue throughput",
                    &plain(&QUEUE_LINEUP),
                    &[
                        (upd100, "queue_upd100"),
                        (push_only, "queue_enq_only"),
                        (pop_only, "queue_deq_only"),
                    ],
                ),
            )
        },
        "map_bench" => {
            let uniform = KeyDist::Uniform { keys: 1024 };
            let zipf = KeyDist::Zipfian {
                keys: 1024,
                theta: 3.0,
            };
            let mut lineup = plain(&MAP_LINEUP);
            for series in &mut lineup {
                if series.algo == Algo::SecMap {
                    series.sec = map_bench_sec;
                }
            }
            let case = |key_dist: KeyDist, map_mix: MapMix, stem: &'static str| Case {
                stem,
                title: format!("Map throughput — {key_dist}, {map_mix}"),
                cfg: RunConfig {
                    map_mix,
                    key_dist,
                    ..mix_cfg(opts, upd100)
                },
                lineup: lineup.clone(),
                companion: None,
            };
            Spec {
                // Below 4 threads keep the tight default — there the
                // share guard disables resizing for any input.
                capacity: |threads| (threads >= 4).then(|| map_bench_capacity(threads)),
                counted: |a| *a == Algo::SecMap,
                counters: SEC_BLOCK,
                ..Spec::new(
                    "Map bench: SEC-M vs LCK-M, {uniform,zipfian} x {read,write}-heavy",
                    vec![
                        case(uniform, MapMix::READ_HEAVY, "map_uniform_read"),
                        case(uniform, MapMix::WRITE_HEAVY, "map_uniform_write"),
                        case(zipf, MapMix::READ_HEAVY, "map_zipf_read"),
                        case(zipf, MapMix::WRITE_HEAVY, "map_zipf_write"),
                    ],
                )
            }
        }
        "families" => Spec {
            counted: |_| true,
            counters: &[BATCH_DEGREE, P99_NS],
            json: Some("BENCH_families.json"),
            ..Spec::new(
                "SEC families: stack, adaptive stack, queue, counter, map",
                vec![Case {
                    stem: "families",
                    title: "SEC family throughput — update-heavy workloads".into(),
                    cfg: RunConfig {
                        // The map family reads its own mix/distribution
                        // fields; the stack, queue and counter read
                        // `mix`. Update-heavy everywhere so every op
                        // enters a batch.
                        map_mix: MapMix::WRITE_HEAVY,
                        ..mix_cfg(opts, upd100)
                    },
                    lineup: plain(&SEC_FAMILIES),
                    companion: None,
                }],
            )
        },
        // With threads <= cores the wait policies are near-identical
        // (waits resolve inside the spin phase); past the cores,
        // spinning waiters steal their combiners' cycles, yielding
        // ones keep the run queue full, and parking takes them off it.
        "oversub" => {
            let hw = topology::hardware_threads().max(1);
            let case = |algo: Algo, family: &str, stem: &'static str| Case {
                stem,
                title: format!("{family} throughput vs oversubscription — {upd100}"),
                cfg: mix_cfg(opts, upd100),
                lineup: WAIT_POLICIES
                    .map(|sec| Series {
                        algo,
                        sec,
                        label: format!("{algo}_{}", wait_label(sec)),
                    })
                    .to_vec(),
                companion: None,
            };
            Spec {
                threads: |opts| {
                    let hw = topology::hardware_threads().max(1);
                    let axis = vec![hw, 2 * hw, 4 * hw, 8 * hw];
                    opts.threads_list.clone().unwrap_or(axis)
                },
                counted: |_| true,
                counters: &[P50_NS, P99_NS, P999_NS, PARKS, WAKES, SPURIOUS],
                ..Spec::new(
                    format!(
                        "Oversubscription: wait policies at 1x/2x/4x/8x of {hw} hardware threads"
                    ),
                    vec![
                        case(Algo::Sec { aggregators: 2 }, "SecStack", "oversub_stack"),
                        case(Algo::SecQueue, "SecQueue", "oversub_queue"),
                    ],
                )
            }
        }
        // The paper maps threads to aggregators in contiguous blocks;
        // RoundRobin interleaves them. On one socket the two mostly
        // tie — the mapping matters on NUMA hosts.
        "shard_policy" => {
            const BLOCK: SecPatch = |c| c.shard_policy(ShardPolicy::Block);
            const RROBIN: SecPatch = |c| c.shard_policy(ShardPolicy::RoundRobin);
            let lineup = [2, 4]
                .into_iter()
                .flat_map(|k| [(k, BLOCK, "block"), (k, RROBIN, "rrobin")])
                .map(|(k, sec, name)| Series {
                    algo: Algo::Sec { aggregators: k },
                    sec,
                    label: format!("{name}_K{k}"),
                })
                .collect();
            Spec::new(
                "Ablation: Block vs RoundRobin sharding (100% updates)",
                vec![Case {
                    stem: "shard_policy",
                    title: "throughput by shard policy".into(),
                    cfg: mix_cfg(opts, upd100),
                    lineup,
                    companion: Some(Companion {
                        stem: "shard_policy_elim",
                        title: "%elimination by shard policy",
                        unit: "% of ops",
                        value: PCT_ELIM.1,
                    }),
                }],
            )
        }
        // The Treiber stack's pop dereferences shared nodes on every
        // CAS attempt, so it is the lineup's most reclamation-sensitive
        // algorithm: epochs should sit near the leak floor (a pin is
        // two relaxed stores), hazard pointers pay a fence per pop
        // attempt, and SEC's combiners amortize the pin over a batch.
        "recl_ablation" => {
            let lineup = [
                (Algo::Trb, "TRB (EBR)"),
                (Algo::TrbHp, "TRB-HP"),
                (Algo::Sec { aggregators: 2 }, "SEC (EBR)"),
                (Algo::TrbLeak, "TRB-LEAK (floor)"),
            ]
            .map(|(algo, label)| Series {
                label: label.into(),
                ..Series::of(algo)
            });
            Spec::new(
                "Ablation: reclamation substrate on the Treiber hot path (100% updates)",
                vec![Case {
                    stem: "recl_ablation",
                    title: "throughput by reclamation scheme".into(),
                    cfg: mix_cfg(opts, upd100),
                    lineup: lineup.to_vec(),
                    companion: None,
                }],
            )
        }
        // Batching is a concurrency phenomenon: a row averages its
        // mix's cells over the sweep's thread counts from 2 up, as the
        // paper aggregates ("average size of batches during an
        // execution … across different thread counts").
        "table1" => {
            let threads: Vec<usize> = opts.sweep().into_iter().filter(|&t| t >= 2).collect();
            let rows = [upd100, upd50, upd10].map(|mix| Row {
                keys: vec![format!("{}% upd", mix.update_pct())],
                series: sec2(|c| c),
                cfgs: threads.iter().map(|&t| at(t, mix_cfg(opts, mix))).collect(),
                against: None,
            });
            let banner = "Table 1: SEC (2 aggregators) batching degree / %elimination / \
                          %combining\n# paper (Emerald): degrees 17.8/17.2/14, elim 79/79/77%, \
                          comb 21/21/23%";
            long(banner.into(), "table1", &["workload"], TABLE1, rows.into())
        }
        // A longer window buys bigger batches and more elimination, up
        // to where waiting dominates. The freezer spends the window
        // only on evidence (DESIGN.md §12 "Freezer backoff"), and
        // yields only while threads outnumber hardware threads.
        "freezer_backoff" => {
            let threads = last_thread();
            let cfg = at(threads, mix_cfg(opts, upd100));
            let rows = BACKOFFS.iter().map(|&sec| {
                let c = sec(SecConfig::new(1, 1));
                let keys = vec![c.freezer_backoff.to_string(), c.freezer_yields.to_string()];
                row(keys, sec2(sec), cfg)
            });
            let banner = format!(
                "Ablation: freezer backoff sweep (SEC, 100% updates, {threads} threads; \
                 defaults: 16 spins, 1 yield)"
            );
            let (keys, cols) = (&["spins", "yields"], &[MOPS, BATCH_DEGREE, PCT_ELIM]);
            long(banner, "freezer_backoff", keys, cols, rows.collect())
        }
        // The distributional view behind the throughput figures: SEC
        // and the combining stacks block, so their tails carry the
        // freezer/combiner waits; TSI's carries its pop-side scans.
        // Oversubscribed, a spinning waiter's tail is a scheduling
        // quantum and a parked one's a wakeup (DESIGN.md §11).
        "latency" => {
            let threads = last_thread();
            let hw = topology::hardware_threads().max(1);
            let over = opts.threads_list.as_ref();
            let over = over.map_or(4 * hw, |l| l[l.len() - 1]);
            // The map family reads the mix as its keyed counterpart:
            // peek→get, push→insert, pop→remove.
            let latency_row = |mix: Mix, key: String, series: Series, threads| {
                let map_mix = MapMix::new(mix.peek, mix.push, mix.pop);
                let cfg = RunConfig {
                    map_mix,
                    ..RunConfig::new(threads, mix)
                };
                row(vec![key, series.label.clone()], series, cfg)
            };
            let mut rows = Vec::new();
            for (mix, lineup) in [
                (upd100, &ALL_COMPETITORS[..]),
                (upd50, &ALL_COMPETITORS[..]),
                (upd10, &ALL_COMPETITORS[..]),
                // The queue lineup has no read-only operation.
                (upd100, &QUEUE_LINEUP[..]),
                (upd100, &[Algo::SecCounter][..]),
                (upd100, &MAP_LINEUP[..]),
                (upd10, &MAP_LINEUP[..]),
            ] {
                for &algo in lineup {
                    rows.push(latency_row(mix, mix.label(), Series::of(algo), threads));
                }
            }
            for sec in WAIT_POLICIES {
                for algo in [Algo::Sec { aggregators: 2 }, Algo::SecQueue] {
                    let label = format!("{algo}[{}]", wait_label(sec));
                    let series = Series { algo, sec, label };
                    rows.push(latency_row(upd100, format!("upd100@{over}t"), series, over));
                }
            }
            let banner = format!(
                "Per-op latency percentiles (ns), {LATENCY_OPS_PER_THREAD} timed ops/thread \
                 at {threads} threads (upd100@{over}t: {over})"
            );
            let cols = &[P50_NS, P90_NS, P99_NS, P999_NS, MAX_NS];
            long(banner, "latency", &["mix", "algo"], cols, rows)
        }
        // A durable batch writes one log record (and, synced, one
        // msync) for the whole batch, so the per-op cost of durability
        // shrinks with the batching degree; the per-op rows are the
        // strawman, one record and one flush per operation. The axis is
        // the mode, not the thread count: one moderately contended cell
        // per (family, mode).
        "durable_bench" => {
            let threads = opts.max_threads.clamp(2, 4);
            // A batch never holds more entries than there are handles.
            let vol = DurableSetup {
                batch_entries: threads,
                ..DurableSetup::volatile()
            };
            let mmap = DurableSetup {
                file_backed: true,
                ..vol
            };
            let per_op = |s| DurableSetup {
                granularity: LogGranularity::PerOp,
                batch_entries: 1,
                ..s
            };
            let synced = |s| DurableSetup {
                sync: SyncMode::Sync,
                ..s
            };
            let modes = [
                ("off", None),
                ("vol/batch", Some(vol)),
                ("vol/op", Some(per_op(vol))),
                ("mmap/batch", Some(mmap)),
                ("mmap/batch+sync", Some(synced(mmap))),
                ("mmap/op+sync", Some(synced(per_op(mmap)))),
            ];
            let map_mix = MapMix::WRITE_HEAVY;
            let cfg = at(
                threads,
                RunConfig {
                    map_mix,
                    ..mix_cfg(opts, upd100)
                },
            );
            let mut rows = Vec::new();
            // The adaptive stack's durable constructor is the fixed
            // stack's: durable shards are outside the elastic range.
            for algo in SEC_FAMILIES
                .into_iter()
                .filter(|a| !matches!(a, Algo::SecAdaptive { .. }))
            {
                let off = rows.len();
                for (mode, durable) in modes {
                    let keys = vec![algo.label(), mode.into()];
                    let against = durable.map(|_| off);
                    rows.push(Row {
                        against,
                        ..row(keys, Series::of(algo), RunConfig { durable, ..cfg })
                    });
                }
            }
            let banner = format!(
                "durable logging: flush-per-batch vs flush-per-op at {threads} threads\n\
                 # rel_off = throughput / the family's off row"
            );
            let cols = &[MOPS_MEAN, CV_PCT, REL_OFF];
            Spec {
                json: Some("BENCH_durable.json"),
                ..long(banner, "durable", &["family", "mode"], cols, rows)
            }
        }
        _ => return None,
    })
}

/// Everything measured in one cell over the `--runs` repeats.
#[derive(Default)]
struct Cell {
    /// Throughput of each run, Mops/s.
    mops: Vec<f64>,
    /// Batching degree and % of ops eliminated and combined, summed
    /// over the SEC runs (see [`mean`](Self::mean)).
    degree_sum: f64,
    elim_pct_sum: f64,
    comb_pct_sum: f64,
    cas_failures: u64,
    resizes: ResizeTotals,
    recycle: ReclaimTotals,
    degrees: DegreeTotals,
    waits: WaitTotals,
    /// Active aggregators at the end of the last SEC run.
    active: Option<usize>,
    /// The fixed-work latency pass, when the figure exports one.
    latency: Option<LatencyReport>,
    /// The mean throughput of the row this one reads against (its
    /// own, for a row read against none).
    reference: f64,
}

impl Cell {
    fn add(&mut self, out: &AlgoRun) {
        self.mops.push(out.result.mops());
        if let Some(rep) = &out.sec_report {
            self.degree_sum += rep.batching_degree();
            self.elim_pct_sum += rep.pct_eliminated();
            self.comb_pct_sum += rep.pct_combined();
            self.cas_failures += rep.cas_failures;
        }
        self.resizes.add(out.sec_report.as_ref());
        self.recycle.add(out.reclaim.as_ref());
        self.degrees.add(out.sec_report.as_ref());
        self.waits.add(out.sec_report.as_ref());
        self.active = out.sec_active.or(self.active);
    }

    fn summary(&self) -> Summary {
        Summary::of(&self.mops)
    }

    /// A per-run sum as a mean over every run (0 for non-SEC series).
    fn mean(&self, sum: f64) -> f64 {
        sum / self.mops.len().max(1) as f64
    }

    /// One percentile of the latency pass, ns.
    fn latency(&self, pick: fn(&LatencyReport) -> u64) -> f64 {
        self.latency.as_ref().map_or(0, pick) as f64
    }

    /// A binomial-model prediction for a batch of the mean batching
    /// degree, rounded, with push share 0.5.
    fn model(&self, prediction: fn(u64, f64) -> f64) -> f64 {
        prediction(self.mean(self.degree_sum).round() as u64, 0.5)
    }
}

/// Measures every row: `--runs` passes, run-major, each visiting every
/// row and every configuration of a row once; then, when `latency`,
/// one fixed-work latency pass per row. A figure whose columns read
/// only the latency pass skips the passes (`timed` false).
fn measure(stem: &str, rows: &[Row], opts: &BenchOpts, timed: bool, latency: bool) -> Vec<Cell> {
    let mut cells: Vec<Cell> = rows.iter().map(|_| Cell::default()).collect();
    let name = |row: &Row| format!("{stem} | {:>8} | {}", row.series.label, row.keys.join(" "));
    for r in 0..if timed { opts.runs } else { 0 } {
        for (i, row) in rows.iter().enumerate() {
            for cfg in &row.cfgs {
                let cfg = RunConfig {
                    sec: row.series.sec,
                    seed: cfg.seed ^ (r as u64) << 32,
                    ..*cfg
                };
                cells[i].add(&run_algo(row.series.algo, &cfg));
            }
            if r + 1 == opts.runs {
                let mops = cells[i].summary();
                let cv = mops.cv_pct();
                eprintln!("  {}: {:.3} Mops/s (cv {cv:.1}%)", name(row), mops.mean);
            }
        }
    }
    if latency {
        for (row, cell) in rows.iter().zip(&mut cells) {
            let (s, cfg) = (&row.series, &row.cfgs[0]);
            let ops = LATENCY_OPS_PER_THREAD;
            let l = algo_latency(s.algo, s.sec, cfg.threads, ops, cfg.mix, cfg.map_mix);
            let (p50, p99, p999) = (l.p50, l.p99, l.p999);
            eprintln!("  {}: p50 {p50} / p99 {p99} / p999 {p999} ns", name(row));
            cell.latency = Some(l);
        }
    }
    for i in 0..cells.len() {
        cells[i].reference = cells[rows[i].against.unwrap_or(i)].summary().mean;
    }
    cells
}

/// `adaptive_k`'s per-workload report: at every thread count, the best
/// static K, the elastic series' throughput as a fraction of it, the
/// active count the monitor settled on and the resize transitions (so
/// a "flat" result is distinguishable from a monitor that never
/// moved). Returns the workload's worst fraction and where it fell.
fn best_static_k(sweep: &[usize], series: &[(&Series, Vec<&Cell>)]) -> Option<(f64, usize)> {
    let (_, elastic) = series
        .iter()
        .find(|(s, _)| matches!(s.algo, Algo::SecAdaptive { .. }))?;
    println!(
        "{:>8} {:>10} {:>10} {:>9} {:>9} {:>14}",
        "threads", "best K", "best Mops", "ada/best", "active", "grows/shrinks"
    );
    let mut worst: Option<(f64, usize)> = None;
    for (i, &n) in sweep.iter().enumerate() {
        let (best_k, best) = series
            .iter()
            .filter_map(|(s, cells)| match s.algo {
                Algo::Sec { aggregators } => Some((aggregators, cells[i].summary().mean)),
                _ => None,
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty static lineup");
        let cell = elastic[i];
        let frac = if best > 0.0 {
            cell.summary().mean / best
        } else {
            1.0
        };
        println!(
            "{n:>8} {best_k:>10} {best:>10.3} {frac:>8.1}% {active:>9} {:>14}",
            format!("{}/{}", cell.resizes.grows, cell.resizes.shrinks),
            frac = 100.0 * frac,
            active = cell.active.unwrap_or(0),
        );
        if worst.is_none_or(|(w, _)| frac < w) {
            worst = Some((frac, n));
        }
    }
    println!();
    worst
}

/// The long table of `cells`, each with its key fields (named by
/// `keys`): one column per `cols`, the first `plotted` of them
/// throughputs.
fn long_table<'c>(
    keys: &[&str],
    cols: &[Col],
    plotted: usize,
    cells: impl Iterator<Item = (Vec<String>, &'c Cell)>,
) -> Table {
    let header = keys.iter().copied().chain(cols.iter().map(|c| c.0));
    Table {
        header: header.map(String::from).collect(),
        rows: cells
            .map(|(k, c)| (k, cols.iter().map(|col| col.1(c)).collect()))
            .collect(),
        plotted,
    }
}

/// The one writer's check: stops the sweep on a number no measurement
/// produces, naming the figure, the file, the row and the column.
fn checked<'t>(name: &str, file: &str, table: &'t Table) -> &'t Table {
    if let Err(e) = table.check() {
        panic!("figure {name}: {file}: {e}");
    }
    table
}

/// Writes `table` as `<stem>.csv` under `--csv`, after the check.
fn write_csv(name: &str, opts: &BenchOpts, stem: &str, table: &Table) {
    let file = format!("{stem}.csv");
    let body = checked(name, &file, table).render_csv();
    write_reported(&opts.csv_dir.join(file), &body);
}

/// Writes `table` as the `file` JSON drop (under `--csv` and in the
/// current directory), after the check: the run settings; the host
/// and build under the field names of the repository benchmark's
/// results; the cache-line round trip (ns) measured `before` and
/// `after` the figure; the column names and one array per row, numeric
/// keys as numbers.
fn write_json(name: &str, opts: &BenchOpts, file: &str, table: &Table, before: f64, after: f64) {
    let num = |&v: &f64| match v.fract() {
        0.0 if v >= 0.0 => Json::Int(v as u64),
        _ => Json::Fixed(v, 4),
    };
    let key = |k: &String| k.parse().map_or_else(|_| Json::str(k.as_str()), Json::Int);
    let row = |(keys, values): &(Vec<String>, Vec<f64>)| {
        Json::Array(keys.iter().map(key).chain(values.iter().map(num)).collect())
    };
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let profile = ["release", "debug"][cfg!(debug_assertions) as usize];
    // The checkout the sweep runs in, `none` outside one.
    let git = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output();
    let git = git.ok().filter(|out| out.status.success());
    let rev = git.map_or("none".into(), |o| {
        String::from_utf8_lossy(&o.stdout).trim().to_string()
    });
    let threads = topology::hardware_threads() as u64;
    let round_trip = [
        ("before", Json::Fixed(before, 1)),
        ("after", Json::Fixed(after, 1)),
    ];
    let doc = Json::Object(vec![
        ("bench", Json::str(name)),
        ("runs", Json::Int(opts.runs as u64)),
        ("duration_ms", Json::Int(opts.duration.as_millis() as u64)),
        (
            "host",
            Json::Object(vec![
                ("hardware_threads", Json::Int(threads)),
                ("kernel", Json::str(kernel.trim())),
                ("profile", Json::str(profile)),
                ("git_rev", Json::str(rev)),
            ]),
        ),
        ("line_round_trip_ns", Json::Object(round_trip.into())),
        (
            "columns",
            Json::Array(table.header.iter().map(|h| Json::str(h.as_str())).collect()),
        ),
        (
            "rows",
            Json::Array(checked(name, file, table).rows.iter().map(row).collect()),
        ),
    ]);
    write_bench_json(&opts.csv_dir, file, &doc);
}

/// Measures, prints and writes figure `name`.
fn run(name: &str, spec: &Spec, opts: &BenchOpts) {
    println!("{}", opts.banner(&spec.banner));
    let before = spec.json.map(|_| topology::line_round_trip_ns());
    let mut drop = None;
    let sweep = (spec.threads)(opts);
    let mut worst: Option<(f64, Mix, usize)> = None;
    let reads_latency = |cols: &[Col]| cols.iter().any(|(name, _)| name.ends_with("_ns"));
    for case in &spec.cases {
        // Thread-major, series-minor: the order every pass visits.
        let rows: Vec<Row> = sweep
            .iter()
            .flat_map(|&threads| {
                case.lineup.iter().map(move |s| Row {
                    keys: vec![threads.to_string()],
                    series: s.clone(),
                    cfgs: vec![RunConfig {
                        threads,
                        sec_capacity: (spec.capacity)(threads),
                        ..case.cfg
                    }],
                    against: None,
                })
            })
            .collect();
        let cells = measure(case.stem, &rows, opts, true, reads_latency(spec.counters));
        let n = case.lineup.len();
        let series: Vec<(&Series, Vec<&Cell>)> = case
            .lineup
            .iter()
            .enumerate()
            .map(|(si, s)| (s, (0..sweep.len()).map(|ti| &cells[ti * n + si]).collect()))
            .collect();
        let mut fig = Figure::new(case.title.clone(), sweep.clone());
        for (s, cells) in &series {
            let mops = cells.iter().map(|c| c.summary().mean).collect();
            fig.add_series(s.label.clone(), mops);
            if (spec.counted)(&s.algo) {
                for (suffix, value) in spec.counters {
                    let column = cells.iter().map(|c| value(c)).collect();
                    fig.add_extra(format!("{}_{suffix}", s.label), column);
                }
            }
        }
        println!("{}", fig.render_table());
        println!("{}", fig.render_ascii_plot(12));
        write_csv(name, opts, case.stem, &fig.table());
        if let Some(companion) = &case.companion {
            let mut fig = Figure::new(companion.title, sweep.clone()).y_unit(companion.unit);
            for (s, cells) in &series {
                let values = cells.iter().map(|c| (companion.value)(c)).collect();
                fig.add_series(s.label.clone(), values);
            }
            println!("{}", fig.render_table());
            write_csv(name, opts, companion.stem, &fig.table());
        }
        if name == "adaptive_k" {
            if let Some((frac, n)) = best_static_k(&sweep, &series) {
                if worst.is_none_or(|(w, _, _)| frac < w) {
                    worst = Some((frac, case.cfg.mix, n));
                }
            }
        }
        if spec.json.is_some() {
            // Every counted cell, with its throughput's mean and cv.
            let cols = [MOPS_MEAN, CV_PCT].iter().chain(spec.counters).copied();
            let counted = rows
                .iter()
                .zip(&cells)
                .filter(|(r, _)| (spec.counted)(&r.series.algo));
            let cells = counted.map(|(r, c)| (vec![r.series.label.clone(), r.keys[0].clone()], c));
            let keys = ["series", "threads"];
            drop = Some(long_table(&keys, &cols.collect::<Vec<_>>(), 1, cells));
        }
    }
    if let Some(long) = &spec.long {
        let timed = !long.cols.iter().all(|(name, _)| name.ends_with("_ns"));
        let cells = measure(long.stem, &long.rows, opts, timed, reads_latency(long.cols));
        let cells = long.rows.iter().map(|r| r.keys.clone()).zip(&cells);
        let plotted = long
            .cols
            .iter()
            .take_while(|c| c.0.starts_with("mops"))
            .count();
        let table = long_table(long.keys, long.cols, plotted, cells);
        println!("{}", table.render_csv());
        write_csv(name, opts, long.stem, &table);
        drop = drop.or(spec.json.map(|_| table));
    }
    if let (Some(file), Some(table), Some(before)) = (spec.json, &drop, before) {
        let after = topology::line_round_trip_ns();
        write_json(name, opts, file, table, before, after);
    }
    if let Some((frac, mix, n)) = worst {
        let verdict = if frac >= 0.95 { "PASS" } else { "WARN" };
        println!(
            "{verdict}: adaptive worst case {:.1}% of best static K \
             (at {n} threads, {mix}; target >= 95%)",
            100.0 * frac
        );
    }
}

fn main() {
    let (opts, names) = BenchOpts::from_args_and_names();
    assert!(!names.is_empty(), "name one or more figures: {FIGURES}");
    // Resolve every name before measuring anything, so a typo fails
    // fast instead of after the figures before it.
    let specs: Vec<(&String, Spec)> = names
        .iter()
        .map(|name| match spec(name, &opts) {
            Some(spec) => (name, spec),
            None => panic!("unknown figure {name}; expected one of: {FIGURES}"),
        })
        .collect();
    for (name, spec) in &specs {
        run(name, spec, &opts);
    }
}
