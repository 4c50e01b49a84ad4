//! Regenerates the throughput-vs-threads figures. A figure runs a
//! lineup across its thread axis under each of its workloads and
//! prints one table + ASCII plot and writes one CSV per workload.
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
//! every thread count and, within it, every series once, so drift on
//! the host (a noisy co-tenant, thermal throttling) biases all series
//! alike instead of poisoning whole series. Latency columns come from
//! one fixed-work pass per cell after the throughput runs, on a
//! structure built with the series' own SEC patch.
//!
//! `freezer_backoff` stays a separate bin: its x-axis is (spins,
//! yields) configurations, not thread counts.

use sec_bench::{
    algo_latency, map_bench_capacity, map_bench_sec, wait_label, write_bench_json, BenchOpts, Json,
    WAIT_POLICIES,
};
use sec_core::ShardPolicy;
use sec_sync::topology;
use sec_workload::stats::{DegreeTotals, ReclaimTotals, ResizeTotals, Summary, WaitTotals};
use sec_workload::table::Figure;
use sec_workload::{
    run_algo, Algo, AlgoRun, KeyDist, LatencyReport, MapMix, Mix, RunConfig, SecPatch,
    ALL_COMPETITORS, MAP_LINEUP, QUEUE_LINEUP, SEC_FAMILIES,
};

/// The figure names, in catalog order.
const FIGURES: &str =
    "fig2 fig3 fig4 adaptive_k queue_bench map_bench families oversub shard_policy";

/// A counter column: its `<series>_<suffix>` suffix and its value in a
/// cell. A suffix ending in `_ns` reads the cell's latency pass.
type Col = (&'static str, fn(&Cell) -> f64);

const GROWS: Col = ("grows", |c| c.resizes.grows as f64);
const SHRINKS: Col = ("shrinks", |c| c.resizes.shrinks as f64);
const RECYCLE_HIT_PCT: Col = ("recycle_hit_pct", |c| c.recycle.hit_pct());
const RECYCLE_MISSES: Col = ("recycle_misses", |c| c.recycle.misses as f64);
const RECYCLE_OVERFLOWS: Col = ("recycle_overflows", |c| c.recycle.overflows as f64);
const BATCH_DEGREE: Col = ("batch_degree", |c| c.mean(c.degree_sum));
const P50_NS: Col = ("p50_ns", |c| c.latency(|l| l.p50));
const P99_NS: Col = ("p99_ns", |c| c.latency(|l| l.p99));
const P999_NS: Col = ("p999_ns", |c| c.latency(|l| l.p999));
const PARKS: Col = ("parks", |c| c.waits.parks as f64);
const WAKES: Col = ("wakes", |c| c.waits.wakes as f64);
const SPURIOUS: Col = ("spurious", |c| c.waits.spurious as f64);

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

/// One workload of a figure: its CSV stem, table title, lineup, the
/// configuration of every cell (the sweep sets `threads` and the
/// series' `sec`), and an optional companion CSV.
struct Case {
    stem: &'static str,
    title: String,
    cfg: RunConfig,
    lineup: Vec<Series>,
    companion: Option<Companion>,
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

/// One figure: its workloads, its thread axis and its counter columns.
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
                        value: |c| c.mean(c.elim_pct_sum),
                    }),
                }],
            )
        }
        _ => return None,
    })
}

/// Everything measured in one (series, thread count) cell over the
/// `--runs` repeats.
#[derive(Default)]
struct Cell {
    threads: usize,
    /// Throughput of each run, Mops/s.
    mops: Vec<f64>,
    /// Batching degree and % of ops eliminated, summed over the SEC
    /// runs (see [`mean`](Self::mean)).
    degree_sum: f64,
    elim_pct_sum: f64,
    cas_failures: u64,
    resizes: ResizeTotals,
    recycle: ReclaimTotals,
    degrees: DegreeTotals,
    waits: WaitTotals,
    /// Active aggregators at the end of the last SEC run.
    active: Option<usize>,
    /// The fixed-work latency pass, when the figure exports one.
    latency: Option<LatencyReport>,
}

impl Cell {
    fn add(&mut self, out: &AlgoRun) {
        self.mops.push(out.result.mops());
        if let Some(rep) = &out.sec_report {
            self.degree_sum += rep.batching_degree();
            self.elim_pct_sum += rep.pct_eliminated();
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
}

/// `adaptive_k`'s per-workload report: at every thread count, the best
/// static K, the elastic series' throughput as a fraction of it, the
/// active count the monitor settled on and the resize transitions (so
/// a "flat" result is distinguishable from a monitor that never
/// moved). Returns the workload's worst fraction and where it fell.
fn best_static_k(sweep: &[usize], series: &[(&Series, Vec<Cell>)]) -> Option<(f64, usize)> {
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
        let cell = &elastic[i];
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

/// The `families` sweep as `BENCH_families.json`: throughput mean/cv
/// and p99 latency per family per thread count.
fn families_json(opts: &BenchOpts, sweep: &[usize], series: &[(&Series, Vec<Cell>)]) -> Json {
    let point = |c: &Cell| {
        let mops = c.summary();
        Json::Object(vec![
            ("threads", Json::Int(c.threads as u64)),
            ("mops_mean", Json::Fixed(mops.mean, 4)),
            ("cv_pct", Json::Fixed(mops.cv_pct(), 2)),
            ("p99_ns", Json::Int(c.latency(|l| l.p99) as u64)),
        ])
    };
    let family = |(s, cells): &(&Series, Vec<Cell>)| {
        Json::Object(vec![
            ("name", Json::str(s.label.clone())),
            ("points", Json::Array(cells.iter().map(point).collect())),
        ])
    };
    let threads = sweep.iter().map(|&t| Json::Int(t as u64)).collect();
    Json::Object(vec![
        ("bench", Json::str("families")),
        ("mix", Json::str("upd100")),
        ("runs", Json::Int(opts.runs as u64)),
        ("duration_ms", Json::Int(opts.duration.as_millis() as u64)),
        ("threads", Json::Array(threads)),
        ("families", Json::Array(series.iter().map(family).collect())),
    ])
}

/// Measures every series of `case` at every thread count, `--runs`
/// times, run-major; then, when the figure has latency columns, one
/// fixed-work latency pass per cell.
fn measure<'a>(
    spec: &Spec,
    case: &'a Case,
    sweep: &[usize],
    opts: &BenchOpts,
) -> Vec<(&'a Series, Vec<Cell>)> {
    let mut series: Vec<(&Series, Vec<Cell>)> = case
        .lineup
        .iter()
        .map(|s| {
            let cells = sweep.iter().map(|&threads| Cell {
                threads,
                ..Cell::default()
            });
            (s, cells.collect())
        })
        .collect();
    for r in 0..opts.runs {
        for (ti, &threads) in sweep.iter().enumerate() {
            for (s, cells) in &mut series {
                let cfg = RunConfig {
                    threads,
                    sec: s.sec,
                    sec_capacity: (spec.capacity)(threads),
                    seed: case.cfg.seed ^ (r as u64) << 32,
                    ..case.cfg
                };
                let cell = &mut cells[ti];
                cell.add(&run_algo(s.algo, &cfg));
                if r + 1 == opts.runs {
                    let mops = cell.summary();
                    eprintln!(
                        "  {} | {:>8} | {threads:>3} threads: {:.3} Mops/s (cv {:.1}%)",
                        case.stem,
                        s.label,
                        mops.mean,
                        mops.cv_pct(),
                    );
                }
            }
        }
    }
    if spec
        .counters
        .iter()
        .any(|(suffix, _)| suffix.ends_with("_ns"))
    {
        let (mix, map_mix) = (case.cfg.mix, case.cfg.map_mix);
        for (s, cells) in &mut series {
            for cell in cells {
                let ops = LATENCY_OPS_PER_THREAD;
                let l = algo_latency(s.algo, s.sec, cell.threads, ops, mix, map_mix);
                eprintln!(
                    "  {} | {:>8} | {:>3} threads: p50 {} / p99 {} / p999 {} ns",
                    case.stem, s.label, cell.threads, l.p50, l.p99, l.p999
                );
                cell.latency = Some(l);
            }
        }
    }
    series
}

/// Measures, prints and writes figure `name`.
fn run(name: &str, spec: &Spec, opts: &BenchOpts) {
    println!("{}", opts.banner(&spec.banner));
    let sweep = (spec.threads)(opts);
    let mut worst: Option<(f64, Mix, usize)> = None;
    for case in &spec.cases {
        let series = measure(spec, case, &sweep, opts);
        let mut fig = Figure::new(case.title.clone(), sweep.clone());
        for (s, cells) in &series {
            let mops = cells.iter().map(|c| c.summary().mean).collect();
            fig.add_series(s.label.clone(), mops);
            if (spec.counted)(&s.algo) {
                for (suffix, value) in spec.counters {
                    let column = cells.iter().map(value).collect();
                    fig.add_extra(format!("{}_{suffix}", s.label), column);
                }
            }
        }
        println!("{}", fig.render_table());
        println!("{}", fig.render_ascii_plot(12));
        if let Err(e) = fig.write_csv(&opts.csv_dir, case.stem) {
            eprintln!("warning: could not write CSV: {e}");
        }
        if let Some(companion) = &case.companion {
            let mut fig = Figure::new(companion.title, sweep.clone()).y_unit(companion.unit);
            for (s, cells) in &series {
                fig.add_series(s.label.clone(), cells.iter().map(companion.value).collect());
            }
            println!("{}", fig.render_table());
            if let Err(e) = fig.write_csv(&opts.csv_dir, companion.stem) {
                eprintln!("warning: could not write CSV: {e}");
            }
        }
        match name {
            "adaptive_k" => {
                if let Some((frac, n)) = best_static_k(&sweep, &series) {
                    if worst.is_none_or(|(w, _, _)| frac < w) {
                        worst = Some((frac, case.cfg.mix, n));
                    }
                }
            }
            "families" => write_bench_json(
                &opts.csv_dir,
                "BENCH_families.json",
                &families_json(opts, &sweep, &series),
            ),
            _ => {}
        }
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
