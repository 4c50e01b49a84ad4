//! Regenerates the throughput-vs-threads figures. A figure runs one
//! lineup across the thread sweep under each of its workloads and
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
//!
//! Columns after the plotted series are unplotted counters over a
//! cell's runs: SEC's node recycling in `fig2` (DESIGN.md §10), the
//! elastic series' grows/shrinks in `fig4` and `adaptive_k`, the full
//! SEC counter block in `queue_bench` and `map_bench`, and each
//! family's batching degree and fixed-work p99 latency in `families`
//! (EXPERIMENTS.md reads each block).

use sec_bench::{
    algo_latency, map_bench_capacity, map_bench_sec, write_bench_json, BenchOpts, Json,
};
use sec_workload::stats::{DegreeTotals, ReclaimTotals, ResizeTotals, Summary};
use sec_workload::table::Figure;
use sec_workload::{
    run_algo, Algo, KeyDist, MapMix, Mix, RunConfig, ALL_COMPETITORS, MAP_LINEUP, QUEUE_LINEUP,
    SEC_FAMILIES,
};

/// The figure names, in catalog order.
const FIGURES: &str = "fig2 fig3 fig4 adaptive_k queue_bench map_bench families";

/// A counter column: its `<series>_<suffix>` suffix and its value in a
/// cell.
type Col = (&'static str, fn(&Cell) -> f64);

const GROWS: Col = ("grows", |c| c.resizes.grows as f64);
const SHRINKS: Col = ("shrinks", |c| c.resizes.shrinks as f64);
const RECYCLE_HIT_PCT: Col = ("recycle_hit_pct", |c| c.recycle.hit_pct());
const RECYCLE_MISSES: Col = ("recycle_misses", |c| c.recycle.misses as f64);
const RECYCLE_OVERFLOWS: Col = ("recycle_overflows", |c| c.recycle.overflows as f64);
const BATCH_DEGREE: Col = ("batch_degree", |c| c.degree);
const P99_NS: Col = ("p99_ns", |c| c.p99_ns as f64);

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

/// Fixed-work operations per thread of the `families` p99 pass.
const LATENCY_OPS_PER_THREAD: u64 = 2_000;

/// One workload of a figure: its CSV stem, table title, and the
/// configuration of every cell (the sweep sets `threads`).
struct Case {
    stem: &'static str,
    title: String,
    cfg: RunConfig,
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

/// One figure: its workloads, its lineup, and its counter columns.
struct Spec {
    banner: &'static str,
    cases: Vec<Case>,
    lineup: Vec<Algo>,
    label: fn(&Algo) -> String,
    /// Registration capacity per thread count (`None` keeps the tight
    /// `threads + 1`).
    capacity: fn(usize) -> Option<usize>,
    /// The series that export [`counters`](Self::counters).
    counted: fn(&Algo) -> bool,
    counters: &'static [Col],
}

impl Spec {
    fn new(banner: &'static str, lineup: &[Algo], cases: Vec<Case>) -> Self {
        Spec {
            banner,
            cases,
            lineup: lineup.to_vec(),
            label: Algo::label,
            capacity: |_| None,
            counted: |_| false,
            counters: &[],
        }
    }
}

/// The figure called `name`, or `None` for an unknown name.
fn spec(name: &str, opts: &BenchOpts) -> Option<Spec> {
    let cases = |title: &str, mixes: &[(Mix, &'static str)]| -> Vec<Case> {
        mixes
            .iter()
            .map(|&(mix, stem)| Case {
                stem,
                title: format!("{title} — {mix}"),
                cfg: mix_cfg(opts, mix),
            })
            .collect()
    };
    // SEC_Agg1..5 plus the elastic K ∈ [1, 5], every static series
    // labelled with its K.
    let ablation = |banner, cases| Spec {
        label: Algo::ablation_label,
        counted: |a| matches!(a, Algo::SecAdaptive { .. }),
        counters: &[GROWS, SHRINKS],
        ..Spec::new(
            banner,
            &(1..=5)
                .map(|k| Algo::Sec { aggregators: k })
                .chain([Algo::SecAdaptive { min_k: 1, max_k: 5 }])
                .collect::<Vec<_>>(),
            cases,
        )
    };
    let (upd100, upd50, upd10) = (Mix::UPDATE_100, Mix::UPDATE_50, Mix::UPDATE_10);
    let (push_only, pop_only) = (Mix::PUSH_ONLY, Mix::POP_ONLY);
    Some(match name {
        "fig2" => Spec {
            counted: |a| matches!(a, Algo::Sec { .. }),
            counters: &[RECYCLE_HIT_PCT, RECYCLE_MISSES, RECYCLE_OVERFLOWS],
            ..Spec::new(
                "Figure 2: throughput vs #threads, 6 algorithms, 3 mixes",
                &ALL_COMPETITORS,
                cases(
                    "Figure 2",
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
            &ALL_COMPETITORS,
            cases(
                "Figure 3",
                &[(push_only, "fig3_push_only"), (pop_only, "fig3_pop_only")],
            ),
        ),
        "fig4" => ablation(
            "Figure 4: SEC with 1..=5 aggregators",
            cases(
                "Figure 4",
                &[
                    (upd100, "fig4_upd100"),
                    (upd50, "fig4_upd50"),
                    (upd10, "fig4_upd10"),
                    (push_only, "fig4_push_only"),
                    (pop_only, "fig4_pop_only"),
                ],
            ),
        ),
        "adaptive_k" => ablation(
            "Elastic sharding ablation: adaptive K vs best static K",
            cases(
                "adaptive_k",
                &[
                    (upd100, "adaptive_k_upd100"),
                    (upd50, "adaptive_k_upd50"),
                    (push_only, "adaptive_k_push_only"),
                ],
            ),
        ),
        "queue_bench" => Spec {
            counted: |a| *a == Algo::SecQueue,
            counters: SEC_BLOCK,
            ..Spec::new(
                "Queue bench: SEC-Q vs MS vs LCK-Q, 3 mixes",
                &QUEUE_LINEUP,
                cases(
                    "Queue throughput",
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
            let case = |key_dist: KeyDist, map_mix: MapMix, stem: &'static str| Case {
                stem,
                title: format!("Map throughput — {key_dist}, {map_mix}"),
                cfg: RunConfig {
                    map_mix,
                    key_dist,
                    sec: map_bench_sec,
                    ..mix_cfg(opts, upd100)
                },
            };
            Spec {
                // Below 4 threads keep the tight default — there the
                // share guard disables resizing for any input.
                capacity: |threads| (threads >= 4).then(|| map_bench_capacity(threads)),
                counted: |a| *a == Algo::SecMap,
                counters: SEC_BLOCK,
                ..Spec::new(
                    "Map bench: SEC-M vs LCK-M, {uniform,zipfian} x {read,write}-heavy",
                    &MAP_LINEUP,
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
                &SEC_FAMILIES,
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
                }],
            )
        },
        _ => return None,
    })
}

/// Everything measured in one (algorithm, thread count) cell over the
/// `--runs` repeats.
struct Cell {
    threads: usize,
    mops: Summary,
    /// Mean batching degree over the runs (0 for non-SEC algorithms).
    degree: f64,
    cas_failures: u64,
    resizes: ResizeTotals,
    recycle: ReclaimTotals,
    degrees: DegreeTotals,
    /// Active aggregators at the end of the last SEC run.
    active: Option<usize>,
    /// Fixed-work p99 latency, ns (0 unless the figure exports it).
    p99_ns: u64,
}

/// Measures `algo` at `threads` workers under `case`, `--runs` times.
fn measure(spec: &Spec, case: &Case, algo: Algo, threads: usize, opts: &BenchOpts) -> Cell {
    let cfg = RunConfig {
        threads,
        sec_capacity: (spec.capacity)(threads),
        ..case.cfg
    };
    let mut degree_sum = 0.0;
    let mut cell = Cell {
        threads,
        mops: Summary::of(&[]),
        degree: 0.0,
        cas_failures: 0,
        resizes: ResizeTotals::new(),
        recycle: ReclaimTotals::new(),
        degrees: DegreeTotals::new(),
        active: None,
        p99_ns: 0,
    };
    let samples: Vec<f64> = (0..opts.runs)
        .map(|r| {
            let cfg = RunConfig {
                seed: cfg.seed ^ (r as u64) << 32,
                ..cfg
            };
            let out = run_algo(algo, &cfg);
            if let Some(rep) = &out.sec_report {
                degree_sum += rep.batching_degree();
                cell.cas_failures += rep.cas_failures;
            }
            cell.resizes.add(out.sec_report.as_ref());
            cell.recycle.add(out.reclaim.as_ref());
            cell.degrees.add(out.sec_report.as_ref());
            cell.active = out.sec_active.or(cell.active);
            out.result.mops()
        })
        .collect();
    cell.mops = Summary::of(&samples);
    cell.degree = degree_sum / opts.runs.max(1) as f64;
    let mut p99 = String::new();
    if spec.counters.iter().any(|(suffix, _)| *suffix == P99_NS.0) {
        // One fixed-work latency pass per cell (the histogram behind it
        // is the same HDR layout the engine's phase histograms use).
        let ops = LATENCY_OPS_PER_THREAD;
        cell.p99_ns = algo_latency(algo, threads, ops, Mix::UPDATE_100, MapMix::WRITE_HEAVY).p99;
        p99 = format!(", p99 {} ns", cell.p99_ns);
    }
    eprintln!(
        "  {} | {:>8} | {threads:>3} threads: {:.3} Mops/s (cv {:.1}%){p99}",
        case.stem,
        (spec.label)(&algo),
        cell.mops.mean,
        cell.mops.cv_pct(),
    );
    cell
}

/// `adaptive_k`'s per-workload report: at every thread count, the best
/// static K, the elastic series' throughput as a fraction of it, the
/// active count the monitor settled on and the resize transitions (so
/// a "flat" result is distinguishable from a monitor that never
/// moved). Returns the workload's worst fraction and where it fell.
fn best_static_k(sweep: &[usize], series: &[(Algo, Vec<Cell>)]) -> Option<(f64, usize)> {
    let (_, elastic) = series
        .iter()
        .find(|(a, _)| matches!(a, Algo::SecAdaptive { .. }))?;
    println!(
        "{:>8} {:>10} {:>10} {:>9} {:>9} {:>14}",
        "threads", "best K", "best Mops", "ada/best", "active", "grows/shrinks"
    );
    let mut worst: Option<(f64, usize)> = None;
    for (i, &n) in sweep.iter().enumerate() {
        let (best_k, best) = series
            .iter()
            .filter_map(|(a, cells)| match a {
                Algo::Sec { aggregators } => Some((*aggregators, cells[i].mops.mean)),
                _ => None,
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty static lineup");
        let cell = &elastic[i];
        let frac = if best > 0.0 {
            cell.mops.mean / best
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
fn families_json(opts: &BenchOpts, sweep: &[usize], series: &[(Algo, Vec<Cell>)]) -> Json {
    let point = |c: &Cell| {
        Json::Object(vec![
            ("threads", Json::Int(c.threads as u64)),
            ("mops_mean", Json::Fixed(c.mops.mean, 4)),
            ("cv_pct", Json::Fixed(c.mops.cv_pct(), 2)),
            ("p99_ns", Json::Int(c.p99_ns)),
        ])
    };
    let family = |(algo, cells): &(Algo, Vec<Cell>)| {
        Json::Object(vec![
            ("name", Json::str(algo.label())),
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

/// Measures, prints and writes figure `name`.
fn run(name: &str, spec: &Spec, opts: &BenchOpts, sweep: &[usize]) {
    println!("{}", opts.banner(spec.banner));
    let mut worst: Option<(f64, Mix, usize)> = None;
    for case in &spec.cases {
        let series: Vec<(Algo, Vec<Cell>)> = spec
            .lineup
            .iter()
            .map(|&algo| {
                let cells = sweep.iter().map(|&n| measure(spec, case, algo, n, opts));
                (algo, cells.collect())
            })
            .collect();
        let mut fig = Figure::new(case.title.clone(), sweep.to_vec());
        for (algo, cells) in &series {
            let label = (spec.label)(algo);
            fig.add_series(label.clone(), cells.iter().map(|c| c.mops.mean).collect());
            if (spec.counted)(algo) {
                for (suffix, value) in spec.counters {
                    fig.add_extra(
                        format!("{label}_{suffix}"),
                        cells.iter().map(value).collect(),
                    );
                }
            }
        }
        println!("{}", fig.render_table());
        println!("{}", fig.render_ascii_plot(12));
        if let Err(e) = fig.write_csv(&opts.csv_dir, case.stem) {
            eprintln!("warning: could not write CSV: {e}");
        }
        match name {
            "adaptive_k" => {
                if let Some((frac, n)) = best_static_k(sweep, &series) {
                    if worst.is_none_or(|(w, _, _)| frac < w) {
                        worst = Some((frac, case.cfg.mix, n));
                    }
                }
            }
            "families" => write_bench_json(
                &opts.csv_dir,
                "BENCH_families.json",
                &families_json(opts, sweep, &series),
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
    let sweep = opts.sweep();
    for (name, spec) in &specs {
        run(name, spec, &opts, &sweep);
    }
}
