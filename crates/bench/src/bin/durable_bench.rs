//! Pricing crash-durability: every SEC family swept across the
//! durable-logging modes, from no logging at all to the
//! flush-per-operation strawman (DESIGN.md §16).
//!
//! ```text
//! cargo run -p sec-bench --release --bin durable_bench
//! cargo run -p sec-bench --release --bin durable_bench -- --duration-ms 250 --runs 3
//! ```
//!
//! The axis of interest is the *flush-amortization gap*: a durable
//! combining batch writes one log record (and, under
//! [`SyncMode::Sync`], issues one `msync`) for a whole frozen batch of
//! operations, so the per-operation durability cost shrinks with the
//! batching degree — the same combining win the throughput figures
//! show, replayed against a persistent heap. The per-op granularity
//! rows are the strawman every persistent-object design warns about:
//! one record (and one flush) per operation, which turns the log into
//! a serial bottleneck.
//!
//! Modes, cheapest to dearest:
//!
//! | mode          | heap      | records      | flushes       |
//! |---------------|-----------|--------------|---------------|
//! | `off`         | —         | —            | —             |
//! | `vol/batch`   | anonymous | per batch    | never         |
//! | `vol/op`      | anonymous | per op       | never         |
//! | `mmap/batch`  | file      | per batch    | never (page cache survives kill−9) |
//! | `mmap/batch+sync` | file  | per batch    | one `msync` per record |
//! | `mmap/op+sync`    | file  | per op       | one `msync` per op |
//!
//! Writes `results/durable.csv` plus the machine-readable
//! `results/BENCH_durable.json` and a repo-root `BENCH_durable.json`
//! copy (same convention as `BENCH_families.json` /
//! `BENCH_replay.json`) for trend tracking across commits.
//!
//! [`SyncMode::Sync`]: sec_core::SyncMode::Sync

use sec_bench::{write_bench_json, write_reported, BenchOpts, Json};
use sec_core::{LogGranularity, SyncMode};
use sec_workload::stats::Summary;
use sec_workload::{run_algo, Algo, DurableSetup, MapMix, Mix, RunConfig};

/// The families priced here. The adaptive stack is omitted: its
/// durable constructor is the fixed stack's (durable shards are
/// dedicated aggregators, outside the elastic range).
const FAMILIES: [Algo; 4] = [
    Algo::Sec { aggregators: 2 },
    Algo::SecQueue,
    Algo::SecCounter,
    Algo::SecMap,
];

/// One durability mode: a label and the `RunConfig::durable` value
/// that selects it (`None` = the ordinary in-memory structure).
struct Mode {
    name: &'static str,
    setup: Option<DurableSetup>,
}

/// The swept modes. Per-op rows get single-entry record slots and a
/// deeper log: with one record per operation, capacity bounds the
/// run's op count (the log is not circular), and a 9-word slot keeps
/// the deeper log's footprint lazy-page-sized.
fn modes() -> Vec<Mode> {
    let per_op = |setup: DurableSetup| DurableSetup {
        granularity: LogGranularity::PerOp,
        batch_entries: 1,
        record_capacity: 1 << 22,
        ..setup
    };
    vec![
        Mode {
            name: "off",
            setup: None,
        },
        Mode {
            name: "vol/batch",
            setup: Some(DurableSetup::volatile()),
        },
        Mode {
            name: "vol/op",
            setup: Some(per_op(DurableSetup::volatile())),
        },
        Mode {
            name: "mmap/batch",
            setup: Some(DurableSetup::file_backed()),
        },
        Mode {
            name: "mmap/batch+sync",
            setup: Some(DurableSetup {
                sync: SyncMode::Sync,
                ..DurableSetup::file_backed()
            }),
        },
        Mode {
            name: "mmap/op+sync",
            setup: Some(per_op(DurableSetup {
                sync: SyncMode::Sync,
                ..DurableSetup::file_backed()
            })),
        },
    ]
}

/// One (family, mode) measurement.
struct Row {
    family: String,
    mode: &'static str,
    mops_mean: f64,
    cv_pct: f64,
    /// Throughput relative to the family's `off` row (1.0 = free).
    rel_off: f64,
}

/// The sweep as `BENCH_durable.json`.
fn durable_json(opts: &BenchOpts, threads: usize, rows: &[Row]) -> Json {
    let row = |r: &Row| {
        Json::Object(vec![
            ("family", Json::str(r.family.as_str())),
            ("mode", Json::str(r.mode)),
            ("mops_mean", Json::Fixed(r.mops_mean, 4)),
            ("cv_pct", Json::Fixed(r.cv_pct, 2)),
            ("rel_off", Json::Fixed(r.rel_off, 4)),
        ])
    };
    Json::Object(vec![
        ("bench", Json::str("durable")),
        ("threads", Json::Int(threads as u64)),
        ("runs", Json::Int(opts.runs as u64)),
        ("duration_ms", Json::Int(opts.duration.as_millis() as u64)),
        ("rows", Json::Array(rows.iter().map(row).collect())),
    ])
}

fn durable_csv(rows: &[Row]) -> String {
    let mut out = String::from("family,mode,mops_mean,cv_pct,rel_off\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{:.4},{:.2},{:.4}\n",
            r.family, r.mode, r.mops_mean, r.cv_pct, r.rel_off
        ));
    }
    out
}

fn main() {
    let opts = BenchOpts::from_args();
    // The axis here is the durability mode, not the thread count: one
    // moderately contended cell per (family, mode).
    let threads = opts.max_threads.clamp(2, 4);
    println!(
        "{}",
        opts.banner("durable logging: flush-per-batch vs flush-per-op")
    );
    println!("# {threads} threads per cell; rel_off = throughput / same family's 'off' row");

    let mut rows: Vec<Row> = Vec::new();
    for algo in FAMILIES {
        let mut off_mean = 0.0f64;
        println!("\n== {} ==", algo.label());
        for mode in modes() {
            let cfg = RunConfig {
                duration: opts.duration,
                prefill: opts.prefill,
                durable: mode.setup,
                map_mix: MapMix::WRITE_HEAVY,
                ..RunConfig::new(threads, Mix::UPDATE_100)
            };
            let samples: Vec<f64> = (0..opts.runs)
                .map(|r| {
                    let cfg = RunConfig {
                        seed: cfg.seed ^ (r as u64) << 32,
                        ..cfg
                    };
                    run_algo(algo, &cfg).result.mops()
                })
                .collect();
            let s = Summary::of(&samples);
            if mode.name == "off" {
                off_mean = s.mean;
            }
            let rel = if off_mean > 0.0 {
                s.mean / off_mean
            } else {
                0.0
            };
            println!(
                "  {:>15} | {:>9.3} Mops/s (cv {:>4.1}%) | x{:.3} of off",
                mode.name,
                s.mean,
                s.cv_pct(),
                rel
            );
            rows.push(Row {
                family: algo.label(),
                mode: mode.name,
                mops_mean: s.mean,
                cv_pct: s.cv_pct(),
                rel_off: rel,
            });
        }
    }

    write_reported(&opts.csv_dir.join("durable.csv"), &durable_csv(&rows));
    write_bench_json(
        &opts.csv_dir,
        "BENCH_durable.json",
        &durable_json(&opts, threads, &rows),
    );
}
