//! Open-loop traffic replay against the SecQueue+SecMap service:
//! latency **vs offered load**, not vs thread count.
//!
//! ```text
//! cargo run -p sec-bench --release --bin replay
//! cargo run -p sec-bench --release --bin replay -- --duration-ms 2000 --workers 4
//! cargo run -p sec-bench --release --bin replay -- --trace traces/smoke.trace
//! ```
//!
//! Every other binary here is closed-loop: threads issue the next
//! operation when the previous one returns, so the offered load
//! politely tracks whatever the structure can absorb and overload is
//! invisible. This one replays a timestamped arrival schedule
//! (`sec_workload::openloop`) and charges each request's latency from
//! its *scheduled* arrival — when the service falls behind, the queue
//! grows and the queueing delay lands in the percentiles instead of
//! being coordinated away.
//!
//! For each scenario (steady / bursty / diurnal / multi-tenant, or a
//! `--trace` file) the same base schedule is replayed at a sweep of
//! load multipliers (timestamps compressed by the factor), reporting
//! throughput, p50/p99/p999 latency and SLO-violation windows
//! (fixed windows of scheduled-arrival time whose over-SLO share
//! exceeds 1%). Writes `results/replay.csv`,
//! `results/BENCH_replay.json` and a repo-root `BENCH_replay.json`
//! copy for trend tracking across commits.
//!
//! `--max-slo-violation F` turns the run into a CI gate: any
//! measurement whose violated-window fraction exceeds `F` is marked
//! `FAIL` in the table and the process exits non-zero after the
//! sweep (all rows still run and all outputs are still written).

use sec_bench::{write_bench_json, write_reported, Json};
use sec_workload::openloop::{replay_open_loop, ArrivalTrace, ReplayReport, ServiceConfig};

/// Command-line options (this binary's axes — offered load and
/// workers — differ from the thread-sweep figures, so it parses its
/// own flags rather than borrowing [`sec_bench::BenchOpts`]).
struct ReplayOpts {
    /// Base span of each generated scenario, ms.
    duration_ms: u64,
    /// Worker threads in the replayed service.
    workers: usize,
    /// Load multipliers applied to each base schedule.
    loads: Vec<f64>,
    /// Latency SLO, µs.
    slo_us: u64,
    /// Gate: maximum tolerated violated-window fraction per
    /// measurement (0.0–1.0). Any row above it is marked `FAIL` in
    /// the table and the process exits non-zero — CI-able overload
    /// regression detection.
    max_slo_violation: Option<f64>,
    /// Optional committed trace file replayed instead of the
    /// generated scenarios.
    trace_file: Option<String>,
    /// Output directory for CSV/JSON.
    csv_dir: std::path::PathBuf,
}

impl ReplayOpts {
    fn from_args() -> Self {
        let mut opts = ReplayOpts {
            duration_ms: 400,
            workers: 2,
            loads: vec![0.5, 1.0, 2.0, 4.0],
            slo_us: 1000,
            max_slo_violation: None,
            trace_file: None,
            csv_dir: "results".into(),
        };
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let mut value = |name: &str| {
                args.next()
                    .unwrap_or_else(|| panic!("missing value for {name}"))
            };
            match flag.as_str() {
                "--duration-ms" => {
                    opts.duration_ms = value("--duration-ms").parse().expect("invalid duration")
                }
                "--workers" => opts.workers = value("--workers").parse().expect("invalid workers"),
                "--loads" => {
                    opts.loads = value("--loads")
                        .split(',')
                        .map(|s| s.trim().parse().expect("invalid --loads list"))
                        .collect();
                    assert!(!opts.loads.is_empty(), "--loads list must not be empty");
                }
                "--slo-us" => opts.slo_us = value("--slo-us").parse().expect("invalid slo"),
                "--max-slo-violation" => {
                    let frac: f64 = value("--max-slo-violation")
                        .parse()
                        .expect("invalid --max-slo-violation");
                    assert!(
                        (0.0..=1.0).contains(&frac),
                        "--max-slo-violation must be a fraction in 0.0..=1.0"
                    );
                    opts.max_slo_violation = Some(frac);
                }
                "--trace" => opts.trace_file = Some(value("--trace")),
                "--csv" => opts.csv_dir = value("--csv").into(),
                "--help" | "-h" => {
                    eprintln!(
                        "options: --duration-ms N  --workers N  --loads A,B,C  --slo-us N  \
                         --max-slo-violation F  --trace FILE  --csv DIR"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other}; try --help"),
            }
        }
        opts
    }
}

/// One (scenario, load multiplier) measurement.
struct Row {
    scenario: &'static str,
    load: f64,
    rep: ReplayReport,
}

/// The base scenarios, before load scaling. Rates are deliberately
/// laptop-scale at multiplier 1.0 so the default run's interesting
/// part is the upper multipliers.
fn scenarios(opts: &ReplayOpts) -> Vec<(&'static str, ArrivalTrace)> {
    let d = opts.duration_ms;
    if let Some(path) = &opts.trace_file {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read trace {path}: {e}"));
        let trace = ArrivalTrace::parse(&text).unwrap_or_else(|e| panic!("bad trace {path}: {e}"));
        return vec![("file", trace)];
    }
    vec![
        ("steady", ArrivalTrace::steady(60_000.0, d, 0xC0FFEE)),
        (
            "bursty",
            ArrivalTrace::bursty(30_000.0, 300_000.0, 100, 15, d, 0xC0FFEE),
        ),
        (
            "diurnal",
            ArrivalTrace::diurnal(10_000.0, 120_000.0, d.max(2) / 2, d, 0xC0FFEE),
        ),
        (
            "tenants",
            ArrivalTrace::multi_tenant(&[80_000.0, 10_000.0, 10_000.0, 10_000.0], d, 0xC0FFEE),
        ),
    ]
}

/// The sweep as `BENCH_replay.json`.
fn replay_json(opts: &ReplayOpts, rows: &[Row]) -> Json {
    let row = |r: &Row| {
        Json::Object(vec![
            ("scenario", Json::str(r.scenario)),
            ("load", Json::Fixed(r.load, 2)),
            ("offered_per_s", Json::Fixed(r.rep.offered_per_s, 0)),
            ("achieved_per_s", Json::Fixed(r.rep.achieved_per_s, 0)),
            ("p50_ns", Json::Int(r.rep.latency.p50)),
            ("p99_ns", Json::Int(r.rep.latency.p99)),
            ("p999_ns", Json::Int(r.rep.latency.p999)),
            ("max_ns", Json::Int(r.rep.latency.max)),
            ("windows", Json::Int(r.rep.windows as u64)),
            ("violated_windows", Json::Int(r.rep.violated_windows as u64)),
            ("worst_window_frac", Json::Fixed(r.rep.worst_window_frac, 4)),
        ])
    };
    Json::Object(vec![
        ("bench", Json::str("replay")),
        ("workers", Json::Int(opts.workers as u64)),
        ("duration_ms", Json::Int(opts.duration_ms)),
        ("slo_us", Json::Int(opts.slo_us)),
        ("rows", Json::Array(rows.iter().map(row).collect())),
    ])
}

fn replay_csv(rows: &[Row]) -> String {
    let mut out = String::from(
        "scenario,load,offered_per_s,achieved_per_s,p50_ns,p99_ns,p999_ns,max_ns,\
         windows,violated_windows,worst_window_frac\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{:.2},{:.0},{:.0},{},{},{},{},{},{},{:.4}\n",
            r.scenario,
            r.load,
            r.rep.offered_per_s,
            r.rep.achieved_per_s,
            r.rep.latency.p50,
            r.rep.latency.p99,
            r.rep.latency.p999,
            r.rep.latency.max,
            r.rep.windows,
            r.rep.violated_windows,
            r.rep.worst_window_frac,
        ));
    }
    out
}

fn main() {
    let opts = ReplayOpts::from_args();
    let cfg = ServiceConfig {
        workers: opts.workers,
        slo_ns: opts.slo_us * 1000,
        ..ServiceConfig::default()
    };
    println!(
        "# open-loop replay: SecQueue+SecMap service, {} workers, SLO {} us\n\
         # latency charged from scheduled arrival (coordinated omission impossible);\n\
         # a violated window is {} ms of arrivals with >{:.0}% over SLO",
        opts.workers,
        opts.slo_us,
        cfg.window_ms,
        cfg.violation_frac * 100.0
    );

    let mut rows = Vec::new();
    let mut gate_failures: Vec<String> = Vec::new();
    for (name, base) in scenarios(&opts) {
        println!(
            "\n== {name}: {} arrivals over {:.0} ms (x1.0 = {:.0}/s) ==",
            base.len(),
            base.span_ns() as f64 / 1e6,
            base.offered_per_s()
        );
        println!(
            "{:>6} | {:>12} {:>12} | {:>9} {:>9} {:>9} | {:>8} {:>10}",
            "load", "offered/s", "achieved/s", "p50 us", "p99 us", "p999 us", "windows", "violated"
        );
        for &load in &opts.loads {
            let trace = base.scaled(load);
            let rep = replay_open_loop(&trace, &cfg, 0x5EED ^ load.to_bits());
            let over_gate = opts
                .max_slo_violation
                .is_some_and(|max| rep.violated_frac() > max);
            println!(
                "{:>6.2} | {:>12.0} {:>12.0} | {:>9.1} {:>9.1} {:>9.1} | {:>8} {:>10}{}",
                load,
                rep.offered_per_s,
                rep.achieved_per_s,
                rep.latency.p50 as f64 / 1e3,
                rep.latency.p99 as f64 / 1e3,
                rep.latency.p999 as f64 / 1e3,
                rep.windows,
                format!(
                    "{} ({:.0}%)",
                    rep.violated_windows,
                    rep.violated_frac() * 100.0
                ),
                if over_gate { "  FAIL" } else { "" },
            );
            if over_gate {
                gate_failures.push(format!(
                    "{name} x{load:.2}: {:.1}% violated windows > gate {:.1}%",
                    rep.violated_frac() * 100.0,
                    opts.max_slo_violation.unwrap() * 100.0
                ));
            }
            rows.push(Row {
                scenario: name,
                load,
                rep,
            });
        }
    }

    write_reported(&opts.csv_dir.join("replay.csv"), &replay_csv(&rows));
    write_bench_json(
        &opts.csv_dir,
        "BENCH_replay.json",
        &replay_json(&opts, &rows),
    );

    if !gate_failures.is_empty() {
        eprintln!(
            "\nSLO gate FAILED ({} measurement{}):",
            gate_failures.len(),
            if gate_failures.len() == 1 { "" } else { "s" }
        );
        for f in &gate_failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
