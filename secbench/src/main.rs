//! `secbench` — the closed-loop benchmark of the sec-core combining
//! engine. It drives the public API of `SecStack`, `SecCounter`,
//! `SecQueue` and `SecMap` directly, in rounds of set-up, a timed
//! phase, correctness checks and teardown, until `--seconds` of timed
//! phases have run; it reports medians over rounds.
//!
//! ```text
//! secbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` alternates
//! untraced rounds with rounds that time every call into each layer
//! and read the engine's counter snapshots, and prints the per-layer
//! metrics. The last line of standard output is one JSON object; the
//! same result, with host metadata and per-round figures, is written to
//! the output directory. The exit code is non-zero when any check fails.

mod host;
mod inputs;
mod kv;
mod metrics;
mod phase;
mod stack;
mod stats;

use metrics::{Round, END_TO_END};
use stats::{check_plausible, median, RoundFigures};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Rounds run even when `--seconds` is already used up.
const MIN_ROUNDS: usize = 4;
/// No run goes past this, whatever `--seconds` says.
const MAX_RUN_SECONDS: f64 = 150.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    StackSolo,
    StackPair,
    KvPipeline,
    DurableStack,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::StackSolo,
        Workload::StackPair,
        Workload::KvPipeline,
        Workload::DurableStack,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::StackSolo => "stack-solo",
            Workload::StackPair => "stack-pair",
            Workload::KvPipeline => "kv-pipeline",
            Workload::DurableStack => "durable-stack",
        }
    }
}

/// A workload's inputs, drawn from the seed before any round.
enum Plan {
    Stack(stack::StackPlan),
    Kv(kv::KvPlan),
}

impl Plan {
    fn new(w: Workload, seed: u64) -> Self {
        // Ops per worker per round: about half a second of work each on
        // a 2-core host, so a 10 s run has a median over ~20 rounds.
        let stack = |threads: usize, ops: usize, durable: bool| {
            Plan::Stack(stack::StackPlan::new(
                durable,
                inputs::stack_prefill(seed, 1000),
                (0..threads)
                    .map(|t| inputs::stack_stream(seed, t, ops))
                    .collect(),
            ))
        };
        match w {
            Workload::StackSolo => stack(1, 800_000, false),
            Workload::StackPair => stack(2, 350_000, false),
            Workload::DurableStack => stack(2, 150_000, true),
            Workload::KvPipeline => {
                let (threads, iters, keys) = (2, 8_000, 4096);
                let table = inputs::kv_table(seed, threads * iters * kv::BLOCK, keys, 0.99, 20);
                Plan::Kv(kv::KvPlan::new(threads, iters, keys as u64, table))
            }
        }
    }

    fn round(&mut self, traced: bool) -> Round {
        match (self, traced) {
            (Plan::Stack(p), false) => stack::round::<false>(p),
            (Plan::Stack(p), true) => stack::round::<true>(p),
            (Plan::Kv(p), false) => kv::round::<false>(p),
            (Plan::Kv(p), true) => kv::round::<true>(p),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// Median over `rounds` of `f`.
fn med(rounds: &[&Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>())
}

fn json_metrics(metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The per-layer metrics of a traced run: medians over traced rounds,
/// except set-up and teardown, which every round measures.
fn per_layer_metrics(
    all: &[&Round],
    traced: &[&Round],
    untraced_mops: f64,
    op_samples: usize,
) -> Vec<(String, f64, &'static str)> {
    let mut layers: Vec<(String, f64, &str)> = metrics::per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let per_round: Vec<f64> = traced
                .iter()
                .filter_map(|r| r.layers.iter().find(|(n, _)| *n == name).map(|&(_, v)| v))
                .collect();
            (name, median(&per_round), unit)
        })
        .collect();
    let traced_mops = med(traced, Round::mops);
    let mut set = |name: &str, v: f64| {
        layers
            .iter_mut()
            .find(|(n, ..)| n == name)
            .expect("a per-layer metric")
            .1 = v;
    };
    set(
        "setup.construct_ms",
        med(all, |r| r.construct_ns as f64 / 1e6),
    );
    set("setup.prefill_ms", med(all, |r| r.prefill_ns as f64 / 1e6));
    set(
        "setup.register_us",
        med(all, |r| r.register_ns as f64 / 1e3),
    );
    set("teardown.drop_ms", med(all, |r| r.drop_ns as f64 / 1e6));
    set(
        "bench.trace_overhead_frac",
        1.0 - traced_mops / untraced_mops,
    );
    set("bench.op_samples", op_samples as f64);
    set("bench.ops", med(traced, |r| r.ops as f64));
    layers
}

/// The file record: the result plus host metadata and per-round figures.
fn record(args: &Args, meta: &[(&str, String)], rounds: &[(bool, Round)], result: &str) -> String {
    let meta: Vec<String> = meta
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    let per_round: Vec<String> = rounds
        .iter()
        .map(|(t, r)| {
            format!(
                "{{\"traced\": {t}, \"ops\": {}, \"wall_ns\": {}, \"cpu_ns\": {}, \"lat_p50_ns\": {}, \
                 \"lat_p99_ns\": {}, \"lat_max_ns\": {}, \"lat_samples\": {}, \"setup_ns\": {}, \
                 \"failed\": {}}}",
                r.ops,
                r.wall_ns,
                r.cpu_ns,
                r.latency.p50,
                r.latency.p99,
                r.latency.max,
                r.latency.samples,
                r.construct_ns + r.prefill_ns,
                r.failed
            )
        })
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"meta\": {{{}}}, \
         \"rounds\": [{}], \"result\": {result}}}\n",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        meta.join(", "),
        per_round.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("secbench: {e}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let mut plan = Plan::new(args.workload, args.seed);

    // Rounds alternate untraced and traced under --trace 1, so both
    // see the same host conditions.
    let mut rounds: Vec<(bool, Round)> = Vec::new();
    let mut measured_ns = 0u64;
    while rounds.len() < MIN_ROUNDS || measured_ns < args.seconds * 1_000_000_000 {
        if started.elapsed().as_secs_f64() > MAX_RUN_SECONDS {
            break;
        }
        let traced = args.trace && rounds.len() % 2 == 1;
        let r = plan.round(traced);
        measured_ns += r.wall_ns;
        rounds.push((traced, r));
    }
    let all: Vec<&Round> = rounds.iter().map(|(_, r)| r).collect();
    let untraced: Vec<&Round> = rounds.iter().filter(|(t, _)| !t).map(|(_, r)| r).collect();
    let traced: Vec<&Round> = rounds.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();

    let throughput = med(&untraced, Round::mops);
    let p50 = med(&untraced, |r| r.latency.p50 as f64);
    let p99 = med(&untraced, |r| r.latency.p99 as f64);
    let e2e = [
        throughput,
        p50,
        p99,
        med(&untraced, |r| r.cpu_ns as f64 / r.ops as f64),
        med(&all, |r| (r.construct_ns + r.prefill_ns) as f64 / 1e9),
        host::peak_rss_mib(),
    ];
    let op_samples: usize = untraced.iter().map(|r| r.latency.samples).sum();

    let mut failures: Vec<String> = all
        .iter()
        .flat_map(|r| r.failures.iter().cloned())
        .collect();
    let figures: Vec<RoundFigures> = untraced
        .iter()
        .map(|r| RoundFigures {
            ops: r.ops,
            wall_ns: r.wall_ns,
            latency: r.latency,
        })
        .collect();
    if let Err(e) = check_plausible(&figures, throughput, p50, p99) {
        failures.push(format!("implausible figures: {e}"));
    }
    let attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let failed: u64 = all.iter().map(|r| r.failed).sum();

    let metrics = if args.trace {
        per_layer_metrics(&all, &traced, throughput, op_samples)
    } else {
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|(&(n, u), v)| (n.to_owned(), v, u))
            .collect()
    };
    for (name, v, _) in &metrics {
        if !v.is_finite() {
            failures.push(format!("{name} is not a finite number"));
        }
    }
    let correct = failures.is_empty();

    let meta = host::metadata();
    let mut human = String::new();
    let _ = writeln!(
        human,
        "# {} seed {} seconds {} trace {}: {} rounds ({} traced), {op_samples} latency samples, \
         failed_frac {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        all.len(),
        traced.len(),
        failed as f64 / attempted.max(1) as f64,
    );
    for (k, v) in &meta {
        let _ = writeln!(human, "# {k}: {v}");
    }
    for f in &failures {
        let _ = writeln!(human, "# FAILED: {f}");
    }
    for (name, v, unit) in &metrics {
        let _ = writeln!(human, "{name} {v} {unit}");
    }
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        attempted.max(1),
        failed.max(u64::from(!correct && failed == 0)),
        json_metrics(&metrics)
    );

    let record = record(&args, &meta, &rounds, &result);
    let file = args.out.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        args.trace as u8
    ));
    if let Err(e) = std::fs::create_dir_all(&args.out).and_then(|_| std::fs::write(&file, record)) {
        eprintln!("secbench: cannot write {}: {e}", file.display());
    }

    print!("{human}");
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
