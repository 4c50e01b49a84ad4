//! # `sec-bench` — the paper's evaluation, regenerated
//!
//! The binaries in `src/bin/` regenerate the paper's figures and
//! tables as text tables + ASCII plots + CSV:
//!
//! * `sweep` — every throughput-vs-threads figure, selected by name:
//!   `fig2` (3 mixes × 6 algorithms), `fig3` (push-only / pop-only),
//!   `fig4` (aggregator ablation), `adaptive_k` (elastic vs best
//!   static K), `queue_bench`, `map_bench`, `families` (every SEC
//!   family on one axis, plus `BENCH_families.json`), `oversub` (wait
//!   policies at 1×/2×/4×/8× the hardware threads) and `shard_policy`
//!   (Block vs RoundRobin);
//! * `table1` (batching/elimination/combining degrees, with the
//!   binomial-model companion rows) and the extension ablations
//!   `freezer_backoff` (the §3.1 backoff tunable — not a `sweep`
//!   figure: its x-axis is (spins, yields) configurations, not thread
//!   counts, and the backoff it sweeps is due to be reworked),
//!   `recl_ablation` (EBR vs hazard pointers vs leak floor), `latency`
//!   (per-op percentiles), `durable_bench` (durable-logging modes) and
//!   `replay` (open-loop latency vs offered load);
//! * the artifact checks `validate` (seconds-scale PASS/FAIL) and
//!   `soak` (sustained-load conservation).
//!
//! Run e.g.:
//!
//! ```text
//! cargo run -p sec-bench --release --bin sweep -- fig2 --duration-ms 5000 --runs 5
//! ```
//!
//! The Criterion bench in `benches/` covers what no binary measures:
//! the substrate primitives (`cargo bench -p sec-bench`).
//!
//! This module provides the shared command-line parsing, the
//! fixed-work latency measurement of a registry structure
//! ([`algo_latency`]), the wait policy patches and the `BENCH_*.json`
//! writer. Every closed loop runs on `sec_workload`'s one driver
//! ([`sec_workload::drive`]).

#![warn(missing_docs)]

use sec_core::{AggregatorPolicy, SecConfig, WaitPolicy};
use sec_workload::{
    Algo, Budget, ClosedLoop, LatencyHistogram, LatencyReport, MapMix, Mix, RunConfig, SecPatch,
};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Command-line options shared by every figure binary.
///
/// Defaults are laptop-scale; the paper's settings are
/// `--duration-ms 5000 --runs 5`.
#[derive(Debug, Clone)]
pub struct BenchOpts {
    /// Measurement duration per (algorithm, thread-count) cell.
    pub duration: Duration,
    /// Repetitions averaged per cell (paper: 5).
    pub runs: usize,
    /// Cap on the thread sweep.
    pub max_threads: usize,
    /// Explicit sweep points (overrides the host-derived sweep). Lets
    /// the binaries reproduce the paper's exact x-axes, e.g.
    /// `--threads 24,48,72,96,120,144,168,192,216,240` for the
    /// IceLake/Sapphire figures.
    pub threads_list: Option<Vec<usize>>,
    /// Prefill size (paper: 1000).
    pub prefill: usize,
    /// Directory for CSV output (`results/` by default).
    pub csv_dir: PathBuf,
}

impl Default for BenchOpts {
    fn default() -> Self {
        Self {
            duration: Duration::from_millis(250),
            runs: 3,
            max_threads: 64,
            threads_list: None,
            prefill: 1000,
            csv_dir: "results".into(),
        }
    }
}

impl BenchOpts {
    /// Parses `--duration-ms N --runs N --max-threads N --prefill N
    /// --csv DIR` from the process arguments; unknown flags and
    /// positional arguments abort with a usage message.
    pub fn from_args() -> Self {
        let (opts, names) = Self::from_args_and_names();
        if let Some(name) = names.first() {
            panic!("unknown flag {name}; try --help");
        }
        opts
    }

    /// Like [`from_args`](Self::from_args), but also returns the
    /// positional arguments in order (the `sweep` binary's figure
    /// names) instead of rejecting them.
    pub fn from_args_and_names() -> (Self, Vec<String>) {
        let mut opts = Self::default();
        let mut names = Vec::new();
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let mut value = |name: &str| {
                args.next()
                    .unwrap_or_else(|| panic!("missing value for {name}"))
            };
            match flag.as_str() {
                "--duration-ms" => {
                    opts.duration = Duration::from_millis(
                        value("--duration-ms").parse().expect("invalid duration"),
                    )
                }
                "--runs" => opts.runs = value("--runs").parse().expect("invalid runs"),
                "--max-threads" => {
                    opts.max_threads = value("--max-threads").parse().expect("invalid threads")
                }
                "--threads" => {
                    let list: Vec<usize> = value("--threads")
                        .split(',')
                        .map(|s| s.trim().parse().expect("invalid --threads list"))
                        .collect();
                    assert!(!list.is_empty(), "--threads list must not be empty");
                    opts.threads_list = Some(list);
                }
                "--prefill" => opts.prefill = value("--prefill").parse().expect("invalid prefill"),
                "--csv" => opts.csv_dir = value("--csv").into(),
                "--help" | "-h" => {
                    eprintln!(
                        "options: --duration-ms N  --runs N  --max-threads N  --threads A,B,C  --prefill N  --csv DIR\n\
                         paper settings: --duration-ms 5000 --runs 5 --threads 8,16,24,32,40,48,56 (Emerald x-axis)"
                    );
                    std::process::exit(0);
                }
                name if !name.starts_with('-') => names.push(flag),
                other => panic!("unknown flag {other}; try --help"),
            }
        }
        (opts, names)
    }

    /// The thread sweep for this host, capped by `--max-threads`, or
    /// the exact `--threads` list when one was given.
    ///
    /// The derived sweep always reaches at least 16 threads (subject to
    /// the cap): the paper's interesting regime is *high* thread
    /// counts, and on small hosts that regime only exists via
    /// oversubscription (the paper itself runs past its machines'
    /// hardware threads — the "oversubscribed after N" marks in
    /// Figures 2/5/9).
    pub fn sweep(&self) -> Vec<usize> {
        if let Some(list) = &self.threads_list {
            return list.clone();
        }
        let hw = sec_sync::topology::hardware_threads();
        let factor = 2usize.max(16usize.div_ceil(hw));
        sec_sync::topology::thread_sweep(hw, factor, self.max_threads)
    }

    /// Host/configuration banner printed at the top of every figure.
    pub fn banner(&self, what: &str) -> String {
        format!(
            "# {what}\n# host: {} hardware threads; duration {:?} x {} runs; prefill {}\n\
             # (paper: Intel Emerald 56 hw threads / IceLake 96 / Sapphire 192, 5s x 5 runs)",
            sec_sync::topology::hardware_threads(),
            self.duration,
            self.runs,
            self.prefill
        )
    }
}

/// `sweep map_bench`'s shard policy, as a [`RunConfig::sec`] patch:
/// elastic across the shard range, so the key distribution, not the
/// construction-time K, decides how many shards stay active
/// (DESIGN.md §8, §13). `min_k = 3`, not 2: a two-way split is too
/// coarse to tell the distributions apart on a small host (both halves
/// stay crowded), while from three shards up evenly spread
/// announcements dilute per shard but the zipfian hot keys' shard
/// keeps its whole mass.
///
/// [`RunConfig::sec`]: sec_workload::RunConfig::sec
pub fn map_bench_sec(config: SecConfig) -> SecConfig {
    config.aggregator_policy(AggregatorPolicy::Adaptive {
        min_k: 3,
        max_k: 6,
        window: 2048,
    })
}

/// `sweep map_bench`'s registration capacity at `threads` workers:
/// ~2.3x the worker count plus a spare pool, as a deployment sized for
/// a worst-case fan-in would provision. The monitor's per-shard share
/// is capacity / active (DESIGN.md §8), and this curve puts the grow
/// threshold (half the share) between the two workloads' `min_k`
/// batching degrees: evenly spread announcements stay under it, while
/// the crowded shard serving the zipfian hot keys clears it and votes
/// the active count up.
pub fn map_bench_capacity(threads: usize) -> usize {
    7 * threads / 3 + 6
}

/// The three wait policies (DESIGN.md §11) as [`RunConfig::sec`]
/// patches, in `sweep oversub`'s series order.
///
/// [`RunConfig::sec`]: sec_workload::RunConfig::sec
pub const WAIT_POLICIES: [SecPatch; 3] = [
    |c| c.wait_policy(WaitPolicy::Spin),
    |c| c.wait_policy(WaitPolicy::SpinThenYield),
    |c| c.wait_policy(WaitPolicy::spin_then_park()),
];

/// The label of the wait policy `patch` sets (`spin`, `yield`, `park`).
pub fn wait_label(patch: SecPatch) -> &'static str {
    patch(SecConfig::new(1, 1)).wait.label()
}

/// Runs `ops` timed operations per thread of `mix` (`map_mix` for the
/// map family, keys uniform over 1024) on `threads` workers against a
/// fresh, empty instance of `algo`, SEC families patched by `sec`, and
/// returns the latency percentiles: the [`ClosedLoop`] `run_algo`
/// uses, with an op budget and a [`LatencyHistogram`] probe.
pub fn algo_latency(
    algo: Algo,
    sec: SecPatch,
    threads: usize,
    ops: u64,
    mix: Mix,
    map_mix: MapMix,
) -> LatencyReport {
    let cfg = RunConfig {
        prefill: 0,
        sec,
        map_mix,
        ..RunConfig::new(threads, mix)
    };
    let (_, hist) = ClosedLoop::<LatencyHistogram>::new(&cfg, Budget::Ops(ops)).algo(algo);
    LatencyReport::from_histogram(&hist)
}

/// A `BENCH_*.json` document (the workspace carries no serde; the
/// drops are flat enough that formatting by hand is the smaller
/// liability).
///
/// [`render`](Self::render) lays the document out the way every drop
/// has always been laid out: the top-level object one field per line,
/// every array of objects one element per line, everything else
/// inline.
#[derive(Debug)]
pub enum Json {
    /// An integer.
    Int(u64),
    /// A number printed with a fixed count of decimals (`{:.N}`).
    Fixed(f64, usize),
    /// A string, written unescaped (the drops only carry labels and
    /// names, none of which contain `"` or `\`).
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, fields in order.
    Object(Vec<(&'static str, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Self {
        Json::Str(s.into())
    }

    /// The document text, newline-terminated.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Writes `self` into `out`, where `indent` is the indentation of
    /// the line the value starts on (0 only for the top-level object).
    fn write(&self, out: &mut String, indent: usize) {
        let (open, close, items): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Int(n) => return out.push_str(&n.to_string()),
            Json::Fixed(x, decimals) => return out.push_str(&format!("{x:.decimals$}")),
            Json::Str(s) => return out.push_str(&format!("\"{s}\"")),
            Json::Array(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Object(fields) => {
                let fields = fields.iter().map(|(k, v)| (Some(*k), v)).collect();
                ('{', '}', fields)
            }
        };
        // The top level and every container of objects put one element
        // per line, indented one step deeper than the line they open on.
        let multiline = indent == 0 || matches!(items.first(), Some((_, Json::Object(_))));
        let inner = if multiline { indent + 2 } else { indent };
        out.push(open);
        for (i, (key, value)) in items.into_iter().enumerate() {
            out.push_str(match (i, multiline) {
                (0, false) => "",
                (_, false) => ", ",
                (0, true) => "\n",
                (_, true) => ",\n",
            });
            if multiline {
                out.push_str(&" ".repeat(inner));
            }
            if let Some(key) = key {
                let _ = write!(out, "\"{key}\": ");
            }
            value.write(out, inner);
        }
        if multiline {
            let _ = write!(out, "\n{}", " ".repeat(indent));
        }
        out.push(close);
    }
}

/// Writes `body` to `path` (creating its directory) and reports the
/// outcome on stderr; a failed write warns instead of aborting the
/// sweep that produced it.
pub fn write_reported(path: &Path, body: &str) {
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(path, body) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Writes the `file_name` drop (e.g. `BENCH_families.json`) twice:
/// into `csv_dir` for the artifact bundle, and into the current
/// directory — the repo root when run from a checkout — so trend
/// tooling finds every `BENCH_*` file in one place without knowing
/// each binary's `--csv` dir.
pub fn write_bench_json(csv_dir: &Path, file_name: &str, json: &Json) {
    let body = json.render();
    for path in [csv_dir.join(file_name), PathBuf::from(file_name)] {
        write_reported(&path, &body);
    }
}

#[cfg(test)]
mod tests {
    use super::Json;

    #[test]
    fn json_layout_matches_the_committed_drops() {
        let point = |x: f64| Json::Object(vec![("t", Json::Int(1)), ("x", Json::Fixed(x, 4))]);
        let doc = Json::Object(vec![
            ("bench", Json::str("families")),
            ("threads", Json::Array(vec![Json::Int(1), Json::Int(2)])),
            (
                "rows",
                Json::Array(vec![Json::Object(vec![
                    ("name", Json::str("SEC")),
                    ("points", Json::Array(vec![point(2.07156), point(0.5)])),
                ])]),
            ),
        ]);
        let expected = r#"{
  "bench": "families",
  "threads": [1, 2],
  "rows": [
    {"name": "SEC", "points": [
      {"t": 1, "x": 2.0716},
      {"t": 1, "x": 0.5000}
    ]}
  ]
}
"#;
        assert_eq!(doc.render(), expected);
    }
}
