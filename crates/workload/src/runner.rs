//! The throughput measurement loop (§6 "Methodology").

use crate::spec::{KeyDist, MapMix, MapOpKind, Mix, OpKind};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sec_core::counter::SecCounter;
use sec_core::{
    ConcurrentMap, ConcurrentQueue, ConcurrentStack, DurablePolicy, LogGranularity, MapHandle,
    QueueHandle, SecConfig, StackHandle, SyncMode,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Parameters of one measurement.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Number of worker threads.
    pub threads: usize,
    /// Measurement duration. The paper runs 5 s; the figure binaries
    /// default to 250 ms so a full sweep finishes on a laptop, with a
    /// `--duration-ms` flag to restore the paper's setting.
    pub duration: Duration,
    /// Elements pushed before the measurement starts (paper: 1000).
    pub prefill: usize,
    /// Operation mix.
    pub mix: Mix,
    /// Upper bound (exclusive) for random pushed values (paper: values
    /// drawn uniformly from a range).
    pub value_range: u64,
    /// Base RNG seed; thread `t` of run `r` uses a deterministic
    /// function of (seed, t, r) so runs are reproducible.
    pub seed: u64,
    /// The SEC families' configuration patch: [`run_algo`] builds the
    /// structure's default [`SecConfig`] for the run — the [`Algo`]
    /// variant's aggregator policy, [`RunConfig::capacity`] threads —
    /// and hands it through this function before constructing the
    /// stack, queue, counter or map, durable or not. The default
    /// leaves it unchanged. A plain `fn` keeps `RunConfig` `Copy`;
    /// the non-SEC algorithms ignore it.
    ///
    /// [`run_algo`]: crate::run_algo
    /// [`Algo`]: crate::Algo
    pub sec: fn(SecConfig) -> SecConfig,
    /// Operation mix for the map family (used instead of `mix` by
    /// [`run_map_throughput`]; ignored by the stack/queue runners).
    pub map_mix: MapMix,
    /// Key distribution for the map family. Uniform spreads the
    /// announcements over the shards; zipfian concentrates them on the
    /// hot keys' shards — the regime that exercises the elastic
    /// monitor.
    pub key_dist: KeyDist,
    /// Registration-capacity override (`None` → `threads + 1`, the
    /// tight default). A deployment normally provisions a structure for
    /// its peak thread count, not its current one; benches set this to
    /// model that headroom, which also feeds the elastic monitor's
    /// per-shard share (capacity / active shards — DESIGN.md §8).
    /// Values below `threads + 1` are clamped up to it.
    pub sec_capacity: Option<usize>,
    /// Durable-logging setup for the SEC families (`None` keeps the
    /// ordinary in-memory structures). When set, [`run_algo`] builds
    /// the SEC structure with its `durable_with_config()` constructor
    /// instead, so every operation flows through the persistent redo
    /// log (DESIGN.md §16) — the knob `durable_bench` sweeps to price
    /// the flush-per-batch discipline. The [`RunConfig::sec`] patch
    /// applies all the same; non-SEC algorithms ignore this entirely.
    ///
    /// [`run_algo`]: crate::run_algo
    pub durable: Option<DurableSetup>,
}

impl RunConfig {
    /// A config with the paper's structural defaults (1000-element
    /// prefill) at a laptop-friendly duration.
    pub fn new(threads: usize, mix: Mix) -> Self {
        Self {
            threads: threads.max(1),
            duration: Duration::from_millis(250),
            prefill: 1000,
            mix,
            value_range: 100_000,
            seed: 0xC0FFEE,
            sec: |config| config,
            map_mix: MapMix::READ_HEAVY,
            key_dist: KeyDist::Uniform { keys: 1024 },
            sec_capacity: None,
            durable: None,
        }
    }

    /// Registration capacity every structure of the run is built for:
    /// one slot per worker plus one for the prefill handle, raised to
    /// [`RunConfig::sec_capacity`] when that asks for more.
    pub fn capacity(&self) -> usize {
        self.sec_capacity.unwrap_or(0).max(self.threads + 1)
    }
}

/// Copyable description of a durable-logging run, lowered to a
/// [`DurablePolicy`] by [`DurableSetup::policy`] at construction time.
/// `RunConfig` is `Copy` (the figure binaries fan it out with struct
/// update syntax in nested sweep loops), so it cannot hold a
/// `DurablePolicy` directly — the policy's heap mode owns a path or an
/// `Arc`. This subset covers what the benches sweep; anything fancier
/// (recovering into an existing heap, a caller-chosen path) builds the
/// structure itself instead of going through [`run_algo`].
///
/// [`run_algo`]: crate::run_algo
#[derive(Debug, Clone, Copy)]
pub struct DurableSetup {
    /// Heap backing: `false` → anonymous volatile heap (full logging
    /// code paths, no file I/O — the tier-1 default); `true` → a
    /// file-backed mmap at a generated path under the OS temp dir,
    /// removed after the run.
    pub file_backed: bool,
    /// Durable combining shards (dedicated log + aggregator pairs).
    pub shards: usize,
    /// Log records per shard. The log is not circular, so this bounds
    /// the run's total batch count (per-op granularity: op count) —
    /// size it from `duration × expected throughput` or the structure
    /// panics mid-run with a "durable log full" message.
    pub record_capacity: usize,
    /// Operation entries per record.
    pub batch_entries: usize,
    /// Flush discipline.
    pub sync: SyncMode,
    /// One record per batch (the combining win) or per op (the
    /// strawman `durable_bench` compares it against).
    pub granularity: LogGranularity,
}

/// Distinguishes concurrently generated temp-file names (the pid alone
/// is not enough: one bench process runs many durable measurements).
static DURABLE_TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl DurableSetup {
    /// Volatile-heap setup with geometry sized for short bench runs.
    pub fn volatile() -> Self {
        Self {
            file_backed: false,
            shards: 2,
            record_capacity: 1 << 15,
            batch_entries: 64,
            sync: SyncMode::None,
            granularity: LogGranularity::PerBatch,
        }
    }

    /// File-backed (mmap) setup; the runner generates and cleans up
    /// the temp path.
    pub fn file_backed() -> Self {
        Self {
            file_backed: true,
            ..Self::volatile()
        }
    }

    /// Lowers the setup to a concrete [`DurablePolicy`], generating a
    /// fresh temp path for file-backed runs. Returns the path so the
    /// caller can remove the heap file once the run is done.
    pub fn policy(&self) -> (DurablePolicy, Option<std::path::PathBuf>) {
        let (policy, path) = if self.file_backed {
            let path = std::env::temp_dir().join(format!(
                "sec-durable-run-{}-{}.heap",
                std::process::id(),
                DURABLE_TMP_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            (DurablePolicy::file(&path), Some(path))
        } else {
            (DurablePolicy::volatile(), None)
        };
        (
            policy
                .shards(self.shards)
                .record_capacity(self.record_capacity)
                .batch_entries(self.batch_entries)
                .sync(self.sync)
                .granularity(self.granularity),
            path,
        )
    }
}

/// Outcome of one measurement.
#[derive(Debug, Clone, Copy)]
pub struct RunResult {
    /// Total completed operations across all threads.
    pub ops: u64,
    /// Measured wall-clock duration.
    pub elapsed: Duration,
}

impl RunResult {
    /// Throughput in million operations per second (the paper's y-axis).
    pub fn mops(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64() / 1e6
    }
}

/// Runs one throughput measurement against `stack`.
///
/// The stack must have been constructed for at least
/// `cfg.threads + 1` threads (one extra registration slot is used for
/// the prefill, and is released before the workers start).
pub fn run_throughput<S: ConcurrentStack<u64>>(stack: &S, cfg: &RunConfig) -> RunResult {
    // Prefill from the calling thread (paper: "a stack initially
    // prefilled with 1000 nodes").
    {
        let mut h = stack.register();
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x5EED);
        for _ in 0..cfg.prefill {
            h.push(rng.gen_range(0..cfg.value_range.max(1)));
        }
    }

    let barrier = Barrier::new(cfg.threads + 1);
    let stop = AtomicBool::new(false);
    let mut per_thread_ops = vec![0u64; cfg.threads];

    let elapsed = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|t| {
                let stack = &stack;
                let barrier = &barrier;
                let stop = &stop;
                scope.spawn(move || {
                    let mut h = stack.register();
                    let mut rng = SmallRng::seed_from_u64(
                        cfg.seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    barrier.wait();
                    let mut ops = 0u64;
                    // Check the deadline every CHUNK ops to keep the
                    // clock off the hot path.
                    const CHUNK: u32 = 64;
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..CHUNK {
                            match cfg.mix.classify(rng.gen_range(0..100)) {
                                OpKind::Push => h.push(rng.gen_range(0..cfg.value_range.max(1))),
                                OpKind::Pop => {
                                    let _ = h.pop();
                                }
                                OpKind::Peek => {
                                    let _ = h.peek();
                                }
                            }
                        }
                        ops += CHUNK as u64;
                    }
                    ops
                })
            })
            .collect();

        barrier.wait();
        let start = Instant::now();
        std::thread::sleep(cfg.duration);
        stop.store(true, Ordering::Relaxed);
        for (t, h) in handles.into_iter().enumerate() {
            per_thread_ops[t] = h.join().expect("worker panicked");
        }
        start.elapsed()
    });

    RunResult {
        ops: per_thread_ops.iter().sum(),
        elapsed,
    }
}

/// Runs one throughput measurement against `queue` — the queue-family
/// twin of [`run_throughput`], sharing [`RunConfig`] so the figure
/// binaries sweep both families with one configuration type.
///
/// Queues have no read-only operation, so a [`Mix`] draw that would
/// `peek` a stack performs a `dequeue` here (the queue lineup is
/// normally measured under the peek-free mixes: `UPDATE_100`,
/// `PUSH_ONLY`, `POP_ONLY`).
///
/// The queue must have been constructed for at least `cfg.threads + 1`
/// threads (one extra registration slot is used for the prefill).
pub fn run_queue_throughput<Q: ConcurrentQueue<u64>>(queue: &Q, cfg: &RunConfig) -> RunResult {
    {
        let mut h = queue.register();
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x5EED);
        for _ in 0..cfg.prefill {
            h.enqueue(rng.gen_range(0..cfg.value_range.max(1)));
        }
    }

    let barrier = Barrier::new(cfg.threads + 1);
    let stop = AtomicBool::new(false);
    let mut per_thread_ops = vec![0u64; cfg.threads];

    let elapsed = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|t| {
                let queue = &queue;
                let barrier = &barrier;
                let stop = &stop;
                scope.spawn(move || {
                    let mut h = queue.register();
                    let mut rng = SmallRng::seed_from_u64(
                        cfg.seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    barrier.wait();
                    let mut ops = 0u64;
                    const CHUNK: u32 = 64;
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..CHUNK {
                            match cfg.mix.classify(rng.gen_range(0..100)) {
                                OpKind::Push => h.enqueue(rng.gen_range(0..cfg.value_range.max(1))),
                                OpKind::Pop | OpKind::Peek => {
                                    let _ = h.dequeue();
                                }
                            }
                        }
                        ops += CHUNK as u64;
                    }
                    ops
                })
            })
            .collect();

        barrier.wait();
        let start = Instant::now();
        std::thread::sleep(cfg.duration);
        stop.store(true, Ordering::Relaxed);
        for (t, h) in handles.into_iter().enumerate() {
            per_thread_ops[t] = h.join().expect("queue worker panicked");
        }
        start.elapsed()
    });

    RunResult {
        ops: per_thread_ops.iter().sum(),
        elapsed,
    }
}

/// Runs one throughput measurement against `map` — the map-family twin
/// of [`run_throughput`], driven by [`RunConfig::map_mix`] (read/write
/// shares) and [`RunConfig::key_dist`] (uniform or zipfian key draws)
/// instead of the stack's `mix`.
///
/// The prefill inserts `cfg.prefill` keys drawn from the key
/// distribution (duplicates overwrite, so a zipfian prefill populates
/// the hot head densely and the tail sparsely, like a warmed cache).
///
/// The map must have been constructed for at least `cfg.threads + 1`
/// threads (one extra registration slot is used for the prefill).
pub fn run_map_throughput<M: ConcurrentMap<u64, u64>>(map: &M, cfg: &RunConfig) -> RunResult {
    let sampler = cfg.key_dist.sampler();
    {
        let mut h = map.register();
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x5EED);
        for _ in 0..cfg.prefill {
            let k = sampler.sample(&mut rng);
            let _ = h.insert(k, rng.gen_range(0..cfg.value_range.max(1)));
        }
    }

    let barrier = Barrier::new(cfg.threads + 1);
    let stop = AtomicBool::new(false);
    let mut per_thread_ops = vec![0u64; cfg.threads];

    let elapsed = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|t| {
                let map = &map;
                let sampler = &sampler;
                let barrier = &barrier;
                let stop = &stop;
                scope.spawn(move || {
                    let mut h = map.register();
                    let mut rng = SmallRng::seed_from_u64(
                        cfg.seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    barrier.wait();
                    let mut ops = 0u64;
                    const CHUNK: u32 = 64;
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..CHUNK {
                            let key = sampler.sample(&mut rng);
                            match cfg.map_mix.classify(rng.gen_range(0..100)) {
                                MapOpKind::Get => {
                                    let _ = h.get(&key);
                                }
                                MapOpKind::Insert => {
                                    let _ = h.insert(key, rng.gen_range(0..cfg.value_range.max(1)));
                                }
                                MapOpKind::Remove => {
                                    let _ = h.remove(&key);
                                }
                            }
                        }
                        ops += CHUNK as u64;
                    }
                    ops
                })
            })
            .collect();

        barrier.wait();
        let start = Instant::now();
        std::thread::sleep(cfg.duration);
        stop.store(true, Ordering::Relaxed);
        for (t, h) in handles.into_iter().enumerate() {
            per_thread_ops[t] = h.join().expect("map worker panicked");
        }
        start.elapsed()
    });

    RunResult {
        ops: per_thread_ops.iter().sum(),
        elapsed,
    }
}

/// Runs one throughput measurement against `counter` — the
/// counter-family twin of [`run_throughput`], sharing [`RunConfig`].
///
/// The counter has two operations, not three; a [`Mix`] draw that
/// would push or pop performs a `fetch_add` (operand from
/// `value_range`), and a peek draw performs a `load`, so
/// [`Mix::UPDATE_10`] measures a read-heavy counter and
/// [`Mix::UPDATE_100`] a pure-RMW one. No prefill: a counter has no
/// contents to warm.
pub fn run_counter_throughput(counter: &SecCounter, cfg: &RunConfig) -> RunResult {
    let barrier = Barrier::new(cfg.threads + 1);
    let stop = AtomicBool::new(false);
    let mut per_thread_ops = vec![0u64; cfg.threads];

    let elapsed = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|t| {
                let counter = &counter;
                let barrier = &barrier;
                let stop = &stop;
                scope.spawn(move || {
                    let mut h = counter.register();
                    let mut rng = SmallRng::seed_from_u64(
                        cfg.seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    barrier.wait();
                    let mut ops = 0u64;
                    const CHUNK: u32 = 64;
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..CHUNK {
                            match cfg.mix.classify(rng.gen_range(0..100)) {
                                OpKind::Push | OpKind::Pop => {
                                    let _ = h.fetch_add(rng.gen_range(0..cfg.value_range.max(1)));
                                }
                                OpKind::Peek => {
                                    let _ = h.load();
                                }
                            }
                        }
                        ops += CHUNK as u64;
                    }
                    ops
                })
            })
            .collect();

        barrier.wait();
        let start = Instant::now();
        std::thread::sleep(cfg.duration);
        stop.store(true, Ordering::Relaxed);
        for (t, h) in handles.into_iter().enumerate() {
            per_thread_ops[t] = h.join().expect("counter worker panicked");
        }
        start.elapsed()
    });

    RunResult {
        ops: per_thread_ops.iter().sum(),
        elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sec_core::SecStack;

    #[test]
    fn runner_measures_positive_throughput() {
        let cfg = RunConfig {
            duration: Duration::from_millis(30),
            ..RunConfig::new(2, Mix::UPDATE_100)
        };
        let stack: SecStack<u64> = SecStack::new(cfg.threads + 1);
        let r = run_throughput(&stack, &cfg);
        assert!(r.ops > 0);
        assert!(r.mops() > 0.0);
        assert!(r.elapsed >= cfg.duration);
    }

    #[test]
    fn runner_handles_every_preset_mix() {
        for mix in [
            Mix::UPDATE_100,
            Mix::UPDATE_50,
            Mix::UPDATE_10,
            Mix::PUSH_ONLY,
            Mix::POP_ONLY,
        ] {
            let cfg = RunConfig {
                duration: Duration::from_millis(10),
                prefill: 100,
                ..RunConfig::new(2, mix)
            };
            let stack: SecStack<u64> = SecStack::new(cfg.threads + 1);
            let r = run_throughput(&stack, &cfg);
            assert!(r.ops > 0, "{mix}");
        }
    }

    #[test]
    fn config_clamps_zero_threads() {
        assert_eq!(RunConfig::new(0, Mix::UPDATE_100).threads, 1);
    }

    #[test]
    fn queue_runner_measures_positive_throughput() {
        use sec_core::SecQueue;
        let cfg = RunConfig {
            duration: Duration::from_millis(30),
            ..RunConfig::new(2, Mix::UPDATE_100)
        };
        let queue: SecQueue<u64> = SecQueue::new(cfg.threads + 1);
        let r = run_queue_throughput(&queue, &cfg);
        assert!(r.ops > 0);
        assert!(r.mops() > 0.0);
        assert!(r.elapsed >= cfg.duration);
    }

    #[test]
    fn queue_runner_maps_peek_draws_to_dequeue() {
        use sec_core::SecQueue;
        // A peek-heavy mix must still make progress on a queue.
        let cfg = RunConfig {
            duration: Duration::from_millis(10),
            prefill: 100,
            ..RunConfig::new(2, Mix::UPDATE_10)
        };
        let queue: SecQueue<u64> = SecQueue::new(cfg.threads + 1);
        assert!(run_queue_throughput(&queue, &cfg).ops > 0);
    }

    #[test]
    fn map_runner_measures_positive_throughput() {
        use sec_core::SecMap;
        let cfg = RunConfig {
            duration: Duration::from_millis(30),
            ..RunConfig::new(2, Mix::UPDATE_100)
        };
        let map: SecMap<u64, u64> = SecMap::new(cfg.threads + 1);
        let r = run_map_throughput(&map, &cfg);
        assert!(r.ops > 0);
        assert!(r.mops() > 0.0);
        assert!(r.elapsed >= cfg.duration);
        // The prefill populated the map from the key distribution.
        assert!(!map.is_empty());
    }

    #[test]
    fn map_runner_handles_zipfian_and_write_heavy() {
        use sec_core::SecMap;
        let cfg = RunConfig {
            duration: Duration::from_millis(10),
            prefill: 100,
            map_mix: MapMix::WRITE_HEAVY,
            key_dist: KeyDist::Zipfian {
                keys: 64,
                theta: 0.99,
            },
            ..RunConfig::new(2, Mix::UPDATE_100)
        };
        let map: SecMap<u64, u64> = SecMap::new(cfg.threads + 1);
        assert!(run_map_throughput(&map, &cfg).ops > 0);
    }

    #[test]
    fn counter_runner_measures_positive_throughput() {
        let cfg = RunConfig {
            duration: Duration::from_millis(30),
            ..RunConfig::new(2, Mix::UPDATE_100)
        };
        let counter = SecCounter::new(cfg.threads);
        let r = run_counter_throughput(&counter, &cfg);
        assert!(r.ops > 0);
        assert!(counter.load() > 0, "update draws reached fetch_add");
    }

    #[test]
    fn counter_runner_maps_peek_draws_to_load() {
        // Peek-only: loads never advance the counter.
        let cfg = RunConfig {
            duration: Duration::from_millis(10),
            ..RunConfig::new(2, Mix::new(0, 0, 100))
        };
        let counter = SecCounter::new(cfg.threads);
        assert!(run_counter_throughput(&counter, &cfg).ops > 0);
        assert_eq!(counter.load(), 0);
    }
}
