//! The closed-loop measurement (§6 "Methodology"): [`drive`] runs
//! workers behind one start barrier until a [`Budget`] is spent, and
//! [`ClosedLoop`] maps a mix's draws to each structure kind's
//! operations on top of it.

use crate::algo::{Algo, AlgoRun, SecReadout, Visitor};
use crate::spec::{KeyDist, MapMix, MapOpKind, Mix, OpKind};
use core::marker::PhantomData;
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
    /// [`ClosedLoop`]'s map mapping; the other kinds ignore it).
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
    /// Log records per shard (see
    /// [`DurablePolicy::record_capacity`](sec_core::DurablePolicy)):
    /// the log rewinds at checkpoints, so this bounds the size of the
    /// structure a checkpoint holds — its op list must fit in half the
    /// records — not the run's length.
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
    /// Volatile-heap setup with geometry sized for bench runs: a log
    /// whose checkpoints hold tens of thousands of values at any
    /// `batch_entries`, while a run touches only its first records.
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

/// How long [`drive`] runs its workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// Until the duration has passed. Each worker checks the stop flag
    /// once every 64 steps, which keeps the flag off the hot path, so
    /// its step count is a multiple of 64.
    Time(Duration),
    /// Exactly this many steps per worker.
    Ops(u64),
}

/// One worker's pass through [`drive`]'s start barrier.
#[derive(Debug)]
pub struct Start<'a> {
    barrier: &'a Barrier,
    stop: &'a AtomicBool,
    budget: Budget,
}

impl Start<'_> {
    /// Waits at the start barrier with every other worker, then calls
    /// `step` until the budget is spent, and returns how many times it
    /// did. A worker must call this exactly once, or the barrier never
    /// opens.
    // Always inlined, so `step` and the worker's state fold into one
    // loop in the worker, as in a hand-written one.
    #[inline(always)]
    pub fn run(self, mut step: impl FnMut()) -> u64 {
        // A timed run checks the stop flag once per 64-step chunk; an
        // op budget is one chunk of its whole count.
        let (chunk, mut chunks) = match self.budget {
            Budget::Time(_) => (64, u64::MAX),
            Budget::Ops(n) => (n, 1),
        };
        self.barrier.wait();
        let mut steps = 0;
        // The first chunk runs whatever the stop flag says, so a worker
        // descheduled past a short duration still takes one chunk and
        // no timed run reads 0 ops.
        loop {
            for _ in 0..chunk {
                step();
            }
            steps += chunk;
            chunks -= 1;
            if chunks == 0 || self.stop.load(Ordering::Relaxed) {
                break;
            }
        }
        steps
    }
}

/// The closed-loop driver: runs `worker(t, start)` for `t` in
/// `0..threads`, each on its own thread, so a worker registers its
/// handles where it runs them. Every worker calls [`Start::run`], which
/// holds it at one start barrier and then steps it until `budget` is
/// spent. Returns each worker's output, in worker order, and the wall
/// time from the barrier's release to the last join.
pub fn drive<T: Send>(
    threads: usize,
    budget: Budget,
    worker: impl Fn(usize, Start<'_>) -> T + Sync,
) -> (Vec<T>, Duration) {
    let barrier = Barrier::new(threads + 1);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let pass = Start {
                    barrier: &barrier,
                    stop: &stop,
                    budget,
                };
                let worker = &worker;
                scope.spawn(move || worker(t, pass))
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        if let Budget::Time(duration) = budget {
            std::thread::sleep(duration);
            stop.store(true, Ordering::Relaxed);
        }
        let outputs = workers
            .into_iter()
            .map(|w| w.join().expect("worker panicked"))
            .collect();
        (outputs, start.elapsed())
    })
}

/// What a closed-loop worker records around each operation: `()`
/// records nothing (the throughput measurement), a
/// [`LatencyHistogram`] times each op.
///
/// [`LatencyHistogram`]: crate::LatencyHistogram
pub trait Probe: Default + Send {
    /// Performs `op`, recording it.
    fn time(&mut self, op: impl FnOnce());
    /// Folds another worker's record into this one.
    fn merge(&mut self, other: Self);
}

impl Probe for () {
    #[inline(always)]
    fn time(&mut self, op: impl FnOnce()) {
        op()
    }
    fn merge(&mut self, _: ()) {}
}

/// One closed-loop measurement (§6 "Methodology"): prefill the
/// structure from the calling thread with the seed `seed ^ 0x5EED`,
/// then [`drive`] `cfg.threads` workers, worker `t` seeded with
/// `seed ^ t·0x9E37_79B9_7F4A_7C15`, each drawing operations from the
/// config's mix until the budget is spent and recording them with its
/// [`Probe`].
///
/// It is a [`Visitor`], and its four methods are the one mapping from
/// a mix draw to an operation per structure kind:
///
/// * stack: push, pop or peek;
/// * queue: a push draw enqueues, a pop or peek draw dequeues (queues
///   have no read-only operation);
/// * counter: a push or pop draw is a `fetch_add`, a peek draw a
///   `load`; no prefill, a counter has no contents to warm;
/// * map: a key from [`RunConfig::key_dist`], then get, insert or
///   remove under [`RunConfig::map_mix`] instead of the mix; the
///   prefill inserts sampled keys (duplicates overwrite, so a zipfian
///   prefill populates the hot head densely and the tail sparsely,
///   like a warmed cache).
///
/// Pushed values, insert values and counter operands are drawn from
/// `0..value_range`. [`ClosedLoop::algo`] measures a registry
/// structure; a visitor method measures one built by hand. The
/// structure must admit `cfg.threads + 1` registrations: the prefill
/// handle is released before the workers register.
#[derive(Debug)]
pub struct ClosedLoop<'a, P = ()> {
    cfg: &'a RunConfig,
    budget: Budget,
    probe: PhantomData<P>,
}

impl<'a> ClosedLoop<'a> {
    /// The throughput measurement: runs for `cfg.duration`, records
    /// nothing per op.
    pub fn timed(cfg: &'a RunConfig) -> Self {
        Self::new(cfg, Budget::Time(cfg.duration))
    }
}

impl<'a, P: Probe> ClosedLoop<'a, P> {
    /// A measurement of `cfg` that runs until `budget` is spent.
    pub fn new(cfg: &'a RunConfig, budget: Budget) -> Self {
        Self {
            cfg,
            budget,
            probe: PhantomData,
        }
    }

    /// Constructs a fresh instance of `algo` sized for the run — SEC
    /// families patched by [`RunConfig::sec`] and durable when
    /// [`RunConfig::durable`] is set — measures it, and removes a
    /// file-backed run's heap once the structure is dropped.
    pub fn algo(self, algo: Algo) -> (AlgoRun, P) {
        let cfg = self.cfg;
        let durable = cfg.durable.map(|setup| setup.policy());
        let policy = durable.as_ref().map(|(policy, _)| policy.clone());
        let out = algo.build(cfg.capacity(), cfg.sec, policy, self);
        if let Some((_, Some(path))) = durable {
            let _ = std::fs::remove_file(path);
        }
        out
    }

    /// Exclusive bound of the drawn values.
    fn values(&self) -> u64 {
        self.cfg.value_range.max(1)
    }

    /// Runs `put` `cfg.prefill` times on handle `h`.
    fn prefill<H>(&self, mut h: H, mut put: impl FnMut(&mut H, &mut SmallRng)) {
        let mut rng = SmallRng::seed_from_u64(self.cfg.seed ^ 0x5EED);
        for _ in 0..self.cfg.prefill {
            put(&mut h, &mut rng);
        }
    }

    /// Drives the workers, each stepping `op` on its own handle.
    fn run<H>(
        self,
        sec: Option<&dyn SecReadout>,
        register: impl Fn() -> H + Sync,
        op: impl Fn(&mut H, &mut SmallRng) + Sync,
    ) -> (AlgoRun, P) {
        let seed = self.cfg.seed;
        let (workers, elapsed) = drive(self.cfg.threads, self.budget, |t, start| {
            let mut h = register();
            let mut rng =
                SmallRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut probe = P::default();
            let ops = start.run(|| probe.time(|| op(&mut h, &mut rng)));
            (ops, probe)
        });
        let (mut ops, mut probe) = (0, P::default());
        for (n, p) in workers {
            ops += n;
            probe.merge(p);
        }
        (AlgoRun::new(RunResult { ops, elapsed }, sec), probe)
    }
}

impl<P: Probe> Visitor for ClosedLoop<'_, P> {
    type Out = (AlgoRun, P);

    fn stack<S: ConcurrentStack<u64>>(self, stack: &S, sec: Option<&dyn SecReadout>) -> Self::Out {
        let (mix, values) = (self.cfg.mix, self.values());
        self.prefill(stack.register(), |h, rng| h.push(rng.gen_range(0..values)));
        self.run(
            sec,
            || stack.register(),
            |h, rng| match mix.classify(rng.gen_range(0..100)) {
                OpKind::Push => h.push(rng.gen_range(0..values)),
                OpKind::Pop => {
                    let _ = h.pop();
                }
                OpKind::Peek => {
                    let _ = h.peek();
                }
            },
        )
    }

    fn queue<Q: ConcurrentQueue<u64>>(self, queue: &Q, sec: Option<&dyn SecReadout>) -> Self::Out {
        let (mix, values) = (self.cfg.mix, self.values());
        self.prefill(queue.register(), |h, rng| {
            h.enqueue(rng.gen_range(0..values))
        });
        self.run(
            sec,
            || queue.register(),
            |h, rng| match mix.classify(rng.gen_range(0..100)) {
                OpKind::Push => h.enqueue(rng.gen_range(0..values)),
                OpKind::Pop | OpKind::Peek => {
                    let _ = h.dequeue();
                }
            },
        )
    }

    fn counter(self, counter: &SecCounter, sec: Option<&dyn SecReadout>) -> Self::Out {
        let (mix, values) = (self.cfg.mix, self.values());
        self.run(
            sec,
            || counter.register(),
            |h, rng| match mix.classify(rng.gen_range(0..100)) {
                OpKind::Push | OpKind::Pop => {
                    let _ = h.fetch_add(rng.gen_range(0..values));
                }
                OpKind::Peek => {
                    let _ = h.load();
                }
            },
        )
    }

    fn map<M: ConcurrentMap<u64, u64>>(self, map: &M, sec: Option<&dyn SecReadout>) -> Self::Out {
        let (mix, values) = (self.cfg.map_mix, self.values());
        let keys = self.cfg.key_dist.sampler();
        self.prefill(map.register(), |h, rng| {
            let key = keys.sample(rng);
            let _ = h.insert(key, rng.gen_range(0..values));
        });
        self.run(
            sec,
            || map.register(),
            |h, rng| {
                let key = keys.sample(rng);
                match mix.classify(rng.gen_range(0..100)) {
                    MapOpKind::Get => {
                        let _ = h.get(&key);
                    }
                    MapOpKind::Insert => {
                        let _ = h.insert(key, rng.gen_range(0..values));
                    }
                    MapOpKind::Remove => {
                        let _ = h.remove(&key);
                    }
                }
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sec_core::SecStack;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;

    /// A timed throughput run of `stack`.
    fn stack_run<S: ConcurrentStack<u64>>(stack: &S, cfg: &RunConfig) -> RunResult {
        ClosedLoop::timed(cfg).stack(stack, None).0.result
    }

    #[test]
    fn runner_measures_positive_throughput() {
        let cfg = RunConfig {
            duration: Duration::from_millis(30),
            ..RunConfig::new(2, Mix::UPDATE_100)
        };
        let stack: SecStack<u64> = SecStack::new(cfg.threads + 1);
        let r = stack_run(&stack, &cfg);
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
            let r = stack_run(&stack, &cfg);
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
        let r = ClosedLoop::timed(&cfg).queue(&queue, None).0.result;
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
        assert!(ClosedLoop::timed(&cfg).queue(&queue, None).0.result.ops > 0);
    }

    #[test]
    fn map_runner_measures_positive_throughput() {
        use sec_core::SecMap;
        let cfg = RunConfig {
            duration: Duration::from_millis(30),
            ..RunConfig::new(2, Mix::UPDATE_100)
        };
        let map: SecMap<u64, u64> = SecMap::new(cfg.threads + 1);
        let r = ClosedLoop::timed(&cfg).map(&map, None).0.result;
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
        assert!(ClosedLoop::timed(&cfg).map(&map, None).0.result.ops > 0);
    }

    #[test]
    fn counter_runner_measures_positive_throughput() {
        let cfg = RunConfig {
            duration: Duration::from_millis(30),
            ..RunConfig::new(2, Mix::UPDATE_100)
        };
        let counter = SecCounter::new(cfg.threads);
        let r = ClosedLoop::timed(&cfg).counter(&counter, None).0.result;
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
        assert!(ClosedLoop::timed(&cfg).counter(&counter, None).0.result.ops > 0);
        assert_eq!(counter.load(), 0);
    }

    #[test]
    fn timed_drive_outlasts_its_duration_with_one_output_per_worker() {
        let duration = Duration::from_millis(20);
        let (outputs, elapsed) = drive(3, Budget::Time(duration), |t, start| {
            let mut calls = 0u64;
            let steps = start.run(|| calls += 1);
            assert_eq!(steps, calls);
            (t, steps)
        });
        assert!(elapsed >= duration, "{elapsed:?} < {duration:?}");
        let workers: Vec<usize> = outputs.iter().map(|&(t, _)| t).collect();
        assert_eq!(workers, [0, 1, 2]);
        for (t, steps) in outputs {
            assert_eq!(steps % 64, 0, "worker {t} stopped mid-chunk");
            assert!(steps >= 64, "worker {t} took no chunk");
        }
    }

    #[test]
    fn op_budget_drive_takes_exactly_n_steps_per_worker() {
        let calls = AtomicU64::new(0);
        let (steps, _) = drive(3, Budget::Ops(1_000), |_, start| {
            start.run(|| {
                calls.fetch_add(1, Ordering::Relaxed);
            })
        });
        assert_eq!(steps, [1_000; 3]);
        assert_eq!(calls.into_inner(), 3 * 1_000);
    }

    /// One handle's operations: the kind, and the value for a push.
    type Log = Vec<(OpKind, u64)>;

    /// A stack that keeps every handle's operation log and nothing
    /// else: pops and peeks find it empty.
    #[derive(Default)]
    struct Recording(Mutex<Vec<Log>>);

    struct Recorder<'a>(&'a Recording, Log);

    impl StackHandle<u64> for Recorder<'_> {
        fn push(&mut self, value: u64) {
            self.1.push((OpKind::Push, value));
        }
        fn pop(&mut self) -> Option<u64> {
            self.1.push((OpKind::Pop, 0));
            None
        }
        fn peek(&mut self) -> Option<u64> {
            self.1.push((OpKind::Peek, 0));
            None
        }
    }

    impl Drop for Recorder<'_> {
        fn drop(&mut self) {
            let log = std::mem::take(&mut self.1);
            self.0 .0.lock().unwrap().push(log);
        }
    }

    impl ConcurrentStack<u64> for Recording {
        type Handle<'a> = Recorder<'a>;
        fn register(&self) -> Recorder<'_> {
            Recorder(self, Vec::new())
        }
        fn name(&self) -> &'static str {
            "REC"
        }
    }

    #[test]
    fn stack_worker_draws_the_seeded_mix_stream() {
        const STEPS: u64 = 500;
        let cfg = RunConfig {
            prefill: 20,
            value_range: 1_000,
            ..RunConfig::new(3, Mix::UPDATE_50)
        };
        let stack = Recording::default();
        let (run, ()) = ClosedLoop::new(&cfg, Budget::Ops(STEPS)).stack(&stack, None);
        assert_eq!(run.result.ops, 3 * STEPS);

        // The stream each handle must have drawn, computed apart from
        // the runner: the prefill pushes from `seed ^ 0x5EED`, worker
        // `t` classifies a draw from its own seed and draws a value
        // only for a push.
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x5EED);
        let prefill: Log = (0..cfg.prefill)
            .map(|_| (OpKind::Push, rng.gen_range(0..cfg.value_range)))
            .collect();
        let mut expected = vec![prefill];
        for t in 0..cfg.threads as u64 {
            let mut rng = SmallRng::seed_from_u64(cfg.seed ^ t.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let worker: Log = (0..STEPS)
                .map(|_| match cfg.mix.classify(rng.gen_range(0..100)) {
                    OpKind::Push => (OpKind::Push, rng.gen_range(0..cfg.value_range)),
                    kind => (kind, 0),
                })
                .collect();
            expected.push(worker);
        }
        let logs = stack.0.into_inner().unwrap();
        assert_eq!(logs.len(), expected.len(), "one log per handle");
        for (i, want) in expected.iter().enumerate() {
            assert!(logs.contains(want), "no handle drew stream {i}");
        }
    }
}
