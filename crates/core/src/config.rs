//! Construction-time tunables of the SEC structures.
//!
//! Two orthogonal knobs shape the aggregator layer:
//!
//! * [`AggregatorPolicy`] — how many aggregators are *active*: a fixed
//!   `K` (the paper's model; Figure 4 picks `K = 2` as the best static
//!   all-round setting) or an elastic range `[min_k, max_k]` resized at
//!   runtime by the contention monitor (DESIGN.md §8);
//! * [`ShardPolicy`] — how thread ids map onto the active aggregators.
//!
//! A third, orthogonal knob — [`RecyclePolicy`] — governs whether
//! retired nodes and batches are recycled through per-thread free lists
//! instead of freed (DESIGN.md §10; on by default).
//!
//! A fourth — [`WaitPolicy`] — governs how blocking waits behave once
//! their optimistic check fails: pure spinning, spin-then-yield, or
//! spin-then-park through the registered-waiter event subsystem
//! (DESIGN.md §11; parking is the default).

pub use sec_reclaim::RecyclePolicy;
pub use sec_sync::event::WaitPolicy;

use crate::trace::TraceConfig;

/// How thread ids map to aggregators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPolicy {
    /// Contiguous blocks: with `K` aggregators and `N` threads, thread
    /// `t` goes to aggregator `t * K / N`. This is the paper's default
    /// ("with two aggregators and ten threads, the first aggregator
    /// serves the first five threads") and keeps neighbouring thread
    /// ids — often neighbouring cores — on the same aggregator.
    Block,
    /// Striped: thread `t` goes to aggregator `t mod K`.
    RoundRobin,
    /// Topology-aware blocks: thread ids are first grouped into
    /// hardware-thread *neighbourhoods* of [`sec_sync::topology::smt_width`]
    /// siblings, and whole neighbourhoods are block-mapped onto the
    /// aggregators. SMT siblings share L1/L2, so keeping them on the
    /// same aggregator makes elimination partners cache-local; unlike
    /// plain [`ShardPolicy::Block`], a re-mapping to a different `K`
    /// never splits a sibling pair (DESIGN.md §6).
    Topology,
}

/// Pure topology-aware shard mapping: `tid`'s neighbourhood (of
/// `smt_width` consecutive ids, modelling SMT siblings) is block-mapped
/// over `k` aggregators.
///
/// Exposed as a free function so the property suite can sweep widths
/// the host doesn't have. Guarantees, for `k ≥ 1`, `max_threads ≥ 1`:
/// the result is `< k` (total), ids in the same neighbourhood map to
/// the same aggregator for **every** `k` (stability under re-mapping),
/// and neighbourhoods spread with block balance (each aggregator gets
/// `⌊M/k⌋` or `⌈M/k⌉` of the `M` neighbourhoods).
pub fn topology_shard(tid: usize, k: usize, max_threads: usize, smt_width: usize) -> usize {
    let k = k.max(1);
    let w = smt_width.max(1);
    let groups = sec_sync::topology::neighbourhoods(max_threads, w);
    let g = (tid / w).min(groups - 1);
    (g * k / groups).min(k - 1)
}

/// How many aggregators are active: statically fixed or elastic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregatorPolicy {
    /// The paper's model: `K` aggregators, chosen at construction.
    Fixed(usize),
    /// Elastic sharding (DESIGN.md §8): the active aggregator count
    /// moves inside `[min_k, max_k]`, driven by the contention monitor
    /// that the freezers feed with per-batch measurements.
    Adaptive {
        /// Lower bound on the active aggregator count (≥ 1).
        min_k: usize,
        /// Upper bound on the active aggregator count (≥ `min_k`);
        /// also the number of aggregator slots allocated up front.
        max_k: usize,
        /// Operations per decision window: the monitor re-evaluates the
        /// active count once at least this many operations have been
        /// frozen since the previous decision.
        window: u64,
    },
}

impl AggregatorPolicy {
    /// Default decision-window length for [`AggregatorPolicy::adaptive`]:
    /// long enough that one window sees many batches (decisions follow
    /// sustained contention, not one burst), short enough to react
    /// within milliseconds at realistic throughputs.
    pub const DEFAULT_WINDOW: u64 = 1024;

    /// Elastic policy over `[min_k, max_k]` with the default window.
    pub const fn adaptive(min_k: usize, max_k: usize) -> Self {
        AggregatorPolicy::Adaptive {
            min_k,
            max_k,
            window: Self::DEFAULT_WINDOW,
        }
    }

    /// Smallest permitted active count (normalized: ≥ 1).
    pub fn min_k(&self) -> usize {
        match *self {
            AggregatorPolicy::Fixed(k) => k.max(1),
            AggregatorPolicy::Adaptive { min_k, .. } => min_k.max(1),
        }
    }

    /// Largest permitted active count (normalized: ≥ [`min_k`](Self::min_k)).
    pub fn max_k(&self) -> usize {
        match *self {
            AggregatorPolicy::Fixed(k) => k.max(1),
            AggregatorPolicy::Adaptive { max_k, .. } => max_k.max(self.min_k()),
        }
    }

    /// Number of aggregator slots a stack must allocate to honor this
    /// policy (the largest count that can ever become active).
    pub fn slots(&self) -> usize {
        self.max_k()
    }

    /// The decision-window length (0 for [`AggregatorPolicy::Fixed`],
    /// which never decides; clamped to ≥ 1 for adaptive).
    pub fn window(&self) -> u64 {
        match *self {
            AggregatorPolicy::Fixed(_) => 0,
            AggregatorPolicy::Adaptive { window, .. } => window.max(1),
        }
    }

    /// The active count a fresh stack starts with: `K` for fixed; the
    /// paper's best static setting (`K = 2`, Figure 4) clamped into
    /// `[min_k, max_k]` for adaptive, so the monitor starts from the
    /// known-good default and only moves away on evidence.
    pub fn initial_active(&self) -> usize {
        match *self {
            AggregatorPolicy::Fixed(k) => k.max(1),
            AggregatorPolicy::Adaptive { .. } => 2.clamp(self.min_k(), self.max_k()),
        }
    }

    /// `true` for [`AggregatorPolicy::Adaptive`].
    pub fn is_adaptive(&self) -> bool {
        matches!(self, AggregatorPolicy::Adaptive { .. })
    }
}

/// Configuration of a SEC structure: the one value every family's
/// `with_config` and `durable_with_config` constructors take.
///
/// The stack, counter and map honour every field. The queue's
/// aggregators are its two ends, a fixed layout, so it ignores
/// `policy` and `shard_policy` and honours the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SecConfig {
    /// Maximum number of threads that will ever register (≥ 1). Sizes
    /// the elimination arrays and the reclamation registry.
    pub max_threads: usize,
    /// Most pause iterations the freezer spins before freezing its
    /// batch (§3.1: "the freezer thread executes a short backoff before
    /// freezing B to increase the elimination degree"). The spin
    /// applies only where a late announcer pays for it: on the stack's
    /// mapped aggregators, whose batches eliminate, and on durable
    /// shards, where a caught announcer shares the batch's log record
    /// and commit. Queue ends, counter and map aggregators and every
    /// bulk aggregator freeze without it: their batches never
    /// eliminate, so a caught announcer would only trade running its
    /// own combine for waiting on someone else's.
    ///
    /// Even there the spin is spent only on evidence: the freezer
    /// expects at most `min(live handles, aggregator capacity)`
    /// announcers (on a durable shard, no more than the live handles
    /// mapped to that shard), skips the backoff when that is one
    /// (a lone thread) or already reached, and stops spinning the
    /// moment the batch reaches it. The pauses spent are reported as
    /// [`BatchReport::backoff_spins`]. 0 disables.
    ///
    /// [`BatchReport::backoff_spins`]: crate::BatchReport::backoff_spins
    pub freezer_backoff: u32,
    /// Most `yield_now` calls the freezer spends after its spin (on
    /// every aggregator, including those that skip the spin), and
    /// only when the batch is still short *and* more handles are live
    /// than the host has hardware threads
    /// ([`sec_sync::topology::hardware_threads`]). On an oversubscribed
    /// host a yield is the only way the backoff achieves the paper's
    /// goal — joining threads need the freezer's core to announce; with
    /// a core per thread a spin does the same for a fraction of a
    /// yield's cost. It stops yielding once the batch is full; the
    /// yields spent are reported as [`BatchReport::backoff_yields`].
    /// 0 disables.
    ///
    /// [`BatchReport::backoff_yields`]: crate::BatchReport::backoff_yields
    pub freezer_yields: u32,
    /// Thread-to-aggregator mapping.
    pub shard_policy: ShardPolicy,
    /// Fixed or elastic active-aggregator count.
    pub policy: AggregatorPolicy,
    /// Node/batch recycling through per-thread free lists (DESIGN.md
    /// §10). On by default ([`RecyclePolicy::per_thread`]): steady-state
    /// operations then perform zero heap allocations.
    pub recycle: RecyclePolicy,
    /// How blocking waits (freezer/combiner waits, batch-pointer
    /// swaps) behave after their spin phase (DESIGN.md §11). Parking
    /// by default ([`WaitPolicy::spin_then_park`]): waiters leave the
    /// run queue, so throughput survives thread counts far beyond the
    /// core count.
    pub wait: WaitPolicy,
    /// sec-trace observability knobs (DESIGN.md §14). Off by default;
    /// inert unless the crate was built with the `trace` cargo
    /// feature, in which case an enabled config makes the structure
    /// build a [`TraceRecorder`](crate::trace::TraceRecorder) and feed
    /// its event rings and phase histograms.
    pub trace: TraceConfig,
}

impl SecConfig {
    /// Paper-default configuration: `K = 2` aggregators, a short freezer
    /// backoff, block sharding.
    pub fn new(aggregators: usize, max_threads: usize) -> Self {
        // Defaults from the freezer_backoff ablation (see
        // EXPERIMENTS.md). Both halves of the backoff run only on
        // evidence that another announcer can still join, so a lone
        // thread pays for neither. 16 pauses give a partner on another
        // core time to announce: on the one 2-hardware-thread x86 host
        // the ablation ran on, a pause took ~21 ns, so 16 cost about
        // one yield there and kept the 2-thread elimination share at
        // 44%. The spin is spent only where that partner pays (stack
        // batches, which eliminate, and durable shards, which share a
        // log record): on the queue, counter and map it bought batches
        // of degree ~1.0–1.4 and put the wait on every op.
        // `pause` latency differs ~10× across x86 generations, so
        // on other hosts the same window buys a different share; rerun
        // the ablation before relying on that figure. One yield, spent
        // only when threads outnumber hardware threads, is what fills
        // batches there — at 16 threads on that host it lifts the
        // batching degree from ~1 to ~7 and the elimination share from
        // ~10% to ~70% (the paper's Table 1 zone).
        Self {
            max_threads: max_threads.max(1),
            freezer_backoff: 16,
            freezer_yields: 1,
            shard_policy: ShardPolicy::Block,
            policy: AggregatorPolicy::Fixed(aggregators.max(1)),
            recycle: RecyclePolicy::default(),
            wait: WaitPolicy::default(),
            trace: TraceConfig::off(),
        }
    }

    /// Elastic configuration: active count in `[min_k, max_k]` with the
    /// default decision window, for up to `max_threads` threads.
    pub fn adaptive(min_k: usize, max_k: usize, max_threads: usize) -> Self {
        Self::new(max_k, max_threads).aggregator_policy(AggregatorPolicy::adaptive(min_k, max_k))
    }

    /// [`SecConfig::adaptive`] with an explicit decision window (tests
    /// and demos shorten it so the monitor decides within small runs).
    pub fn adaptive_windowed(min_k: usize, max_k: usize, window: u64, max_threads: usize) -> Self {
        Self::new(max_k, max_threads).aggregator_policy(AggregatorPolicy::Adaptive {
            min_k,
            max_k,
            window,
        })
    }

    /// Sets the freezer backoff (builder style).
    pub fn freezer_backoff(mut self, spins: u32) -> Self {
        self.freezer_backoff = spins;
        self
    }

    /// Sets the freezer yield count (builder style).
    pub fn freezer_yields(mut self, yields: u32) -> Self {
        self.freezer_yields = yields;
        self
    }

    /// Sets the sharding policy (builder style).
    pub fn shard_policy(mut self, policy: ShardPolicy) -> Self {
        self.shard_policy = policy;
        self
    }

    /// Sets the node-recycling policy (builder style).
    pub fn recycle(mut self, recycle: RecyclePolicy) -> Self {
        self.recycle = recycle;
        self
    }

    /// Sets the blocking-wait policy (builder style).
    pub fn wait_policy(mut self, wait: WaitPolicy) -> Self {
        self.wait = wait;
        self
    }

    /// Sets the tracing config (builder style).
    pub fn trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Sets the aggregator policy (builder style).
    pub fn aggregator_policy(mut self, policy: AggregatorPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Number of aggregator slots the structure allocates (≥ 1), the
    /// policy's [`slots`](AggregatorPolicy::slots). Under
    /// [`AggregatorPolicy::Fixed`] all of them are active; under
    /// [`AggregatorPolicy::Adaptive`] this is `max_k` and the *active*
    /// prefix grows and shrinks at runtime.
    pub fn aggregators(&self) -> usize {
        self.policy.slots()
    }

    /// Aggregator index for thread `tid` when `k` aggregators are
    /// active. Always `< k` for `k ≥ 1`.
    pub fn aggregator_for(&self, tid: usize, k: usize) -> usize {
        debug_assert!(tid < self.max_threads);
        let k = k.max(1);
        match self.shard_policy {
            ShardPolicy::Block => (tid * k / self.max_threads).min(k - 1),
            ShardPolicy::RoundRobin => tid % k,
            ShardPolicy::Topology => {
                topology_shard(tid, k, self.max_threads, sec_sync::topology::smt_width())
            }
        }
    }

    /// Aggregator index for thread `tid` with every allocated
    /// aggregator active (the static mapping; under an adaptive policy
    /// the stack remaps through [`SecConfig::aggregator_for`] with the
    /// *current* active count instead).
    pub fn aggregator_of(&self, tid: usize) -> usize {
        self.aggregator_for(tid, self.aggregators())
    }

    /// Upper bound on threads that can announce into any single batch;
    /// sizes each batch's elimination array (the paper's per-aggregator
    /// `P`).
    ///
    /// Under [`AggregatorPolicy::Adaptive`] this is `max_threads`: a
    /// re-mapping can transiently route threads holding a stale active
    /// count into the same aggregator, and with `min_k = 1` all of them
    /// legitimately share one. Under [`AggregatorPolicy::Fixed`] the
    /// mapping is static, so the exact per-aggregator maximum suffices.
    pub fn per_aggregator_capacity(&self) -> usize {
        if self.policy.is_adaptive() {
            return self.max_threads;
        }
        match self.shard_policy {
            // Ceiling division; exact for Block, an upper bound for both.
            ShardPolicy::Block | ShardPolicy::RoundRobin => {
                self.max_threads.div_ceil(self.aggregators())
            }
            // Neighbourhood granularity can overfill one aggregator
            // past ⌈N/K⌉ (e.g. 10 threads, width 4, K = 2: aggregator 0
            // serves two whole neighbourhoods = 8 threads); count the
            // actual maximum.
            ShardPolicy::Topology => {
                let mut counts = vec![0usize; self.aggregators()];
                for t in 0..self.max_threads {
                    counts[self.aggregator_of(t)] += 1;
                }
                counts.into_iter().max().unwrap_or(1).max(1)
            }
        }
    }
}

impl Default for SecConfig {
    /// `K = 2`, capacity for the host's hardware threads (at least 2).
    fn default() -> Self {
        Self::new(2, sec_sync::topology::hardware_threads().max(2) * 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_block_assignment() {
        // "with two aggregators and ten threads, the first aggregator
        //  serves the first five threads and the second the remaining
        //  five" (§3.2).
        let c = SecConfig::new(2, 10);
        for t in 0..5 {
            assert_eq!(c.aggregator_of(t), 0, "tid {t}");
        }
        for t in 5..10 {
            assert_eq!(c.aggregator_of(t), 1, "tid {t}");
        }
    }

    #[test]
    fn block_assignment_is_balanced_and_in_range() {
        for k in 1..=5 {
            for n in 1..=32 {
                let c = SecConfig::new(k, n);
                let mut counts = vec![0usize; k];
                for t in 0..n {
                    let a = c.aggregator_of(t);
                    assert!(a < k);
                    counts[a] += 1;
                }
                let cap = c.per_aggregator_capacity();
                assert!(counts.iter().all(|&x| x <= cap), "k={k} n={n} {counts:?}");
            }
        }
    }

    #[test]
    fn round_robin_stripes() {
        let c = SecConfig::new(3, 9).shard_policy(ShardPolicy::RoundRobin);
        assert_eq!(c.aggregator_of(0), 0);
        assert_eq!(c.aggregator_of(1), 1);
        assert_eq!(c.aggregator_of(2), 2);
        assert_eq!(c.aggregator_of(3), 0);
    }

    #[test]
    fn degenerate_inputs_are_clamped() {
        let c = SecConfig::new(0, 0);
        assert_eq!(c.aggregators(), 1);
        assert_eq!(c.max_threads, 1);
        assert_eq!(c.aggregator_of(0), 0);
        assert_eq!(c.per_aggregator_capacity(), 1);
    }

    #[test]
    fn builder_methods_apply() {
        let c = SecConfig::new(2, 4)
            .freezer_backoff(7)
            .shard_policy(ShardPolicy::RoundRobin);
        assert_eq!(c.freezer_backoff, 7);
        assert_eq!(c.shard_policy, ShardPolicy::RoundRobin);
    }

    #[test]
    fn recycling_defaults_on_and_builder_toggles() {
        let c = SecConfig::new(2, 4);
        assert!(c.recycle.is_on(), "recycling is on by default");
        assert_eq!(
            c.recycle.cache_cap(),
            RecyclePolicy::DEFAULT_CACHE_CAP,
            "default cache bound"
        );
        let c = c.recycle(RecyclePolicy::Off);
        assert!(!c.recycle.is_on());
        let c = c.recycle(RecyclePolicy::PerThread { cache_cap: 8 });
        assert_eq!(c.recycle.cache_cap(), 8);
    }

    #[test]
    fn wait_policy_defaults_to_park_and_builder_toggles() {
        let c = SecConfig::new(2, 4);
        assert!(c.wait.parks(), "parking is the default wait policy");
        assert_eq!(c.wait, WaitPolicy::spin_then_park());
        let c = c.wait_policy(WaitPolicy::SpinThenYield);
        assert_eq!(c.wait, WaitPolicy::SpinThenYield);
        let c = c.wait_policy(WaitPolicy::SpinThenPark { spin_rounds: 3 });
        assert_eq!(c.wait, WaitPolicy::SpinThenPark { spin_rounds: 3 });
    }

    #[test]
    fn trace_defaults_off_and_builder_toggles() {
        let c = SecConfig::new(2, 4);
        assert!(!c.trace.enabled, "tracing is off by default");
        let c = c.trace(TraceConfig::on().sample_shift(0).ring_capacity(128));
        assert!(c.trace.enabled);
        assert_eq!(c.trace.sample_shift, 0);
        assert_eq!(c.trace.ring_capacity, 128);
    }

    #[test]
    fn default_is_two_aggregators() {
        let c = SecConfig::default();
        assert_eq!(c.aggregators(), 2);
        assert!(c.max_threads >= 2);
    }

    #[test]
    fn fixed_policy_mirrors_aggregator_count() {
        let c = SecConfig::new(3, 8);
        assert_eq!(c.policy, AggregatorPolicy::Fixed(3));
        assert_eq!(c.policy.min_k(), 3);
        assert_eq!(c.policy.max_k(), 3);
        assert_eq!(c.policy.initial_active(), 3);
        assert_eq!(c.policy.window(), 0);
        assert!(!c.policy.is_adaptive());
    }

    #[test]
    fn adaptive_config_allocates_max_k_slots() {
        let c = SecConfig::adaptive(1, 4, 16);
        assert_eq!(c.aggregators(), 4);
        assert!(c.policy.is_adaptive());
        assert_eq!(c.policy.min_k(), 1);
        assert_eq!(c.policy.max_k(), 4);
        // Starts at the paper's best static K, clamped into range.
        assert_eq!(c.policy.initial_active(), 2);
        assert_eq!(c.policy.window(), AggregatorPolicy::DEFAULT_WINDOW);
        // Stale-snapshot re-mapping can route everyone to one batch.
        assert_eq!(c.per_aggregator_capacity(), 16);
    }

    #[test]
    fn adaptive_policy_normalizes_degenerate_bounds() {
        let p = AggregatorPolicy::Adaptive {
            min_k: 0,
            max_k: 0,
            window: 0,
        };
        assert_eq!(p.min_k(), 1);
        assert_eq!(p.max_k(), 1);
        assert_eq!(p.window(), 1);
        assert_eq!(p.initial_active(), 1);

        let p = AggregatorPolicy::adaptive(5, 3); // inverted bounds
        assert_eq!(p.min_k(), 5);
        assert_eq!(p.max_k(), 5, "max_k clamps up to min_k");
    }

    #[test]
    fn aggregator_for_varies_with_active_count() {
        let c = SecConfig::adaptive(1, 4, 8);
        for k in 1..=4 {
            for t in 0..8 {
                assert!(c.aggregator_for(t, k) < k, "k={k} t={t}");
            }
        }
        // k = 1 funnels everyone to aggregator 0.
        for t in 0..8 {
            assert_eq!(c.aggregator_for(t, 1), 0);
        }
    }

    #[test]
    fn topology_shard_is_total_and_keeps_siblings_together() {
        for w in 1..=4usize {
            for n in 1..=24usize {
                for k in 1..=5usize {
                    for t in 0..n {
                        let a = topology_shard(t, k, n, w);
                        assert!(a < k, "t={t} k={k} n={n} w={w}");
                        // The whole neighbourhood agrees.
                        let base = (t / w) * w;
                        for s in base..(base + w).min(n) {
                            assert_eq!(topology_shard(s, k, n, w), a, "siblings split");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn topology_capacity_covers_actual_assignment() {
        for n in [4usize, 10, 16, 17] {
            for k in 1..=4usize {
                let c = SecConfig::new(k, n).shard_policy(ShardPolicy::Topology);
                let mut counts = vec![0usize; k];
                for t in 0..n {
                    counts[c.aggregator_of(t)] += 1;
                }
                assert_eq!(
                    c.per_aggregator_capacity(),
                    *counts.iter().max().unwrap(),
                    "n={n} k={k}"
                );
            }
        }
    }
}
