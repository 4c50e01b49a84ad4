//! Engine-only unit tests: the announce→freeze→combine→publish state
//! machine, seq-0 freezer election, and elastic re-mapping under a
//! forced resize — driven through a synthetic [`CombineOp`] so no data
//! structure family is involved.

use super::*;
use crate::config::SecConfig;
use crate::sec::node::Node;
use core::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;

/// What a synthetic combiner call observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Applied {
    agg_idx: usize,
    role: Role,
    count: usize,
}

/// A structureless family: adds fold their operands into `sum`,
/// removes apply to nothing and report EMPTY, eliminated pairs hand
/// the operand over directly. Every combiner call is logged so tests
/// can assert the engine's calling discipline.
struct TallyOp {
    sum: AtomicU64,
    log: Mutex<Vec<Applied>>,
}

impl TallyOp {
    fn new() -> Self {
        Self {
            sum: AtomicU64::new(0),
            log: Mutex::new(Vec::new()),
        }
    }
}

impl CombineOp for TallyOp {
    type Node = Node<u64>;
    type Value = u64;

    const NAME: &'static str = "tally";
    const LAYOUT: AggLayout = AggLayout::Mapped {
        with_slots: true,
        bulk: 0,
    };

    fn create(_param: u64) -> Self {
        TallyOp::new()
    }

    fn combine_add(
        &self,
        eng: &Sec<Self>,
        batch: &CombineBatch<Self::Node>,
        my_seq: usize,
        agg_idx: usize,
        guard: &Guard<'_, '_>,
    ) {
        let cut = batch.frozen_cut(Role::Add);
        for i in my_seq..cut {
            let n = wait_ptr(&batch.slots[i], eng.config().wait);
            let v = unsafe { Node::take_value(n) };
            unsafe { guard.retire_recycle(n) };
            self.sum.fetch_add(v, Ordering::Relaxed);
        }
        self.log.lock().unwrap().push(Applied {
            agg_idx,
            role: Role::Add,
            count: cut - my_seq,
        });
    }

    fn combine_remove(
        &self,
        _eng: &Sec<Self>,
        batch: &CombineBatch<Self::Node>,
        my_seq: usize,
        agg_idx: usize,
        _guard: &Guard<'_, '_>,
    ) {
        let cut = batch.frozen_cut(Role::Remove);
        batch
            .result_head
            .store(core::ptr::null_mut(), Ordering::Release);
        self.log.lock().unwrap().push(Applied {
            agg_idx,
            role: Role::Remove,
            count: cut - my_seq,
        });
    }

    fn eliminate(
        &self,
        eng: &Sec<Self>,
        batch: &CombineBatch<Self::Node>,
        my_seq: usize,
        guard: &Guard<'_, '_>,
    ) -> u64 {
        let n = wait_ptr(&batch.slots[my_seq], eng.config().wait);
        let v = unsafe { Node::take_value(n) };
        unsafe { guard.retire_recycle(n) };
        v
    }

    fn take_result(
        &self,
        _eng: &Sec<Self>,
        _batch: &CombineBatch<Self::Node>,
        _offset: usize,
        _agg_idx: usize,
        _guard: &Guard<'_, '_>,
    ) -> Option<u64> {
        None
    }
}

fn engine(config: SecConfig) -> Sec<TallyOp> {
    Sec::with_config(config)
}

/// An engine over `TallyOp` with the fixed layout `ends`.
fn fixed_engine(config: SecConfig, ends: &'static [bool]) -> Sec<TallyOp> {
    Sec::assemble(
        TallyOp::new(),
        config,
        AggLayout::Fixed { ends, bulk: 0 },
        None,
    )
}

#[test]
fn single_add_runs_the_full_cycle() {
    let eng = engine(SecConfig::new(1, 1));
    let mut h = eng.register();
    let n = Node::alloc_with(&h.reclaim, 7u64);
    assert_eq!(
        eng.run(Lane::Mapped(&mut h.state), Role::Add, n, &h.reclaim),
        None
    );
    assert_eq!(eng.op().sum.load(Ordering::Relaxed), 7);
    let log = eng.op().log.lock().unwrap().clone();
    assert_eq!(
        log,
        vec![Applied {
            agg_idx: 0,
            role: Role::Add,
            count: 1
        }]
    );
    let r = eng.stats().report();
    assert_eq!((r.batches, r.ops, r.combined, r.eliminated), (1, 1, 1, 0));
}

#[test]
fn single_remove_applies_and_reports_empty() {
    let eng = engine(SecConfig::new(1, 1));
    let mut h = eng.register();
    let out = eng.run(
        Lane::Mapped(&mut h.state),
        Role::Remove,
        core::ptr::null_mut(),
        &h.reclaim,
    );
    assert_eq!(out, None);
    let log = eng.op().log.lock().unwrap().clone();
    assert_eq!(
        log,
        vec![Applied {
            agg_idx: 0,
            role: Role::Remove,
            count: 1
        }]
    );
}

#[test]
fn freeze_publishes_cut_swaps_batch_and_publish_wakes() {
    // Drive the state machine by hand, transition by transition, while
    // pinned (a retired batch stays readable until quiescence —
    // exactly the discipline every waiter relies on).
    let eng = engine(SecConfig::new(1, 2));
    let h = eng.register();
    let guard = h.reclaim.pin();
    let agg = &*eng.aggs[0];
    let b0 = agg.batch.load(Ordering::Acquire);
    let batch = unsafe { &*b0 };

    // Announce: one add (weight 1), sequence number 0 — the packed
    // prior value is zero on a virgin batch.
    assert_eq!(
        batch
            .count(Role::Add)
            .fetch_add(batch::pack_announce(1), Ordering::AcqRel),
        0
    );
    let n = Node::alloc_with(&h.reclaim, 41u64);
    batch.slots[0].store(n, Ordering::Release);

    // Freezer election: the first seq-0 announcer wins the test&set,
    // any later claimant loses.
    assert!(
        !batch.freezer_decided.swap(true, Ordering::AcqRel),
        "first wins"
    );
    assert!(
        batch.freezer_decided.swap(true, Ordering::AcqRel),
        "second loses"
    );

    // Freeze: cuts published, fresh batch installed, frozen one
    // retired (still readable: we are pinned).
    eng.freeze_batch(agg, b0, &guard, 0, 0);
    // The snapshots are packed (count | ops<<32): one add of weight 1.
    assert_eq!(
        batch.add_at_freeze.load(Ordering::Acquire),
        batch::pack_announce(1)
    );
    assert_eq!(batch.remove_at_freeze.load(Ordering::Acquire), 0);
    assert_eq!(batch.frozen_cut(Role::Add), 1);
    assert_eq!(batch.frozen_cut(Role::Remove), 0);
    assert!(
        !ptr::eq(agg.batch.load(Ordering::Acquire), b0),
        "batch swapped"
    );
    assert!(!batch.applied.load(Ordering::Acquire), "not yet applied");

    // Combine + publish: the combiner applies, flips `applied`, wakes.
    eng.op().combine_add(&eng, batch, 0, 0, &guard);
    mark_applied(agg, batch, b0, eng.stats().wait());
    assert!(batch.applied.load(Ordering::Acquire));
    assert_eq!(eng.op().sum.load(Ordering::Relaxed), 41);
    drop(guard);
}

#[test]
fn concurrent_mix_conserves_values_and_elects_unique_combiners() {
    const THREADS: usize = 6;
    const PER: usize = 400;
    let eng = engine(SecConfig::new(2, THREADS));
    let eliminated_sum: u64 = thread::scope(|scope| {
        (0..THREADS)
            .map(|t| {
                let eng = &eng;
                scope.spawn(move || {
                    let mut h = eng.register();
                    let mut got = 0u64;
                    for i in 0..PER {
                        if (t + i) % 2 == 0 {
                            let n = Node::alloc_with(&h.reclaim, 1u64);
                            eng.run(Lane::Mapped(&mut h.state), Role::Add, n, &h.reclaim);
                        } else if let Some(v) = eng.run(
                            Lane::Mapped(&mut h.state),
                            Role::Remove,
                            core::ptr::null_mut(),
                            &h.reclaim,
                        ) {
                            got += v;
                        }
                    }
                    got
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|j| j.join().unwrap())
            .sum()
    });
    let r = eng.stats().report();
    // Every operation was included in exactly one frozen batch and
    // either eliminated or combined.
    assert_eq!(r.ops, (THREADS * PER) as u64);
    assert_eq!(r.eliminated + r.combined, r.ops);
    // Adds carried 1 each: applied adds landed in `sum`, eliminated
    // adds were handed to their partner remove.
    let adds: u64 = (0..THREADS)
        .map(|t| (0..PER).filter(|i| (t + i) % 2 == 0).count() as u64)
        .sum();
    assert_eq!(eng.op().sum.load(Ordering::Relaxed) + eliminated_sum, adds);
    // Combiner election is unique: one combiner call per batch-lane
    // with survivors, and their sizes account for every combined op.
    let log = eng.op().log.lock().unwrap();
    assert!(
        log.len() as u64 <= r.batches,
        "at most one combiner per batch"
    );
    assert_eq!(log.iter().map(|a| a.count as u64).sum::<u64>(), r.combined);
}

#[test]
fn forced_resize_remaps_mapped_announcements() {
    const MAX: usize = 8;
    let eng = engine(SecConfig::adaptive(1, 4, MAX));
    // Register a few handles to obtain distinct dense tids.
    let handles: Vec<_> = (0..4).map(|_| eng.register()).collect();
    let (reclaim, mut st) = (&handles[3].reclaim, handles[3].state.clone());
    assert_eq!(st.tid(), 3);

    for k in [2usize, 4, 1, 3] {
        assert_eq!(eng.set_active_aggregators(k), k);
        assert_eq!(eng.active_aggregators(), k);
        let n = Node::alloc_with(reclaim, 1u64);
        eng.run(Lane::Mapped(&mut st), Role::Add, n, reclaim);
        // The lazy re-map kicked in before the announcement landed.
        let expect = eng.config().aggregator_for(3, k);
        assert_eq!(st.aggregator(), expect, "k = {k}");
        let last = *eng.op().log.lock().unwrap().last().unwrap();
        assert_eq!(last.agg_idx, expect, "k = {k}");
    }
    // Every forced step was recorded in the resize counters.
    let r = eng.stats().report();
    assert!(r.resizes() >= 4, "grow/shrink steps recorded: {r:?}");
}

#[test]
fn excluded_announcements_retry_on_the_remapped_aggregator() {
    // A fixed-lane engine used through Lane::At must never consult the
    // mapped state; a mapped engine re-resolves each retry. Exercised
    // here by running ops through Lane::At against aggregator 0 of a
    // two-slot engine and checking they apply there.
    let eng = fixed_engine(SecConfig::new(2, 2), &[true, true]);
    let h = eng.register();
    for _ in 0..3 {
        let n = Node::alloc_with(&h.reclaim, 2u64);
        eng.run(Lane::At(1), Role::Add, n, &h.reclaim);
    }
    assert_eq!(eng.op().sum.load(Ordering::Relaxed), 6);
    assert!(eng.op().log.lock().unwrap().iter().all(|a| a.agg_idx == 1));
}

// ---- the freezer's spin gate on families that never eliminate ------
//
// A counter or queue op whose lane is idle skips the batch (DESIGN.md
// §12 "Lone operations"), so a single thread reaches the freezer only
// through `Sec::run_batch`; the counter's and the queue's spin-gate
// tests drive it directly with these helpers. A second handle is
// registered and stays idle through the measured ops, so two
// announcers stay possible and every freezer's batch is short; only
// the spin gate then decides whether the freezer waits out its window.

/// The spin-gate tests' freezer window: four times the default, so a
/// freezer that spins where it should not shows plainly.
pub(crate) const WINDOW: u32 = 64;

/// Ops the working handle runs in the spin-gate tests.
pub(crate) const GATE_OPS: u64 = 200;

/// One aggregator for the mapped families (so both handles share it),
/// the [`WINDOW`] spin and no yields.
pub(crate) fn spin_only() -> SecConfig {
    SecConfig::new(1, 4)
        .freezer_backoff(WINDOW)
        .freezer_yields(0)
}

/// Each of the `GATE_OPS` measured ops froze its own degree-1 batch,
/// having spent `spins` pauses and no yield.
pub(crate) fn assert_spins_per_batch(name: &str, stats: &SecStats, spins: u64) {
    let r = stats.report();
    assert_eq!(
        (r.alone, r.batches, r.ops),
        (0, GATE_OPS, GATE_OPS),
        "{name}: {r:?}"
    );
    let degrees = stats.degree_histogram();
    assert_eq!((degrees.min(), degrees.max()), (1, 1), "{name}: {r:?}");
    assert_eq!(r.backoff_spins, spins * GATE_OPS, "{name}: {r:?}");
    assert_eq!(r.backoff_yields, 0, "{name}: {r:?}");
}
