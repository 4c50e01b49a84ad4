//! Integration: the zero-allocation smoke test (DESIGN.md §10).
//!
//! With `RecyclePolicy::PerThread`, steady-state operations must
//! perform **zero heap allocations**: every node, batch struct and
//! slot-array buffer comes off a free list primed by earlier
//! retirements. This binary installs a counting global allocator,
//! warms a stack and a queue until their caches and limbo-bag
//! pipelines reach steady state, and then asserts that a second,
//! identical burst of operations allocates nothing at all.
//!
//! The measured runs are single-threaded and therefore deterministic:
//! the warm-up executes the *same* op sequence as the measurement, so
//! every internal `Vec` (limbo bags, cache bins) has already reached
//! its high-water capacity before counting starts. A durable stack
//! (volatile heap, per-batch logging) is held to the same gate. A
//! control run with `RecyclePolicy::Off` asserts the counter itself
//! works (it must see plenty of allocations).
//!
//! Kept in its own test binary because the `#[global_allocator]` is
//! process-wide; the single `#[test]` keeps the measurement windows
//! serial.

use sec_repro::durable::{DurablePolicy, LogGranularity, SyncMode};
use sec_repro::ext::{SecCounter, SecMap, SecQueue};
use sec_repro::{RecyclePolicy, SecConfig, SecStack};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// `System`, with every allocation event on the *measured thread*
/// counted. The gate must be per-thread: the process-global counter
/// would otherwise pick up stray allocations from the libtest harness
/// thread that happens to share the process (observed as rare 1–2
/// allocation blips inside an otherwise deterministic, allocation-free
/// measurement window).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // const-initialized: reading it never allocates, so it is safe to
    // consult from inside the global allocator.
    static COUNT_THIS_THREAD: Cell<bool> = const { Cell::new(false) };
}

fn count_here() {
    COUNT_THIS_THREAD.with(|c| c.set(true));
}

fn counting_enabled() -> bool {
    COUNT_THIS_THREAD.try_with(|c| c.get()).unwrap_or(false)
}

// Safety: defers every operation to `System`; the counter has no
// effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting_enabled() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counting_enabled() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting_enabled() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocs_now() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

const OPS: u64 = 6_000;

/// A push/pop burst with no allocations of its own.
fn stack_burst(h: &mut sec_repro::SecHandle<'_, u64>) {
    for i in 0..OPS {
        h.push(i);
        let _ = h.pop();
    }
}

/// An enqueue/dequeue burst with no allocations of its own.
fn queue_burst(h: &mut sec_repro::ext::SecQueueHandle<'_, u64>) {
    for i in 0..OPS {
        h.enqueue(i);
        let _ = h.dequeue();
    }
}

/// Keys the map section maps: eight per bucket on average over the
/// default 512 buckets, so many buckets spill past their inline pairs.
const MAP_KEYS: u64 = 4096;

/// A `get` and an overwriting `insert` on every (present) key.
fn map_burst(h: &mut sec_repro::ext::SecMapHandle<'_, u64, u64>) {
    for k in 0..MAP_KEYS {
        assert_eq!(h.get(&k).map(|v| v % MAP_KEYS), Some(k));
        assert!(h.insert(k, k + MAP_KEYS).is_some());
    }
}

/// Committed records the recovery section replays.
const RECORDS: usize = 4_000;

/// Bulk batch size and call count for the bulk-announcement section.
const BULK_LEN: usize = 16;
const BULK_CALLS: u64 = 200;

/// A push_many/pop_many burst. The scratch buffers live with the
/// caller so the measured burst's only possible allocations are the
/// structure's own.
fn bulk_stack_burst(h: &mut sec_repro::SecHandle<'_, u64>, vals: &[u64], out: &mut Vec<u64>) {
    for _ in 0..BULK_CALLS {
        h.push_many(vals);
        let got = h.pop_many(out, BULK_LEN);
        assert_eq!(got, BULK_LEN);
        out.clear();
    }
}

/// An enqueue_many/dequeue_many burst, same shape.
fn bulk_queue_burst(
    h: &mut sec_repro::ext::SecQueueHandle<'_, u64>,
    vals: &[u64],
    out: &mut Vec<u64>,
) {
    for _ in 0..BULK_CALLS {
        h.enqueue_many(vals);
        let got = h.dequeue_many(out, BULK_LEN);
        assert_eq!(got, BULK_LEN);
        out.clear();
    }
}

#[test]
fn steady_state_ops_perform_zero_heap_allocations() {
    // Gate the allocator's counter to this thread only.
    count_here();

    // The cache must cover the blocks in flight through the limbo-bag
    // pipeline between amortized epoch advances; the default bound
    // does, comfortably. Freezer yields off: determinism (and speed)
    // for the single-threaded measurement.
    let recycling = SecConfig::new(2, 1)
        .freezer_yields(0)
        .recycle(RecyclePolicy::per_thread());

    // --- Stack, recycling on: warm up, then measure. -----------------
    let stack: SecStack<u64> = SecStack::with_config(recycling);
    let mut h = stack.register();
    stack_burst(&mut h); // warm-up: builds cache + bag inventory
    let before = allocs_now();
    stack_burst(&mut h); // measurement: identical op sequence
    let stack_allocs = allocs_now() - before;
    assert_eq!(
        stack_allocs, 0,
        "stack steady state must not touch the heap ({stack_allocs} allocations in {OPS} push/pop pairs)"
    );
    drop(h);
    let stats = stack.reclaim_stats();
    assert!(
        stats.recycle_hits > 0 && stats.hit_pct() > 90.0,
        "the warm stack must run almost entirely off the free lists: {stats:?}"
    );

    // --- Queue, recycling on. ----------------------------------------
    let queue: SecQueue<u64> = SecQueue::new(1);
    let mut h = queue.register();
    queue_burst(&mut h);
    let before = allocs_now();
    queue_burst(&mut h);
    let queue_allocs = allocs_now() - before;
    assert_eq!(
        queue_allocs, 0,
        "queue steady state must not touch the heap ({queue_allocs} allocations in {OPS} enqueue/dequeue pairs)"
    );
    drop(h);

    // --- Bulk operations: zero-alloc AND one announcement per call. --
    // push_many/pop_many move whole slices through a single
    // announcement each: value nodes come off the same recycling
    // arena, results return through the caller's buffer. So a warmed
    // bulk burst must stay off the heap exactly like the singles —
    // while the engine's op-weighted freezer accounting shows
    // strictly fewer announcements (batches) than operations.
    let bulk: SecStack<u64> = SecStack::with_config(
        SecConfig::new(2, 1)
            .freezer_yields(0)
            .recycle(RecyclePolicy::per_thread()),
    );
    let vals = [7u64; BULK_LEN];
    let mut out: Vec<u64> = Vec::with_capacity(BULK_LEN);
    let mut h = bulk.register();
    bulk_stack_burst(&mut h, &vals, &mut out); // warm-up
    let before = allocs_now();
    bulk_stack_burst(&mut h, &vals, &mut out); // measurement
    let bulk_allocs = allocs_now() - before;
    assert_eq!(
        bulk_allocs, 0,
        "bulk steady state must not touch the heap \
         ({bulk_allocs} allocations in {BULK_CALLS} push_many/pop_many({BULK_LEN}) pairs)"
    );
    drop(h);
    let r = bulk.stats().report();
    // Warm-up + measurement: 2 rounds of BULK_CALLS push_many and
    // BULK_CALLS pop_many, each moving BULK_LEN values through ONE
    // announcement (single-threaded, so the counts are exact).
    assert_eq!(
        r.ops,
        2 * 2 * BULK_CALLS * BULK_LEN as u64,
        "the freezer counts every bulk element as an op"
    );
    assert_eq!(
        r.batches,
        2 * 2 * BULK_CALLS,
        "each bulk call must cost exactly one announcement"
    );

    let bulk_q: SecQueue<u64> = SecQueue::new(1);
    let mut h = bulk_q.register();
    bulk_queue_burst(&mut h, &vals, &mut out); // warm-up
    let before = allocs_now();
    bulk_queue_burst(&mut h, &vals, &mut out); // measurement
    let bulk_q_allocs = allocs_now() - before;
    assert_eq!(
        bulk_q_allocs, 0,
        "queue bulk steady state must not touch the heap \
         ({bulk_q_allocs} allocations in {BULK_CALLS} enqueue_many/dequeue_many({BULK_LEN}) pairs)"
    );
    drop(h);

    // --- Stack, recycling on AND tracing enabled (DESIGN.md §14). ----
    // The sec-trace hot path must never allocate: rings and histograms
    // are fully provisioned at construction, and recording is
    // fetch_add into preallocated atomics. Sample every op
    // (sample_shift 0) so the assertion covers the densest recording
    // the layer can do, not just the sampled-out fast path.
    let traced: SecStack<u64> = SecStack::with_config(
        SecConfig::new(2, 1)
            .freezer_yields(0)
            .recycle(RecyclePolicy::per_thread())
            .trace(sec_repro::TraceConfig::on().sample_shift(0)),
    );
    let mut h = traced.register();
    stack_burst(&mut h); // warm-up: caches + (if compiled) recorder paths
    let before = allocs_now();
    stack_burst(&mut h);
    let traced_allocs = allocs_now() - before;
    drop(h);
    assert_eq!(
        traced_allocs, 0,
        "steady state with tracing enabled must not touch the heap \
         ({traced_allocs} allocations in {OPS} push/pop pairs)"
    );
    #[cfg(feature = "trace")]
    {
        let tracer = traced.tracer().expect("trace feature builds a recorder");
        assert!(
            tracer.events_recorded() > 0,
            "the traced run must actually have recorded events"
        );
        assert!(
            tracer.op_latency().count() > 0,
            "sample_shift 0 must sample every op's latency"
        );
    }

    // --- Durable stack: intents, log records and checkpoints. --------
    // Every durable op writes its intent cell and is logged by its
    // batch's combiner straight into the shard's open record, and a
    // checkpoint writes the stack's op list straight into the heap,
    // so a warm durable burst must stay off the heap too. The log's
    // halves hold 12k records and a burst takes one per op (12k): the
    // warm-up fills the first half, and the measured burst opens with
    // a checkpoint.
    let durable: SecStack<u64> = SecStack::durable_with_config(
        SecConfig::new(2, 1)
            .freezer_yields(0)
            .recycle(RecyclePolicy::per_thread()),
        DurablePolicy::volatile()
            .sync(SyncMode::None)
            .granularity(LogGranularity::PerBatch)
            .batch_entries(2)
            .record_capacity(2 * 2 * OPS as usize),
    )
    .expect("create a volatile durable stack");
    let mut h = durable.register();
    stack_burst(&mut h); // warm-up
    let checkpoints = durable.durable_stats().expect("durable").checkpoints;
    let before = allocs_now();
    stack_burst(&mut h); // measurement
    let durable_allocs = allocs_now() - before;
    drop(h);
    assert_eq!(
        durable_allocs, 0,
        "durable steady state must not touch the heap \
         ({durable_allocs} allocations in {OPS} push/pop pairs)"
    );
    let logged = durable.durable_stats().expect("a durable stack logs");
    assert_eq!(logged.entries, 2 * 2 * OPS, "every op was logged");
    assert!(
        logged.checkpoints > checkpoints,
        "the measured burst crossed no checkpoint: {logged:?}"
    );

    // --- Map: lone gets and overwrites of present keys. -------------
    // A lone op applies under its bucket lock in place, whether its
    // pair sits inline or in the bucket's spill, so once every key is
    // mapped neither lookups nor overwrites touch the heap.
    let map: SecMap<u64, u64> = SecMap::new(1);
    let mut h = map.register();
    for k in 0..MAP_KEYS {
        h.insert(k, k);
    }
    map_burst(&mut h); // warm-up
    let before = allocs_now();
    map_burst(&mut h); // measurement
    let map_allocs = allocs_now() - before;
    drop(h);
    assert_eq!(
        map_allocs, 0,
        "map gets and overwrites must not touch the heap \
         ({map_allocs} allocations in {MAP_KEYS} get/insert pairs)"
    );
    assert_eq!(map.len(), MAP_KEYS as usize);

    // --- Durable recovery: one op list, not one per record. ----------
    // Recovery validates each committed record in place and decodes
    // them all into a single op list, so its allocations do not grow
    // with the record count (they are the rebuilt structure's own).
    // The log's halves hold all the records, so no checkpoint
    // truncates them before recovery reads them.
    let counter: SecCounter = SecCounter::durable_with_config(
        SecConfig::new(1, 1).freezer_yields(0),
        DurablePolicy::volatile()
            .sync(SyncMode::None)
            .granularity(LogGranularity::PerBatch)
            .record_capacity(2 * RECORDS),
    )
    .expect("create a volatile durable counter");
    let mut h = counter.register();
    for _ in 0..RECORDS {
        h.fetch_add(1);
    }
    drop(h);
    let logged = counter.durable_stats().expect("a durable counter logs");
    assert_eq!(logged.records, RECORDS as u64, "one record per op");
    let heap = counter
        .durable_heap()
        .expect("a durable counter has a heap");
    drop(counter);
    let policy = DurablePolicy::heap(heap);
    let before = allocs_now();
    let (recovered, report) = SecCounter::recover(policy).expect("recover the counter");
    let recover_allocs = allocs_now() - before;
    assert_eq!(report.committed_records, RECORDS);
    assert_eq!(recovered.load(), RECORDS as u64);
    assert!(
        recover_allocs < 64,
        "recovering {RECORDS} records made {recover_allocs} allocations"
    );

    // --- Control: recycling off must allocate per op. ----------------
    let off: SecStack<u64> = SecStack::with_config(
        SecConfig::new(2, 1)
            .freezer_yields(0)
            .recycle(RecyclePolicy::Off),
    );
    let mut h = off.register();
    stack_burst(&mut h);
    let before = allocs_now();
    stack_burst(&mut h);
    let off_allocs = allocs_now() - before;
    drop(h);
    assert!(
        off_allocs >= OPS,
        "with recycling off, every push (at least) allocates — got {off_allocs} for {OPS} pairs; \
         the counting allocator must be observing the run"
    );
}
