//! Build-surface smoke test: everything the facade documents must be
//! reachable through `sec_repro` and actually work. A manifest or
//! re-export regression (a dropped dependency edge, a renamed symbol, a
//! missing module) fails here loudly and in seconds, before the deeper
//! suites run.

mod common;

use sec_repro::StackHandle;
use std::sync::atomic::{AtomicU64, Ordering};

const THREADS: usize = 4;
const OPS_PER_THREAD: u64 = 2_000;

/// Round-trips balanced push/pop traffic on 4 threads through every
/// stack the facade exports and checks conservation of the popped sum.
#[test]
fn every_facade_stack_round_trips_on_four_threads() {
    with_all_stacks!(THREADS, |stack, name| {
        let popped_sum = AtomicU64::new(0);
        let pop_misses = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..THREADS as u64 {
                let stack = &stack;
                let popped_sum = &popped_sum;
                let pop_misses = &pop_misses;
                s.spawn(move || {
                    let mut h = stack.register();
                    for i in 0..OPS_PER_THREAD {
                        h.push(t * OPS_PER_THREAD + i);
                        match h.pop() {
                            Some(v) => {
                                popped_sum.fetch_add(v, Ordering::Relaxed);
                            }
                            None => {
                                pop_misses.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
        });
        // Every op pushed exactly once and popped at most once; after
        // the scope, pushes minus successful pops remain on the stack.
        let total = THREADS as u64 * OPS_PER_THREAD;
        let full_sum = (0..total).sum::<u64>();
        let mut h = stack.register();
        let mut drained_sum = 0u64;
        let mut drained = 0u64;
        while let Some(v) = h.pop() {
            drained_sum += v;
            drained += 1;
        }
        assert_eq!(
            drained,
            pop_misses.load(Ordering::Relaxed),
            "[{name}] leftover count must equal failed pops"
        );
        assert_eq!(
            popped_sum.load(Ordering::Relaxed) + drained_sum,
            full_sum,
            "[{name}] conservation: every pushed value popped exactly once"
        );
        assert_eq!(h.pop(), None, "[{name}] must be empty after drain");
    });
}

/// The facade's documented re-export surface, exercised symbol by
/// symbol so `src/lib.rs` and the member manifests cannot drift apart
/// silently.
#[test]
fn facade_re_exports_are_live() {
    // Top-level stack API.
    let stack: sec_repro::SecStack<u64> =
        sec_repro::SecStack::with_config(sec_repro::SecConfig::new(2, 2));
    let mut h = stack.register();
    h.push(7);
    assert_eq!(h.peek(), Some(7));
    assert_eq!(h.pop(), Some(7));
    let _report: sec_repro::BatchReport = stack.stats().report();

    // reclaim: pin/retire through the facade path.
    let collector = sec_repro::reclaim::Collector::new(1);
    let rh = collector.register().unwrap();
    let guard = rh.pin();
    unsafe { guard.retire(Box::into_raw(Box::new(1u64))) };
    drop(guard);

    // sync: primitives and the funnel.
    let lock = sec_repro::sync::TtasLock::new(0u32);
    *lock.lock() += 1;
    let funnel = sec_repro::sync::AggregatingFunnel::new(1, 0);
    assert_eq!(funnel.fetch_add_one(0), 0);
    assert!(sec_repro::sync::topology::hardware_threads() >= 1);

    // linearize: a two-op history checks out.
    let history = vec![
        sec_repro::linearize::Event {
            thread: 0,
            op: sec_repro::linearize::Op::Push(1u64),
            invoke: 0,
            response: 1,
        },
        sec_repro::linearize::Event {
            thread: 0,
            op: sec_repro::linearize::Op::Pop(Some(1u64)),
            invoke: 2,
            response: 3,
        },
    ];
    assert!(sec_repro::linearize::check_history(&history).is_ok());
    assert!(sec_repro::linearize::check_conservation(&history).is_ok());

    // workload: one tiny throughput run through the dispatcher.
    let mut cfg = sec_repro::workload::RunConfig::new(2, sec_repro::workload::Mix::UPDATE_100);
    cfg.duration = std::time::Duration::from_millis(20);
    cfg.prefill = 16;
    let run =
        sec_repro::workload::run_algo(sec_repro::workload::Algo::Sec { aggregators: 2 }, &cfg);
    assert!(run.result.ops > 0, "throughput run must complete ops");

    // ext: the queue extension.
    let queue: sec_repro::ext::SecQueue<u64> = sec_repro::ext::SecQueue::new(1);
    let mut qh = queue.register();
    qh.enqueue(5);
    qh.enqueue(6);
    assert_eq!(qh.dequeue(), Some(5));
    assert_eq!(qh.dequeue(), Some(6));
    assert_eq!(queue.rendezvous_hits(), 0);

    // The queue-family trait surface + baselines + workload path.
    fn trait_object_name<Q: sec_repro::ConcurrentQueue<u64>>(q: &Q) -> &'static str {
        q.name()
    }
    assert_eq!(trait_object_name(&queue), "SEC-Q");
    let ms: sec_repro::baselines::MsQueue<u64> = sec_repro::baselines::MsQueue::new(1);
    assert_eq!(trait_object_name(&ms), "MS");
    let lckq: sec_repro::baselines::LockedQueue<u64> = sec_repro::baselines::LockedQueue::new(1);
    assert_eq!(trait_object_name(&lckq), "LCK-Q");
    let qrun = sec_repro::workload::run_algo(sec_repro::workload::Algo::SecQueue, &cfg);
    assert!(
        qrun.result.ops > 0,
        "queue throughput run must complete ops"
    );
    assert_eq!(sec_repro::workload::QUEUE_LINEUP.len(), 3);

    // ext: the homogeneous counter and the keyed map.
    let counter = sec_repro::ext::SecCounter::new(1);
    let mut ch = counter.register();
    assert_eq!(ch.fetch_add(5), 0);
    assert_eq!(ch.load(), 5);
    let map: sec_repro::ext::SecMap<u64, u64> = sec_repro::ext::SecMap::new(1);
    let mut mh = map.register();
    assert_eq!(mh.insert(9, 90), None);
    assert_eq!(mh.get(&9), Some(90));
    assert_eq!(mh.remove(&9), Some(90));

    // The map trait surface + baseline + workload path.
    fn map_name<M: sec_repro::ConcurrentMap<u64, u64>>(m: &M) -> &'static str {
        m.name()
    }
    assert_eq!(map_name(&map), "SEC-M");
    let lckm: sec_repro::baselines::LockedHashMap<u64, u64> =
        sec_repro::baselines::LockedHashMap::new(1);
    assert_eq!(map_name(&lckm), "LCK-M");
    let mrun = sec_repro::workload::run_algo(sec_repro::workload::Algo::SecMap, &cfg);
    assert!(mrun.result.ops > 0, "map throughput run must complete ops");
    let crun = sec_repro::workload::run_algo(sec_repro::workload::Algo::SecCounter, &cfg);
    assert!(
        crun.result.ops > 0,
        "counter throughput run must complete ops"
    );
    assert_eq!(sec_repro::workload::MAP_LINEUP.len(), 2);
    assert_eq!(sec_repro::workload::SEC_FAMILIES.len(), 5);
}

/// Every SEC family name resolves at each of its public paths, and
/// every family is an alias of the one `Sec` shell. Compile-time in
/// substance: the body only names types.
#[test]
fn sec_family_names_resolve_at_every_public_path() {
    fn named<T: ?Sized>() {}
    named::<sec_core::SecStack<u64>>();
    named::<sec_core::SecHandle<'static, u64>>();
    named::<sec_core::SecQueue<u64>>();
    named::<sec_core::SecQueueHandle<'static, u64>>();
    named::<sec_core::SecCounter>();
    named::<sec_core::SecCounterHandle<'static>>();
    named::<sec_core::SecMap<u64, u64>>();
    named::<sec_core::SecMapHandle<'static, u64, u64>>();
    named::<sec_core::sec::SecStack<u64>>();
    named::<sec_core::sec::SecHandle<'static, u64>>();
    named::<sec_core::queue::SecQueue<u64>>();
    named::<sec_core::queue::SecQueueHandle<'static, u64>>();
    named::<sec_core::counter::SecCounter>();
    named::<sec_core::counter::SecCounterHandle<'static>>();
    named::<sec_core::map::SecMap<u64, u64>>();
    named::<sec_core::map::SecMapHandle<'static, u64, u64>>();
    named::<sec_repro::SecStack<u64>>();
    named::<sec_repro::SecHandle<'static, u64>>();
    named::<sec_repro::ext::SecQueue<u64>>();
    named::<sec_repro::ext::SecQueueHandle<'static, u64>>();
    named::<sec_repro::ext::SecCounter>();
    named::<sec_repro::ext::SecCounterHandle<'static>>();
    named::<sec_repro::ext::SecMap<u64, u64>>();
    named::<sec_repro::ext::SecMapHandle<'static, u64, u64>>();
    named::<dyn sec_workload::SecReadout>();

    // One shell and one readout trait: every family is the facade's
    // `Sec`, and sec-workload's `SecReadout` is sec-core's.
    let counter = sec_repro::ext::SecCounter::new(1);
    let _: &sec_repro::Sec<_> = &counter;
    let readout: &dyn sec_workload::SecReadout = &counter;
    let _: &dyn sec_core::SecReadout = readout;
    let _: sec_repro::FamilyHandle<'_, _> = counter.register();
}
