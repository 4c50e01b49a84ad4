//! Integration: the `SecQueue` tentpole is linearizable *as a FIFO
//! queue* — checked with the generic Wing–Gong checker against the
//! pre-existing `QueueSpec` (which shipped in `crates/linearize`
//! explicitly "for queue adaptations of the SEC mechanisms") — and
//! conserves values with liveness at 2× the host's hardware threads.
//!
//! Histories are kept at ≤ 30 events (the checker is exponential); the
//! seeded rounds sweep ≥ 8 seeds so distinct interleavings, batch cuts
//! and empty-rendezvous windows are all exercised. The MS and locked
//! baselines run through the same recorder, so a spec bug would show up
//! as all three failing rather than as a SecQueue regression.

use sec_linearize::spec::queue::{QueueOp, QueueSpec};
use sec_linearize::spec::{check_generic, TimedOp};
use sec_linearize::Recorder;
use sec_repro::baselines::{LockedQueue, MsQueue};
use sec_repro::ext::SecQueue;
use sec_repro::{ConcurrentQueue, QueueHandle};
use std::collections::HashSet;
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// Records one small concurrent history (`threads × ops` ≤ 30 events)
/// against `queue`, with a per-seed deterministic mix.
fn record_round<Q: ConcurrentQueue<u64>>(
    queue: &Q,
    threads: usize,
    ops: usize,
    seed: u64,
) -> Vec<TimedOp<QueueOp<u64>>> {
    assert!(threads * ops <= 30, "keep histories inside the checker");
    let rec = Recorder::new();
    let events: Mutex<Vec<TimedOp<QueueOp<u64>>>> = Mutex::new(Vec::new());

    thread::scope(|scope| {
        for t in 0..threads {
            let queue = &queue;
            let rec = &rec;
            let events = &events;
            scope.spawn(move || {
                let mut h = queue.register();
                let mut local = Vec::with_capacity(ops);
                for i in 0..ops {
                    // Seed-permuted mix, biased toward contention on
                    // the dequeue side (where FIFO bugs live).
                    let choice = (t * 7 + i * 3 + seed as usize) % 5;
                    let invoke = rec.now();
                    let op = if choice < 2 {
                        let v = (seed * 1_000_000 + (t * 1_000 + i) as u64) % u64::MAX;
                        h.enqueue(v);
                        QueueOp::Enqueue(v)
                    } else {
                        QueueOp::Dequeue(h.dequeue())
                    };
                    let response = rec.now();
                    local.push(TimedOp {
                        op,
                        invoke,
                        response,
                    });
                }
                events.lock().unwrap().extend(local);
            });
        }
    });
    events.into_inner().unwrap()
}

/// Seeds for the history sweep (≥ 8, per the subsystem's acceptance
/// bar; `SCHEDULE_SEEDS` widens it in the nightly job just like the
/// schedule harness).
fn seeds() -> Vec<u64> {
    let n = std::env::var("SCHEDULE_SEEDS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map(|n| n.clamp(8, 512))
        .unwrap_or(12);
    (0..n).map(|i| 0x0FEE_D5EC_u64.wrapping_add(i)).collect()
}

#[test]
fn sec_queue_histories_are_linearizable() {
    for seed in seeds() {
        let queue: SecQueue<u64> = SecQueue::new(3);
        let history = record_round(&queue, 3, 8, seed);
        check_generic::<QueueSpec<u64>>(&history).unwrap_or_else(|e| {
            panic!("[SEC-Q] seed {seed}: history not linearizable: {e}\n{history:#?}")
        });
    }
}

#[test]
fn sec_queue_histories_without_rendezvous_are_linearizable() {
    // The empty-only elimination window off: the EMPTY fast path must
    // be just as linearizable as the rendezvous path.
    for seed in seeds() {
        let queue: SecQueue<u64> = SecQueue::new(3).rendezvous_spins(0);
        let history = record_round(&queue, 3, 8, seed);
        check_generic::<QueueSpec<u64>>(&history).unwrap_or_else(|e| {
            panic!("[SEC-Q/no-rdv] seed {seed}: history not linearizable: {e}\n{history:#?}")
        });
    }
}

#[test]
fn sec_queue_two_thread_deep_histories_are_linearizable() {
    // Fewer threads, more ops per thread: longer FIFO prefixes inside
    // one history (2 × 15 = 30 events, the checker's comfort bound).
    for seed in seeds() {
        let queue: SecQueue<u64> = SecQueue::new(2);
        let history = record_round(&queue, 2, 15, seed);
        check_generic::<QueueSpec<u64>>(&history).unwrap_or_else(|e| {
            panic!("[SEC-Q/2x15] seed {seed}: history not linearizable: {e}\n{history:#?}")
        });
    }
}

#[test]
fn sec_queue_histories_stay_linearizable_as_handles_come_and_go() {
    // Handles register, run a few ops and drop with staggered
    // lifetimes, so the live-handle count crosses 1 again and again: a
    // lone dequeue on an empty queue holds the rendezvous window only
    // while another handle is live (DESIGN.md §12 "Lone operations").
    // An op whose lane is idle goes alone, and one stint per round is
    // pinned so that the batch path runs too: two handles wait in their
    // windows on the empty queue, the enqueue that lands hands its node
    // to one of them, and the other's CAS on `head` loses, so its
    // dequeue announces and is combined. Thread 0's first stint ends
    // before anyone else registers; the last two race freely.
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    const THREADS: usize = 3;
    /// Rendezvous pauses: long enough that both waiters of the pinned
    /// stint still sit in their windows when the enqueue lands.
    const WINDOW: u32 = 1 << 12;
    let (mut lone, mut batched) = (0, 0);
    for round in 0..16u64 {
        let queue: SecQueue<u64> = SecQueue::new(THREADS).rendezvous_spins(WINDOW);
        let rec = Recorder::new();
        let events: Mutex<Vec<TimedOp<QueueOp<u64>>>> = Mutex::new(Vec::new());
        let opened = AtomicBool::new(false);
        let pinned = Barrier::new(THREADS);

        thread::scope(|scope| {
            for t in 0..THREADS {
                let (queue, rec, events) = (&queue, &rec, &events);
                let (opened, pinned) = (&opened, &pinned);
                scope.spawn(move || {
                    let mut local = Vec::new();
                    let mut next = 0u64;
                    let mut run = |h: &mut sec_repro::ext::SecQueueHandle<'_, u64>,
                                   enqueue: bool| {
                        let invoke = rec.now();
                        let op = if enqueue {
                            next += 1;
                            let v = round * 1_000 + t as u64 * 100 + next;
                            h.enqueue(v);
                            QueueOp::Enqueue(v)
                        } else {
                            QueueOp::Dequeue(h.dequeue())
                        };
                        let response = rec.now();
                        local.push(TimedOp {
                            op,
                            invoke,
                            response,
                        });
                    };
                    if t == 0 {
                        let mut h = queue.register();
                        for enqueue in [true, false, false] {
                            run(&mut h, enqueue);
                        }
                        drop(h);
                        opened.store(true, Ordering::Release);
                    } else {
                        while !opened.load(Ordering::Acquire) {
                            thread::yield_now();
                        }
                    }
                    {
                        let mut h = queue.register();
                        pinned.wait();
                        if t == 0 {
                            // Let both dequeuers reach their windows.
                            for _ in 0..8 {
                                thread::yield_now();
                            }
                            run(&mut h, true);
                            run(&mut h, true);
                        } else {
                            run(&mut h, false);
                        }
                        pinned.wait();
                    }
                    for stint in 0..2 {
                        let mut h = queue.register();
                        for j in 0..3 {
                            run(&mut h, (t + j + stint + round as usize) % 3 < 2);
                        }
                        drop(h);
                        // Stagger the next registration.
                        for _ in 0..(t + stint) % 3 {
                            thread::yield_now();
                        }
                    }
                    events.lock().unwrap().extend(local);
                });
            }
        });

        let history = events.into_inner().unwrap();
        check_generic::<QueueSpec<u64>>(&history).unwrap_or_else(|e| {
            panic!("[SEC-Q/churn] round {round}: history not linearizable: {e}\n{history:#?}")
        });
        let r = queue.stats().report();
        assert_eq!(
            r.ops,
            history.len() as u64,
            "[SEC-Q/churn] round {round}: {r:?}"
        );
        lone += r.alone;
        batched += r.batches - r.alone;
    }
    assert!(
        lone > 0 && batched > 0,
        "both paths must run: {lone} lone ops, {batched} batches"
    );
}

#[test]
fn ms_queue_histories_are_linearizable() {
    for seed in seeds().into_iter().take(8) {
        let queue: MsQueue<u64> = MsQueue::new(3);
        let history = record_round(&queue, 3, 8, seed);
        check_generic::<QueueSpec<u64>>(&history).unwrap_or_else(|e| {
            panic!("[MS] seed {seed}: history not linearizable: {e}\n{history:#?}")
        });
    }
}

#[test]
fn locked_queue_histories_are_linearizable() {
    for seed in seeds().into_iter().take(8) {
        let queue: LockedQueue<u64> = LockedQueue::new(3);
        let history = record_round(&queue, 3, 8, seed);
        check_generic::<QueueSpec<u64>>(&history).unwrap_or_else(|e| {
            panic!("[LCK-Q] seed {seed}: history not linearizable: {e}\n{history:#?}")
        });
    }
}

/// Runs `f` on a watchdog: panics if it takes longer than `secs`
/// (mirrors `tests/liveness.rs`).
fn within_secs<F: FnOnce() + Send>(secs: u64, what: &str, f: F) {
    use std::sync::atomic::{AtomicBool, Ordering};
    let done = AtomicBool::new(false);
    thread::scope(|scope| {
        let done = &done;
        scope.spawn(move || {
            f();
            done.store(true, Ordering::Release);
        });
        let deadline = Instant::now() + Duration::from_secs(secs);
        while !done.load(Ordering::Acquire) {
            assert!(Instant::now() < deadline, "{what}: wedged (> {secs}s)");
            thread::sleep(Duration::from_millis(10));
        }
    });
}

#[test]
fn queue_conservation_and_liveness_at_2x_hardware_threads() {
    // The acceptance scenario: 2× the host's hardware threads hammer
    // the queue; no value may be invented, lost or dequeued twice, and
    // the run must finish (every blocking wait must degrade to yields).
    let threads = 2 * thread::available_parallelism()
        .map_or(1, |n| n.get())
        .max(2);
    const PER: usize = 600;
    for name in ["SEC-Q", "SEC-Q/no-rdv", "MS", "LCK-Q"] {
        within_secs(90, name, || match name {
            "SEC-Q" => conserve(&SecQueue::<u64>::new(threads + 1), threads, PER, name),
            "SEC-Q/no-rdv" => conserve(
                &SecQueue::<u64>::new(threads + 1).rendezvous_spins(0),
                threads,
                PER,
                name,
            ),
            "MS" => conserve(&MsQueue::<u64>::new(threads + 1), threads, PER, name),
            _ => conserve(&LockedQueue::<u64>::new(threads + 1), threads, PER, name),
        });
    }
}

/// Generic conservation scenario shared by the liveness test above and
/// the seeded sweep below.
fn conserve<Q: ConcurrentQueue<u64>>(queue: &Q, threads: usize, per: usize, name: &str) {
    let got: Vec<Vec<u64>> = thread::scope(|scope| {
        (0..threads)
            .map(|t| {
                let queue = &queue;
                scope.spawn(move || {
                    let mut h = queue.register();
                    let mut got = Vec::new();
                    for i in 0..per {
                        h.enqueue((t * per + i) as u64);
                        if i % 3 != 0 {
                            if let Some(v) = h.dequeue() {
                                got.push(v);
                            }
                        }
                    }
                    got
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|j| j.join().unwrap())
            .collect()
    });
    let mut seen: HashSet<u64> = HashSet::new();
    for v in got.into_iter().flatten() {
        assert!(seen.insert(v), "[{name}] value {v} dequeued twice");
        assert!(
            (v as usize) < threads * per,
            "[{name}] value {v} was never enqueued"
        );
    }
    let mut h = queue.register();
    while let Some(v) = h.dequeue() {
        assert!(seen.insert(v), "[{name}] value {v} dequeued twice in drain");
    }
    assert_eq!(seen.len(), threads * per, "[{name}] values lost");
    assert_eq!(h.dequeue(), None, "[{name}] queue must end empty");
}

#[test]
fn sec_queue_global_fifo_with_single_consumer() {
    // With one consumer, FIFO is directly observable: each producer's
    // values must arrive in its own enqueue order. This is the
    // black-box property the Wing–Gong rounds verify on small
    // histories, here at scale.
    const PRODUCERS: usize = 3;
    const PER: u64 = 4_000;
    let q: SecQueue<u64> = SecQueue::new(PRODUCERS + 1);
    let got: Vec<u64> = thread::scope(|scope| {
        for p in 0..PRODUCERS {
            let q = &q;
            scope.spawn(move || {
                let mut h = q.register();
                for i in 0..PER {
                    h.enqueue(((p as u64) << 32) | i);
                }
            });
        }
        let q = &q;
        scope
            .spawn(move || {
                let mut h = q.register();
                let mut got = Vec::new();
                while got.len() < (PRODUCERS as u64 * PER) as usize {
                    if let Some(v) = h.dequeue() {
                        got.push(v);
                    }
                }
                got
            })
            .join()
            .unwrap()
    });
    let mut last = [None::<u64>; PRODUCERS];
    for v in got {
        let (p, i) = ((v >> 32) as usize, v & 0xFFFF_FFFF);
        if let Some(prev) = last[p] {
            assert!(i > prev, "producer {p}: {i} arrived after {prev}");
        }
        last[p] = Some(i);
    }
}
