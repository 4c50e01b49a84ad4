//! Integration: record small concurrent histories on every stack and
//! verify them with the Wing–Gong checker — the empirical counterpart
//! of the paper's Appendix B linearizability proof.

mod common;

use sec_repro::linearize::{check_conservation, check_history, Event, Op, Recorder};
use sec_repro::{ConcurrentStack, StackHandle};
use std::sync::Mutex;
use std::thread;

/// Records `rounds` small histories of `threads` threads × `ops` mixed
/// operations each and checks each one. Values are globally unique per
/// history so pops identify their pushes.
fn record_and_check<S: ConcurrentStack<u64>>(
    stack_factory: impl Fn() -> S,
    name: &str,
    threads: usize,
    ops: usize,
    rounds: usize,
) {
    for round in 0..rounds {
        let stack = stack_factory();
        let rec = Recorder::new();
        let events: Mutex<Vec<Event<u64>>> = Mutex::new(Vec::new());

        thread::scope(|scope| {
            for t in 0..threads {
                let stack = &stack;
                let rec = &rec;
                let events = &events;
                scope.spawn(move || {
                    let mut h = stack.register();
                    let mut local = Vec::with_capacity(ops);
                    for i in 0..ops {
                        // Deterministic per-thread mix, varied by round.
                        let choice = (t + i + round) % 5;
                        let invoke = rec.now();
                        let op = match choice {
                            0 | 1 => {
                                let v = (round * 1_000_000 + t * 1_000 + i) as u64;
                                h.push(v);
                                Op::Push(v)
                            }
                            2 | 3 => Op::Pop(h.pop()),
                            _ => Op::Peek(h.peek()),
                        };
                        let response = rec.now();
                        local.push(Event {
                            thread: t,
                            op,
                            invoke,
                            response,
                        });
                    }
                    events.lock().unwrap().extend(local);
                });
            }
        });

        let history = events.into_inner().unwrap();
        check_conservation(&history).unwrap_or_else(|e| panic!("[{name}] round {round}: {e}"));
        check_history(&history).unwrap_or_else(|e| {
            panic!("[{name}] round {round}: history not linearizable: {e}\n{history:#?}")
        });
    }
}

// Per-algorithm tests (small histories: the checker is exponential).

#[test]
fn sec_histories_are_linearizable() {
    record_and_check(
        || sec_repro::SecStack::with_config(sec_repro::SecConfig::new(2, 3)),
        "SEC",
        3,
        8,
        12,
    );
}

#[test]
fn sec_single_aggregator_histories_are_linearizable() {
    record_and_check(
        || sec_repro::SecStack::with_config(sec_repro::SecConfig::new(1, 3)),
        "SEC_Agg1",
        3,
        8,
        12,
    );
}

#[test]
fn sec_adaptive_histories_with_forced_resizes_are_linearizable() {
    // Elastic sharding mid-history: a controller forces grow/shrink
    // transitions while 3 workers record operations, so batches from
    // before, during and after each re-mapping appear in every round.
    use sec_repro::{SecConfig, SecStack};
    use std::sync::atomic::{AtomicBool, Ordering};

    const THREADS: usize = 3;
    let mut total_resizes = 0u64;
    for round in 0..12 {
        let stack: SecStack<u64> =
            SecStack::with_config(SecConfig::adaptive_windowed(1, 3, 16, THREADS));
        let rec = Recorder::new();
        let events: Mutex<Vec<Event<u64>>> = Mutex::new(Vec::new());
        let done = AtomicBool::new(false);

        thread::scope(|scope| {
            for t in 0..THREADS {
                let stack = &stack;
                let rec = &rec;
                let events = &events;
                scope.spawn(move || {
                    let mut h = stack.register();
                    let mut local = Vec::with_capacity(8);
                    for i in 0..8usize {
                        let choice = (t + i + round) % 5;
                        let invoke = rec.now();
                        let op = match choice {
                            0 | 1 => {
                                let v = (round * 1_000_000 + t * 1_000 + i) as u64;
                                h.push(v);
                                Op::Push(v)
                            }
                            2 | 3 => Op::Pop(h.pop()),
                            _ => Op::Peek(h.peek()),
                        };
                        let response = rec.now();
                        local.push(Event {
                            thread: t,
                            op,
                            invoke,
                            response,
                        });
                    }
                    events.lock().unwrap().extend(local);
                });
            }
            // Controller: unregistered, hammers resize transitions
            // until the workers finish.
            let stack = &stack;
            let done = &done;
            scope.spawn(move || {
                let mut k = 1usize;
                while !done.load(Ordering::Acquire) {
                    stack.set_active_aggregators(k);
                    k = k % 3 + 1; // 1 → 2 → 3 → 1 …
                    thread::yield_now();
                }
            });
            // The worker spawns above run to completion when the scope
            // joins; flip the controller off once events are all in.
            while events.lock().unwrap().len() < THREADS * 8 {
                thread::yield_now();
            }
            done.store(true, Ordering::Release);
        });

        let history = events.into_inner().unwrap();
        check_conservation(&history)
            .unwrap_or_else(|e| panic!("[SEC_Adaptive] round {round}: {e}"));
        check_history(&history).unwrap_or_else(|e| {
            panic!("[SEC_Adaptive] round {round}: history not linearizable: {e}\n{history:#?}")
        });
        let r = stack.stats().report();
        total_resizes += r.resizes();
        let active = stack.active_aggregators();
        assert!((1..=3).contains(&active), "active {active} out of [1, 3]");
    }
    assert!(
        total_resizes > 0,
        "the controller must actually force grow/shrink transitions"
    );
}

#[test]
fn sec_histories_stay_linearizable_as_handles_come_and_go() {
    // Handles register, run a few ops and drop with staggered
    // lifetimes, so the live-handle count crosses 1 again and again and
    // ops switch between the lone path and the batch protocol
    // (DESIGN.md §12 "Lone operations"). Two stints are pinned so
    // both paths run in every round: thread 0's first stint ends
    // before anyone else registers, and threads 1 and 2 hold their
    // first handles together across their ops. Every other stint
    // races freely.
    use sec_repro::{SecConfig, SecStack};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    const THREADS: usize = 3;
    /// Ops per stint (one handle's lifetime), per thread.
    const STINTS: [[usize; 3]; THREADS] = [[3, 3, 2], [2, 3, 3], [3, 2, 3]];
    for round in 0..16 {
        let stack: SecStack<u64> = SecStack::with_config(SecConfig::new(1, THREADS));
        let rec = Recorder::new();
        let events: Mutex<Vec<Event<u64>>> = Mutex::new(Vec::new());
        let opened = AtomicBool::new(false);
        let pair = Barrier::new(2);

        thread::scope(|scope| {
            for (t, stints) in STINTS.iter().enumerate() {
                let (stack, rec, events) = (&stack, &rec, &events);
                let (opened, pair) = (&opened, &pair);
                scope.spawn(move || {
                    let mut local = Vec::new();
                    let mut i = 0usize;
                    for (stint, &len) in stints.iter().enumerate() {
                        let paired = t > 0 && stint == 0;
                        if paired {
                            while !opened.load(Ordering::Acquire) {
                                thread::yield_now();
                            }
                        }
                        let mut h = stack.register();
                        if paired {
                            pair.wait();
                        }
                        for _ in 0..len {
                            let invoke = rec.now();
                            let op = if (t + i + round).is_multiple_of(2) {
                                let v = (round * 1_000_000 + t * 1_000 + i) as u64;
                                h.push(v);
                                Op::Push(v)
                            } else {
                                Op::Pop(h.pop())
                            };
                            let response = rec.now();
                            local.push(Event {
                                thread: t,
                                op,
                                invoke,
                                response,
                            });
                            i += 1;
                        }
                        if paired {
                            pair.wait();
                        }
                        drop(h);
                        if t == 0 && stint == 0 {
                            opened.store(true, Ordering::Release);
                        }
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
        check_conservation(&history).unwrap_or_else(|e| panic!("[SEC_Churn] round {round}: {e}"));
        check_history(&history).unwrap_or_else(|e| {
            panic!("[SEC_Churn] round {round}: history not linearizable: {e}\n{history:#?}")
        });
        let r = stack.stats().report();
        assert_eq!(
            r.ops,
            history.len() as u64,
            "[SEC_Churn] round {round}: {r:?}"
        );
        assert!(
            r.alone > 0 && r.batches > r.alone,
            "[SEC_Churn] round {round}: both paths must run: {r:?}"
        );
    }
}

#[test]
fn treiber_histories_are_linearizable() {
    record_and_check(
        || sec_repro::baselines::TreiberStack::new(3),
        "TRB",
        3,
        8,
        12,
    );
}

#[test]
fn eb_histories_are_linearizable() {
    record_and_check(|| sec_repro::baselines::EbStack::new(3), "EB", 3, 8, 12);
}

#[test]
fn fc_histories_are_linearizable() {
    record_and_check(|| sec_repro::baselines::FcStack::new(3), "FC", 3, 8, 12);
}

#[test]
fn cc_histories_are_linearizable() {
    record_and_check(|| sec_repro::baselines::CcStack::new(3), "CC", 3, 8, 12);
}

#[test]
fn tsi_histories_are_linearizable() {
    record_and_check(|| sec_repro::baselines::TsiStack::new(3), "TSI", 3, 8, 12);
}

#[test]
fn large_histories_pass_conservation_for_all_stacks() {
    // The DFS checker can't handle big histories; the linear-time
    // conservation pass can. 4 threads × 300 ops per stack.
    with_all_stacks!(4, |stack, name| {
        let rec = Recorder::new();
        let events: Mutex<Vec<Event<u64>>> = Mutex::new(Vec::new());
        thread::scope(|scope| {
            for t in 0..4usize {
                let stack = &stack;
                let rec = &rec;
                let events = &events;
                scope.spawn(move || {
                    let mut h = stack.register();
                    let mut local = Vec::new();
                    for i in 0..300usize {
                        let invoke = rec.now();
                        let op = if (t + i) % 2 == 0 {
                            let v = (t * 1_000_000 + i) as u64;
                            h.push(v);
                            Op::Push(v)
                        } else {
                            Op::Pop(h.pop())
                        };
                        let response = rec.now();
                        local.push(Event {
                            thread: t,
                            op,
                            invoke,
                            response,
                        });
                    }
                    events.lock().unwrap().extend(local);
                });
            }
        });
        let history = events.into_inner().unwrap();
        check_conservation(&history).unwrap_or_else(|e| panic!("[{name}] {e}"));
    });
}
