//! Integration: the spin-then-park wait subsystem (DESIGN.md §11).
//!
//! Three layers of proof, from primitive to protocol:
//!
//! 1. **No-lost-wakeup on the primitives** — both orderable
//!    interleavings (wake-before-park, park-before-wake) directly on
//!    [`WaitCell`]/[`WaitQueue`], plus a seeded-interleaving sweep in
//!    the style of `tests/schedules.rs`: the notifier's position
//!    relative to the waiter's registration is permuted by
//!    seed-derived yield schedules, and every run must terminate.
//!    `SCHEDULE_SEEDS=N` widens the sweep (the nightly CI job raises
//!    it); `SCHEDULE_SEED=s` replays one seed.
//! 2. **Oversubscribed liveness** — the stack and the queue at 4× the
//!    host's hardware threads under each of the three [`WaitPolicy`]
//!    settings: mixed workloads must complete. This is the tier-1
//!    oversubscription smoke gate.
//! 3. **Semantics under forced parking** — conservation for the stack
//!    and the queue and small-history linearizability for the stack with
//!    `SpinThenPark { spin_rounds: 0 }` forced on (the minimum spin
//!    phase maximizes park traffic, so a lost wakeup or a broken
//!    handshake surfaces as a hang or a checker violation), plus the
//!    counter plumbing: parks/wakes must reach `SecStats` reports.

use sec_repro::ext::SecQueue;
use sec_repro::linearize::{check_conservation, check_history, Event, Op, Recorder};
use sec_repro::sync::{WaitCell, WaitPolicy, WaitQueue, WaitStats};
use sec_repro::{SecConfig, SecStack};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// The policy that parks the hardest: no extra snoozes before the park
/// phase. Every semantics test forces it to maximize park traffic.
const PARK_NOW: WaitPolicy = WaitPolicy::SpinThenPark { spin_rounds: 0 };

const ALL_POLICIES: [WaitPolicy; 3] = [
    WaitPolicy::Spin,
    WaitPolicy::SpinThenYield,
    WaitPolicy::spin_then_park(),
];

const SEED_BASE: u64 = 0x9A4C_0FFE;

fn sweep_seeds(default_count: u64) -> Vec<u64> {
    if let Ok(s) = std::env::var("SCHEDULE_SEED") {
        let seed = s.parse().expect("SCHEDULE_SEED must be a u64");
        return vec![seed];
    }
    let n = std::env::var("SCHEDULE_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default_count);
    (0..n).map(|i| SEED_BASE.wrapping_add(i)).collect()
}

/// Cheap deterministic xorshift so the interleaving sweeps need no RNG
/// crate in the test's dependency surface.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

// ---------------------------------------------------------------------
// 1. No-lost-wakeup on the primitives
// ---------------------------------------------------------------------

#[test]
fn wait_cell_wake_before_park_interleaving() {
    // The notification fully precedes the wait: the waiter must
    // consume it without parking (a lost wakeup here would park
    // forever — there is no later notify).
    let cell = WaitCell::new();
    cell.notify();
    assert_eq!(cell.wait(), 0, "no park, no spurious wakeups");
    assert!(!cell.is_notified(), "the wait consumed the notification");
}

#[test]
fn wait_cell_park_before_wake_interleaving() {
    // The waiter registers and parks first; the notifier is delayed
    // until the waiter has provably parked at least once (we can't
    // observe the park directly, so we bound it: the waiter sets a
    // flag right before calling wait, and the notifier yields past
    // it). The join proves the wakeup arrived.
    let cell = Arc::new(WaitCell::new());
    let entered = Arc::new(AtomicBool::new(false));
    let (c, e) = (Arc::clone(&cell), Arc::clone(&entered));
    let waiter = thread::spawn(move || {
        e.store(true, Ordering::Release);
        c.wait()
    });
    while !entered.load(Ordering::Acquire) {
        thread::yield_now();
    }
    for _ in 0..20 {
        thread::yield_now();
    }
    cell.notify();
    waiter.join().expect("parked waiter woke");
}

#[test]
fn wait_cell_seeded_interleaving_sweep() {
    // Permute where the notifier fires relative to the waiter's
    // registration/park: seed-derived yield counts on both sides move
    // the race point through every reachable interleaving class.
    // Termination of every run IS the no-lost-wakeup proof.
    for seed in sweep_seeds(64) {
        let mut x = seed | 1;
        let waiter_delay = xorshift(&mut x) % 8;
        let notifier_delay = xorshift(&mut x) % 8;
        let cell = Arc::new(WaitCell::new());
        let c = Arc::clone(&cell);
        let waiter = thread::spawn(move || {
            for _ in 0..waiter_delay {
                thread::yield_now();
            }
            c.wait()
        });
        for _ in 0..notifier_delay {
            thread::yield_now();
        }
        cell.notify();
        waiter.join().unwrap_or_else(|_| {
            panic!("seed {seed}: waiter hung; replay with SCHEDULE_SEED={seed}")
        });
    }
}

#[test]
fn wait_queue_seeded_no_lost_wakeup_sweep() {
    // The keyed queue under the strict handshake contract: the
    // notifier makes the condition true (Release) before notifying.
    // Seeds permute both sides' progress; with spin_rounds = 0 the
    // waiter parks on nearly every run.
    for seed in sweep_seeds(64) {
        let mut x = seed | 1;
        let waiter_delay = xorshift(&mut x) % 6;
        let notifier_delay = xorshift(&mut x) % 6;
        let q = WaitQueue::new();
        let stats = WaitStats::new();
        let flag = AtomicBool::new(false);
        let key = 0xB47C4_usize;
        thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..waiter_delay {
                    thread::yield_now();
                }
                q.wait_until(key, PARK_NOW, &stats, || flag.load(Ordering::Acquire));
            });
            for _ in 0..notifier_delay {
                thread::yield_now();
            }
            // A wrong-key notify first: it must not satisfy the waiter
            // (its condition is still false — at worst it re-parks and
            // the spurious counter ticks).
            q.notify_key(key + 1, &stats);
            flag.store(true, Ordering::Release);
            q.notify_key(key, &stats);
        });
        assert_eq!(
            q.registered(),
            0,
            "seed {seed}: waiter left a stale registration"
        );
        assert!(
            stats.unparks() <= stats.parks() + 1,
            "seed {seed}: more unparks than possible waits"
        );
    }
}

#[test]
fn wait_queue_spurious_wakeups_reregister_and_survive() {
    // Force a genuinely spurious wakeup: once the waiter has parked
    // (observed via the parks counter), unpark it through notify_all
    // while its condition is still false. It must re-register and
    // re-park; the final genuine notify must still land.
    let q = Arc::new(WaitQueue::new());
    let stats = Arc::new(WaitStats::new());
    let flag = Arc::new(AtomicBool::new(false));
    let (q2, s2, f2) = (Arc::clone(&q), Arc::clone(&stats), Arc::clone(&flag));
    let waiter = thread::spawn(move || {
        q2.wait_until(7, PARK_NOW, &s2, || f2.load(Ordering::Acquire));
    });
    // Wait until the waiter has parked at least once.
    while stats.parks() == 0 {
        thread::yield_now();
    }
    // Spurious wake: condition still false. Wait until the waiter has
    // woken and counted it, re-notifying in case the wake raced its
    // re-park; only then make the condition true.
    let deadline = Instant::now() + Duration::from_secs(10);
    while stats.spurious() == 0 {
        assert!(
            Instant::now() < deadline,
            "the waiter never counted a spurious wakeup: {stats:?}"
        );
        q.notify_all(&stats);
        thread::sleep(Duration::from_micros(100));
    }
    flag.store(true, Ordering::Release);
    q.notify_key(7, &stats);
    waiter.join().expect("waiter survived the spurious wakeup");
    assert!(stats.parks() >= 1, "the waiter parked");
    assert!(
        stats.spurious() >= 1,
        "the forced wrong-condition wakeup was counted spurious: {stats:?}"
    );
}

// ---------------------------------------------------------------------
// 2. Oversubscribed liveness: 4× hardware threads, stack and queue,
//    all policies
// ---------------------------------------------------------------------

/// 4× the hardware threads, with a floor of 4 so the test is a real
/// oversubscription test even on a 1-core CI box and a cap of 16 so a
/// 32-core host doesn't turn it into a stress run.
fn oversub_threads() -> usize {
    (4 * sec_repro::sync::topology::hardware_threads().max(1)).clamp(4, 16)
}

#[test]
fn oversubscribed_liveness_all_families_all_policies() {
    let threads = oversub_threads();
    // Pure Spin is the pathological policy here (each blocked wait can
    // burn a scheduling quantum on an oversubscribed host), so it gets
    // a smaller script; completion, not speed, is what's asserted.
    for policy in ALL_POLICIES {
        let ops = if policy == WaitPolicy::Spin { 60 } else { 200 };

        let stack: SecStack<u64> =
            SecStack::with_config(SecConfig::new(2, threads).wait_policy(policy));
        thread::scope(|s| {
            for t in 0..threads {
                let stack = &stack;
                s.spawn(move || {
                    let mut h = stack.register();
                    for i in 0..ops {
                        if (t + i) % 3 < 2 {
                            h.push((t * ops + i) as u64);
                        } else {
                            let _ = h.pop();
                        }
                    }
                });
            }
        });

        let queue: SecQueue<u64> =
            SecQueue::with_config(SecConfig::new(1, threads).wait_policy(policy));
        thread::scope(|s| {
            for t in 0..threads {
                let queue = &queue;
                s.spawn(move || {
                    let mut h = queue.register();
                    for i in 0..ops {
                        if (t + i) % 3 < 2 {
                            h.enqueue((t * ops + i) as u64);
                        } else {
                            let _ = h.dequeue();
                        }
                    }
                });
            }
        });
    }
}

// ---------------------------------------------------------------------
// 3. Semantics and counters under forced parking
// ---------------------------------------------------------------------

#[test]
fn conservation_under_forced_park_all_families() {
    const THREADS: usize = 6;
    const PER: usize = 400;

    // Stack: every pushed value is popped or drained exactly once.
    let stack: SecStack<u64> =
        SecStack::with_config(SecConfig::new(2, THREADS + 1).wait_policy(PARK_NOW));
    let got: Vec<Vec<u64>> = thread::scope(|scope| {
        (0..THREADS)
            .map(|t| {
                let stack = &stack;
                scope.spawn(move || {
                    let mut h = stack.register();
                    let mut got = Vec::new();
                    for i in 0..PER {
                        h.push((t * PER + i) as u64);
                        if i % 3 != 0 {
                            if let Some(v) = h.pop() {
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
        assert!(seen.insert(v), "stack: duplicate {v}");
    }
    let mut h = stack.register();
    while let Some(v) = h.pop() {
        assert!(seen.insert(v), "stack: duplicate {v} in drain");
    }
    drop(h);
    assert_eq!(seen.len(), THREADS * PER, "stack: values lost");

    // Queue.
    let queue: SecQueue<u64> =
        SecQueue::with_config(SecConfig::new(1, THREADS + 1).wait_policy(PARK_NOW));
    let got: Vec<Vec<u64>> = thread::scope(|scope| {
        (0..THREADS)
            .map(|t| {
                let queue = &queue;
                scope.spawn(move || {
                    let mut h = queue.register();
                    let mut got = Vec::new();
                    for i in 0..PER {
                        h.enqueue((t * PER + i) as u64);
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
        assert!(seen.insert(v), "queue: duplicate {v}");
    }
    let mut h = queue.register();
    while let Some(v) = h.dequeue() {
        assert!(seen.insert(v), "queue: duplicate {v} in drain");
    }
    drop(h);
    assert_eq!(seen.len(), THREADS * PER, "queue: values lost");
}

#[test]
fn small_histories_linearizable_under_forced_park() {
    // The schedules.rs pattern with the wait policy pinned to maximum
    // parking: small seeded scripts, full Wing–Gong check per history.
    for seed in sweep_seeds(24) {
        let mut x = seed | 1;
        let threads = 2 + (xorshift(&mut x) % 2) as usize;
        let ops = 5 + (xorshift(&mut x) % 4) as usize;
        let stack: SecStack<u64> =
            SecStack::with_config(SecConfig::new(2, threads).wait_policy(PARK_NOW));
        let rec = Recorder::new();
        let events: Mutex<Vec<Event<u64>>> = Mutex::new(Vec::new());
        thread::scope(|scope| {
            for t in 0..threads {
                let stack = &stack;
                let rec = &rec;
                let events = &events;
                let mut x = seed.wrapping_mul(t as u64 + 1) | 1;
                scope.spawn(move || {
                    let mut h = stack.register();
                    let mut local = Vec::new();
                    let mut pushed = 0usize;
                    for _ in 0..ops {
                        if xorshift(&mut x).is_multiple_of(4) {
                            thread::yield_now();
                        }
                        let invoke = rec.now();
                        let op = match xorshift(&mut x) % 5 {
                            0 | 1 => {
                                let v = (t * 1_000_000 + pushed) as u64;
                                pushed += 1;
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
        check_conservation(&history).unwrap_or_else(|e| {
            panic!("seed {seed}: conservation violated under forced park: {e}")
        });
        check_history(&history).unwrap_or_else(|e| {
            panic!("seed {seed}: history not linearizable under forced park: {e}\n{history:#?}")
        });
    }
}

/// Freezer spin window for the manufactured-contention tests: long
/// enough (tens of microseconds) for announcers on other cores to join
/// a stack batch before the cut, and cut short as soon as they all
/// have.
const OPEN_WINDOW_SPINS: u32 = 1 << 12;

#[test]
fn park_and_wake_counters_reach_reports() {
    // Stack and queue: under forced parking with real contention, the
    // park/wake counters must populate, and wakes can never exceed
    // what was ever registered (parks + the waits that deregistered
    // themselves — conservatively, parks plus one registration per
    // wait). Contention is manufactured, not hoped for: every thread
    // registers before any starts (the freezer only backs off for
    // announcers that are live), and a single aggregator plus a
    // widened freezer backoff holds each batch open until they
    // arrive. The spin window does that for the stack; a queue end's
    // freezer never spins (its batches cannot eliminate), so there the
    // yield window does it, which the freezer spends only while
    // threads outnumber hardware threads. The thread count therefore
    // always exceeds the host's hardware threads, whatever the cap on
    // `oversub_threads`. On a small host — including a 1-core one,
    // where short rounds otherwise run each thread to completion with
    // zero overlap — the yield donates the freezer's quantum
    // mid-protocol. Either way other threads announce into the open
    // batch and park on it. A queue op reaches a batch at all only once
    // it finds its lane busy or loses its CAS (DESIGN.md §12 "Lone
    // operations"), so the queue's mix is two dequeues to one enqueue:
    // the queue stays near empty, dequeuers wait in the rendezvous
    // window, and an enqueue landing there makes the losers of the
    // `head` CAS announce. The retry loop stays as a backstop so no
    // single scheduling outcome decides the assertion.
    let threads = oversub_threads().max(sec_repro::sync::topology::hardware_threads() + 1);
    let mut stack_parks = 0;
    let mut stack_wakes = 0;
    for _ in 0..20 {
        let stack: SecStack<u64> = SecStack::with_config(
            SecConfig::new(1, threads)
                .wait_policy(PARK_NOW)
                .freezer_backoff(OPEN_WINDOW_SPINS)
                .freezer_yields(4),
        );
        let registered = Barrier::new(threads);
        thread::scope(|s| {
            for t in 0..threads {
                let (stack, registered) = (&stack, &registered);
                s.spawn(move || {
                    let mut h = stack.register();
                    registered.wait();
                    for i in 0..300 {
                        if (t + i) % 3 < 2 {
                            h.push(i as u64);
                        } else {
                            let _ = h.pop();
                        }
                    }
                });
            }
        });
        let r = stack.stats().report();
        stack_parks += r.parks;
        stack_wakes += r.wakes;
        if stack_parks > 0 && stack_wakes > 0 {
            break;
        }
    }
    assert!(stack_parks > 0, "stack: no park recorded in 20 rounds");
    assert!(stack_wakes > 0, "stack: no wake recorded in 20 rounds");

    let mut queue_parks = 0;
    let mut queue_wakes = 0;
    for _ in 0..20 {
        let queue: SecQueue<u64> = SecQueue::with_config(
            SecConfig::new(1, threads)
                .wait_policy(PARK_NOW)
                .freezer_backoff(OPEN_WINDOW_SPINS)
                .freezer_yields(4),
        );
        let registered = Barrier::new(threads);
        thread::scope(|s| {
            for t in 0..threads {
                let (queue, registered) = (&queue, &registered);
                s.spawn(move || {
                    let mut h = queue.register();
                    registered.wait();
                    for i in 0..300 {
                        if (t + i) % 3 < 1 {
                            h.enqueue(i as u64);
                        } else {
                            let _ = h.dequeue();
                        }
                    }
                });
            }
        });
        let r = queue.stats().report();
        queue_parks += r.parks;
        queue_wakes += r.wakes;
        if queue_parks > 0 && queue_wakes > 0 {
            break;
        }
    }
    assert!(queue_parks > 0, "queue: no park recorded in 20 rounds");
    assert!(queue_wakes > 0, "queue: no wake recorded in 20 rounds");
}

#[test]
fn policies_are_configurable_per_structure() {
    // The `SecConfig` route: the stack and the queue take every
    // policy and still round-trip a value.
    for policy in ALL_POLICIES {
        let stack: SecStack<u64> = SecStack::with_config(SecConfig::new(1, 1).wait_policy(policy));
        assert_eq!(stack.config().wait, policy);
        let mut h = stack.register();
        h.push(1);
        assert_eq!(h.pop(), Some(1));
        drop(h);

        let queue: SecQueue<u64> = SecQueue::with_config(SecConfig::new(1, 1).wait_policy(policy));
        assert_eq!(queue.config().wait, policy);
        let mut h = queue.register();
        h.enqueue(2);
        assert_eq!(h.dequeue(), Some(2));
    }
}
