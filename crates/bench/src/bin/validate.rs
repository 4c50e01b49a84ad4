//! Artifact-style validation entry point: quick correctness checks for
//! every stack, queue, counter and map implementation, printed as a
//! PASS/FAIL report. Runs in seconds; the full evidence is
//! `cargo test --workspace`.
//!
//! ```text
//! cargo run -p sec-bench --release --bin validate
//! ```

use sec_core::{
    ConcurrentMap, ConcurrentQueue, ConcurrentStack, MapHandle, QueueHandle, SecCounter, SecQueue,
    StackHandle,
};
use sec_workload::{SecReadout, Visitor, CHECKED_LINEUP};
use std::collections::HashSet;
use std::thread;

/// LIFO check, single thread.
fn check_lifo<S: ConcurrentStack<u64>>(stack: &S) -> Result<(), String> {
    let mut h = stack.register();
    for i in 0..1_000 {
        h.push(i);
    }
    for i in (0..1_000).rev() {
        let got = h.pop();
        if got != Some(i) {
            return Err(format!("expected Some({i}), got {got:?}"));
        }
    }
    if h.pop().is_some() {
        return Err("stack not empty after drain".into());
    }
    Ok(())
}

/// Conservation check, concurrent.
fn check_conservation<S: ConcurrentStack<u64>>(stack: &S, threads: usize) -> Result<(), String> {
    const PER: usize = 2_000;
    let popped: Vec<Vec<u64>> = thread::scope(|scope| {
        (0..threads)
            .map(|t| {
                let stack = &stack;
                scope.spawn(move || {
                    let mut h = stack.register();
                    let mut got = Vec::new();
                    for i in 0..PER {
                        h.push((t * PER + i) as u64);
                        if i % 2 == 0 {
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
    let mut seen = HashSet::new();
    for v in popped.into_iter().flatten() {
        if !seen.insert(v) {
            return Err(format!("value {v} popped twice"));
        }
    }
    let mut h = stack.register();
    while let Some(v) = h.pop() {
        if !seen.insert(v) {
            return Err(format!("value {v} popped twice in drain"));
        }
    }
    if seen.len() != threads * PER {
        return Err(format!(
            "lost values: {} of {} accounted",
            seen.len(),
            threads * PER
        ));
    }
    Ok(())
}

/// FIFO check, single thread.
fn check_fifo<Q: ConcurrentQueue<u64>>(queue: &Q) -> Result<(), String> {
    let mut h = queue.register();
    for i in 0..1_000 {
        h.enqueue(i);
    }
    for i in 0..1_000 {
        let got = h.dequeue();
        if got != Some(i) {
            return Err(format!("expected Some({i}), got {got:?}"));
        }
    }
    if h.dequeue().is_some() {
        return Err("queue not empty after drain".into());
    }
    Ok(())
}

/// Queue conservation check, concurrent.
fn check_queue_conservation<Q: ConcurrentQueue<u64>>(
    queue: &Q,
    threads: usize,
) -> Result<(), String> {
    const PER: usize = 2_000;
    let dequeued: Vec<Vec<u64>> = thread::scope(|scope| {
        (0..threads)
            .map(|t| {
                let queue = &queue;
                scope.spawn(move || {
                    let mut h = queue.register();
                    let mut got = Vec::new();
                    for i in 0..PER {
                        h.enqueue((t * PER + i) as u64);
                        if i % 2 == 0 {
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
    let mut seen = HashSet::new();
    for v in dequeued.into_iter().flatten() {
        if !seen.insert(v) {
            return Err(format!("value {v} dequeued twice"));
        }
    }
    let mut h = queue.register();
    while let Some(v) = h.dequeue() {
        if !seen.insert(v) {
            return Err(format!("value {v} dequeued twice in drain"));
        }
    }
    if seen.len() != threads * PER {
        return Err(format!(
            "lost values: {} of {} accounted",
            seen.len(),
            threads * PER
        ));
    }
    Ok(())
}

/// Counter check, single thread: fetch_add returns running prefix sums.
fn check_counter_sequential(counter: &SecCounter) -> Result<(), String> {
    let mut h = counter.register();
    let mut expected = 0u64;
    for i in 0..1_000u64 {
        let prev = h.fetch_add(i);
        if prev != expected {
            return Err(format!("expected prefix {expected}, got {prev}"));
        }
        expected += i;
    }
    if h.load() != expected {
        return Err(format!("expected total {expected}, got {}", h.load()));
    }
    Ok(())
}

/// Counter conservation check, concurrent: every fetch_add return value
/// is a distinct batch offset, and the final value is the total added.
fn check_counter_conservation(counter: &SecCounter, threads: usize) -> Result<(), String> {
    const PER: u64 = 2_000;
    let sums: Vec<u64> = thread::scope(|scope| {
        (0..threads)
            .map(|t| {
                let counter = &counter;
                scope.spawn(move || {
                    let mut h = counter.register();
                    let mut added = 0u64;
                    for i in 0..PER {
                        let delta = (t as u64) + i % 7 + 1;
                        let _ = h.fetch_add(delta);
                        added += delta;
                    }
                    added
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|j| j.join().unwrap())
            .collect()
    });
    let expected: u64 = sums.iter().sum();
    if counter.load() != expected {
        return Err(format!(
            "lost adds: workers added {expected}, counter reads {}",
            counter.load()
        ));
    }
    Ok(())
}

/// Map check, single thread: insert/get/remove round-trip on every key.
fn check_map_sequential<M: ConcurrentMap<u64, u64>>(map: &M) -> Result<(), String> {
    let mut h = map.register();
    for k in 0..1_000 {
        if let Some(v) = h.insert(k, k * 10) {
            return Err(format!("fresh insert of {k} displaced {v}"));
        }
    }
    for k in 0..1_000 {
        if h.get(&k) != Some(k * 10) {
            return Err(format!("get({k}) lost the inserted value"));
        }
    }
    for k in 0..1_000 {
        if h.remove(&k) != Some(k * 10) {
            return Err(format!("remove({k}) lost the inserted value"));
        }
        if h.get(&k).is_some() {
            return Err(format!("get({k}) observed a removed key"));
        }
    }
    Ok(())
}

/// Map conservation check, concurrent: workers insert tagged values on
/// a shared key range; inserts must balance displacements + removals +
/// the drained remainder, with no value seen twice.
fn check_map_conservation<M: ConcurrentMap<u64, u64>>(
    map: &M,
    threads: usize,
) -> Result<(), String> {
    const PER: usize = 2_000;
    const KEYS: u64 = 256;
    let outs: Vec<Vec<u64>> = thread::scope(|scope| {
        (0..threads)
            .map(|t| {
                let map = &map;
                scope.spawn(move || {
                    let mut h = map.register();
                    // Values a worker saw *leave* the map (displaced or
                    // removed); each inserted value must exit exactly once.
                    let mut out = Vec::new();
                    for i in 0..PER {
                        let key = ((t * PER + i) as u64 * 0x9E37_79B9) % KEYS;
                        let v = ((t as u64) << 40) | i as u64;
                        if let Some(prev) = h.insert(key, v) {
                            out.push(prev);
                        }
                        if i % 2 == 0 {
                            if let Some(removed) = h.remove(&((key + 1) % KEYS)) {
                                out.push(removed);
                            }
                        }
                    }
                    out
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|j| j.join().unwrap())
            .collect()
    });
    let mut seen = HashSet::new();
    for v in outs.into_iter().flatten() {
        if !seen.insert(v) {
            return Err(format!("value {v:#x} left the map twice"));
        }
    }
    let mut h = map.register();
    for key in 0..KEYS {
        if let Some(v) = h.remove(&key) {
            if !seen.insert(v) {
                return Err(format!("value {v:#x} left the map twice in drain"));
            }
        }
    }
    if seen.len() != threads * PER {
        return Err(format!(
            "lost values: {} of {} accounted",
            seen.len(),
            threads * PER
        ));
    }
    Ok(())
}

fn report(name: &str, what: &str, r: Result<(), String>, failures: &mut u32) {
    match r {
        Ok(()) => println!("  PASS  {name:<10} {what}"),
        Err(e) => {
            println!("  FAIL  {name:<10} {what}: {e}");
            *failures += 1;
        }
    }
}

/// One half of a structure's validation, as a registry visit: the
/// single-threaded semantics check, or the concurrent conservation
/// check. Each half gets a fresh instance.
#[derive(Clone, Copy)]
struct Validate {
    concurrent: bool,
}

/// The checks a visit ran: `(what, outcome)` pairs.
type Checks = Vec<(&'static str, Result<(), String>)>;

/// The concurrent half's conservation outcome, followed for a SEC
/// family by its batch accounting identity; `homogeneous` families
/// (every kind but the stack) never eliminate, so every operation must
/// be combined.
fn conserved(
    conservation: Result<(), String>,
    sec: Option<&dyn SecReadout>,
    homogeneous: bool,
) -> Checks {
    let mut checks = vec![("concurrent conservation", conservation)];
    if let Some(sec) = sec {
        let r = sec.report();
        let holds = r.eliminated + r.combined == r.ops && !(homogeneous && r.eliminated > 0);
        let identity = if holds { Ok(()) } else { Err(format!("{r:?}")) };
        checks.push(("batch accounting identity", identity));
    }
    checks
}

impl Visitor for Validate {
    type Out = Checks;
    fn stack<S: ConcurrentStack<u64>>(self, s: &S, sec: Option<&dyn SecReadout>) -> Checks {
        match self.concurrent {
            false => vec![("sequential LIFO", check_lifo(s))],
            true => conserved(check_conservation(s, THREADS), sec, false),
        }
    }
    fn queue<Q: ConcurrentQueue<u64>>(self, q: &Q, sec: Option<&dyn SecReadout>) -> Checks {
        match self.concurrent {
            false => vec![("sequential FIFO", check_fifo(q))],
            true => conserved(check_queue_conservation(q, THREADS), sec, true),
        }
    }
    fn counter(self, c: &SecCounter, sec: Option<&dyn SecReadout>) -> Checks {
        match self.concurrent {
            false => vec![("sequential prefix sums", check_counter_sequential(c))],
            true => conserved(check_counter_conservation(c, THREADS), sec, true),
        }
    }
    fn map<M: ConcurrentMap<u64, u64>>(self, m: &M, sec: Option<&dyn SecReadout>) -> Checks {
        match self.concurrent {
            false => vec![("sequential round-trip", check_map_sequential(m))],
            true => conserved(check_map_conservation(m, THREADS), sec, true),
        }
    }
}

const THREADS: usize = 8;

fn main() {
    let mut failures = 0u32;
    println!("validating every stack, queue, counter and map ({THREADS} threads)...");
    for algo in CHECKED_LINEUP {
        for concurrent in [false, true] {
            let visit = Validate { concurrent };
            for (what, r) in algo.build(THREADS + 1, |c| c, None, visit) {
                report(&algo.label(), what, r, &mut failures);
            }
        }
    }
    // The queue's empty-queue rendezvous window is a queue setting, not
    // a `SecConfig` one, so its disabled variant is built here.
    for concurrent in [false, true] {
        let q = SecQueue::<u64>::new(THREADS + 1).rendezvous_spins(0);
        for (what, r) in (Validate { concurrent }).queue(&q, Some(&q)) {
            report("SEC-Q0", what, r, &mut failures);
        }
    }

    // sec-trace overhead gate (DESIGN.md §14). Two claims guard the
    // "zero hot-path cost" budget:
    //
    //  * disabled-vs-seed is structural — without the `trace` cargo
    //    feature the engine's `tracer()` accessor is a constant `None`
    //    and the optimizer erases every hook, so the binary is the
    //    seed binary; no measurement can distinguish them.
    //  * what *can* regress is the measurable configuration axis, so
    //    that is what this gate measures within one build: throughput
    //    with `TraceConfig::off()` vs `TraceConfig::on()` (sampled 1
    //    in 256), interleaved pairs so environmental drift biases both
    //    arms equally, medians compared. Without the feature both arms
    //    compile to the same path, so the ratio proves the runtime
    //    knob costs nothing in the shipped (untraced) build — that is
    //    the 2% budget of the "zero hot-path cost" claim. With the
    //    feature, the ratio is the real cost of *enabled* sampled
    //    tracing — per-batch events always fire, so on an
    //    oversubscribed host it is a different, looser budget (15%).
    //
    // Short runs on a shared host are noisy, so the gate retries up to
    // three times before declaring a regression.
    {
        use sec_core::{SecConfig, TraceConfig};
        use sec_workload::{run_algo, Algo, Mix, RunConfig};
        use std::time::Duration;

        fn median(mut v: Vec<f64>) -> f64 {
            v.sort_by(|a, b| a.total_cmp(b));
            v[v.len() / 2]
        }

        let base = RunConfig {
            duration: Duration::from_millis(100),
            prefill: 1000,
            ..RunConfig::new(4.min(THREADS), Mix::UPDATE_100)
        };
        let measure = |sec: fn(SecConfig) -> SecConfig, seed: u64| {
            let cfg = RunConfig { sec, seed, ..base };
            run_algo(Algo::Sec { aggregators: 2 }, &cfg).result.mops()
        };
        let (floor, budget_pct, arm) = if cfg!(feature = "trace") {
            (0.85, 15.0, "enabled sampled tracing")
        } else {
            (0.98, 2.0, "the disabled runtime knob")
        };
        let mut ratio = 0.0;
        for attempt in 0u64..3 {
            let mut off = Vec::with_capacity(5);
            let mut on = Vec::with_capacity(5);
            for r in 0u64..5 {
                let seed = 0x7ACE ^ (attempt << 8) ^ r;
                off.push(measure(|c| c.trace(TraceConfig::off()), seed));
                on.push(measure(
                    |c| c.trace(TraceConfig::on().sample_shift(8)),
                    seed,
                ));
            }
            ratio = median(on) / median(off);
            if ratio >= floor {
                break;
            }
        }
        report(
            "SEC",
            &format!("sec-trace overhead gate (on/off throughput ratio {ratio:.3})"),
            if ratio >= floor {
                Ok(())
            } else {
                Err(format!(
                    "{arm} lost {:.1}% throughput (budget: {budget_pct}%)",
                    100.0 * (1.0 - ratio)
                ))
            },
            &mut failures,
        );
    }

    if failures == 0 {
        println!("all validations passed");
    } else {
        println!("{failures} validation(s) FAILED");
        std::process::exit(1);
    }
}
