//! Soak test: hours-long randomized stress with conservation checking.
//!
//! `validate` answers "is it correct right now" in seconds; this binary
//! answers "does it stay correct under sustained random load" — the
//! test an adopter runs overnight before trusting a concurrent data
//! structure. Every worker tags its pushes (`tid << 40 | counter`) and
//! tallies what it pushed and popped; at the end the stack is drained
//! and three invariants are checked per algorithm:
//!
//! 1. **count conservation** — pushes = pops + drained remainder,
//! 2. **sum conservation** — the tag sums balance the same way (catches
//!    duplication that count alone can miss),
//! 3. **no phantoms** — every drained tag decodes to a valid worker.
//!
//! ```text
//! cargo run -p sec-bench --release --bin soak -- --duration-ms 60000
//! ```

use sec_bench::BenchOpts;
use sec_core::{
    ConcurrentMap, ConcurrentQueue, ConcurrentStack, QueueHandle, SecCounter, StackHandle,
};
use sec_workload::{drive, Budget, SecReadout, Visitor, CHECKED_LINEUP};

/// Per-worker tally, combined after the run.
#[derive(Default, Clone, Copy)]
struct Tally {
    pushes: u64,
    push_sum: u128,
    pops: u64,
    pop_sum: u128,
}

/// A worker's xorshift step: cheap randomness, seeded per worker so the
/// value tags below can encode the worker.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn soak_one<S: ConcurrentStack<u64>>(
    stack: &S,
    threads: usize,
    opts: &BenchOpts,
) -> Result<(), String> {
    let (tallies, _) = drive(threads, Budget::Time(opts.duration), |t, start| {
        let mut h = stack.register();
        let mut tally = Tally::default();
        let mut x = (t as u64 + 1) | 1;
        let mut counter = 0u64;
        start.run(|| {
            if xorshift(&mut x) % 100 < 55 {
                // Slight push bias keeps the stack populated.
                let v = ((t as u64) << 40) | counter;
                counter += 1;
                h.push(v);
                tally.pushes += 1;
                tally.push_sum += v as u128;
            } else if let Some(v) = h.pop() {
                tally.pops += 1;
                tally.pop_sum += v as u128;
            }
        });
        tally
    });

    let mut total = Tally::default();
    for t in &tallies {
        total.pushes += t.pushes;
        total.push_sum += t.push_sum;
        total.pops += t.pops;
        total.pop_sum += t.pop_sum;
    }

    // Drain and fold the remainder into the pop side.
    let mut h = stack.register();
    let mut drained = 0u64;
    while let Some(v) = h.pop() {
        drained += 1;
        total.pops += 1;
        total.pop_sum += v as u128;
        let tid = (v >> 40) as usize;
        if tid >= threads {
            return Err(format!("phantom value {v:#x}: no worker {tid}"));
        }
    }

    if total.pushes != total.pops {
        return Err(format!(
            "count conservation violated: {} pushed, {} popped (incl. {} drained)",
            total.pushes, total.pops, drained
        ));
    }
    if total.push_sum != total.pop_sum {
        return Err(format!(
            "sum conservation violated: pushed {} vs popped {}",
            total.push_sum, total.pop_sum
        ));
    }
    println!(
        "    {:>9} ops conserved ({} drained at shutdown)",
        total.pushes + total.pops,
        drained
    );
    Ok(())
}

/// The queue-family soak: identical invariants, FIFO handles.
fn soak_queue_one<Q: ConcurrentQueue<u64>>(
    queue: &Q,
    threads: usize,
    opts: &BenchOpts,
) -> Result<(), String> {
    let (tallies, _) = drive(threads, Budget::Time(opts.duration), |t, start| {
        let mut h = queue.register();
        let mut tally = Tally::default();
        let mut x = (t as u64 + 1) | 1;
        let mut counter = 0u64;
        start.run(|| {
            if xorshift(&mut x) % 100 < 55 {
                let v = ((t as u64) << 40) | counter;
                counter += 1;
                h.enqueue(v);
                tally.pushes += 1;
                tally.push_sum += v as u128;
            } else if let Some(v) = h.dequeue() {
                tally.pops += 1;
                tally.pop_sum += v as u128;
            }
        });
        tally
    });

    let mut total = Tally::default();
    for t in &tallies {
        total.pushes += t.pushes;
        total.push_sum += t.push_sum;
        total.pops += t.pops;
        total.pop_sum += t.pop_sum;
    }

    let mut h = queue.register();
    let mut drained = 0u64;
    while let Some(v) = h.dequeue() {
        drained += 1;
        total.pops += 1;
        total.pop_sum += v as u128;
        let tid = (v >> 40) as usize;
        if tid >= threads {
            return Err(format!("phantom value {v:#x}: no worker {tid}"));
        }
    }

    if total.pushes != total.pops {
        return Err(format!(
            "count conservation violated: {} enqueued, {} dequeued (incl. {} drained)",
            total.pushes, total.pops, drained
        ));
    }
    if total.push_sum != total.pop_sum {
        return Err(format!(
            "sum conservation violated: enqueued {} vs dequeued {}",
            total.push_sum, total.pop_sum
        ));
    }
    println!(
        "    {:>9} ops conserved ({} drained at shutdown)",
        total.pushes + total.pops,
        drained
    );
    Ok(())
}

/// The counter-family soak: every worker tallies the deltas it added;
/// at the end the counter's value must equal the grand total (no lost
/// or duplicated batch slots).
fn soak_counter_one(counter: &SecCounter, threads: usize, opts: &BenchOpts) -> Result<(), String> {
    let (sums, _) = drive(threads, Budget::Time(opts.duration), |t, start| {
        let mut h = counter.register();
        let mut added = 0u128;
        let mut x = (t as u64 + 1) | 1;
        start.run(|| {
            let x = xorshift(&mut x);
            if x % 100 < 80 {
                let delta = x % 1_000;
                let _ = h.fetch_add(delta);
                added += delta as u128;
            } else {
                let _ = h.load();
            }
        });
        added
    });

    let expected: u128 = sums.iter().sum();
    let got = counter.load() as u128;
    if got != expected {
        return Err(format!(
            "sum conservation violated: workers added {expected}, counter reads {got}"
        ));
    }
    println!("    {:>9} summed into the counter, conserved", expected);
    Ok(())
}

/// The map-family soak: every worker tallies what it inserted and what
/// each operation *returned* (displaced previous values, removed
/// values); draining the map at the end must balance the books —
/// inserts = displacements + removals + drained remainder, by count and
/// by value sum, and every drained value decodes to a valid worker.
fn soak_map_one<M: ConcurrentMap<u64, u64>>(
    map: &M,
    threads: usize,
    opts: &BenchOpts,
) -> Result<(), String> {
    use sec_core::MapHandle;

    const KEYS: u64 = 512;

    /// Per-worker map tally.
    #[derive(Default, Clone, Copy)]
    struct MapTally {
        inserted: u64,
        inserted_sum: u128,
        displaced: u64,
        displaced_sum: u128,
        removed: u64,
        removed_sum: u128,
    }

    let (tallies, _) = drive(threads, Budget::Time(opts.duration), |t, start| {
        let mut h = map.register();
        let mut tally = MapTally::default();
        let mut x = (t as u64 + 1) | 1;
        let mut counter = 0u64;
        start.run(|| {
            let x = xorshift(&mut x);
            let key = x % KEYS;
            if x % 100 < 40 {
                let v = ((t as u64) << 40) | counter;
                counter += 1;
                tally.inserted += 1;
                tally.inserted_sum += v as u128;
                if let Some(prev) = h.insert(key, v) {
                    tally.displaced += 1;
                    tally.displaced_sum += prev as u128;
                }
            } else if x % 100 < 80 {
                if let Some(v) = h.remove(&key) {
                    tally.removed += 1;
                    tally.removed_sum += v as u128;
                }
            } else {
                let _ = h.get(&key);
            }
        });
        tally
    });

    let mut total = MapTally::default();
    for t in &tallies {
        total.inserted += t.inserted;
        total.inserted_sum += t.inserted_sum;
        total.displaced += t.displaced;
        total.displaced_sum += t.displaced_sum;
        total.removed += t.removed;
        total.removed_sum += t.removed_sum;
    }

    // Drain the survivors key by key and fold them into the out side.
    let mut h = map.register();
    let mut drained = 0u64;
    let mut drained_sum = 0u128;
    for key in 0..KEYS {
        if let Some(v) = h.remove(&key) {
            drained += 1;
            drained_sum += v as u128;
            let tid = (v >> 40) as usize;
            if tid >= threads {
                return Err(format!("phantom value {v:#x}: no worker {tid}"));
            }
        }
    }

    if total.inserted != total.displaced + total.removed + drained {
        return Err(format!(
            "count conservation violated: {} inserted vs {} displaced + {} removed + {} drained",
            total.inserted, total.displaced, total.removed, drained
        ));
    }
    if total.inserted_sum != total.displaced_sum + total.removed_sum + drained_sum {
        return Err(format!(
            "sum conservation violated: inserted {} vs displaced {} + removed {} + drained {}",
            total.inserted_sum, total.displaced_sum, total.removed_sum, drained_sum
        ));
    }
    println!(
        "    {:>9} ops conserved ({} drained at shutdown)",
        total.inserted + total.removed,
        drained
    );
    Ok(())
}

fn main() {
    let opts = BenchOpts::from_args();
    let threads = *opts.sweep().last().unwrap_or(&4);
    println!(
        "{}",
        opts.banner("Soak: sustained random load + conservation")
    );
    println!("# {threads} threads, {:?} per algorithm\n", opts.duration);

    let mut failures = 0u32;
    for algo in CHECKED_LINEUP {
        println!("  soaking {algo} ...");
        let soak = Soak {
            threads,
            opts: &opts,
        };
        if let Err(e) = algo.build(threads + 1, |c| c, None, soak) {
            println!("    FAIL: {e}");
            failures += 1;
        }
    }
    if failures == 0 {
        println!("\nall algorithms conserved under soak");
    } else {
        println!("\n{failures} algorithm(s) FAILED the soak");
        std::process::exit(1);
    }
}

/// The registry visit that soaks whatever structure `algo` builds.
struct Soak<'a> {
    threads: usize,
    opts: &'a BenchOpts,
}

impl Visitor for Soak<'_> {
    type Out = Result<(), String>;
    fn stack<S: ConcurrentStack<u64>>(self, s: &S, _: Option<&dyn SecReadout>) -> Self::Out {
        soak_one(s, self.threads, self.opts)
    }
    fn queue<Q: ConcurrentQueue<u64>>(self, q: &Q, _: Option<&dyn SecReadout>) -> Self::Out {
        soak_queue_one(q, self.threads, self.opts)
    }
    fn counter(self, c: &SecCounter, _: Option<&dyn SecReadout>) -> Self::Out {
        soak_counter_one(c, self.threads, self.opts)
    }
    fn map<M: ConcurrentMap<u64, u64>>(self, m: &M, _: Option<&dyn SecReadout>) -> Self::Out {
        soak_map_one(m, self.threads, self.opts)
    }
}
