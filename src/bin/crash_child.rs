//! Fault-injection child for the kill-9 crash-recovery harness
//! (`tests/crash_recovery.rs`).
//!
//! Runs a seeded, deterministic workload against a file-backed durable
//! SEC structure and lets the armed fault point (`SEC_CRASH_POINT`,
//! `SEC_CRASH_AFTER` — see `sec_core`'s `fault` module) SIGKILL the
//! process at a precise spot in the combining/logging protocol. The
//! parent test then recovers from the heap file and checks
//! conservation and detectability.
//!
//! Usage:
//!
//! ```text
//! crash_child run <stack|queue|counter|map> <heap-path> <threads> <ops> <seed>
//! crash_child recover <stack|queue|counter|map> <heap-path>
//! ```

use sec_repro::durable::DurablePolicy;
use sec_repro::ext::{SecCounter, SecMap, SecQueue};
use sec_repro::{BatchReport, SecStack};

/// The heap geometry of a run (small: the sweep creates hundreds of
/// heap files). Each shard's 64 records are two halves of 32, so the
/// log rewinds at a checkpoint every few dozen batches and every crash
/// case recovers across checkpoints. A checkpoint must fit in 31
/// records: 64 entries a record hold the op list of anything a
/// `3 × 400`-op run leaves behind. Recovery reads the geometry back
/// out of the header.
fn policy(path: &str) -> DurablePolicy {
    DurablePolicy::file(path)
        .shards(2)
        .record_capacity(64)
        .batch_entries(64)
}

/// SplitMix-style step: deterministic per-thread op streams.
fn next(s: &mut u64) -> u64 {
    *s = s
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let z = *s;
    let z = (z ^ (z >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    z ^ (z >> 33)
}

fn run_stack(path: &str, threads: usize, ops: usize, seed: u64) -> BatchReport {
    let s = SecStack::<u64>::durable(threads, policy(path)).expect("create durable stack");
    std::thread::scope(|scope| {
        for t in 0..threads {
            let s = &s;
            scope.spawn(move || {
                let mut h = s.register();
                let mut rng = seed ^ (t as u64).wrapping_mul(0x9E37_79B9);
                for i in 0..ops {
                    if next(&mut rng) % 4 == 3 {
                        h.pop();
                    } else {
                        h.push(((t as u64) << 32) | i as u64);
                    }
                }
            });
        }
    });
    s.stats().report()
}

fn run_queue(path: &str, threads: usize, ops: usize, seed: u64) -> BatchReport {
    let q = SecQueue::<u64>::durable(threads, policy(path)).expect("create durable queue");
    std::thread::scope(|scope| {
        for t in 0..threads {
            let q = &q;
            scope.spawn(move || {
                let mut h = q.register();
                let mut rng = seed ^ (t as u64).wrapping_mul(0x9E37_79B9);
                for i in 0..ops {
                    if next(&mut rng) % 4 == 3 {
                        h.dequeue();
                    } else {
                        h.enqueue(((t as u64) << 32) | i as u64);
                    }
                }
            });
        }
    });
    q.stats().report()
}

fn run_counter(path: &str, threads: usize, ops: usize, seed: u64) -> BatchReport {
    let c = SecCounter::durable(threads, policy(path)).expect("create durable counter");
    std::thread::scope(|scope| {
        for t in 0..threads {
            let c = &c;
            scope.spawn(move || {
                let mut h = c.register();
                let mut rng = seed ^ (t as u64).wrapping_mul(0x9E37_79B9);
                for _ in 0..ops {
                    h.fetch_add(next(&mut rng) % 1000);
                }
            });
        }
    });
    c.stats().report()
}

fn run_map(path: &str, threads: usize, ops: usize, seed: u64) -> BatchReport {
    let m = SecMap::<u64, u64>::durable(threads, policy(path)).expect("create durable map");
    std::thread::scope(|scope| {
        for t in 0..threads {
            let m = &m;
            scope.spawn(move || {
                let mut h = m.register();
                let mut rng = seed ^ (t as u64).wrapping_mul(0x9E37_79B9);
                for i in 0..ops {
                    // A small shared key space so inserts, removes and
                    // gets genuinely collide across threads.
                    let key = next(&mut rng) % 64;
                    match i % 4 {
                        0 | 1 => {
                            h.insert(key, ((t as u64) << 32) | i as u64);
                        }
                        2 => {
                            h.get(&key);
                        }
                        _ => {
                            h.remove(&key);
                        }
                    }
                }
            });
        }
    });
    m.stats().report()
}

fn recover(family: &str, path: &str) {
    let n = match family {
        "stack" => {
            let (_s, r) = SecStack::<u64>::recover(DurablePolicy::file(path)).expect("recover");
            r.replayed_ops()
        }
        "queue" => {
            let (_q, r) = SecQueue::<u64>::recover(DurablePolicy::file(path)).expect("recover");
            r.replayed_ops()
        }
        "counter" => {
            let (_c, r) = SecCounter::recover(DurablePolicy::file(path)).expect("recover");
            r.replayed_ops()
        }
        "map" => {
            let (_m, r) = SecMap::<u64, u64>::recover(DurablePolicy::file(path)).expect("recover");
            r.replayed_ops()
        }
        other => panic!("unknown family {other}"),
    };
    println!("RECOVERED {n}");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("run") => {
            let family = &args[2];
            let path = &args[3];
            let threads: usize = args[4].parse().expect("threads");
            let ops: usize = args[5].parse().expect("ops");
            let seed: u64 = args[6].parse().expect("seed");
            let report = match family.as_str() {
                "stack" => run_stack(path, threads, ops, seed),
                "queue" => run_queue(path, threads, ops, seed),
                "counter" => run_counter(path, threads, ops, seed),
                "map" => run_map(path, threads, ops, seed),
                other => panic!("unknown family {other}"),
            };
            // Reaching here means the armed fault point never fired
            // (or none was armed): the workload ran to completion. A
            // lone thread always finds the apply lock free, so each of
            // its ops took the lone route.
            if threads == 1 {
                assert_eq!(
                    (report.alone, report.ops),
                    (ops as u64, ops as u64),
                    "a lone thread's durable ops all go alone"
                );
            }
            println!("DONE");
        }
        Some("recover") => recover(&args[2], &args[3]),
        _ => {
            eprintln!(
                "usage: crash_child run <family> <path> <threads> <ops> <seed> | \
                 crash_child recover <family> <path>"
            );
            std::process::exit(2);
        }
    }
}
