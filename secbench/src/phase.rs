//! The timed phase every workload shares. Workers register first; then
//! all of them start together, and the main thread — blocked, so it
//! costs no CPU — brackets the phase with one wall clock and the
//! process CPU clock.

use crate::host;
use std::sync::Barrier;
use std::thread;
use std::time::Instant;

/// What a worker synchronizes on, and the one clock epoch all threads
/// timestamp against (taken before any worker is spawned, so no thread
/// can read a clock that lags another's).
pub struct Gate {
    epoch: Instant,
    ready: Barrier,
    go: Barrier,
    done: Barrier,
}

impl Gate {
    /// Called by a worker once registered; returns when the phase
    /// starts.
    pub fn start(&self) {
        self.ready.wait();
        self.go.wait();
    }

    /// Called by a worker when its share of the work is done.
    pub fn finish(&self) {
        self.done.wait();
    }

    /// Nanoseconds since the shared epoch.
    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

pub struct Phase<S> {
    pub states: Vec<S>,
    pub wall_ns: u64,
    pub cpu_ns: u64,
}

/// Runs `worker(tid, state, gate)` on one thread per state and times
/// the span between their `start` and their last `finish`. The states
/// come back for the caller to read and to reuse in the next round, so
/// no round allocates the benchmark's own buffers anew.
pub fn run<S: Send>(states: Vec<S>, worker: impl Fn(usize, &mut S, &Gate) + Sync) -> Phase<S> {
    let threads = states.len();
    let gate = Gate {
        epoch: Instant::now(),
        ready: Barrier::new(threads + 1),
        go: Barrier::new(threads + 1),
        done: Barrier::new(threads + 1),
    };
    thread::scope(|s| {
        let handles: Vec<_> = states
            .into_iter()
            .enumerate()
            .map(|(tid, mut state)| {
                let (gate, worker) = (&gate, &worker);
                s.spawn(move || {
                    worker(tid, &mut state, gate);
                    state
                })
            })
            .collect();
        gate.ready.wait();
        let cpu0 = host::cpu_ns();
        let t0 = Instant::now();
        gate.go.wait();
        gate.done.wait();
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let cpu_ns = host::cpu_ns() - cpu0;
        let states = handles
            .into_iter()
            .map(|h| h.join().expect("benchmark worker panicked"))
            .collect();
        Phase {
            states,
            wall_ns,
            cpu_ns,
        }
    })
}

/// Copies every worker's samples of one kind into `merged` (cleared
/// first, its capacity reused) and returns them.
pub fn merged<'a, W>(
    merged: &'a mut Vec<u64>,
    workers: &[W],
    f: impl Fn(&W) -> &Vec<u64>,
) -> &'a mut [u64] {
    merged.clear();
    for w in workers {
        merged.extend_from_slice(f(w));
    }
    merged
}

/// Nanoseconds since `t`.
pub fn since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}
