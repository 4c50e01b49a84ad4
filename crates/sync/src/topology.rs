//! Host-topology discovery for the benchmark harness.
//!
//! The paper's evaluation sweeps thread counts up to (and past) the
//! hardware-thread count of each machine and marks the oversubscription
//! point. This module answers "how many hardware threads does this host
//! have" and produces the paper-style sweep of thread counts, so the
//! same harness runs on a 1-core CI container and a 192-thread Sapphire
//! Rapids box. [`line_round_trip_ns`] prices the unit that multi-thread
//! costs are made of: one cache line moving to another core and back.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::thread;
use std::time::{Duration, Instant};

use crate::CachePadded;

/// Number of hardware threads available to this process, asked of the
/// OS once and cached for the process (as [`smt_width`] is).
///
/// The first call is not cheap: on Linux `available_parallelism` reads
/// the cgroup CPU quota files, tens of microseconds. Config defaults,
/// bench banners and the SEC freezer's oversubscription test call this
/// repeatedly, so every later call is one load. Falls back to 1 when
/// the OS refuses to answer.
pub fn hardware_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Number of hardware threads sharing one physical core (the SMT
/// width), discovered from sysfs on Linux and cached for the process.
///
/// SMT siblings share L1/L2, so an elimination partner on the sibling
/// hyperthread is the cheapest partner there is — the topology-aware
/// shard mapping keeps siblings on the same aggregator. Falls back to 1
/// (every hardware thread its own neighbourhood) when the OS exposes no
/// topology, which degrades the mapping to plain block sharding.
pub fn smt_width() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| {
        discover_smt_width()
            .unwrap_or(1)
            .clamp(1, hardware_threads())
    })
}

fn discover_smt_width() -> Option<usize> {
    let s = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/topology/thread_siblings_list")
        .ok()?;
    parse_cpu_list(s.trim())
}

/// What one cache-line round trip between two threads costs on this
/// host, in ns: the median over a few short runs of two threads
/// bouncing one padded `AtomicU64`, after a ~20 ms warm-up. The
/// warm-up matters: a cold process's first runs read several times
/// slower, and two fresh threads can share one core until the
/// scheduler spreads them.
///
/// A multi-thread op's cost divided by this is its cost in line
/// transfers, a unit that compares across hosts. Takes ~30 ms on a
/// multicore host; where both threads share one core every hand-over
/// is a yield, so it reads the context-switch cost instead.
pub fn line_round_trip_ns() -> f64 {
    const WARM_UP: Duration = Duration::from_millis(20);
    const TRIPS: u64 = 10_000;
    const RUNS: usize = 5;
    // Odd, so the responder takes it for a request, and never reached.
    const STOP: u64 = u64::MAX;
    let line = CachePadded::new(AtomicU64::new(0));
    let mut runs = thread::scope(|s| {
        // The responder turns every odd value into the next even one.
        s.spawn(|| loop {
            let v = await_line(&line, |v| v % 2 == 1);
            if v == STOP {
                break;
            }
            line.store(v + 1, Ordering::Release);
        });
        let mut next = 0;
        let t0 = Instant::now();
        while t0.elapsed() < WARM_UP {
            bounce(&line, &mut next, TRIPS / 10);
        }
        let mut runs = [0.0; RUNS];
        for run in &mut runs {
            let t0 = Instant::now();
            bounce(&line, &mut next, TRIPS);
            *run = t0.elapsed().as_nanos() as f64 / TRIPS as f64;
        }
        line.store(STOP, Ordering::Release);
        runs
    });
    runs.sort_by(f64::total_cmp);
    runs[RUNS / 2]
}

/// `trips` round trips of [`line_round_trip_ns`]'s requester: publish
/// the next odd value, wait for the responder's even answer.
fn bounce(line: &AtomicU64, next: &mut u64, trips: u64) {
    for _ in 0..trips {
        line.store(*next + 1, Ordering::Release);
        *next += 2;
        await_line(line, |v| v == *next);
    }
}

/// Spins until `line` holds a value `done` accepts and returns it,
/// yielding now and then so the probe also finishes on one core.
fn await_line(line: &AtomicU64, done: impl Fn(u64) -> bool) -> u64 {
    let mut spins = 0u32;
    loop {
        let v = line.load(Ordering::Acquire);
        if done(v) {
            return v;
        }
        spins += 1;
        if spins.is_multiple_of(128) {
            thread::yield_now();
        } else {
            core::hint::spin_loop();
        }
    }
}

/// Parses a sysfs CPU list (`"0-1"`, `"0,64"`, `"0-3,8-11"`) into the
/// number of CPUs it names; `None` on malformed input.
///
/// # Examples
///
/// ```
/// use sec_sync::topology::parse_cpu_list;
/// assert_eq!(parse_cpu_list("0-1"), Some(2));
/// assert_eq!(parse_cpu_list("0,64"), Some(2));
/// assert_eq!(parse_cpu_list("0-3,8-11"), Some(8));
/// assert_eq!(parse_cpu_list("junk"), None);
/// ```
pub fn parse_cpu_list(s: &str) -> Option<usize> {
    let mut n = 0usize;
    for part in s.split(',') {
        let part = part.trim();
        if let Some((a, b)) = part.split_once('-') {
            let a: usize = a.trim().parse().ok()?;
            let b: usize = b.trim().parse().ok()?;
            if b < a {
                return None;
            }
            n += b - a + 1;
        } else {
            part.parse::<usize>().ok()?;
            n += 1;
        }
    }
    if n == 0 {
        None
    } else {
        Some(n)
    }
}

/// Number of `width`-sized hardware-thread neighbourhoods needed to
/// cover `threads` threads (at least 1; the last neighbourhood may be
/// partial).
pub fn neighbourhoods(threads: usize, width: usize) -> usize {
    threads.max(1).div_ceil(width.max(1))
}

/// Builds the thread-count sweep used by every figure: powers-of-two-ish
/// steps from 1 up to `oversubscribe_factor` × the hardware threads,
/// always including the hardware-thread count itself (the paper's
/// oversubscription mark) and `max_cap` as an upper bound.
///
/// # Examples
///
/// ```
/// use sec_sync::topology::thread_sweep;
/// let s = thread_sweep(8, 2, 64);
/// assert_eq!(s, vec![1, 2, 4, 8, 16]);
/// assert!(s.windows(2).all(|w| w[0] < w[1]));
/// ```
pub fn thread_sweep(hw_threads: usize, oversubscribe_factor: usize, max_cap: usize) -> Vec<usize> {
    let hw = hw_threads.max(1);
    let limit = (hw * oversubscribe_factor.max(1)).min(max_cap.max(1));
    let mut sweep = Vec::new();
    let mut n = 1;
    while n < limit {
        sweep.push(n);
        n *= 2;
    }
    sweep.push(limit);
    if !sweep.contains(&hw) && hw < limit {
        sweep.push(hw);
        sweep.sort_unstable();
    }
    sweep.dedup();
    sweep
}

/// The default sweep for this host: up to 2× oversubscription, capped at
/// 64 logical threads so a CI container finishes in reasonable time.
pub fn default_sweep() -> Vec<usize> {
    thread_sweep(hardware_threads(), 2, 64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hardware_threads_is_positive() {
        assert!(hardware_threads() >= 1);
    }

    #[test]
    fn cached_hardware_threads_match_the_os_answer() {
        let os = thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        assert_eq!(hardware_threads(), os);
        assert_eq!(hardware_threads(), os, "the cached value is stable");
    }

    #[test]
    fn sweep_is_sorted_unique_and_bounded() {
        for hw in [1, 2, 3, 8, 12, 56, 96, 192] {
            for over in [1, 2, 4] {
                let s = thread_sweep(hw, over, 256);
                assert!(!s.is_empty());
                assert!(s.windows(2).all(|w| w[0] < w[1]), "{s:?}");
                assert_eq!(*s.first().unwrap(), 1);
                assert!(*s.last().unwrap() <= (hw * over).min(256));
            }
        }
    }

    #[test]
    fn sweep_contains_the_oversubscription_point() {
        let s = thread_sweep(12, 2, 256);
        assert!(s.contains(&12), "{s:?}");
        assert!(s.contains(&24), "{s:?}");
    }

    #[test]
    fn sweep_handles_degenerate_inputs() {
        assert_eq!(thread_sweep(0, 0, 0), vec![1]);
        assert_eq!(thread_sweep(1, 1, 64), vec![1]);
        assert_eq!(thread_sweep(1, 2, 64), vec![1, 2]);
    }

    #[test]
    fn sweep_respects_cap() {
        let s = thread_sweep(96, 4, 32);
        assert_eq!(*s.last().unwrap(), 32);
    }

    #[test]
    fn default_sweep_runs() {
        let s = default_sweep();
        assert!(!s.is_empty());
    }

    #[test]
    fn smt_width_is_positive_and_bounded() {
        let w = smt_width();
        assert!(w >= 1);
        assert!(w <= hardware_threads());
    }

    #[test]
    fn line_round_trip_is_a_positive_duration() {
        let ns = line_round_trip_ns();
        println!("line round trip: {ns:.0} ns");
        assert!(ns.is_finite() && ns > 0.0, "{ns}");
    }

    #[test]
    fn cpu_list_parsing() {
        assert_eq!(parse_cpu_list("0"), Some(1));
        assert_eq!(parse_cpu_list("0-1"), Some(2));
        assert_eq!(parse_cpu_list("0,64"), Some(2));
        assert_eq!(parse_cpu_list("0-3, 8-11"), Some(8));
        assert_eq!(parse_cpu_list("3-1"), None);
        assert_eq!(parse_cpu_list(""), None);
        assert_eq!(parse_cpu_list("a-b"), None);
    }

    #[test]
    fn neighbourhood_counts() {
        assert_eq!(neighbourhoods(8, 2), 4);
        assert_eq!(neighbourhoods(9, 2), 5);
        assert_eq!(neighbourhoods(4, 1), 4);
        assert_eq!(neighbourhoods(0, 0), 1);
        assert_eq!(neighbourhoods(3, 8), 1);
    }
}
