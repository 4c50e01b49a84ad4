//! Open-loop traffic replay: service-style benchmarking where *time*,
//! not the benchmark loop, decides when work arrives.
//!
//! The closed-loop measurement elsewhere in this crate (`ClosedLoop`
//! over `drive`) issues the next operation the moment the previous one
//! returns — so when the structure slows down, the offered load
//! politely slows down with it, and the measured latency suffers from
//! coordinated omission: the stalls hide in the gaps between requests.
//! This module does the opposite, wrk2-style:
//!
//! * an [`ArrivalTrace`] fixes every request's *scheduled* arrival
//!   time up front (synthetic generators for steady, bursty, diurnal
//!   and multi-tenant traffic, plus a tiny committed text format for
//!   exact reproduction);
//! * [`replay_open_loop`] replays the trace against a
//!   [`SecQueue`]+[`SecMap`] service (the `examples/pipeline.rs`
//!   shape): a dispatcher enqueues each request at its scheduled time
//!   — *whether or not the service kept up* — and worker threads drain
//!   the queue and execute the request against the map;
//! * every completion is charged from its **scheduled arrival**, not
//!   from dequeue: queueing delay while the service is behind is part
//!   of the latency, so overload is visible instead of omitted;
//! * completions are bucketed into fixed wall-clock windows by arrival
//!   time; a window whose over-SLO share exceeds the configured
//!   fraction is an **SLO-violation window** — the operator's view
//!   ("how many seconds of the day were bad") rather than a single
//!   run-wide percentile.
//!
//! The `replay` bench binary sweeps a load multiplier over these
//! scenarios and writes throughput, p50/p99/p999-vs-offered-load and
//! violation-window counts as CSV/JSON.

use crate::latency::{LatencyHistogram, LatencyReport};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sec_core::{SecMap, SecQueue};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::Instant;

/// One scheduled request: when it arrives and which tenant sent it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Scheduled arrival, nanoseconds from the replay epoch.
    pub at_ns: u64,
    /// Originating tenant (selects the key range the request touches).
    pub tenant: u32,
}

/// A fixed sequence of scheduled arrivals, sorted by time.
///
/// Generators are deterministic in their seed, so a `(generator,
/// seed)` pair names a workload exactly; [`ArrivalTrace::to_text`] /
/// [`ArrivalTrace::parse`] round-trip the schedule through a small
/// text format for committing regression traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrivalTrace {
    arrivals: Vec<Arrival>,
}

/// Uniform draw in the open interval (0, 1]: 53 random mantissa bits
/// (the vendored rand only samples integer ranges), nudged off zero so
/// `ln` stays finite.
fn unit_open(rng: &mut SmallRng) -> f64 {
    (((rng.gen_range(0..u64::MAX) >> 11) + 1) as f64) * (1.0 / (1u64 << 53) as f64)
}

/// Draws the next exponential inter-arrival gap (ns) for a Poisson
/// process of `rate_per_s`, from uniform randomness — the standard
/// inverse-CDF transform.
fn exp_gap_ns(rng: &mut SmallRng, rate_per_s: f64) -> u64 {
    let secs = -unit_open(rng).ln() / rate_per_s;
    (secs * 1e9) as u64 + 1
}

impl ArrivalTrace {
    /// Wraps an explicit arrival list (sorted by `at_ns`; the
    /// constructor sorts defensively so hand-built lists are fine).
    pub fn from_arrivals(mut arrivals: Vec<Arrival>) -> Self {
        arrivals.sort_by_key(|a| a.at_ns);
        Self { arrivals }
    }

    /// Steady Poisson traffic: exponential inter-arrival gaps at
    /// `rate_per_s`, single tenant, for `duration_ms`.
    pub fn steady(rate_per_s: f64, duration_ms: u64, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let end = duration_ms * 1_000_000;
        let mut arrivals = Vec::new();
        let mut t = 0u64;
        loop {
            t += exp_gap_ns(&mut rng, rate_per_s);
            if t >= end {
                break;
            }
            arrivals.push(Arrival {
                at_ns: t,
                tenant: 0,
            });
        }
        Self { arrivals }
    }

    /// Bursty traffic: a Poisson base rate with periodic bursts —
    /// every `period_ms`, the rate jumps to `burst_rate_per_s` for
    /// `burst_ms`. The classic flash-crowd shape: the steady state is
    /// comfortable, the bursts are where SLOs die.
    pub fn bursty(
        base_rate_per_s: f64,
        burst_rate_per_s: f64,
        period_ms: u64,
        burst_ms: u64,
        duration_ms: u64,
        seed: u64,
    ) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let end = duration_ms * 1_000_000;
        let period = period_ms.max(1) * 1_000_000;
        let burst = burst_ms * 1_000_000;
        let mut arrivals = Vec::new();
        let mut t = 0u64;
        loop {
            let in_burst = t % period < burst;
            let rate = if in_burst {
                burst_rate_per_s
            } else {
                base_rate_per_s
            };
            t += exp_gap_ns(&mut rng, rate);
            if t >= end {
                break;
            }
            arrivals.push(Arrival {
                at_ns: t,
                tenant: 0,
            });
        }
        Self { arrivals }
    }

    /// Diurnal traffic: a Poisson process whose rate swings
    /// sinusoidally between `trough_rate_per_s` and `peak_rate_per_s`
    /// with period `period_ms` — a day compressed into the run.
    /// Generated by thinning a peak-rate process (accept with
    /// probability `rate(t)/peak`), which keeps the non-homogeneous
    /// process exact.
    pub fn diurnal(
        trough_rate_per_s: f64,
        peak_rate_per_s: f64,
        period_ms: u64,
        duration_ms: u64,
        seed: u64,
    ) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let end = duration_ms * 1_000_000;
        let period_ns = (period_ms.max(1) * 1_000_000) as f64;
        let mut arrivals = Vec::new();
        let mut t = 0u64;
        loop {
            t += exp_gap_ns(&mut rng, peak_rate_per_s);
            if t >= end {
                break;
            }
            let phase = (t as f64 / period_ns) * std::f64::consts::TAU;
            // Sine swings [-1, 1] → rate swings [trough, peak].
            let rate = trough_rate_per_s
                + (peak_rate_per_s - trough_rate_per_s) * (0.5 + 0.5 * phase.sin());
            if rng.gen_bool((rate / peak_rate_per_s).clamp(0.0, 1.0)) {
                arrivals.push(Arrival {
                    at_ns: t,
                    tenant: 0,
                });
            }
        }
        Self { arrivals }
    }

    /// Multi-tenant traffic: one independent Poisson lane per entry of
    /// `rates_per_s` (its index is the tenant id), merged into one
    /// schedule. Tenants address disjoint key ranges in the service,
    /// so a hot tenant contends on *its* shard while the others ride
    /// along — the noisy-neighbour scenario.
    pub fn multi_tenant(rates_per_s: &[f64], duration_ms: u64, seed: u64) -> Self {
        let end = duration_ms * 1_000_000;
        let mut arrivals = Vec::new();
        for (tenant, &rate) in rates_per_s.iter().enumerate() {
            let mut rng = SmallRng::seed_from_u64(seed ^ ((tenant as u64 + 1) << 32));
            let mut t = 0u64;
            loop {
                t += exp_gap_ns(&mut rng, rate);
                if t >= end {
                    break;
                }
                arrivals.push(Arrival {
                    at_ns: t,
                    tenant: tenant as u32,
                });
            }
        }
        Self::from_arrivals(arrivals)
    }

    /// Scales the offered load by `factor` by compressing (or
    /// stretching) the schedule: every timestamp is divided by
    /// `factor`, so 2.0 offers the same arrivals in half the time.
    /// This is how the `replay` binary sweeps load from the same base
    /// scenario.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor > 0.0, "load factor must be positive");
        Self {
            arrivals: self
                .arrivals
                .iter()
                .map(|a| Arrival {
                    at_ns: (a.at_ns as f64 / factor) as u64,
                    tenant: a.tenant,
                })
                .collect(),
        }
    }

    /// The scheduled arrivals, in time order.
    pub fn arrivals(&self) -> &[Arrival] {
        &self.arrivals
    }

    /// Number of scheduled arrivals.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// The schedule's span: the last arrival's timestamp, ns.
    pub fn span_ns(&self) -> u64 {
        self.arrivals.last().map_or(0, |a| a.at_ns)
    }

    /// Offered load of the schedule, arrivals per second.
    pub fn offered_per_s(&self) -> f64 {
        let span = self.span_ns();
        if span == 0 {
            0.0
        } else {
            self.arrivals.len() as f64 * 1e9 / span as f64
        }
    }

    /// Serializes the schedule into the committed text format: a
    /// header line, then one `at_ns tenant` pair per line. Lines
    /// starting with `#` are comments.
    ///
    /// ```text
    /// sec-replay-trace v1
    /// # at_ns tenant
    /// 181004 0
    /// 513400 1
    /// ```
    pub fn to_text(&self) -> String {
        let mut out = String::from("sec-replay-trace v1\n# at_ns tenant\n");
        for a in &self.arrivals {
            out.push_str(&format!("{} {}\n", a.at_ns, a.tenant));
        }
        out
    }

    /// Parses the text format produced by [`ArrivalTrace::to_text`].
    /// Returns a descriptive error for a bad header or a malformed
    /// line (1-based line numbers).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, h)) if h.trim() == "sec-replay-trace v1" => {}
            Some((_, h)) => return Err(format!("bad header {h:?} (want \"sec-replay-trace v1\")")),
            None => return Err("empty trace file".into()),
        }
        let mut arrivals = Vec::new();
        for (i, line) in lines {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let at_ns = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("line {}: bad at_ns in {line:?}", i + 1))?;
            let tenant = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("line {}: bad tenant in {line:?}", i + 1))?;
            if parts.next().is_some() {
                return Err(format!("line {}: trailing fields in {line:?}", i + 1));
            }
            arrivals.push(Arrival { at_ns, tenant });
        }
        Ok(Self::from_arrivals(arrivals))
    }
}

/// Configuration of the replayed service.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads draining the request queue.
    pub workers: usize,
    /// Keys per tenant (tenant `t` addresses `[t·keys, (t+1)·keys)`).
    pub keys_per_tenant: u64,
    /// Per-mille of requests that insert (the rest get).
    pub insert_permille: u32,
    /// The latency SLO, ns (charged from *scheduled arrival*).
    pub slo_ns: u64,
    /// SLO accounting window, ms of scheduled-arrival time.
    pub window_ms: u64,
    /// A window is in violation when more than this fraction of its
    /// arrivals finished over the SLO (0.01 = windowed p99 over SLO).
    pub violation_frac: f64,
    /// How many requests a worker takes from the queue per bulk
    /// dequeue (rides `dequeue_many`, so a drain costs one
    /// announcement, not `drain_batch`).
    pub drain_batch: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            keys_per_tenant: 1024,
            insert_permille: 100,
            slo_ns: 1_000_000, // 1 ms
            window_ms: 10,
            violation_frac: 0.01,
            drain_batch: 32,
        }
    }
}

/// What one open-loop replay measured.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Offered load of the schedule, arrivals per second.
    pub offered_per_s: f64,
    /// Requests completed (== the trace length; open loop never
    /// drops).
    pub completed: u64,
    /// Wall time from the epoch to the last completion, ms.
    pub wall_ms: f64,
    /// Achieved completion rate, requests per second.
    pub achieved_per_s: f64,
    /// Latency percentiles charged from scheduled arrival (so
    /// queueing-while-behind counts).
    pub latency: LatencyReport,
    /// Total SLO accounting windows with at least one arrival.
    pub windows: usize,
    /// Windows whose over-SLO share exceeded the violation fraction.
    pub violated_windows: usize,
    /// The worst single window's over-SLO share (0..=1).
    pub worst_window_frac: f64,
}

impl ReplayReport {
    /// Fraction of accounted windows in violation (0..=1).
    pub fn violated_frac(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            self.violated_windows as f64 / self.windows as f64
        }
    }
}

/// A request in flight through the service queue.
struct Request {
    /// Scheduled arrival (ns from epoch) — the latency origin.
    at_ns: u64,
    /// The key this request touches.
    key: u64,
    /// Insert (true) or get (false).
    insert: bool,
}

/// Per-window completion tally (indexed by scheduled-arrival window).
#[derive(Debug, Clone, Copy, Default)]
struct WindowTally {
    arrivals: u64,
    over_slo: u64,
}

/// Replays `trace` against a [`SecQueue`]+[`SecMap`] service in open
/// loop and reports latency-vs-offered-load and SLO-violation windows.
///
/// One dispatcher thread walks the schedule, spinning/yielding until
/// each request's scheduled time and then enqueueing it — arrivals
/// never wait for the service, so when the workers fall behind the
/// queue grows and queueing delay lands in the measured latency
/// (coordinated omission is structurally impossible). `cfg.workers`
/// worker threads bulk-drain the queue (`dequeue_many`)
/// and execute each request against the map (`insert_permille`
/// inserts, the rest gets, keys uniform within the request's tenant
/// range).
pub fn replay_open_loop(trace: &ArrivalTrace, cfg: &ServiceConfig, seed: u64) -> ReplayReport {
    replay(trace, cfg, seed).0
}

/// [`replay_open_loop`], also returning the merged latency histogram.
fn replay(
    trace: &ArrivalTrace,
    cfg: &ServiceConfig,
    seed: u64,
) -> (ReplayReport, LatencyHistogram) {
    assert!(cfg.workers >= 1, "need at least one worker");
    assert!(cfg.drain_batch >= 1, "drain batch must be positive");
    let window_ns = cfg.window_ms.max(1) * 1_000_000;
    let n_windows = (trace.span_ns() / window_ns + 1) as usize;

    let queue: SecQueue<Request> = SecQueue::new(cfg.workers + 1);
    let map: SecMap<u64, u64> = SecMap::new(cfg.workers);
    let done = AtomicBool::new(false);
    // Dispatcher + workers start together, and all of them schedule
    // and measure against one epoch: the first thread past the barrier
    // takes it. Per-thread epochs would skew by the threads' wake-up
    // order, and a late worker would then record latencies too short
    // (down to zero).
    let barrier = Barrier::new(cfg.workers + 1);
    let origin = OnceLock::new();

    // Pre-draw each request's key and kind so the dispatcher's paced
    // loop does no RNG work between deadline and enqueue.
    let mut rng = SmallRng::seed_from_u64(seed);
    let requests: Vec<(u64, bool)> = trace
        .arrivals()
        .iter()
        .map(|a| {
            let key = a.tenant as u64 * cfg.keys_per_tenant
                + rng.gen_range(0..cfg.keys_per_tenant.max(1));
            let insert = rng.gen_range(0u32..1000) < cfg.insert_permille;
            (key, insert)
        })
        .collect();

    let (wall_ns, merged, tallies) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..cfg.workers)
            .map(|_| {
                let queue = &queue;
                let map = &map;
                let done = &done;
                let (barrier, origin) = (&barrier, &origin);
                scope.spawn(move || {
                    let mut q = queue.register();
                    let mut m = map.register();
                    let mut hist = LatencyHistogram::new();
                    let mut tallies = vec![WindowTally::default(); n_windows];
                    let mut buf: Vec<Request> = Vec::with_capacity(cfg.drain_batch);
                    barrier.wait();
                    let epoch = *origin.get_or_init(Instant::now);
                    let mut idle = 0u32;
                    loop {
                        // `done` is stored after the last enqueue, so an
                        // empty drain that starts after seeing it means
                        // nothing is left; every request a drain takes
                        // is served below before the next check.
                        let finished = done.load(Ordering::Acquire);
                        let got = q.dequeue_many(&mut buf, cfg.drain_batch);
                        if got == 0 {
                            if finished {
                                break;
                            }
                            // Spin a while before yielding: at low load
                            // the next arrival is microseconds away, and
                            // a descheduled worker would charge the OS
                            // wake latency to the request.
                            idle += 1;
                            if idle < 512 {
                                core::hint::spin_loop();
                            } else {
                                std::thread::yield_now();
                            }
                            continue;
                        }
                        idle = 0;
                        for req in buf.drain(..) {
                            if req.insert {
                                m.insert(req.key, req.at_ns);
                            } else {
                                let _ = m.get(&req.key);
                            }
                            let now = epoch.elapsed().as_nanos() as u64;
                            let lat = now.saturating_sub(req.at_ns);
                            hist.record(lat);
                            let w = (req.at_ns / window_ns) as usize;
                            let t = &mut tallies[w.min(n_windows - 1)];
                            t.arrivals += 1;
                            if lat > cfg.slo_ns {
                                t.over_slo += 1;
                            }
                        }
                    }
                    (hist, tallies)
                })
            })
            .collect();

        // Dispatcher (this thread): pace the schedule.
        let mut d = queue.register();
        barrier.wait();
        let epoch = *origin.get_or_init(Instant::now);
        for (a, &(key, insert)) in trace.arrivals().iter().zip(&requests) {
            // Spin-then-yield until the scheduled time. If we are
            // already past it (the enqueue path itself fell behind),
            // fire immediately — lateness becomes queueing delay.
            loop {
                let now = epoch.elapsed().as_nanos() as u64;
                if now >= a.at_ns {
                    break;
                }
                if a.at_ns - now > 100_000 {
                    std::thread::yield_now();
                } else {
                    core::hint::spin_loop();
                }
            }
            d.enqueue(Request {
                at_ns: a.at_ns,
                key,
                insert,
            });
        }
        done.store(true, Ordering::Release);
        drop(d);

        let mut merged = LatencyHistogram::new();
        let mut tallies = vec![WindowTally::default(); n_windows];
        for w in workers {
            let (hist, t) = w.join().expect("worker panicked");
            merged.merge(&hist);
            for (acc, x) in tallies.iter_mut().zip(t) {
                acc.arrivals += x.arrivals;
                acc.over_slo += x.over_slo;
            }
        }
        (epoch.elapsed().as_nanos() as u64, merged, tallies)
    });

    let mut windows = 0usize;
    let mut violated = 0usize;
    let mut worst = 0.0f64;
    for t in &tallies {
        if t.arrivals == 0 {
            continue;
        }
        windows += 1;
        let frac = t.over_slo as f64 / t.arrivals as f64;
        if frac > cfg.violation_frac {
            violated += 1;
        }
        worst = worst.max(frac);
    }

    let completed = merged.count();
    let report = ReplayReport {
        offered_per_s: trace.offered_per_s(),
        completed,
        wall_ms: wall_ns as f64 / 1e6,
        achieved_per_s: if wall_ns == 0 {
            0.0
        } else {
            completed as f64 * 1e9 / wall_ns as f64
        },
        latency: LatencyReport::from_histogram(&merged),
        windows,
        violated_windows: violated,
        worst_window_frac: worst,
    };
    (report, merged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_and_sorted() {
        let a = ArrivalTrace::bursty(5_000.0, 50_000.0, 50, 10, 200, 7);
        let b = ArrivalTrace::bursty(5_000.0, 50_000.0, 50, 10, 200, 7);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.arrivals().windows(2).all(|w| w[0].at_ns <= w[1].at_ns));

        let d = ArrivalTrace::diurnal(1_000.0, 20_000.0, 100, 200, 9);
        assert_eq!(d, ArrivalTrace::diurnal(1_000.0, 20_000.0, 100, 200, 9));

        let m = ArrivalTrace::multi_tenant(&[10_000.0, 1_000.0, 1_000.0], 100, 3);
        assert!(m.arrivals().iter().any(|a| a.tenant == 2));
        assert!(m.arrivals().windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
    }

    #[test]
    fn trace_text_round_trips() {
        let t = ArrivalTrace::multi_tenant(&[8_000.0, 2_000.0], 50, 11);
        let text = t.to_text();
        assert_eq!(ArrivalTrace::parse(&text).unwrap(), t);
        assert!(ArrivalTrace::parse("nonsense\n1 2\n").is_err());
        assert!(ArrivalTrace::parse("sec-replay-trace v1\n1 2 3\n").is_err());
        assert!(ArrivalTrace::parse("sec-replay-trace v1\nx 0\n").is_err());
    }

    #[test]
    fn scaling_compresses_the_schedule() {
        let t = ArrivalTrace::steady(10_000.0, 100, 5);
        let fast = t.scaled(2.0);
        assert_eq!(t.len(), fast.len());
        assert!(fast.span_ns() <= t.span_ns() / 2 + 1);
        // Twice the offered load (up to integer truncation).
        assert!(fast.offered_per_s() > t.offered_per_s() * 1.9);
    }

    #[test]
    fn open_loop_replay_completes_every_request() {
        // Modest load so the test is quick and never overloads CI.
        let trace = ArrivalTrace::multi_tenant(&[20_000.0, 5_000.0], 80, 42);
        let cfg = ServiceConfig {
            workers: 2,
            slo_ns: 5_000_000,
            ..ServiceConfig::default()
        };
        let rep = replay_open_loop(&trace, &cfg, 1);
        assert_eq!(rep.completed, trace.len() as u64, "open loop never drops");
        assert!(rep.latency.samples == rep.completed);
        assert!(rep.windows > 0);
        assert!(rep.violated_windows <= rep.windows);
        assert!(rep.latency.p50 <= rep.latency.p99);
        assert!(rep.latency.p99 <= rep.latency.max);
        assert!((0.0..=1.0).contains(&rep.worst_window_frac));
    }

    #[test]
    fn every_replayed_latency_is_positive() {
        // A completion happens after its enqueue, which happens at or
        // after its scheduled arrival — on the shared epoch, no
        // latency can come out as zero. The skew this guards against
        // depends on thread wake-up order, so several short runs each
        // get a chance to show it.
        let cfg = ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        };
        for seed in 0..6 {
            let trace = ArrivalTrace::steady(20_000.0, 25, seed);
            let (rep, hist) = replay(&trace, &cfg, seed);
            assert_eq!(rep.completed, trace.len() as u64);
            let min = hist.inner().min();
            assert!(min > 0, "run {seed} recorded a latency of {min} ns");
        }
    }
}
