//! Summary statistics over repeated runs (the paper averages five),
//! plus the aggregation of SEC's elastic-resize counters across runs
//! (so the grow/shrink transitions PR 2 started collecting reach the
//! tables and CSV instead of being dropped per run) and of the
//! reclamation/recycling counters (retired/freed/cached and recycle
//! hit/miss/overflow — DESIGN.md §10) the same way.

use sec_core::{BatchReport, CollectorStats};

/// Accumulated batch-degree distribution over the repeated runs of one
/// measurement cell — the [`ResizeTotals`] pattern applied to the
/// [`DegreeDist`](sec_core::DegreeDist) every SEC [`BatchReport`] now
/// carries (sourced from the engine's per-batch degree histogram).
///
/// The `sweep` figures `map_bench`/`queue_bench` render the fold as the
/// `<series>_degree_{min,p50,p99,max}` extra CSV columns: min/max are
/// the extrema across runs, p50/p99 the mean of the per-run
/// percentiles (percentiles don't sum; averaging them over the
/// repeated runs of one cell is the standard cell-level estimate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegreeTotals {
    /// Smallest batch degree seen in any accumulated run.
    pub min: u64,
    /// Sum of the per-run median degrees (divide by `runs` for the
    /// mean; use [`p50_mean`](Self::p50_mean)).
    pub p50_sum: u64,
    /// Sum of the per-run 99th-percentile degrees.
    pub p99_sum: u64,
    /// Largest batch degree seen in any accumulated run.
    pub max: u64,
    /// Runs accumulated.
    pub runs: usize,
}

impl DegreeTotals {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one run's report in (a no-op for `None`, so non-SEC
    /// lineups can share the call site).
    pub fn add(&mut self, report: Option<&BatchReport>) {
        if let Some(r) = report {
            let d = r.degree;
            self.min = if self.runs == 0 {
                d.min
            } else {
                self.min.min(d.min)
            };
            self.p50_sum += d.p50;
            self.p99_sum += d.p99;
            self.max = self.max.max(d.max);
            self.runs += 1;
        }
    }

    /// Mean per-run median degree (0 when empty).
    pub fn p50_mean(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.p50_sum as f64 / self.runs as f64
        }
    }

    /// Mean per-run 99th-percentile degree (0 when empty).
    pub fn p99_mean(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.p99_sum as f64 / self.runs as f64
        }
    }
}

/// Accumulated elastic-sharding resize counters over the repeated runs
/// of one measurement cell.
///
/// [`run_algo`](crate::run_algo) returns a fresh [`BatchReport`] per
/// run; feed each into [`add`](Self::add) and the figure binaries
/// render the totals as the `<series>_grows` / `<series>_shrinks`
/// extra CSV columns (see [`Figure::add_extra`](crate::table::Figure::add_extra)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResizeTotals {
    /// Grow transitions summed over the accumulated runs.
    pub grows: u64,
    /// Shrink transitions summed over the accumulated runs.
    pub shrinks: u64,
    /// Runs accumulated.
    pub runs: usize,
}

impl ResizeTotals {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one run's report in (a no-op for `None`, so non-SEC
    /// lineups can share the call site).
    pub fn add(&mut self, report: Option<&BatchReport>) {
        if let Some(r) = report {
            self.grows += r.grows;
            self.shrinks += r.shrinks;
            self.runs += 1;
        }
    }

    /// Total transitions in either direction.
    pub fn resizes(&self) -> u64 {
        self.grows + self.shrinks
    }

    /// Mean grow transitions per accumulated run (0 when empty).
    pub fn grows_per_run(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.grows as f64 / self.runs as f64
        }
    }

    /// Mean shrink transitions per accumulated run (0 when empty).
    pub fn shrinks_per_run(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.shrinks as f64 / self.runs as f64
        }
    }
}

/// Accumulated park/wake counters over the repeated runs of one
/// measurement cell — the [`ResizeTotals`] pattern applied to the
/// wait-subsystem counters every SEC [`BatchReport`] now carries
/// (DESIGN.md §11).
///
/// `sweep oversub` renders the totals as the
/// `<series>_{parks,wakes,spurious}` extra CSV columns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitTotals {
    /// Times a waiter parked, summed over the accumulated runs.
    pub parks: u64,
    /// Unparks issued by freezers/combiners, summed likewise.
    pub wakes: u64,
    /// Wakeups whose condition was still false, summed likewise.
    pub spurious: u64,
    /// Runs accumulated.
    pub runs: usize,
}

impl WaitTotals {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one run's report in (a no-op for `None`, so non-SEC
    /// lineups can share the call site).
    pub fn add(&mut self, report: Option<&BatchReport>) {
        if let Some(r) = report {
            self.parks += r.parks;
            self.wakes += r.wakes;
            self.spurious += r.spurious_wakes;
            self.runs += 1;
        }
    }

    /// Mean parks per accumulated run (0 when empty).
    pub fn parks_per_run(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.parks as f64 / self.runs as f64
        }
    }

    /// Spurious wakeups as a percentage of all parks (0 when no parks
    /// happened): the precision of the keyed wake filtering.
    pub fn spurious_pct(&self) -> f64 {
        if self.parks == 0 {
            0.0
        } else {
            100.0 * self.spurious as f64 / self.parks as f64
        }
    }
}

/// Accumulated reclamation/recycling counters over the repeated runs
/// of one measurement cell — the [`ResizeTotals`] pattern applied to
/// the collector's [`CollectorStats`].
///
/// [`run_algo`](crate::run_algo) returns a fresh snapshot per SEC run;
/// feed each into [`add`](Self::add) and the figure binaries render
/// the totals as `<series>_recycle_{hits,misses,overflows}` extra CSV
/// columns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReclaimTotals {
    /// Objects retired, summed over the accumulated runs.
    pub retired: u64,
    /// Objects freed to the allocator, summed likewise.
    pub freed: u64,
    /// Objects whose memory entered a recycle free list, summed
    /// likewise.
    pub cached: u64,
    /// Allocations served from a free list.
    pub hits: u64,
    /// Allocations that fell through to the heap.
    pub misses: u64,
    /// Quiesced blocks that overflowed their thread cache.
    pub overflows: u64,
    /// Runs accumulated.
    pub runs: usize,
}

impl ReclaimTotals {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one run's collector snapshot in (a no-op for `None`, so
    /// non-SEC lineups can share the call site).
    pub fn add(&mut self, stats: Option<&CollectorStats>) {
        if let Some(s) = stats {
            self.retired += s.retired as u64;
            self.freed += s.freed as u64;
            self.cached += s.cached as u64;
            self.hits += s.recycle_hits;
            self.misses += s.recycle_misses;
            self.overflows += s.recycle_overflows;
            self.runs += 1;
        }
    }

    /// Recycle hit rate in percent over the accumulated runs (0 when
    /// no allocation was attempted).
    pub fn hit_pct(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            100.0 * self.hits as f64 / total as f64
        }
    }

    /// Objects still in limbo across the accumulated runs
    /// (`retired − freed − cached`); a leak shows up as a persistent
    /// positive value here after drains.
    pub fn pending(&self) -> u64 {
        self.retired
            .saturating_sub(self.freed)
            .saturating_sub(self.cached)
    }
}

/// Mean / standard deviation / extrema of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n ≤ 1).
    pub stddev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarizes `samples`; returns an all-zero summary for an empty
    /// slice.
    pub fn of(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self {
                mean: 0.0,
                stddev: 0.0,
                min: 0.0,
                max: 0.0,
                n: 0,
            };
        }
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        Self {
            mean,
            stddev: var.sqrt(),
            min: samples.iter().cloned().fold(f64::INFINITY, f64::min),
            max: samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            n,
        }
    }

    /// Coefficient of variation in percent (the paper reports SEC's
    /// variance stayed below 5%).
    pub fn cv_pct(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            100.0 * self.stddev / self.mean
        }
    }

    /// Half-width of the 95% confidence interval for the mean
    /// (`t · s/√n`), 0 for n ≤ 1.
    ///
    /// Uses the two-sided Student-t critical value at the sample's
    /// degrees of freedom — with the paper's 5 runs (4 d.o.f.) the
    /// normal approximation would understate the interval by ~42%.
    pub fn ci95_half_width(&self) -> f64 {
        if self.n <= 1 {
            return 0.0;
        }
        Self::t_crit_95(self.n - 1) * self.stddev / (self.n as f64).sqrt()
    }

    /// The mean ± 95% CI as an `(lo, hi)` pair.
    pub fn ci95(&self) -> (f64, f64) {
        let h = self.ci95_half_width();
        (self.mean - h, self.mean + h)
    }

    /// Two-sided 97.5th-percentile Student-t critical value for `dof`
    /// degrees of freedom (table lookup; converges to z = 1.96).
    fn t_crit_95(dof: usize) -> f64 {
        const TABLE: [f64; 30] = [
            12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179,
            2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
            2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
        ];
        match dof {
            0 => f64::INFINITY,
            d if d <= TABLE.len() => TABLE[d - 1],
            d if d <= 40 => 2.021,
            d if d <= 60 => 2.000,
            d if d <= 120 => 1.980,
            _ => 1.960,
        }
    }

    /// `true` when this summary's 95% CI does not overlap `other`'s —
    /// the difference in means is statistically meaningful at that
    /// level (the standard to meet before claiming one algorithm
    /// "leads" another).
    pub fn significantly_differs_from(&self, other: &Summary) -> bool {
        let (a_lo, a_hi) = self.ci95();
        let (b_lo, b_hi) = other.ci95();
        a_hi < b_lo || b_hi < a_lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(grows: u64, shrinks: u64) -> BatchReport {
        BatchReport {
            batches: 1,
            ops: 2,
            eliminated: 0,
            combined: 2,
            backoff_spins: 0,
            backoff_yields: 0,
            alone: 0,
            cas_failures: 0,
            grows,
            shrinks,
            parks: 4,
            wakes: 3,
            spurious_wakes: 1,
            degree: sec_core::DegreeDist {
                min: 2,
                p50: 2,
                p99: 2,
                max: 2,
            },
        }
    }

    #[test]
    fn resize_totals_accumulate_across_runs() {
        let mut t = ResizeTotals::new();
        t.add(Some(&report(2, 1)));
        t.add(Some(&report(0, 3)));
        t.add(None); // non-SEC run: ignored
        assert_eq!(t.grows, 2);
        assert_eq!(t.shrinks, 4);
        assert_eq!(t.runs, 2);
        assert_eq!(t.resizes(), 6);
        assert!((t.grows_per_run() - 1.0).abs() < 1e-12);
        assert!((t.shrinks_per_run() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn wait_totals_accumulate_and_derive() {
        let mut t = WaitTotals::new();
        t.add(Some(&report(0, 0))); // 4 parks, 3 wakes, 1 spurious
        t.add(Some(&report(0, 0)));
        t.add(None); // non-SEC run: ignored
        assert_eq!(t.runs, 2);
        assert_eq!(t.parks, 8);
        assert_eq!(t.wakes, 6);
        assert_eq!(t.spurious, 2);
        assert!((t.parks_per_run() - 4.0).abs() < 1e-12);
        assert!((t.spurious_pct() - 25.0).abs() < 1e-12);
        assert_eq!(WaitTotals::new().spurious_pct(), 0.0);
        assert_eq!(WaitTotals::new().parks_per_run(), 0.0);
    }

    #[test]
    fn reclaim_totals_accumulate_and_derive() {
        let snap = |retired, freed, cached, hits, misses| CollectorStats {
            epoch: 1,
            retired,
            freed,
            cached,
            recycle_hits: hits,
            recycle_misses: misses,
            recycle_overflows: 1,
        };
        let mut t = ReclaimTotals::new();
        t.add(Some(&snap(10, 4, 6, 30, 10)));
        t.add(Some(&snap(5, 5, 0, 0, 0)));
        t.add(None); // non-SEC run: ignored
        assert_eq!(t.runs, 2);
        assert_eq!(t.retired, 15);
        assert_eq!(t.freed, 9);
        assert_eq!(t.cached, 6);
        assert_eq!(t.overflows, 2);
        assert_eq!(t.pending(), 0);
        assert!((t.hit_pct() - 75.0).abs() < 1e-12);
        assert_eq!(ReclaimTotals::new().hit_pct(), 0.0);
    }

    #[test]
    fn degree_totals_accumulate_and_derive() {
        let with_degree = |min, p50, p99, max| {
            let mut r = report(0, 0);
            r.degree = sec_core::DegreeDist { min, p50, p99, max };
            r
        };
        let mut t = DegreeTotals::new();
        t.add(Some(&with_degree(1, 3, 7, 9)));
        t.add(Some(&with_degree(2, 5, 9, 12)));
        t.add(None); // non-SEC run: ignored
        assert_eq!(t.runs, 2);
        assert_eq!(t.min, 1, "min of mins");
        assert_eq!(t.max, 12, "max of maxes");
        assert!((t.p50_mean() - 4.0).abs() < 1e-12);
        assert!((t.p99_mean() - 8.0).abs() < 1e-12);
        assert_eq!(DegreeTotals::new().p50_mean(), 0.0);
        assert_eq!(DegreeTotals::new().p99_mean(), 0.0);
    }

    #[test]
    fn empty_resize_totals_are_zero() {
        let t = ResizeTotals::new();
        assert_eq!(t.resizes(), 0);
        assert_eq!(t.grows_per_run(), 0.0);
        assert_eq!(t.shrinks_per_run(), 0.0);
    }

    #[test]
    fn empty_sample() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn single_sample_has_zero_stddev() {
        let s = Summary::of(&[4.0]);
        assert_eq!(s.mean, 4.0);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.min, 4.0);
        assert_eq!(s.max, 4.0);
    }

    #[test]
    fn known_values() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample stddev with n-1: sqrt(32/7).
        assert!((s.stddev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn cv_pct_is_relative() {
        let s = Summary::of(&[10.0, 10.0, 10.0]);
        assert_eq!(s.cv_pct(), 0.0);
        let s = Summary::of(&[9.0, 11.0]);
        assert!(s.cv_pct() > 0.0);
    }

    #[test]
    fn ci95_known_case() {
        // n = 5 (the paper's run count), s = 1, mean = 10:
        // half-width = 2.776 / √5 ≈ 1.2415.
        let s = Summary {
            mean: 10.0,
            stddev: 1.0,
            min: 9.0,
            max: 11.0,
            n: 5,
        };
        let h = s.ci95_half_width();
        assert!((h - 2.776 / 5f64.sqrt()).abs() < 1e-9, "got {h}");
        let (lo, hi) = s.ci95();
        assert!((lo - (10.0 - h)).abs() < 1e-12);
        assert!((hi - (10.0 + h)).abs() < 1e-12);
    }

    #[test]
    fn ci95_degenerate_samples() {
        assert_eq!(Summary::of(&[]).ci95_half_width(), 0.0);
        assert_eq!(Summary::of(&[3.0]).ci95_half_width(), 0.0);
        // Zero variance ⇒ zero width at any n.
        assert_eq!(Summary::of(&[2.0, 2.0, 2.0]).ci95_half_width(), 0.0);
    }

    #[test]
    fn t_table_converges_to_normal() {
        assert!(Summary::t_crit_95(1) > 12.0);
        assert!(Summary::t_crit_95(4) > Summary::t_crit_95(10));
        assert_eq!(Summary::t_crit_95(1000), 1.960);
    }

    #[test]
    fn significance_requires_separated_intervals() {
        let tight_low = Summary::of(&[1.0, 1.01, 0.99, 1.0, 1.0]);
        let tight_high = Summary::of(&[2.0, 2.01, 1.99, 2.0, 2.0]);
        assert!(tight_low.significantly_differs_from(&tight_high));
        assert!(tight_high.significantly_differs_from(&tight_low));

        let noisy_a = Summary::of(&[1.0, 3.0]);
        let noisy_b = Summary::of(&[2.0, 4.0]);
        assert!(
            !noisy_a.significantly_differs_from(&noisy_b),
            "two-sample CIs at n=2 are enormous; overlap expected"
        );
    }
}
