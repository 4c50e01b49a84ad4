//! Order statistics and the plausibility checks every result passes
//! before it is printed: a benchmark that reports an impossible number
//! is a bug, so the run fails instead.

/// Exact nearest-rank percentile (`p` in `(0, 1]`) of `samples`, which
/// it sorts in place. 0 for no samples.
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (p * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of `values` (mean of the middle two for an even count); 0
/// for none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Latency percentiles of one round's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Latency {
    pub samples: usize,
    pub p50: u64,
    pub p99: u64,
    pub max: u64,
}

impl Latency {
    pub fn of(samples: &mut [u64]) -> Self {
        Latency {
            samples: samples.len(),
            p50: percentile(samples, 0.50),
            p99: percentile(samples, 0.99),
            max: samples.last().copied().unwrap_or(0),
        }
    }
}

/// What one timed phase measured, as the sanity checks see it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RoundFigures {
    pub ops: u64,
    pub wall_ns: u64,
    pub latency: Latency,
}

impl RoundFigures {
    pub fn mops(&self) -> f64 {
        self.ops as f64 * 1e3 / self.wall_ns as f64
    }
}

/// Rejects figures no correct measurement can produce: an empty or
/// instantaneous phase, a zero latency, a percentile above the
/// observed maximum, p50 above p99, and a reported throughput or
/// latency summary that the rounds it was derived from contradict.
pub fn check_plausible(
    rounds: &[RoundFigures],
    throughput_mops: f64,
    op_p50_ns: f64,
    op_p99_ns: f64,
) -> Result<(), String> {
    if rounds.is_empty() {
        return Err("no timed rounds".into());
    }
    for (i, r) in rounds.iter().enumerate() {
        let l = &r.latency;
        if r.ops == 0 || r.wall_ns == 0 {
            return Err(format!("round {i}: {} ops in {} ns", r.ops, r.wall_ns));
        }
        if l.samples == 0 || l.p50 == 0 {
            return Err(format!("round {i}: zero latency ({} samples)", l.samples));
        }
        if l.p50 > l.p99 || l.p99 > l.max {
            return Err(format!(
                "round {i}: p50 {} / p99 {} / max {} out of order",
                l.p50, l.p99, l.max
            ));
        }
    }
    let lo = |f: &dyn Fn(&RoundFigures) -> f64| rounds.iter().map(f).fold(f64::INFINITY, f64::min);
    let hi = |f: &dyn Fn(&RoundFigures) -> f64| rounds.iter().map(f).fold(0.0, f64::max);
    let within = |v: f64, f: &dyn Fn(&RoundFigures) -> f64| {
        v.is_finite() && v >= lo(f) * (1.0 - 1e-9) && v <= hi(f) * (1.0 + 1e-9)
    };
    // A median of per-round rates lies between the slowest and the
    // fastest round; so does total ops over total wall time.
    if !within(throughput_mops, &|r| r.mops()) {
        return Err(format!(
            "throughput {throughput_mops} Mops outside its rounds"
        ));
    }
    let ops: u64 = rounds.iter().map(|r| r.ops).sum();
    let wall: u64 = rounds.iter().map(|r| r.wall_ns).sum();
    if !within(ops as f64 * 1e3 / wall as f64, &|r| r.mops()) {
        return Err(format!(
            "{ops} ops in {wall} ns disagrees with the round rates"
        ));
    }
    if !within(op_p50_ns, &|r| r.latency.p50 as f64)
        || !within(op_p99_ns, &|r| r.latency.p99 as f64)
    {
        return Err(format!(
            "latency p50 {op_p50_ns} / p99 {op_p99_ns} outside its rounds"
        ));
    }
    if op_p50_ns > op_p99_ns {
        return Err(format!("p50 {op_p50_ns} ns above p99 {op_p99_ns} ns"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(ops: u64, wall_ns: u64, p50: u64, p99: u64, max: u64) -> RoundFigures {
        RoundFigures {
            ops,
            wall_ns,
            latency: Latency {
                samples: 100,
                p50,
                p99,
                max,
            },
        }
    }

    #[test]
    fn percentiles_are_nearest_rank_and_bounded_by_max() {
        let mut v: Vec<u64> = (1..=1000).rev().collect();
        let l = Latency::of(&mut v);
        assert_eq!((l.p50, l.p99, l.max, l.samples), (500, 990, 1000, 1000));
        assert_eq!(percentile(&mut [7], 0.99), 7);
        assert_eq!(percentile(&mut [], 0.5), 0);
        let mut skew = vec![1u64; 99];
        skew.push(1_000_000);
        let l = Latency::of(&mut skew);
        assert!(l.p99 <= l.max && l.p50 <= l.p99);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn consistent_figures_pass() {
        let rounds = [
            round(1000, 1_000_000, 100, 900, 950),
            round(1200, 1_000_000, 110, 1000, 1200),
        ];
        assert_eq!(check_plausible(&rounds, 1.1, 105.0, 950.0), Ok(()));
    }

    #[test]
    fn zero_latency_is_rejected() {
        let rounds = [round(1000, 1_000_000, 0, 900, 950)];
        assert!(check_plausible(&rounds, 1.0, 0.0, 900.0).is_err());
    }

    #[test]
    fn percentile_above_max_is_rejected() {
        let rounds = [round(1000, 1_000_000, 100, 990, 950)];
        assert!(check_plausible(&rounds, 1.0, 100.0, 990.0).is_err());
    }

    #[test]
    fn p50_above_p99_is_rejected() {
        let rounds = [round(1000, 1_000_000, 500, 400, 950)];
        assert!(check_plausible(&rounds, 1.0, 500.0, 400.0).is_err());
        let ok = [round(1000, 1_000_000, 100, 900, 950)];
        assert!(check_plausible(&ok, 1.0, 901.0, 900.0).is_err());
    }

    #[test]
    fn throughput_that_disagrees_with_ops_over_wall_is_rejected() {
        let rounds = [round(1000, 1_000_000, 100, 900, 950)];
        assert!(check_plausible(&rounds, 2.0, 100.0, 900.0).is_err());
        assert!(check_plausible(&rounds, f64::NAN, 100.0, 900.0).is_err());
        assert!(check_plausible(&[round(0, 1_000_000, 100, 900, 950)], 0.0, 100.0, 900.0).is_err());
    }
}
