//! Analytical model of SEC's elimination and combining degrees.
//!
//! The paper measures (Tables 1–3) how many operations each batch
//! eliminates versus combines, and argues the elimination degree is
//! "optimal within each batch". That optimum has a closed form: if a
//! frozen batch holds `n` update operations, each independently a
//! `push` with probability `p` (the workload mix), then the number of
//! pushes is `X ~ Binomial(n, p)` and
//!
//! * eliminated ops  = `2 · min(X, n − X)`,
//! * combined ops    = `|2X − n|`  (the surviving majority),
//!
//! so the expected elimination *fraction* is `E[2·min(X, n−X)] / n`.
//! This module evaluates those expectations exactly (iterative binomial
//! pmf — no special functions), letting the Table 1 binary print a
//! *model* column next to the measured one. Agreement there is strong
//! evidence the freezing/elimination machinery loses no pairs; the
//! residual gap comes from batch-size variance: Table 1 evaluates the
//! model at the mean batch size, and `E[f(N)] ≠ f(E[N])`. The curve is
//! not concave in `n` either (0% at `n = 1`, 50% at 2 and 3, 62.5% at
//! 4), so `f(E[N])` does not bound the measurement from above;
//! [`predict_pct_eliminated`] weighs `f` over the measured degree
//! distribution instead.

use crate::trace::Histogram;

/// Binomial probability mass function as an iterator-friendly vector:
/// `pmf[k] = P(X = k)` for `X ~ Binomial(n, p)`.
///
/// Computed by the stable multiplicative recurrence
/// `pmf[k+1] = pmf[k] · ((n−k)/(k+1)) · (p/(1−p))`, seeded at the mode
/// to avoid underflow for large `n`.
fn binomial_pmf(n: u64, p: f64) -> Vec<f64> {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let n_us = usize::try_from(n).expect("batch size fits usize");
    if p == 0.0 {
        let mut v = vec![0.0; n_us + 1];
        v[0] = 1.0;
        return v;
    }
    if p == 1.0 {
        let mut v = vec![0.0; n_us + 1];
        v[n_us] = 1.0;
        return v;
    }
    // Work in log space up to the mode, then renormalize: immune to
    // under/overflow for any realistic batch size.
    let (lp, lq) = (p.ln(), (1.0 - p).ln());
    // log C(n, k) built incrementally.
    let mut log_binom = 0.0f64;
    let log_pmf: Vec<f64> = (0..=n_us)
        .map(|k| {
            if k > 0 {
                log_binom += ((n_us - k + 1) as f64).ln() - (k as f64).ln();
            }
            log_binom + (k as f64) * lp + ((n_us - k) as f64) * lq
        })
        .collect();
    let max = log_pmf.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut pmf: Vec<f64> = log_pmf.iter().map(|&l| (l - max).exp()).collect();
    let sum: f64 = pmf.iter().sum();
    for x in &mut pmf {
        *x /= sum;
    }
    pmf
}

/// Expected fraction (0–100%) of a size-`n` batch that is eliminated,
/// when each update is a push with probability `push_prob`.
///
/// `n = 0` returns 0 (an empty batch eliminates nothing).
///
/// # Examples
///
/// ```
/// use sec_core::sec::model::expected_pct_eliminated;
///
/// // The paper's Table 1 regime: balanced mix, batch degree ~18.
/// let pct = expected_pct_eliminated(18, 0.5);
/// assert!((75.0..=85.0).contains(&pct)); // paper measures 79%
///
/// // One-sided batches cannot eliminate.
/// assert_eq!(expected_pct_eliminated(18, 1.0), 0.0);
/// ```
pub fn expected_pct_eliminated(n: u64, push_prob: f64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let pmf = binomial_pmf(n, push_prob);
    let mut expect = 0.0;
    for (k, &prob) in pmf.iter().enumerate() {
        let pushes = k as u64;
        let pops = n - pushes;
        expect += prob * (2 * pushes.min(pops)) as f64;
    }
    100.0 * expect / n as f64
}

/// Expected fraction (0–100%) of a size-`n` batch applied by the
/// combiner. Complement of [`expected_pct_eliminated`].
pub fn expected_pct_combined(n: u64, push_prob: f64) -> f64 {
    100.0 - expected_pct_eliminated(n, push_prob)
}

/// The model's elimination fraction (0–100%) for a measured run whose
/// batch degrees `degrees` recorded: `Σ n·c(n)·f(n) / Σ n·c(n)`, where
/// `c(n)` batches held `n` ops and `f` is [`expected_pct_eliminated`].
/// Each op counts once, at the `f` of its own batch, which is the
/// expectation of the measured fraction when each op is a push with
/// probability `push_prob` whatever batch it lands in.
///
/// `None` when a batch held 16 or more ops, past the degree
/// histogram's exact range; 0 when nothing was recorded.
pub fn predict_pct_eliminated(degrees: &Histogram, push_prob: f64) -> Option<f64> {
    let (mut ops, mut eliminated) = (0u64, 0.0);
    for n in 1..=degrees.max() {
        let weight = n * degrees.count_of(n)?;
        ops += weight;
        eliminated += weight as f64 * expected_pct_eliminated(n, push_prob);
    }
    Some(if ops == 0 {
        0.0
    } else {
        eliminated / ops as f64
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force expectation by enumerating all 2^n push/pop strings.
    fn brute_force_pct(n: u64, p: f64) -> f64 {
        let n_us = n as usize;
        let mut expect = 0.0;
        for word in 0u64..(1u64 << n_us) {
            let pushes = word.count_ones() as u64;
            let pops = n - pushes;
            let prob = p.powi(pushes as i32) * (1.0 - p).powi(pops as i32);
            expect += prob * (2 * pushes.min(pops)) as f64;
        }
        100.0 * expect / n as f64
    }

    #[test]
    fn matches_brute_force_enumeration() {
        for n in 1..=12u64 {
            for &p in &[0.1, 0.25, 0.5, 0.75, 0.9] {
                let exact = brute_force_pct(n, p);
                let model = expected_pct_eliminated(n, p);
                assert!(
                    (exact - model).abs() < 1e-9,
                    "n={n} p={p}: brute {exact} vs model {model}"
                );
            }
        }
    }

    #[test]
    fn pmf_sums_to_one() {
        for &(n, p) in &[(1u64, 0.5f64), (10, 0.3), (100, 0.5), (1000, 0.9)] {
            let sum: f64 = binomial_pmf(n, p).iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "n={n} p={p}: sum {sum}");
        }
    }

    #[test]
    fn degenerate_mixes_never_eliminate() {
        assert_eq!(expected_pct_eliminated(50, 0.0), 0.0);
        assert_eq!(expected_pct_eliminated(50, 1.0), 0.0);
    }

    #[test]
    fn empty_batch_is_zero() {
        assert_eq!(expected_pct_eliminated(0, 0.5), 0.0);
        assert_eq!(expected_pct_combined(0, 0.5), 100.0);
    }

    #[test]
    fn balanced_mix_maximizes_elimination() {
        let n = 40;
        let at_half = expected_pct_eliminated(n, 0.5);
        for &p in &[0.05, 0.2, 0.35, 0.65, 0.8, 0.95] {
            assert!(
                expected_pct_eliminated(n, p) < at_half,
                "p={p} should eliminate less than p=0.5"
            );
        }
    }

    #[test]
    fn elimination_grows_with_batch_size_at_half() {
        // At p = 0.5 the imbalance |2X−n| grows like √n, so the
        // eliminated *fraction* 1 − Θ(1/√n) increases with n.
        let mut last = 0.0;
        for n in [2u64, 8, 32, 128, 512] {
            let e = expected_pct_eliminated(n, 0.5);
            assert!(e > last, "n={n}: {e} ≤ {last}");
            last = e;
        }
        // Asymptote: E|2X−n| ≈ √(2n/π)  ⇒  %elim ≈ 100·(1 − √(2/(πn))).
        let n = 512u64;
        let approx = 100.0 * (1.0 - (2.0 / (core::f64::consts::PI * n as f64)).sqrt());
        assert!(
            (expected_pct_eliminated(n, 0.5) - approx).abs() < 0.5,
            "normal approximation should hold at n=512"
        );
    }

    #[test]
    fn symmetric_in_push_probability() {
        for n in [5u64, 17, 64] {
            for &p in &[0.1, 0.3, 0.45] {
                let a = expected_pct_eliminated(n, p);
                let b = expected_pct_eliminated(n, 1.0 - p);
                assert!((a - b).abs() < 1e-9, "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn prediction_complements_sum_to_100() {
        for n in [1u64, 7, 100] {
            for &p in &[0.2, 0.5, 0.8] {
                let e = expected_pct_eliminated(n, p);
                let c = expected_pct_combined(n, p);
                assert!((e + c - 100.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn prediction_weights_each_degree_by_its_ops() {
        let degrees = Histogram::new();
        for n in [1, 1, 2, 4] {
            degrees.record(n);
        }
        // Ops: 2 alone (0%), 2 in a pair (50%), 4 in a quad (62.5%).
        let pct = predict_pct_eliminated(&degrees, 0.5).unwrap();
        assert!(
            (pct - (2.0 * 50.0 + 4.0 * 62.5) / 8.0).abs() < 1e-9,
            "{pct}"
        );
        assert_eq!(predict_pct_eliminated(&Histogram::new(), 0.5), Some(0.0));
        degrees.record(16);
        assert_eq!(predict_pct_eliminated(&degrees, 0.5), None);
    }

    #[test]
    fn paper_table1_regime_is_plausible() {
        // Table 1 (Emerald): batching degree ≈ 18, %elim ≈ 79% at
        // 100% updates (p = 0.5). The model at n = 18 predicts ~81%:
        // within a couple points of the measurement — exactly the check
        // the table1 binary performs.
        let e = expected_pct_eliminated(18, 0.5);
        assert!((75.0..=85.0).contains(&e), "model says {e}%");
    }
}
