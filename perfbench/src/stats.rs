//! Summary statistics the benchmark reports: percentiles with the
//! sample-count rule, failure accounting, medians, and the knee search.

/// A percentile is only reported when at least this many samples lie
/// beyond it; fewer would let one outlier move the number.
pub const MIN_BEYOND: u64 = 10;

/// One reported percentile of a latency sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The value at the percentile (nearest rank), in the samples' unit.
    pub value: u64,
    /// Total samples the percentile was taken over.
    pub n: u64,
    /// Samples strictly after the percentile's rank.
    pub beyond: u64,
}

/// Nearest-rank percentile `q` (0 < q < 1) of `sorted` (ascending), or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[u64], q: f64) -> Option<Percentile> {
    assert!(q > 0.0 && q < 1.0, "percentile rank {q} outside (0, 1)");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "unsorted");
    let n = sorted.len() as u64;
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    let beyond = n - rank;
    (beyond >= MIN_BEYOND).then(|| Percentile {
        value: sorted[rank as usize - 1],
        n,
        beyond,
    })
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank lower quartile of `values`.
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn lower_quartile(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "quartile of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    v[(v.len() as f64 * 0.25).ceil().max(1.0) as usize - 1]
}

/// Outcome counts of one measured window. Every request the load
/// generator issued in the window ends in exactly one of: completed with
/// a correct output, an error, a rejection, or a completed request whose
/// output failed its check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Accounting {
    /// Requests issued in the window.
    pub issued: u64,
    /// Requests that returned an error other than a rejection.
    pub errors: u64,
    /// Requests refused by overload control (`Busy`).
    pub rejected: u64,
    /// Requests that completed but whose output was wrong.
    pub bad_output: u64,
}

impl Accounting {
    /// Requests that count as failed.
    pub fn failed(&self) -> u64 {
        self.errors + self.rejected + self.bad_output
    }

    /// `failed / issued` (0 when nothing was issued).
    pub fn fail_frac(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.failed() as f64 / self.issued as f64
        }
    }
}

/// Find the highest rate that meets an objective, to within a relative
/// `resolution`, assuming `meets` is monotone (true below the knee,
/// false above it). The rate returned is one `meets` accepted.
///
/// The bracket `[lo, hi]` is widened by halving `lo` / doubling `hi` (at
/// most `max_widen` times each) until `lo` meets and `hi` does not, then
/// bisected geometrically until `hi / lo <= 1 + resolution`. Returns
/// `None` when no rate down to the widened `lo` meets the objective; a
/// curve that still meets at the widened `hi` reports that `hi`.
pub fn find_knee(
    mut lo: f64,
    mut hi: f64,
    resolution: f64,
    max_widen: u32,
    mut meets: impl FnMut(f64) -> bool,
) -> Option<f64> {
    assert!(lo > 0.0 && hi > lo && resolution > 0.0, "bad knee bracket");
    let mut hi_fails = false;
    let mut widen = 0;
    while !meets(lo) {
        if widen == max_widen {
            return None;
        }
        (hi, lo, hi_fails) = (lo, lo / 2.0, true);
        widen += 1;
    }
    if !hi_fails {
        let mut widen = 0;
        while meets(hi) {
            if widen == max_widen {
                return Some(hi);
            }
            (lo, hi) = (hi, hi * 2.0);
            widen += 1;
        }
    }
    while hi / lo > 1.0 + resolution {
        let mid = (lo * hi).sqrt();
        if meets(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        // p99 of 1000: rank 990, 10 beyond -> reported.
        let p = percentile(&v, 0.99).expect("10 beyond");
        assert_eq!(
            p,
            Percentile {
                value: 990,
                n: 1000,
                beyond: 10
            }
        );
        // p99.9 of 1000: rank 999, 1 beyond -> withheld.
        assert_eq!(percentile(&v, 0.999), None);
        // 999 samples: p99 rank 990, 9 beyond -> withheld.
        assert_eq!(percentile(&v[..999], 0.99), None);
        // p50 of 20 samples: rank 10, 10 beyond -> reported.
        let p = percentile(&v[..20], 0.5).expect("10 beyond");
        assert_eq!((p.value, p.beyond), (10, 10));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_p999_needs_ten_thousand() {
        let v: Vec<u64> = (0..10_000).collect();
        let p = percentile(&v, 0.999).expect("10 beyond");
        assert_eq!((p.value, p.n, p.beyond), (9989, 10_000, 10));
        assert_eq!(percentile(&v[..9_999], 0.999), None);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn lower_quartile_nearest_rank() {
        assert_eq!(lower_quartile(&[5.0]), 5.0);
        assert_eq!(lower_quartile(&[4.0, 3.0, 2.0, 1.0]), 1.0);
        let v: Vec<f64> = (1..=20).map(f64::from).rev().collect();
        assert_eq!(lower_quartile(&v), 5.0);
    }

    #[test]
    fn fail_frac_counts_every_failure_kind() {
        let a = Accounting {
            issued: 200,
            errors: 3,
            rejected: 5,
            bad_output: 2,
        };
        assert_eq!(a.failed(), 10);
        assert!((a.fail_frac() - 0.05).abs() < 1e-12);
        assert_eq!(Accounting::default().fail_frac(), 0.0);
        let clean = Accounting {
            issued: 7,
            ..Accounting::default()
        };
        assert_eq!(clean.failed(), 0);
        assert_eq!(clean.fail_frac(), 0.0);
    }

    /// A synthetic monotone curve: the objective holds up to `true_knee`.
    /// Returns the knee and every rate evaluated.
    fn search(true_knee: f64, lo: f64, hi: f64) -> (f64, Vec<f64>) {
        let mut calls = Vec::new();
        let k = find_knee(lo, hi, 0.02, 3, |r| {
            calls.push(r);
            r <= true_knee
        })
        .expect("a rate meets");
        (k, calls)
    }

    #[test]
    fn knee_found_within_resolution_inside_bracket() {
        let (k, calls) = search(237_000.0, 150_000.0, 350_000.0);
        assert!(k <= 237_000.0, "knee {k} above the truth");
        assert!(k >= 237_000.0 / 1.02, "knee {k} too coarse");
        assert!(calls.len() <= 10, "{} evaluations", calls.len());
        // The reported knee was itself evaluated (and so met).
        assert!(calls.contains(&k));
    }

    #[test]
    fn knee_bracket_widens_both_ways() {
        for truth in [60_000.0, 900_000.0] {
            let (k, calls) = search(truth, 150_000.0, 350_000.0);
            assert!(k <= truth && k >= truth / 1.02, "knee {k} for {truth}");
            assert!(calls.contains(&k));
        }
    }

    #[test]
    fn knee_none_when_nothing_meets_and_capped_when_everything_does() {
        assert_eq!(find_knee(100.0, 200.0, 0.02, 2, |_| false), None);
        assert_eq!(find_knee(100.0, 200.0, 0.02, 2, |_| true), Some(800.0));
    }
}
