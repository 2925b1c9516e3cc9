//! Order statistics for the benchmark's own reporting.
//!
//! Two rules from the choosing-metrics guide live here so every caller
//! gets them the same way: a reported value is a median with its
//! quartiles and sample count beside it, and a tail percentile is only
//! reported when at least ten samples lie beyond it.

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median, quartiles and sample count of one metric over the trials of
/// a run (or over the runs of a comparison).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Distance between the quartiles as a share of the median — the
    /// run-to-run spread the acceptance check compares to the bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Summarises `values`. Quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), because
/// that is what the acceptance driver computes; one sample is its own
/// quartiles.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summary of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    if n == 1 {
        return Summary {
            median,
            q1: median,
            q3: median,
            n,
        };
    }
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        // May be negative or exceed 4 at the clamped ends: the exclusive
        // method extrapolates there, exactly as Python does.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        median,
        q1: quartile(1),
        q3: quartile(3),
        n,
    }
}

/// Nearest-rank percentile `p` (0–100) of `samples`, reordering them in
/// place; `None` when fewer than [`TAIL_MIN_BEYOND`] samples lie beyond
/// it (the median, `p <= 50`, is always reported).
pub fn percentile(samples: &mut [u64], p: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let n = samples.len();
    // The epsilon keeps a product like 10000 * 99.9 / 100, which is not
    // exact in binary, from rounding up to the next rank.
    let rank = ((n as f64) * p / 100.0 - 1e-9).ceil() as usize;
    let idx = rank.clamp(1, n) - 1;
    if p > 50.0 && n - 1 - idx < TAIL_MIN_BEYOND {
        return None;
    }
    let (_, v, _) = samples.select_nth_unstable(idx);
    Some(*v)
}

/// Nearest-rank percentile `p` (0–100) of `values`, with no minimum
/// sample count: for choosing an estimate among repeated measurements
/// of one quantity, not for reporting a tail.
pub fn rank(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "rank of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() as f64) * p / 100.0 - 1e-9).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The tail rungs a latency may be reported at, highest first.
pub const TAIL_LADDER: [f64; 4] = [99.0, 95.0, 90.0, 75.0];

/// The tail latency of `samples`: the highest rung of [`TAIL_LADDER`]
/// with at least ten samples beyond it, or the median when the sample
/// is too small for any rung. Returns the percentile used and its
/// value.
pub fn tail(samples: &mut [u64]) -> (f64, u64) {
    for p in TAIL_LADDER {
        if let Some(v) = percentile(samples, p) {
            return (p, v);
        }
    }
    (50.0, percentile(samples, 50.0).expect("tail of no samples"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s = summarize(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = summarize(&[4.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        let s = summarize(&[3.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.5, 4.0, 5.5));
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let s = summarize(&[5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.spread(), 1.0);
        assert_eq!(summarize(&[7.0]).spread(), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=1000).rev().collect();
        assert_eq!(percentile(&mut v, 50.0), Some(500));
        assert_eq!(percentile(&mut v, 99.0), Some(990));
        assert_eq!(percentile(&mut v, 0.0), Some(1));
    }

    #[test]
    fn never_a_percentile_with_fewer_than_ten_samples_beyond_it() {
        // p99 of 1000 samples has exactly ten beyond it; of 999, nine.
        let mut v: Vec<u64> = (0..1000).collect();
        assert!(percentile(&mut v, 99.0).is_some());
        let mut v: Vec<u64> = (0..999).collect();
        assert_eq!(percentile(&mut v, 99.0), None);
        // p99.9 needs ten thousand.
        let mut v: Vec<u64> = (0..9_999).collect();
        assert_eq!(percentile(&mut v, 99.9), None);
        let mut v: Vec<u64> = (0..10_000).collect();
        assert_eq!(percentile(&mut v, 99.9), Some(9_989));
        // The median is always reported.
        let mut v = vec![3, 1, 2];
        assert_eq!(percentile(&mut v, 50.0), Some(2));
        assert_eq!(percentile(&mut [], 50.0), None);
    }

    #[test]
    fn rank_is_nearest_rank_without_a_sample_floor() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(rank(&v, 90.0), 18.0);
        assert_eq!(rank(&v, 50.0), 10.0);
        assert_eq!(rank(&[3.0, 1.0], 90.0), 3.0);
        assert_eq!(rank(&[7.0], 10.0), 7.0);
    }

    #[test]
    fn tail_walks_down_the_ladder() {
        let mut v: Vec<u64> = (0..5_000).collect();
        assert_eq!(tail(&mut v).0, 99.0);
        let mut v: Vec<u64> = (0..200).collect();
        assert_eq!(tail(&mut v), (95.0, 189));
        let mut v: Vec<u64> = (0..40).collect();
        assert_eq!(tail(&mut v), (75.0, 29));
        let mut v: Vec<u64> = (0..5).collect();
        assert_eq!(tail(&mut v), (50.0, 2));
    }
}
