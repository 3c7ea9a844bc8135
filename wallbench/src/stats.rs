//! Order statistics over timing samples.

/// The `p`-th percentile (0..=100) of `values`, linearly interpolated between
/// the two closest ranks (`rank = p/100 · (n-1)`), so `percentile(v, 50.0)`
/// is the usual median. Panics on an empty slice: every caller has already
/// counted a missing sample as a failed operation.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The median of `values` (see [`percentile`]).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The median of `f` over `items`.
pub fn median_by<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the "exclusive" method), which is what the benchmark contract measures
/// run-to-run spread with.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let q = |i: usize| {
        let pos = (i * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(1), q(2), q(3))
}

/// Completions per second over every window of `k` consecutive gaps of
/// `times` (sorted, seconds), the last completion left out: a closed batch
/// ends with one session running alone, which is not the farm's capacity.
/// A burst of interference slows the windows it falls in and no others, so
/// the median of these holds where the batch's own jobs / wall does not.
pub fn window_rates(times: &[f64], k: usize) -> Vec<f64> {
    let steady = &times[..times.len().saturating_sub(1)];
    steady
        .windows(k + 1)
        .map(|w| k as f64 / (w[k] - w[0]))
        .filter(|r| r.is_finite() && *r > 0.0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_rates_skip_the_tail_and_ride_out_a_stall() {
        // Two completions every second, a 3 s stall in the middle, and a
        // last job that ran alone for 5 s.
        let mut t: Vec<f64> = (0..8).map(|i| f64::from(i / 2)).collect();
        t.extend((8..15).map(|i| f64::from(i / 2) + 3.0));
        t.push(15.0);
        let rates = window_rates(&t, 4);
        assert_eq!(rates.len(), t.len() - 1 - 4);
        assert_eq!(median(&rates), 2.0);
        assert!(rates.iter().all(|r| *r <= 4.0 && *r >= 0.8));
        assert!(window_rates(&t[..5], 4).is_empty());
        assert!(window_rates(&[], 4).is_empty());
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((percentile(&v, 90.0) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_of_eleven_samples_hits_exact_ranks() {
        let v: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
    }
}
