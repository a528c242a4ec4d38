//! Order statistics the benchmark reports: medians, quartiles, the
//! tail-percentile rule, and the rule that drops a trial the host was not
//! in its fast state for.

/// Median of `values` (mean of the two middle values for an even count).
/// `NaN` for an empty slice, so a metric with no kept trial cannot pass
/// for a measurement.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
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

/// First, second and third quartile by the exclusive method — the one
/// Python's `statistics.quantiles(values, n=4)` uses, which is what the
/// acceptance check computes spreads with. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        // Position (i+1)(n+1)/4 in 1-based ranks, clamped to the sample.
        let num = (i + 1) * (n + 1);
        let j = (num / 4).clamp(1, n - 1);
        let delta = num as f64 / 4.0 - j as f64;
        *q = v[j - 1] + (v[j] - v[j - 1]) * delta.clamp(0.0, 1.0);
    }
    Some(out)
}

/// Inter-quartile range as a share of the median (the acceptance check's
/// spread). `NaN` with fewer than two values.
pub fn iqr_share(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => f64::NAN,
    }
}

/// The percentile ladder a tail is reported from.
const LADDER: [(f64, &str); 4] = [
    (0.50, "p50"),
    (0.90, "p90"),
    (0.99, "p99"),
    (0.999, "p99.9"),
];

/// The highest ladder percentile that still has at least ten samples
/// beyond it in a sample of `n`, as `(label, zero-based index into the
/// sorted sample)`. `None` below 20 samples, where not even the median
/// qualifies.
pub fn tail_rank(n: usize) -> Option<(&'static str, usize)> {
    LADDER
        .iter()
        .rev()
        .map(|&(p, label)| (label, ((p * n as f64).ceil() as usize).max(1)))
        .find(|&(_, rank)| n >= rank + 10)
        .map(|(label, rank)| (label, rank - 1))
}

/// The value at ladder percentile `p` (nearest-rank) of a sorted sample.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// How far above the run's fast level a bracket may read before its trial
/// stops counting.
pub const STATE_TOLERANCE: f64 = 0.15;

/// The host's fast level over a run: the lower quartile of all its bracket
/// readings, which holds while more than a quarter of them are fast. `NaN`
/// with fewer than two readings.
pub fn fast_level(readings: &[f64]) -> f64 {
    quartiles(readings).map_or(f64::NAN, |q| q[0])
}

/// The trial's reference — the mean of its two brackets — or `None` when
/// either bracket reads more than [`STATE_TOLERANCE`] above `level` and the
/// trial must be dropped.
///
/// The host has a fast and a slow state (the reference op takes 7.4 against
/// 11-12 us on the builder's host) and the server's timings do not scale
/// between them as the reference does — sleeps and timeouts do not scale at
/// all — so a median over trials of both states moves with the share of
/// each: `hot-2c`'s `top_p99_x` reads 304 with no slow trial, 277 with
/// 40 % and 227 with all. Counting the fast state alone holds it at 304-305
/// up to 60 %. The rule reads the reference only; it does not rank trials
/// by how fast the server was. It implies that the two brackets agree
/// within the tolerance, since no reading sits much below the fast level.
pub fn fast_state_ref(before: f64, after: f64, level: f64) -> Option<f64> {
    let mean = (before + after) / 2.0;
    // `max` passes over a NaN; the mean does not.
    (mean.is_finite() && before.max(after) <= level * (1.0 + STATE_TOLERANCE)).then_some(mean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v).unwrap();
        assert!((q[0] - 2.75).abs() < 1e-12);
        assert!((q[1] - 5.5).abs() < 1e-12);
        assert!((q[2] - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] clamps the
        // interpolation weight; ours stays inside the sample instead.
        assert!(quartiles(&[1.0]).is_none());
        // statistics.quantiles([2, 4, 4, 5, 7, 9, 10], n=4) == [4, 5, 9]
        let q = quartiles(&[10.0, 2.0, 4.0, 9.0, 4.0, 5.0, 7.0]).unwrap();
        assert_eq!(q, [4.0, 5.0, 9.0]);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert!(iqr_share(&[5.0]).is_nan());
    }

    #[test]
    fn tail_rank_keeps_ten_samples_beyond() {
        // 1 000 samples: p99 is the 990th value, ten lie beyond it.
        assert_eq!(tail_rank(1000), Some(("p99", 989)));
        // One fewer and p99 no longer qualifies.
        assert_eq!(tail_rank(999), Some(("p90", 899)));
        assert_eq!(tail_rank(10_000), Some(("p99.9", 9989)));
        assert_eq!(tail_rank(100), Some(("p90", 89)));
        assert_eq!(tail_rank(20), Some(("p50", 9)));
        assert_eq!(tail_rank(19), None);
        for n in 20..3000 {
            let (_, idx) = tail_rank(n).unwrap();
            assert!(n - (idx + 1) >= 10, "n={n} idx={idx}");
        }
    }

    #[test]
    fn percentile_sorted_is_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 500);
        assert_eq!(percentile_sorted(&v, 0.99), 990);
        assert_eq!(percentile_sorted(&[], 0.5), 0);
    }

    #[test]
    fn fast_level_is_the_lower_quartile_of_the_readings() {
        // Five readings in eight slow: the level is still a fast one.
        let mut readings = vec![7.4, 7.5, 7.45];
        readings.extend([11.8; 5]);
        assert!(fast_level(&readings) < 7.6);
        assert!(fast_level(&[7.4]).is_nan());
    }

    #[test]
    fn only_trials_in_the_fast_state_count() {
        assert_eq!(fast_state_ref(7.4, 7.8, 7.5), Some(7.6));
        assert_eq!(fast_state_ref(8.6, 7.5, 7.5), Some(8.05));
        // One slow bracket is enough; so are two that agree.
        assert_eq!(fast_state_ref(7.5, 8.7, 7.5), None);
        assert_eq!(fast_state_ref(12.0, 11.8, 7.5), None);
        assert_eq!(fast_state_ref(7.5, 7.5, f64::NAN), None);
        assert_eq!(fast_state_ref(f64::NAN, 7.5, 7.5), None);
    }
}
