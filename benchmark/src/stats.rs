//! Order statistics the benchmark reports: nearest-rank percentiles of
//! one lap's samples, the median over laps, and the quartile spread the
//! calibration table is built from.

/// Nearest-rank percentile of `samples` (`p` in `[0, 1]`); 0 for an
/// empty slice. Sorts a copy, so callers keep arrival order.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median with the midpoint rule for even counts; 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// First and third quartile by the exclusive method, step for step
/// what Python's `statistics.quantiles(values, n=4)` computes — the
/// acceptance check of this benchmark is taken with that function, so
/// the calibration table must use the same cut points. Needs at least
/// two samples.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(samples.len() >= 2, "quartiles need at least two samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median (0 when the median
/// is 0).
pub fn relative_spread(samples: &[f64]) -> f64 {
    let med = median(samples);
    if med == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.50), 50.0);
        assert_eq!(percentile(&xs, 0.95), 95.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // arrival order does not matter
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 0.5), 5.0);
    }

    #[test]
    fn median_of_laps() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!(close(q1, 2.75) && close(q3, 8.25));
        assert!(close(relative_spread(&xs), 1.0));
        // statistics.quantiles(range(1, 9), n=4) == [2.25, 4.5, 6.75]
        let xs: Vec<f64> = (1..=8).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!(close(q1, 2.25) && close(q3, 6.75));
        // statistics.quantiles([3.1, 2.9, 3.0, 3.4, 2.7], n=4) == [2.8, 3.0, 3.25]
        let (q1, q3) = quartiles(&[3.1, 2.9, 3.0, 3.4, 2.7]);
        assert!(close(q1, 2.8) && close(q3, 3.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let (q1, q3) = quartiles(&[10.0, 20.0]);
        assert!(close(q1, 7.5) && close(q3, 22.5));
    }
}
