//! Order statistics over timing samples.

/// The `p`-th percentile (`0.0..=100.0`) of an ascending slice, by linear
/// interpolation between the two closest ranks (the "linear" method of
/// NumPy, R's type 7). Returns `NaN` for an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted"
    );
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let rank = p.clamp(0.0, 100.0) / 100.0 * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// The `p`-th percentile of unsorted samples (see [`percentile_sorted`]).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

/// The median of unsorted samples.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The `p`-th percentile of time-ordered samples, taken per window of
/// `window` consecutive samples and reported as the median over windows
/// (the last window absorbs the remainder). A single stall of the host
/// moves one window's percentile instead of the whole run's. With fewer
/// than two windows of samples it is the plain percentile.
pub fn windowed_percentile(in_order: &[f64], p: f64, window: usize) -> f64 {
    let windows = in_order.len() / window.max(1);
    if windows < 2 {
        return percentile(in_order, p);
    }
    let per_window: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                in_order.len()
            } else {
                (w + 1) * window
            };
            percentile(&in_order[w * window..end], p)
        })
        .collect();
    median(&per_window)
}

/// Milliseconds in a nanosecond count.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_one_to_hundred_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert!((percentile_sorted(&v, 50.0) - 50.5).abs() < 1e-12);
        assert!((percentile_sorted(&v, 99.0) - 99.01).abs() < 1e-9);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn high_percentile_of_few_samples_approaches_the_maximum() {
        let v = [10.0, 30.0, 20.0];
        let p99 = percentile(&v, 99.0);
        assert!(p99 > 29.0 && p99 <= 30.0, "{p99}");
    }

    #[test]
    fn windowed_percentile_confines_a_stall_to_its_window() {
        // Five windows of 1000 samples at 1 ms; one window holds a stall
        // that pushes 30 samples to 50 ms.
        let mut v = vec![1.0; 5000];
        for x in &mut v[2000..2030] {
            *x = 50.0;
        }
        assert!(percentile(&v, 99.5) > 1.0);
        assert_eq!(windowed_percentile(&v, 99.0, 1000), 1.0);
        // With too few samples for two windows it is the plain percentile.
        assert_eq!(
            windowed_percentile(&v[..1500], 99.0, 1000),
            percentile(&v[..1500], 99.0)
        );
    }

    #[test]
    fn windowed_percentile_tracks_a_steady_tail() {
        let v: Vec<f64> = (0..4000).map(|i| f64::from(i % 100)).collect();
        let w = windowed_percentile(&v, 99.0, 1000);
        assert!((w - percentile(&v, 99.0)).abs() < 1e-9, "{w}");
    }

    #[test]
    fn percentile_is_unaffected_by_input_order() {
        let a = [5.0, 1.0, 4.0, 2.0, 3.0];
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        for p in [0.0, 10.0, 25.0, 50.0, 90.0, 99.0] {
            assert_eq!(percentile(&a, p), percentile(&b, p));
        }
    }
}
