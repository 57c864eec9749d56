//! Order statistics for timing samples.

/// Median of `values`: the middle sample, or the mean of the two middle
/// samples for an even count. NaN for an empty slice, so a workload
/// whose every attempt failed reports no number rather than a zero.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::median;

    #[test]
    fn odd_count_takes_the_middle_sample() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn even_count_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn outliers_do_not_move_it() {
        assert_eq!(median(&[1.0, 1.1, 1.2, 1.3, 900.0]), 1.2);
    }

    #[test]
    fn empty_sample_is_nan() {
        assert!(median(&[]).is_nan());
    }
}
