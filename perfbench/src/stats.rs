//! Sample statistics: medians, supported tail percentiles, and ratios.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; fewer would make the tail one or two unlucky samples.
pub const MIN_BEYOND_TAIL: usize = 10;

/// The median of `samples` (mean of the two middle values for an even
/// count). `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The nearest-rank percentile `per_mille / 1000` of `samples`, but only
/// when at least [`MIN_BEYOND_TAIL`] samples lie strictly beyond its rank.
///
/// Per-mille integers (900 for p90, 990 for p99) keep the rank arithmetic
/// exact: `0.99 * 1000.0` is not 990 in floating point.
pub fn tail(samples: &[f64], per_mille: usize) -> Option<f64> {
    assert!(per_mille < 1000, "a tail percentile lies below the maximum");
    let sorted = sorted(samples);
    let n = sorted.len();
    let rank = (n * per_mille).div_ceil(1000); // 1-based nearest rank
    if rank == 0 || n - rank < MIN_BEYOND_TAIL {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The smallest sample count for which [`tail`] reports `per_mille`.
pub fn min_samples_for(per_mille: usize) -> usize {
    (1..)
        .find(|&n: &usize| {
            let rank = (n * per_mille).div_ceil(1000);
            rank > 0 && n - rank >= MIN_BEYOND_TAIL
        })
        .expect("some sample count supports every tail below the maximum")
}

/// `num / base`, or 0 when the base is 0: a ratio over no events (no
/// re-evaluations and no skips, no ingest ops) reports no work rather than
/// a NaN or an infinity that JSON cannot carry.
pub fn ratio(num: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        num / base
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled 1..=n so the functions must sort.
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v.swap(0, n / 2);
        v
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_requires_ten_samples_beyond_it() {
        // p90 of 100 samples has exactly 10 beyond rank 90.
        assert_eq!(tail(&ramp(100), 900), Some(90.0));
        assert_eq!(tail(&ramp(99), 900), None);
        // p99 needs a thousand.
        assert_eq!(tail(&ramp(999), 990), None);
        assert_eq!(tail(&ramp(1000), 990), Some(990.0));
        assert_eq!(tail(&[], 500), None);
        // The median as a "tail" needs 20 samples.
        assert_eq!(tail(&ramp(19), 500), None);
        assert_eq!(tail(&ramp(20), 500), Some(10.0));
    }

    #[test]
    fn min_samples_matches_tail() {
        for per_mille in [500, 900, 990] {
            let n = min_samples_for(per_mille);
            assert!(tail(&ramp(n), per_mille).is_some(), "{per_mille}");
            assert!(tail(&ramp(n - 1), per_mille).is_none(), "{per_mille}");
        }
        assert_eq!(min_samples_for(900), 100);
        assert_eq!(min_samples_for(990), 1000);
    }

    #[test]
    fn ratio_with_zero_base_is_zero() {
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert!(ratio(0.0, 0.0).is_finite());
    }
}
