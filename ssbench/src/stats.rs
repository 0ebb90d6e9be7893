//! Order statistics shared by the runner and `compare`.

/// Median of `values` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads printed here match the ones the acceptance check computes.
/// A single value is its own quartiles; `None` for an empty slice.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let ld = v.len();
    if ld == 0 {
        return None;
    }
    if ld == 1 {
        return Some((v[0], v[0], v[0]));
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// The nearest-rank value at percentile `p` (0 < p ≤ 100).
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    if v.is_empty() {
        return None;
    }
    // The epsilon keeps binary rounding of p from bumping an exact rank.
    let rank = ((p / 100.0) * v.len() as f64 - 1e-9).ceil().max(1.0) as usize;
    Some(v[rank.min(v.len()) - 1])
}

/// Samples a reported tail must leave beyond it.
const TAIL_BEYOND: f64 = 10.0;

/// The percentiles a tail is reported at, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`LADDER`] that still has at least
/// [`TAIL_BEYOND`] samples beyond it, as `(percentile, value)`. `None`
/// with too few samples for any of them.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len() as f64;
    let p = LADDER
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= TAIL_BEYOND - 1e-9)?;
    Some((p, percentile(values, p)?))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reverse order, to show the helpers sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // p99 of 2400 samples has 24 beyond it; p99.9 would have 2.4.
        let v = ramp(2400);
        assert_eq!(tail(&v), Some((99.0, 2376.0)));
        assert_eq!(v.iter().filter(|&&x| x > 2376.0).count(), 24);
        assert_eq!(tail(&ramp(10_000)), Some((99.9, 9990.0)));
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)), "exactly ten beyond");
        assert_eq!(tail(&ramp(999)).map(|t| t.0), Some(95.0));
        assert_eq!(tail(&ramp(240)).map(|t| t.0), Some(95.0));
        assert_eq!(tail(&ramp(92)).map(|t| t.0), Some(75.0));
        assert_eq!(tail(&ramp(20)), Some((50.0, 10.0)));
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&ramp(4)), Some((1.25, 2.5, 3.75)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]: the
        // exclusive method extrapolates past the data for tiny samples.
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 2.0, 3.5)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn median_and_nearest_rank_percentiles() {
        assert_eq!(median(&ramp(5)), Some(3.0));
        assert_eq!(median(&ramp(4)), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(percentile(&ramp(2400), 50.0), Some(1200.0));
        assert_eq!(percentile(&ramp(2400), 99.0), Some(2376.0));
        assert_eq!(percentile(&ramp(3), 100.0), Some(3.0));
        assert_eq!(percentile(&ramp(3), 1.0), Some(1.0));
    }
}
