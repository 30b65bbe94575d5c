//! Order statistics over measured samples.

use std::time::Duration;

/// A duration in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sorts samples ascending (total order, so a stray NaN cannot panic).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Nearest-rank percentile of ascending samples, `q` in `0..=1`; 0 when
/// there are none.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of samples in any order.
pub fn median(samples: &[f64]) -> f64 {
    quartiles(&sorted(samples.to_vec())).1
}

/// First quartile, median and third quartile of ascending samples, as
/// Python's `statistics.quantiles(values, n=4)` computes them (its default
/// "exclusive" method), so a spread printed here matches one computed by
/// an outside script from the same values.
pub fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let len = sorted.len();
    match len {
        0 => return (0.0, 0.0, 0.0),
        1 => return (sorted[0], sorted[0], sorted[0]),
        _ => {}
    }
    let m = len as i64 + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, len as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
