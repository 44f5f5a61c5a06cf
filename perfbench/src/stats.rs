//! Summary statistics shared by every workload: median, quartiles (the
//! same "exclusive" method as Python's `statistics.quantiles(n=4)`, which
//! `spread.py` uses across runs) and the ten-sample tail rule.

/// `xs` sorted ascending (NaN-free input assumed).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    v
}

/// Median of `xs`; 0 for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile of `xs`, computed exactly as
/// Python's `statistics.quantiles(xs, n=4)` (method `"exclusive"`). A
/// single sample is its own quartiles; an empty sample gives zeros.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// A tail latency: the highest percentile of the sample that still has at
/// least ten samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// The percentile `value` sits at (0–100).
    pub percentile: f64,
    /// Samples ranked above `value`.
    pub beyond: usize,
    /// Sample size.
    pub samples: usize,
}

/// The ten-sample tail rule. With `n > 10` samples the tail is the
/// `(n - 10)`-th smallest value, i.e. percentile `100 (n - 10) / n`,
/// with exactly ten samples ranked beyond it. A sample of ten or fewer
/// supports no such percentile; its maximum is reported with `beyond`
/// below ten so the shortfall is visible.
pub fn tail(xs: &[f64]) -> Tail {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 0.0,
            beyond: 0,
            samples: 0,
        };
    }
    if n <= 10 {
        return Tail {
            value: v[n - 1],
            percentile: 100.0,
            beyond: 0,
            samples: n,
        };
    }
    Tail {
        value: v[n - 11],
        percentile: 100.0 * (n - 10) as f64 / n as f64,
        beyond: 10,
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 100 samples 1..=100: the 90th smallest has 91..=100 beyond it.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!((t.beyond, t.samples), (10, 100));
        // 1000 samples: p99, value 990.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.value, t.percentile), (990.0, 99.0));
        // 11 samples: the smallest is the only one with ten beyond.
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 1.0);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn tail_of_a_short_sample_is_its_maximum_with_the_shortfall_shown() {
        let t = tail(&[4.0, 9.0, 1.0]);
        assert_eq!(
            (t.value, t.percentile, t.beyond, t.samples),
            (9.0, 100.0, 0, 3)
        );
        let t = tail(&[]);
        assert_eq!((t.value, t.samples), (0.0, 0));
    }
}
