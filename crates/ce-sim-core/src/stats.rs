//! Small statistics helpers used by the measurement and validation
//! harnesses: running moments (Welford), percentiles, and relative error.

/// Running mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 if fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (+inf if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (-inf if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

/// Linear-interpolation percentile of a sample, `q` in `[0, 1]`.
///
/// # Panics
/// Panics if `data` is empty or `q` is outside `[0, 1]`.
pub fn percentile(data: &[f64], q: f64) -> f64 {
    assert!(!data.is_empty(), "percentile of empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Relative error `|measured - expected| / |expected|`.
///
/// Returns 0 when both values are 0, and +inf when only `expected` is 0.
pub fn relative_error(measured: f64, expected: f64) -> f64 {
    if expected == 0.0 {
        if measured == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (measured - expected).abs() / expected.abs()
    }
}

/// Arithmetic mean of a slice (0 for empty input).
pub fn mean(data: &[f64]) -> f64 {
    if data.is_empty() {
        0.0
    } else {
        data.iter().sum::<f64>() / data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_moments() {
        let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_summary_is_benign() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn merge_matches_sequential() {
        let all: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let seq: Summary = all.iter().copied().collect();
        let mut a: Summary = all[..37].iter().copied().collect();
        let b: Summary = all[37..].iter().copied().collect();
        a.merge(&b);
        assert_eq!(a.count(), seq.count());
        assert!((a.mean() - seq.mean()).abs() < 1e-10);
        assert!((a.variance() - seq.variance()).abs() < 1e-10);
        assert_eq!(a.min(), seq.min());
        assert_eq!(a.max(), seq.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: Summary = [1.0, 2.0, 3.0].into_iter().collect();
        let before = s.mean();
        s.merge(&Summary::new());
        assert_eq!(s.mean(), before);
        let mut empty = Summary::new();
        empty.merge(&s);
        assert_eq!(empty.count(), 3);
    }

    #[test]
    fn percentile_interpolates() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&data, 0.0), 1.0);
        assert_eq!(percentile(&data, 1.0), 4.0);
        assert_eq!(percentile(&data, 0.5), 2.5);
    }

    #[test]
    fn percentile_single_element() {
        assert_eq!(percentile(&[42.0], 0.37), 42.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile(&[], 0.5);
    }

    #[test]
    fn relative_error_cases() {
        assert_eq!(relative_error(110.0, 100.0), 0.1);
        assert_eq!(relative_error(0.0, 0.0), 0.0);
        assert!(relative_error(1.0, 0.0).is_infinite());
        assert_eq!(relative_error(90.0, -100.0), 1.9);
    }

    #[test]
    fn mean_of_slice() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[3.0, 5.0]), 4.0);
    }
}
