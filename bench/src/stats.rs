//! Order statistics for the ledger: medians, quartiles, nearest-rank
//! percentiles and the "ten samples beyond" rule for tail percentiles.

/// A sorted sample.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    /// Sorts `values` into a sample. NaNs are a harness bug.
    ///
    /// # Panics
    ///
    /// Panics if a value is NaN.
    #[must_use]
    pub fn new(mut values: Vec<f64>) -> Sample {
        values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a sample"));
        Sample { sorted: values }
    }

    /// Number of values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when the sample holds no value.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Nearest-rank percentile: the smallest value with at least `p`
    /// percent of the sample at or below it. `0` for an empty sample.
    #[must_use]
    pub fn percentile(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let n = self.sorted.len();
        let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
        self.sorted[rank - 1]
    }

    /// The median (mean of the two middle values for an even count).
    #[must_use]
    pub fn median(&self) -> f64 {
        let n = self.sorted.len();
        match n {
            0 => 0.0,
            _ if n % 2 == 1 => self.sorted[n / 2],
            _ => (self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0,
        }
    }

    /// First and third quartile as Python's
    /// `statistics.quantiles(values, n=4)` gives them (the exclusive
    /// method), which is what the driver computes spreads with.
    #[must_use]
    pub fn quartiles(&self) -> (f64, f64) {
        let n = self.sorted.len();
        if n < 2 {
            let v = self.sorted.first().copied().unwrap_or(0.0);
            return (v, v);
        }
        let at = |i: usize| {
            // Position i*(n+1)/4 on a 1-based scale, interpolated.
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 / 4.0 - j as f64;
            self.sorted[j - 1] + (self.sorted[j] - self.sorted[j - 1]) * delta
        };
        (at(1), at(3))
    }

    /// Interquartile distance as a share of the median: the spread the
    /// driver holds against a metric's bound.
    #[must_use]
    pub fn spread(&self) -> f64 {
        let (q1, q3) = self.quartiles();
        let med = self.median();
        if med == 0.0 {
            0.0
        } else {
            (q3 - q1) / med.abs()
        }
    }

    /// The highest of p99 / p95 / p90 / p75 that still has at least ten
    /// samples beyond it, with its value; `None` below 40 samples.
    #[must_use]
    pub fn tail(&self) -> Option<(u32, f64)> {
        let n = self.sorted.len();
        [99u32, 95, 90, 75].into_iter().find_map(|p| {
            let rank = ((f64::from(p) / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1));
            (n >= rank + 10).then(|| (p, self.percentile(f64::from(p))))
        })
    }
}

/// Geometric mean of positive values; `0` if the slice is empty or any
/// value is not positive.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Sample {
        Sample::new((1..=n).map(|v| v as f64).rev().collect())
    }

    #[test]
    fn nearest_rank_percentile() {
        let s = sample(100);
        assert_eq!(s.percentile(50.0), 50.0);
        assert_eq!(s.percentile(95.0), 95.0);
        assert_eq!(s.percentile(99.0), 99.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(s.percentile(0.0), 1.0);
        let s = sample(7);
        // ceil(0.5 * 7) = 4, ceil(0.95 * 7) = 7.
        assert_eq!(s.percentile(50.0), 4.0);
        assert_eq!(s.percentile(95.0), 7.0);
        assert_eq!(Sample::default().percentile(50.0), 0.0);
    }

    #[test]
    fn median_and_python_quartiles() {
        assert_eq!(sample(5).median(), 3.0);
        assert_eq!(sample(4).median(), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let (q1, q3) = sample(10).quartiles();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = sample(3).quartiles();
        assert_eq!((q1, q3), (1.0, 3.0));
        assert!((sample(10).spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(sample(39).tail(), None);
        // 40 samples: p75 is rank 30, ten beyond it.
        assert_eq!(sample(40).tail(), Some((75, 30.0)));
        // 100 samples: p99 has one beyond, p95 five, p90 exactly ten.
        assert_eq!(sample(100).tail(), Some((90, 90.0)));
        // 200 samples: p95 is rank 190, ten beyond.
        assert_eq!(sample(200).tail(), Some((95, 190.0)));
        // 1000 samples: p99 is rank 990, ten beyond.
        assert_eq!(sample(1000).tail(), Some((99, 990.0)));
        assert_eq!(sample(999).tail().map(|t| t.0), Some(95));
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
    }
}
