//! Exact order statistics over raw samples. Every percentile the
//! benchmark reports is read from the sorted samples themselves, never
//! from a bucketed histogram, and travels with its sample count.

/// Raw samples of one quantity.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Records one sample.
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Sum of the samples.
    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> f64 {
        self.0.iter().copied().fold(0.0, f64::max)
    }

    /// The nearest-rank `q`-quantile: the smallest sample with at least
    /// a `q` share of the samples at or below it. 0 when empty (a layer
    /// the workload never reaches did no work).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = (q * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_samples() {
        let mut s = Samples::default();
        for v in (1..=100).rev() {
            s.push(f64::from(v));
        }
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(Samples::default().median(), 0.0);
    }
}
