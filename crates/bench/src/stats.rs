//! Minimal latency statistics for the `table3` binary and the custom
//! `cargo bench` harnesses, which print and record plain numbers.

use std::time::Duration;

/// Summary statistics over a set of latency samples.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: Duration,
    /// Median (p50).
    pub median: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// Minimum.
    pub min: Duration,
    /// Maximum.
    pub max: Duration,
}

impl Summary {
    /// Computes a summary; panics on empty input.
    pub fn from_samples(mut samples: Vec<Duration>) -> Self {
        assert!(!samples.is_empty(), "no samples");
        samples.sort_unstable();
        let count = samples.len();
        let total: Duration = samples.iter().sum();
        let pct = |p: f64| -> Duration {
            let idx = ((count as f64 - 1.0) * p).round() as usize;
            samples[idx]
        };
        Self {
            count,
            mean: total / count as u32,
            median: pct(0.50),
            p95: pct(0.95),
            min: samples[0],
            max: samples[count - 1],
        }
    }

    /// Mean in milliseconds (paper units).
    pub fn mean_ms(&self) -> f64 {
        self.mean.as_secs_f64() * 1e3
    }

    /// Percentage increase of this summary's mean over a baseline mean.
    pub fn increase_over(&self, baseline: &Summary) -> f64 {
        (self.mean.as_secs_f64() / baseline.mean.as_secs_f64() - 1.0) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_samples() {
        let samples = vec![
            Duration::from_millis(10),
            Duration::from_millis(20),
            Duration::from_millis(30),
            Duration::from_millis(40),
            Duration::from_millis(100),
        ];
        let s = Summary::from_samples(samples);
        assert_eq!(s.count, 5);
        assert_eq!(s.mean, Duration::from_millis(40));
        assert_eq!(s.median, Duration::from_millis(30));
        assert_eq!(s.min, Duration::from_millis(10));
        assert_eq!(s.max, Duration::from_millis(100));
    }

    #[test]
    fn increase_computation() {
        let base = Summary::from_samples(vec![Duration::from_millis(100); 3]);
        let slower = Summary::from_samples(vec![Duration::from_millis(146); 3]);
        let inc = slower.increase_over(&base);
        assert!((inc - 46.0).abs() < 0.5, "{inc}");
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_panics() {
        let _ = Summary::from_samples(vec![]);
    }
}
