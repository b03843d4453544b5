//! Small summary statistics used across reports.

numa_par::json_struct! {
    /// Five-number-ish summary of a sample set.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Summary {
        /// Number of samples.
        pub n: usize,
        /// Minimum.
        pub min: f64,
        /// Maximum.
        pub max: f64,
        /// Arithmetic mean.
        pub mean: f64,
        /// Population standard deviation.
        pub std: f64,
    }
}

impl Summary {
    /// The summary of zero samples: `n == 0` and all moments zero.
    pub fn empty() -> Self {
        Summary { n: 0, min: 0.0, max: 0.0, mean: 0.0, std: 0.0 }
    }

    /// Summarize a slice. An empty slice yields [`Summary::empty`]
    /// rather than panicking, so callers aggregating filtered sample
    /// sets (e.g. a probe run that produced no samples) stay total.
    pub fn from(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Summary::empty();
        }
        let n = samples.len();
        // The mean is taken about the first sample, so identical samples
        // average to exactly that sample (a plain sum of 100 x 27.3 over
        // 100 is 27.300000000000022).
        let first = samples[0];
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut offset = 0.0;
        for &s in samples {
            min = min.min(s);
            max = max.max(s);
            offset += s - first;
        }
        let mean = first + offset / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        Summary { n, min, max, mean, std: var.sqrt() }
    }

    /// Relative spread `(max - min) / mean`; 0 for constant samples.
    pub fn rel_spread(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.mean
        }
    }

    /// Render as the paper's "Range / Avg" table cell pair.
    pub fn range_avg(&self) -> String {
        format!("{:.1} – {:.1} / {:.1}", self.min, self.max, self.mean)
    }
}

/// Relative error `|predicted - measured| / measured`, as used in the
/// paper's Eq. 1 validation (§V-B).
pub fn relative_error(predicted: f64, measured: f64) -> f64 {
    (predicted - measured).abs() / measured.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_samples() {
        let s = Summary::from(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.mean, 2.5);
        assert!((s.std - (1.25f64).sqrt()).abs() < 1e-12);
        assert!((s.rel_spread() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn constant_samples_have_zero_spread() {
        let s = Summary::from(&[5.0; 10]);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.rel_spread(), 0.0);
    }

    #[test]
    fn identical_samples_average_to_that_sample_exactly() {
        let s = Summary::from(&[27.3; 100]);
        assert_eq!(s.mean.to_bits(), 27.3f64.to_bits());
        assert_eq!(s.std, 0.0);
    }

    #[test]
    fn empty_input_yields_well_defined_summary() {
        // Regression: this used to panic, taking down any caller that
        // summarized a filtered-to-nothing sample set.
        let s = Summary::from(&[]);
        assert_eq!(s, Summary::empty());
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.rel_spread(), 0.0);
        assert_eq!(s.range_avg(), "0.0 – 0.0 / 0.0");
    }

    #[test]
    fn paper_relative_error_reproduces() {
        // |20.017 - 19.415| / 19.415 = 3.1%
        let e = relative_error(20.017, 19.415);
        assert!((e - 0.031).abs() < 5e-4, "{e}");
    }

    #[test]
    fn range_avg_formats() {
        let s = Summary::from(&[26.0, 27.3]);
        assert_eq!(s.range_avg(), "26.0 – 27.3 / 26.6");
    }
}
