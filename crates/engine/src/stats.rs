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
        lockstep([samples])[0]
    }

    /// Summarize each row, as [`Summary::from`] would, bit for bit.
    /// Runs of 4 rows of one length go through the lockstep kernel
    /// together; any other row goes alone. Four lanes keep every
    /// accumulator in the 16 SSE registers of baseline x86-64; eight
    /// spill, and ran slower than one row at a time.
    pub fn from_rows<R: AsRef<[f64]>>(rows: &[R]) -> Vec<Summary> {
        let mut out = Vec::with_capacity(rows.len());
        while out.len() < rows.len() {
            let rest = &rows[out.len()..];
            match block::<4, R>(rest) {
                Some(block) => out.extend(block),
                None => out.push(Summary::from(rest[0].as_ref())),
            }
        }
        out
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

/// The first `W` rows through [`lockstep`], if they have one length > 0.
fn block<const W: usize, R: AsRef<[f64]>>(rows: &[R]) -> Option<[Summary; W]> {
    let block = rows.get(..W)?;
    let len = block[0].as_ref().len();
    if len == 0 || block.iter().any(|r| r.as_ref().len() != len) {
        return None;
    }
    Some(lockstep(std::array::from_fn(|l| block[l].as_ref())))
}

/// Summarize `W` non-empty rows of one length side by side. Each lane
/// runs the one op sequence of a summary: min, max and the sum of
/// offsets from the first sample in row order, then the sum of
/// squared deviations. The lanes' dependency chains are independent, so
/// the CPU overlaps them instead of waiting out one chain's latency per
/// sample.
#[allow(clippy::needless_range_loop)] // sample `i` of every lane's row, in step
fn lockstep<const W: usize>(rows: [&[f64]; W]) -> [Summary; W] {
    let n = rows[0].len();
    let rows = rows.map(|r| &r[..n]);
    // The mean is taken about the first sample, so identical samples
    // average to exactly that sample (a plain sum of 100 x 27.3 over
    // 100 is 27.300000000000022).
    let first = rows.map(|r| r[0]);
    let mut min = [f64::INFINITY; W];
    let mut max = [f64::NEG_INFINITY; W];
    let mut offset = [0.0; W];
    for i in 0..n {
        for l in 0..W {
            let s = rows[l][i];
            // `f64::min`/`max` on an accumulator that is never NaN: a NaN
            // sample leaves it as it was, and so does a tied zero (where
            // `f64::min` may return either). A bare compare needs no NaN
            // fix-up, so it is one instruction.
            min[l] = if s < min[l] { s } else { min[l] };
            max[l] = if s > max[l] { s } else { max[l] };
            offset[l] += s - first[l];
        }
    }
    let mean: [f64; W] = std::array::from_fn(|l| first[l] + offset[l] / n as f64);
    let mut var = [0.0; W];
    for i in 0..n {
        for l in 0..W {
            let d = rows[l][i] - mean[l];
            var[l] += d * d;
        }
    }
    // A NaN's sign and payload vary with code generation, so a NaN mean
    // or std is reported as `f64::NAN`; `black_box` keeps the optimiser,
    // to which any NaN will do, from folding the check away.
    let canonical = |x: f64| if std::hint::black_box(x).is_nan() { f64::NAN } else { x };
    std::array::from_fn(|l| Summary {
        n,
        min: min[l],
        max: max[l],
        mean: canonical(mean[l]),
        std: canonical((var[l] / n as f64).sqrt()),
    })
}

/// Relative error `|predicted - measured| / measured`, as used in the
/// paper's Eq. 1 validation (§V-B).
pub fn relative_error(predicted: f64, measured: f64) -> f64 {
    (predicted - measured).abs() / measured.abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_par::rng::SplitMix64;

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
    fn min_max_skip_nan_and_keep_the_first_of_tied_zeros() {
        let bits = |s: Summary| (s.min.to_bits(), s.max.to_bits());
        assert_eq!(bits(Summary::from(&[0.0, -0.0])), (0.0f64.to_bits(), 0.0f64.to_bits()));
        assert_eq!(bits(Summary::from(&[-0.0, 0.0])), ((-0.0f64).to_bits(), (-0.0f64).to_bits()));
        assert_eq!(bits(Summary::from(&[f64::NAN, 1.0])), (1.0f64.to_bits(), 1.0f64.to_bits()));
        assert_eq!(bits(Summary::from(&[2.0, f64::NAN, 1.0])), (1.0f64.to_bits(), 2.0f64.to_bits()));
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

    fn same_bits(a: &Summary, b: &Summary) -> bool {
        a.n == b.n
            && [(a.min, b.min), (a.max, b.max), (a.mean, b.mean), (a.std, b.std)]
                .iter()
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// One sample: mostly probe-like bandwidths, sometimes a value that
    /// stresses the kernel's float semantics.
    fn sample(rng: &mut SplitMix64) -> f64 {
        const ODD: [f64; 7] = [f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 27.3, 1e300];
        match rng.below(8) {
            0 => ODD[rng.below(ODD.len() as u64) as usize],
            _ => rng.range_f64(-5.0, 60.0),
        }
    }

    #[test]
    fn from_rows_matches_per_row_summaries_bit_for_bit() {
        for case in 0..3000u64 {
            let mut rng = SplitMix64::new(case);
            let rows_n = 1 + rng.below(33) as usize;
            let shared = rng.below(131) as usize;
            let rows: Vec<Vec<f64>> = (0..rows_n)
                .map(|_| {
                    // Most rows share one length, so blocks form; the
                    // rest break them up.
                    let len = if rng.below(4) == 0 { rng.below(131) as usize } else { shared };
                    match rng.below(6) {
                        // A constant row.
                        0 => vec![sample(&mut rng); len],
                        // No odd values, so only the sums can differ.
                        1 => (0..len).map(|_| rng.range_f64(0.0, 60.0)).collect(),
                        _ => (0..len).map(|_| sample(&mut rng)).collect(),
                    }
                })
                .collect();
            let got = Summary::from_rows(&rows);
            assert_eq!(got.len(), rows.len(), "case {case}");
            for (i, (g, row)) in got.iter().zip(&rows).enumerate() {
                let want = Summary::from(row);
                assert!(same_bits(g, &want), "case {case} row {i}: {g:?} vs {want:?} {:x} {:x} {:x} {:x}", g.mean.to_bits(), want.mean.to_bits(), g.std.to_bits(), want.std.to_bits());
            }
        }
    }

    #[test]
    fn from_rows_keeps_constant_rows_exact() {
        let rows = vec![vec![27.3; 100]; 13];
        for s in Summary::from_rows(&rows) {
            assert_eq!(s.mean.to_bits(), 27.3f64.to_bits());
            assert_eq!(s.std, 0.0);
        }
        assert!(Summary::from_rows::<Vec<f64>>(&[]).is_empty());
    }

    #[test]
    fn range_avg_formats() {
        let s = Summary::from(&[26.0, 27.3]);
        assert_eq!(s.range_avg(), "26.0 – 27.3 / 26.6");
    }
}
