//! Real STREAM kernels on the host: the four array operations executed on
//! actual memory with actual threads, McCalpin-style.
//!
//! This is the measurement half of the real-host story: `HostPlatform`
//! (in `numio-core`) runs memcpy probes for Algorithm 1; this module runs
//! the classic STREAM benchmark itself — Copy / Scale / Add / Triad over
//! `f64` arrays, one slice per worker thread, best-of-N reporting, with
//! the paper's ≥4× LLC sizing rule checkable against the machine you are
//! on. Pin externally with `numactl` exactly as the paper did (§IV-A).

use crate::error::MemsysError;
use crate::stream::StreamOp;
use std::time::Instant;

/// Configuration for a real STREAM run.
#[derive(Debug, Clone, PartialEq)]
pub struct RealStream {
    /// Elements per array (`f64`s). The paper's rule: at least 4× the LLC
    /// (2,621,440 elements for a 5 MiB cache).
    pub elems: usize,
    /// Worker threads; each owns a contiguous slice.
    pub threads: usize,
    /// Repetitions; the maximum is reported (the paper's protocol).
    pub reps: u32,
}

impl Default for RealStream {
    fn default() -> Self {
        RealStream {
            elems: 2_621_440,
            threads: 4,
            reps: 10,
        }
    }
}

/// One real measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct RealStreamResult {
    /// The kernel.
    pub op: StreamOp,
    /// Best observed rate, Gbit/s (counting the kernel's bytes-per-element
    /// exactly as STREAM does: 16 for Copy/Scale, 24 for Add/Triad).
    pub max_gbps: f64,
    /// All samples.
    pub samples: Vec<f64>,
    /// Checksum of the destination array (keeps the optimizer honest and
    /// lets tests verify the arithmetic).
    pub checksum: f64,
}

/// Bytes moved per element per iteration, per the STREAM counting rules.
pub fn bytes_per_elem(op: StreamOp) -> u64 {
    match op {
        StreamOp::Copy | StreamOp::Scale => 16,
        StreamOp::Add | StreamOp::Triad => 24,
    }
}

impl RealStream {
    /// Check the configuration without measuring anything.
    pub fn validate(&self) -> Result<(), MemsysError> {
        if self.threads < 1 {
            return Err(MemsysError::InvalidConfig {
                reason: "at least one worker thread".to_string(),
            });
        }
        if self.reps < 1 {
            return Err(MemsysError::InvalidConfig {
                reason: "at least one repetition".to_string(),
            });
        }
        if self.elems < self.threads {
            return Err(MemsysError::InvalidConfig {
                reason: format!(
                    "arrays must cover every thread: {} elems < {} threads",
                    self.elems, self.threads
                ),
            });
        }
        Ok(())
    }

    /// Run one kernel for real, panicking on a bad configuration or a
    /// failed thread spawn. Use [`try_run`](Self::try_run) when the
    /// configuration comes from user input; the panic message is the
    /// typed error's `Display`.
    pub fn run(&self, op: StreamOp) -> RealStreamResult {
        self.try_run(op).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Run one kernel for real. Returns a typed [`MemsysError`] instead of
    /// panicking (or, as an older revision did, silently reporting zero
    /// bandwidth) when the configuration is unusable or the OS refuses to
    /// spawn a worker.
    pub fn try_run(&self, op: StreamOp) -> Result<RealStreamResult, MemsysError> {
        self.validate()?;
        const Q: f64 = 3.0; // STREAM's scalar
        let n = self.elems;
        let mut a = vec![1.0_f64; n];
        let mut b = vec![2.0_f64; n];
        let mut c = vec![0.0_f64; n];

        let mut samples = Vec::with_capacity(self.reps as usize);
        for _ in 0..self.reps {
            let start = Instant::now();
            // Split all three arrays into matching per-thread chunks.
            let chunk = n.div_ceil(self.threads);
            let mut spawn_err = None;
            std::thread::scope(|s| {
                let mut az: &mut [f64] = &mut a;
                let mut bz: &mut [f64] = &mut b;
                let mut cz: &mut [f64] = &mut c;
                let mut idx = 0usize;
                while !az.is_empty() {
                    let take = chunk.min(az.len());
                    let (ah, at) = az.split_at_mut(take);
                    let (bh, bt) = bz.split_at_mut(take);
                    let (ch, ct) = cz.split_at_mut(take);
                    az = at;
                    bz = bt;
                    cz = ct;
                    let spawned = std::thread::Builder::new()
                        .name(format!("stream-{op:?}-{idx}"))
                        .spawn_scoped(s, move || match op {
                            StreamOp::Copy => {
                                ch.copy_from_slice(ah);
                            }
                            StreamOp::Scale => {
                                for (bi, ci) in bh.iter_mut().zip(ch.iter()) {
                                    *bi = Q * ci;
                                }
                            }
                            StreamOp::Add => {
                                for ((ci, ai), bi) in ch.iter_mut().zip(ah.iter()).zip(bh.iter()) {
                                    *ci = ai + bi;
                                }
                            }
                            StreamOp::Triad => {
                                for ((ai, bi), ci) in ah.iter_mut().zip(bh.iter()).zip(ch.iter()) {
                                    *ai = bi + Q * ci;
                                }
                            }
                        });
                    if let Err(e) = spawned {
                        spawn_err = Some(MemsysError::SpawnFailed {
                            thread: idx,
                            reason: e.to_string(),
                        });
                        break; // already-spawned workers join at scope end
                    }
                    idx += 1;
                }
            });
            if let Some(e) = spawn_err {
                return Err(e);
            }
            let secs = start.elapsed().as_secs_f64().max(1e-9);
            let gbits = (n as u64 * bytes_per_elem(op)) as f64 * 8.0 / 1e9;
            samples.push(gbits / secs);
        }
        let max_gbps = samples.iter().cloned().fold(0.0, f64::max);
        let checksum = match op {
            StreamOp::Copy | StreamOp::Add => c.iter().sum(),
            StreamOp::Scale => b.iter().sum(),
            StreamOp::Triad => a.iter().sum(),
        };
        Ok(RealStreamResult {
            op,
            max_gbps,
            samples,
            checksum,
        })
    }

    /// Run all four kernels (the classic STREAM report order), panicking
    /// on failure; see [`try_run_all`](Self::try_run_all).
    pub fn run_all(&self) -> Vec<RealStreamResult> {
        self.try_run_all().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Run all four kernels, stopping at the first failure.
    pub fn try_run_all(&self) -> Result<Vec<RealStreamResult>, MemsysError> {
        StreamOp::ALL.iter().map(|&op| self.try_run(op)).collect()
    }

    /// Does this configuration defeat a cache of `llc_bytes` (the paper's
    /// 4x rule)?
    pub fn defeats_cache(&self, llc_bytes: u64) -> bool {
        (self.elems as u64) * 8 >= 4 * llc_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> RealStream {
        // Small arrays: CI-friendly; correctness is what we verify here.
        RealStream {
            elems: 64 * 1024,
            threads: 2,
            reps: 3,
        }
    }

    #[test]
    fn copy_produces_expected_checksum() {
        let r = small().run(StreamOp::Copy);
        // c[i] = a[i] = 1.0 for all i.
        assert_eq!(r.checksum, 64.0 * 1024.0);
        assert!(r.max_gbps > 0.0);
        assert_eq!(r.samples.len(), 3);
    }

    #[test]
    fn scale_produces_expected_checksum() {
        // After Copy is skipped, c stays 0 => b = 3*c = 0.
        let r = small().run(StreamOp::Scale);
        assert_eq!(r.checksum, 0.0);
    }

    #[test]
    fn add_produces_expected_checksum() {
        // c = a + b = 1 + 2 = 3 per element.
        let r = small().run(StreamOp::Add);
        assert_eq!(r.checksum, 3.0 * 64.0 * 1024.0);
    }

    #[test]
    fn triad_produces_expected_checksum() {
        // a = b + 3*c = 2 + 0 = 2 per element (c untouched in this run).
        let r = small().run(StreamOp::Triad);
        assert_eq!(r.checksum, 2.0 * 64.0 * 1024.0);
    }

    #[test]
    fn byte_counting_follows_stream_rules() {
        assert_eq!(bytes_per_elem(StreamOp::Copy), 16);
        assert_eq!(bytes_per_elem(StreamOp::Scale), 16);
        assert_eq!(bytes_per_elem(StreamOp::Add), 24);
        assert_eq!(bytes_per_elem(StreamOp::Triad), 24);
    }

    #[test]
    fn cache_rule_matches_paper_constant() {
        let paper = RealStream::default();
        assert!(paper.defeats_cache(5 * 1024 * 1024));
        assert!(!small().defeats_cache(5 * 1024 * 1024));
    }

    #[test]
    fn all_kernels_run_and_report() {
        let results = small().run_all();
        assert_eq!(results.len(), 4);
        for r in &results {
            assert!(r.max_gbps > 0.0, "{:?}", r.op);
            assert!(r.max_gbps.is_finite());
        }
    }

    #[test]
    fn bad_configs_surface_typed_errors() {
        let no_threads = RealStream {
            threads: 0,
            ..small()
        };
        assert_eq!(
            no_threads.try_run(StreamOp::Copy),
            Err(MemsysError::InvalidConfig {
                reason: "at least one worker thread".to_string()
            })
        );
        let no_reps = RealStream { reps: 0, ..small() };
        assert!(no_reps.try_run_all().is_err());
        let undersized = RealStream {
            elems: 1,
            threads: 2,
            reps: 1,
        };
        let e = undersized.validate().unwrap_err();
        assert!(
            e.to_string().contains("arrays must cover every thread"),
            "{e}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one worker thread")]
    fn panicking_run_reports_the_typed_message() {
        let _ = RealStream {
            threads: 0,
            ..small()
        }
        .run(StreamOp::Copy);
    }

    #[test]
    fn try_run_matches_run_checksums() {
        let r = small().try_run(StreamOp::Add).unwrap();
        assert_eq!(r.checksum, 3.0 * 64.0 * 1024.0);
    }

    #[test]
    fn odd_sizes_and_single_thread_work() {
        let cfg = RealStream {
            elems: 12_345,
            threads: 3,
            reps: 1,
        };
        let r = cfg.run(StreamOp::Add);
        assert_eq!(r.checksum, 3.0 * 12_345.0);
        let cfg = RealStream {
            elems: 1000,
            threads: 1,
            reps: 1,
        };
        assert!(cfg.run(StreamOp::Copy).max_gbps > 0.0);
    }
}
