//! Real memcpy probes: the host-side executor behind Algorithm 1.
//!
//! The paper's characterization procedure (§V, Algorithm 1) binds `m`
//! copy threads to the target node and times `memcpy` between buffers on
//! a source and a destination node. [`CopyProbe`] is that inner loop on
//! real memory: one source/destination buffer pair per worker, every
//! worker timed, the *slowest* worker bounding each repetition's
//! aggregate bandwidth (all threads move their bytes before a repetition
//! ends). NUMA binding itself is outside scope here — pin externally with
//! `numactl`, exactly as the paper ran `fio` and STREAM (§IV-A); this
//! module's job is to move real bytes with real threads and fail with a
//! typed [`FioError`] instead of panicking when the OS says no.

use crate::FioError;
use std::sync::Mutex;
use std::time::Instant;

/// One timed multi-threaded memcpy, repeated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyProbe {
    /// Worker threads (Algorithm 1: the core count of the bound node).
    pub threads: u32,
    /// Bytes each worker copies per repetition.
    pub bytes_per_thread: u64,
    /// Repetitions; one aggregate sample is reported per repetition.
    pub reps: u32,
}

impl CopyProbe {
    /// Check the configuration without running anything.
    pub fn validate(&self) -> Result<(), FioError> {
        if self.threads == 0 {
            return Err(FioError::InvalidConfig {
                reason: "at least one copy thread".to_string(),
            });
        }
        if self.reps == 0 {
            return Err(FioError::InvalidConfig {
                reason: "at least one repetition".to_string(),
            });
        }
        if self.bytes_per_thread == 0 {
            return Err(FioError::InvalidConfig {
                reason: "buffers must be non-empty".to_string(),
            });
        }
        Ok(())
    }

    /// Run the probe, returning one aggregate bandwidth sample (Gbit/s)
    /// per repetition.
    ///
    /// Each repetition spawns `threads` workers; every worker copies its
    /// buffer and the repetition's bandwidth is the total bytes moved
    /// divided by the slowest worker's time (the repetition is not done
    /// until the laggard is).
    pub fn run(&self) -> Result<Vec<f64>, FioError> {
        self.validate()?;
        let threads = self.threads as usize;
        let bytes = self.bytes_per_thread as usize;
        let mut buffers: Vec<(Vec<u8>, Vec<u8>)> = (0..threads)
            .map(|i| (vec![(i % 251) as u8; bytes], vec![0u8; bytes]))
            .collect();

        let mut samples = Vec::with_capacity(self.reps as usize);
        for _ in 0..self.reps {
            let durations = Mutex::new(Vec::with_capacity(threads));
            let mut spawn_err = None;
            std::thread::scope(|s| {
                for (idx, (src, dst)) in buffers.iter_mut().enumerate() {
                    let src: &[u8] = src;
                    let dst: &mut [u8] = dst;
                    let durations = &durations;
                    let spawned = std::thread::Builder::new()
                        .name(format!("copy-probe-{idx}"))
                        .spawn_scoped(s, move || {
                            let start = Instant::now();
                            dst.copy_from_slice(src);
                            // Keep the copy observable so the optimizer
                            // cannot elide it.
                            std::hint::black_box(dst.first().copied());
                            durations
                                .lock()
                                .expect("probe worker panicked while timing")
                                .push(start.elapsed().as_secs_f64());
                        });
                    if let Err(e) = spawned {
                        spawn_err = Some(FioError::SpawnFailed {
                            thread: idx,
                            reason: e.to_string(),
                        });
                        break; // already-spawned workers join at scope end
                    }
                }
            });
            if let Some(e) = spawn_err {
                return Err(e);
            }
            let slowest = durations
                .into_inner()
                .expect("probe worker panicked while timing")
                .into_iter()
                .fold(1e-9_f64, f64::max);
            let gbits = (threads as u64 * self.bytes_per_thread) as f64 * 8.0 / 1e9;
            samples.push(gbits / slowest);
        }
        Ok(samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_returns_one_sample_per_rep() {
        let probe = CopyProbe {
            threads: 2,
            bytes_per_thread: 64 * 1024,
            reps: 3,
        };
        let samples = probe.run().unwrap();
        assert_eq!(samples.len(), 3);
        for s in samples {
            assert!(s > 0.0 && s.is_finite(), "{s}");
        }
    }

    #[test]
    fn single_thread_probe_works() {
        let probe = CopyProbe {
            threads: 1,
            bytes_per_thread: 4096,
            reps: 1,
        };
        assert_eq!(probe.run().unwrap().len(), 1);
    }

    #[test]
    fn bad_configs_are_typed_errors() {
        let good = CopyProbe {
            threads: 2,
            bytes_per_thread: 4096,
            reps: 1,
        };
        assert_eq!(good.validate(), Ok(()));
        let e = CopyProbe { threads: 0, ..good }.run().unwrap_err();
        assert_eq!(
            e,
            FioError::InvalidConfig {
                reason: "at least one copy thread".to_string()
            }
        );
        assert!(CopyProbe { reps: 0, ..good }.run().is_err());
        assert!(CopyProbe {
            bytes_per_thread: 0,
            ..good
        }
        .run()
        .is_err());
        assert!(e.to_string().contains("invalid measurement config"), "{e}");
    }
}
