//! Backend-aware job execution: `fio::run_jobs*` over a [`Platform`].
//!
//! Job execution needs the simulator's fabric (flows, device ports,
//! max-min allocation). These wrappers pull the fabric out of whatever
//! backend the caller selected and surface a typed
//! [`BackendError::NoFabric`] when the backend is measurement-only (a
//! real host, a replay fixture) — instead of forcing every consumer to
//! plumb a bare `&Fabric` around.

use crate::error::BackendError;
use numa_fio::{FioReport, JobSpec};
use numio_core::Platform;

/// [`numa_fio::run_jobs`] against the backend's fabric.
pub fn run_jobs<P: Platform>(platform: &P, jobs: &[JobSpec]) -> Result<FioReport, BackendError> {
    let fabric = platform.fabric().ok_or_else(|| BackendError::NoFabric {
        label: platform.label(),
    })?;
    Ok(numa_fio::run_jobs(fabric, jobs)?)
}

/// [`numa_fio::run_jobs_scenario`] against the backend's fabric.
pub fn run_jobs_scenario<P: Platform>(
    platform: &P,
    jobs: &[JobSpec],
    obs: &numa_obs::Obs,
) -> Result<FioReport, BackendError> {
    let fabric = platform.fabric().ok_or_else(|| BackendError::NoFabric {
        label: platform.label(),
    })?;
    Ok(numa_fio::run_jobs_scenario(fabric, jobs, obs)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordingPlatform;
    use crate::replay::ReplayPlatform;
    use numa_topology::NodeId;
    use numio_core::{CopySpec, SimPlatform};

    #[test]
    fn sim_backends_run_jobs() {
        let platform = SimPlatform::dl585();
        let job = JobSpec::nic(numa_iodev::NicOp::RdmaWrite, NodeId(3)).numjobs(2);
        let direct = numa_fio::run_jobs(platform.fabric(), std::slice::from_ref(&job)).unwrap();
        let through = run_jobs(&platform, std::slice::from_ref(&job)).unwrap();
        assert_eq!(through, direct);
        // A recording wrapper still exposes the fabric.
        let rec = RecordingPlatform::new(SimPlatform::dl585());
        assert!(run_jobs(&rec, &[job]).is_ok());
    }

    #[test]
    fn fabricless_backends_are_typed_errors() {
        let rec = RecordingPlatform::new(SimPlatform::dl585());
        let _ = rec.run_copy(&CopySpec {
            bind: NodeId(7),
            src: NodeId(0),
            dst: NodeId(7),
            threads: 4,
            bytes_per_thread: 1 << 20,
            reps: 1,
        });
        let replay = ReplayPlatform::from_jsonl(&rec.fixture().to_jsonl()).unwrap();
        let job = JobSpec::nic(numa_iodev::NicOp::RdmaWrite, NodeId(3));
        let e = run_jobs(&replay, &[job]).unwrap_err();
        assert_eq!(
            e,
            BackendError::NoFabric {
                label: "sim:dl585-g7".to_string()
            }
        );
        assert!(e.to_string().contains("exposes no fabric"), "{e}");
    }

    #[test]
    fn job_failures_pass_through_typed() {
        let platform = SimPlatform::dl585();
        let e = run_jobs(&platform, &[]).unwrap_err();
        assert_eq!(e, BackendError::Fio(numa_fio::FioError::NoJobs));
    }
}
