#![warn(missing_docs)]
//! # numa-backend
//!
//! The pluggable measurement-backend layer: one [`Platform`](numio_core::Platform) pipeline for
//! the simulator, the real host, and record/replay.
//!
//! The paper's methodology (§V, Algorithm 1) is a *measurement
//! procedure*; what executes a probe should be swappable. `numio-core`
//! defines the [`Platform`](numio_core::Platform) trait and two executors (`SimPlatform`,
//! `HostPlatform`); this crate adds the capture side:
//!
//! * [`RecordingPlatform`] wraps any backend and logs every `(CopySpec,
//!   samples)` pair into a versioned JSONL [`Fixture`];
//! * [`ReplayPlatform`] answers probes from such a fixture bit-identically
//!   — so characterization, drift detection, and class prediction run
//!   deterministically in CI against traces captured on machines CI will
//!   never see (host measurements are noisy and machine-specific; replay
//!   is neither);
//! * [`AnyPlatform`] gives runtime selection (`sim` / `host` /
//!   `replay:<file>`) one concrete type, used by the CLI's global
//!   `--backend` flag;
//! * [`run_jobs`] / [`run_jobs_scenario`] run fio-style jobs against
//!   whatever backend was selected, with a typed error when the backend
//!   has no simulator fabric.
//!
//! ## Record → replay round trip
//!
//! ```
//! use numa_backend::{RecordingPlatform, ReplayPlatform};
//! use numio_core::{IoModeler, SimPlatform, TransferMode};
//! use numa_topology::NodeId;
//!
//! let modeler = IoModeler::new().reps(5);
//! let live = modeler.characterize(&SimPlatform::dl585(), NodeId(7), TransferMode::Write);
//!
//! let rec = RecordingPlatform::new(SimPlatform::dl585());
//! let recorded = modeler.characterize(&rec, NodeId(7), TransferMode::Write);
//! assert_eq!(recorded, live);
//!
//! let replay = ReplayPlatform::from_jsonl(&rec.fixture().to_jsonl()).unwrap();
//! let replayed = modeler.characterize(&replay, NodeId(7), TransferMode::Write);
//! assert_eq!(replayed, live); // bit-identical, label included
//! ```

pub mod error;
pub mod fixture;
pub mod jobs;
pub mod record;
pub mod replay;
pub mod select;

pub use error::BackendError;
pub use fixture::{preset_topology, Fixture, FixtureHeader, ProbeRecord, SCHEMA};
pub use jobs::{run_jobs, run_jobs_scenario};
pub use record::RecordingPlatform;
pub use replay::ReplayPlatform;
pub use select::AnyPlatform;

#[cfg(test)]
mod tests {
    use super::*;
    use numa_topology::NodeId;
    use numio_core::{IoModeler, Platform, SimPlatform, TransferMode};

    /// The tentpole guarantee: a full-host characterization recorded from
    /// the live (noisy) sim replays bit-identically.
    #[test]
    fn full_host_record_replay_round_trip_is_bit_identical() {
        let modeler = IoModeler::new().reps(4);
        let live = modeler.characterize_full_host(&SimPlatform::dl585());

        let rec = RecordingPlatform::new(SimPlatform::dl585());
        let recorded = modeler.characterize_full_host(&rec);
        assert_eq!(recorded, live, "recording must be transparent");

        let replay = ReplayPlatform::from_jsonl(&rec.fixture().to_jsonl()).unwrap();
        let replayed = modeler.characterize_full_host(&replay);
        assert_eq!(
            replayed, live,
            "replay must be bit-identical to the live run"
        );
        // And stable across repeated replays.
        assert_eq!(modeler.characterize_full_host(&replay), live);
    }

    /// Replaying with a different modeler configuration than was recorded
    /// is a typed error (the spec lookup misses), not a panic.
    #[test]
    fn replay_with_wrong_reps_is_typed() {
        let rec = RecordingPlatform::new(SimPlatform::dl585());
        let _ = IoModeler::new()
            .reps(4)
            .characterize(&rec, NodeId(7), TransferMode::Write);
        let replay = ReplayPlatform::from_jsonl(&rec.fixture().to_jsonl()).unwrap();
        let err = IoModeler::new()
            .reps(5)
            .try_characterize(&replay, NodeId(7), TransferMode::Write)
            .unwrap_err();
        assert!(
            matches!(err, numio_core::PlatformError::NoRecordedProbe { .. }),
            "{err}"
        );
    }

    #[test]
    fn all_three_backends_expose_the_extended_trait() {
        fn metadata<P: Platform>(p: &P) -> (&'static str, bool, usize) {
            (p.backend_kind(), p.deterministic(), p.num_nodes())
        }
        assert_eq!(metadata(&SimPlatform::dl585()), ("sim", true, 8));
        assert_eq!(
            metadata(&numio_core::HostPlatform::new(4)),
            ("host", false, 4)
        );
        let rec = RecordingPlatform::new(SimPlatform::dl585());
        let _ = IoModeler::new()
            .reps(1)
            .characterize(&rec, NodeId(7), TransferMode::Write);
        let replay = ReplayPlatform::from_jsonl(&rec.fixture().to_jsonl()).unwrap();
        assert_eq!(metadata(&replay), ("replay", true, 8));
    }
}
