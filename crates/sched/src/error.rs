//! The one error type of the placement layer: episode scheduling, policy
//! construction and the fleet.

use crate::task::TaskId;
use numa_engine::SimError;
use numa_topology::TopologyError;
use numio_core::PlatformError;
use std::fmt;

/// Everything that can go wrong while building a policy, running an
/// episode, generating a fleet or running a cluster placement episode.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedError {
    /// Empty trace.
    NoTasks,
    /// A task can never progress (zero rate, nothing pending).
    Starved {
        /// The stuck task.
        task: TaskId,
    },
    /// Event-count safety valve tripped.
    EventLimit,
    /// An allocation round kept failing after every retry (the machine
    /// degraded under the episode — e.g. the NIC vanished mid-run).
    AllocFailed {
        /// Attempts made, including the first.
        attempts: u32,
        /// The last underlying failure, rendered.
        last_error: String,
    },
    /// The selected measurement backend exposes no simulator fabric, so
    /// there is nothing to run episodes against (episodes are fluid
    /// simulations over the fabric's max-min allocator).
    NoFabric {
        /// The backend's label.
        label: String,
    },
    /// The backend has no I/O node to characterize placement against.
    NoIoNode {
        /// The backend's label.
        label: String,
    },
    /// A generated host spec failed topology validation.
    Topology(TopologyError),
    /// Characterization failed (a fleet host or a policy's backend).
    Platform(PlatformError),
    /// A per-host engine run failed.
    Sim {
        /// The host whose episode failed.
        host: usize,
        /// The engine's error.
        error: SimError,
    },
    /// A fleet needs at least one host.
    EmptyFleet,
    /// An episode needs at least one stream.
    NoStreams,
    /// A fleet policy name the scheduler does not know.
    UnknownPolicy {
        /// The offending name.
        name: String,
    },
    /// A fleet input (`hosts` or `streams`) is outside `1..=max`.
    OutOfRange {
        /// Which input.
        what: &'static str,
        /// Its upper bound.
        max: usize,
        /// The value given.
        got: usize,
    },
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::NoTasks => write!(f, "trace has no tasks"),
            SchedError::Starved { task } => write!(f, "task {task:?} starved"),
            SchedError::EventLimit => write!(f, "scheduler event limit exceeded"),
            SchedError::AllocFailed {
                attempts,
                last_error,
            } => {
                write!(
                    f,
                    "allocation failed after {attempts} attempts: {last_error}"
                )
            }
            SchedError::NoFabric { label } => {
                write!(f, "backend '{label}' exposes no fabric to schedule over")
            }
            SchedError::NoIoNode { label } => write!(f, "backend '{label}' has no I/O node"),
            SchedError::Topology(e) => write!(f, "host generation failed: {e}"),
            SchedError::Platform(e) => write!(f, "host characterization failed: {e}"),
            SchedError::Sim { host, error } => {
                write!(f, "simulation on host {host} failed: {error}")
            }
            SchedError::EmptyFleet => write!(f, "fleet has no hosts"),
            SchedError::NoStreams => write!(f, "episode has no streams"),
            SchedError::UnknownPolicy { name } => write!(
                f,
                "unknown placement policy '{name}' (expected class-ranked, \
                 bandwidth-aware or adaptive)"
            ),
            SchedError::OutOfRange { what, max, got } => {
                write!(f, "{what} must be in 1..={max}, got {got}")
            }
        }
    }
}

impl std::error::Error for SchedError {}

impl From<TopologyError> for SchedError {
    fn from(e: TopologyError) -> Self {
        SchedError::Topology(e)
    }
}

impl From<PlatformError> for SchedError {
    fn from(e: PlatformError) -> Self {
        SchedError::Platform(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(SchedError::EmptyFleet.to_string().contains("no hosts"));
        let e = SchedError::UnknownPolicy {
            name: "magic".into(),
        };
        assert!(e.to_string().contains("magic"));
        assert!(e.to_string().contains("class-ranked"));
        let e = SchedError::Sim {
            host: 3,
            error: SimError::NoFlows,
        };
        assert!(e.to_string().contains("host 3"));
    }

    #[test]
    fn conversions_wrap() {
        let e: SchedError = TopologyError::Empty.into();
        assert!(matches!(e, SchedError::Topology(_)));
        let e: SchedError = PlatformError::ZeroThreads.into();
        assert!(matches!(e, SchedError::Platform(_)));
    }
}
