#![warn(missing_docs)]
//! # numio — NUMA I/O bandwidth performance models
//!
//! Umbrella crate for the `numio` workspace, a reproduction of Li et al.,
//! *"Characterization of Input/Output Bandwidth Performance Models in NUMA
//! Architecture for Data Intensive Applications"* (ICPP 2013).
//!
//! The workspace is layered bottom-up:
//!
//! * [`topology`] — structural machine description (nodes, packages, links,
//!   routing, presets including the DL585 G7 testbed).
//! * [`fabric`] — directed-capacity interconnect model: path bandwidth,
//!   max-min fair sharing, latency / NUMA factor.
//! * [`engine`] — discrete-event flow simulator: an event-calendar core
//!   with open-loop workload generators, flow-completion-time records,
//!   and one [`Simulation`](engine::Simulation) type that builds and runs
//!   them.
//! * [`memsys`] — memory subsystem: policies, numastat, STREAM simulation.
//! * [`iodev`] — NIC (TCP/RDMA) and SSD device models.
//! * [`fio`] — fio-like benchmark job harness.
//! * [`obs`] — unified observability: structured events, metrics registry,
//!   self-profiling spans, JSONL/Prometheus exporters.
//! * [`core`] — **the paper's contribution**: the memcpy-based I/O
//!   characterization methodology (Algorithm 1), performance-class
//!   classifier, Eq. 1 aggregate-bandwidth predictor, scheduler advisor,
//!   and the pluggable [`Platform`](core::Platform) measurement trait with
//!   sim and real-host executors.
//! * [`backend`] — backend selection plus record/replay: capture every
//!   probe a characterization makes into a versioned JSONL fixture and
//!   replay it bit-identically.
//! * [`sched`] — the one placement layer: online placement/migration
//!   episodes driven by the model, one [`Policy`](sched::Policy) trait and
//!   one class-ranked rule.
//! * [`faults`] — deterministic fault injection: degraded links, IRQ
//!   storms, device stalls, and scheduled inject/heal timelines.
//! * [`serve`] — long-running TCP/JSONL prediction service with a
//!   memoized characterization cache: characterize once, answer
//!   `predict`/`classify`/`place`/`atlas` requests from the cache until
//!   drift or an armed fault plan invalidates the affected key.
//! * [`fleet`] — `numa_sched::fleet`, warehouse scale: seeded generation
//!   of heterogeneous hosts (via [`topology::hostgen`]), per-host
//!   characterization profiles, and a cluster scheduler comparing the
//!   class-ranked, bandwidth-aware, and adaptive host rules.
//!
//! Fallible entry points across the workspace return per-crate error
//! types; the workspace-level [`Error`] unifies them (every one converts
//! via `?`), and [`prelude`] pulls the common vocabulary into scope.
//!
//! ## Quickstart
//!
//! ```
//! use numio::prelude::*;
//!
//! // A simulated DL585 G7 — the paper's testbed.
//! let platform = SimPlatform::dl585();
//! // Characterize I/O writes targeting node 7 (where the NIC/SSDs live).
//! let model = IoModeler::new().characterize(&platform, NodeId(7), TransferMode::Write);
//! // Nodes cluster into the performance classes of Table IV.
//! assert_eq!(model.classes().len(), 3);
//! ```

pub use numa_backend as backend;
pub use numa_engine as engine;
pub use numa_fabric as fabric;
pub use numa_faults as faults;
pub use numa_fio as fio;
pub use numa_iodev as iodev;
pub use numa_memsys as memsys;
pub use numa_obs as obs;
pub use numa_sched as sched;
pub use numa_sched::fleet;
pub use numa_serve as serve;
pub use numa_topology as topology;
pub use numio_core as core;

/// Workspace-level error: any failure a `numio` API can return.
///
/// Each layer keeps its own narrow error type (so library users matching
/// on one crate's failures are not forced through a workspace-wide enum),
/// and every one of them converts into `Error` with `?` — application
/// code can funnel the whole stack into one `Result<_, numio::Error>`.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// Structural topology construction failed ([`topology`]).
    Topology(topology::TopologyError),
    /// Reading a Linux sysfs snapshot failed ([`topology::sysfs`]).
    Sysfs(topology::sysfs::SysfsError),
    /// A what-if capacity change did not fit the fabric ([`fabric`]).
    Fabric(fabric::FabricError),
    /// Building or running a [`engine::Simulation`] failed ([`engine`]).
    Sim(engine::SimError),
    /// Placement failed: a scheduling episode, a policy's
    /// characterization, fleet generation or a cluster episode ([`sched`]).
    Sched(sched::SchedError),
    /// Lowering or running a benchmark job set failed ([`fio`]).
    Fio(fio::FioError),
    /// Parsing a fio-style job file failed ([`fio`]).
    JobFile(fio::JobFileError),
    /// A simulated memory allocation failed ([`memsys`]).
    Alloc(memsys::AllocError),
    /// Two models cannot be compared for drift ([`core`]).
    Diff(core::DiffError),
    /// A copy specification or probe platform was invalid ([`core`]).
    Platform(core::PlatformError),
    /// A real-host measurement failed ([`memsys`]).
    Memsys(memsys::MemsysError),
    /// A probe fixture or backend selection was invalid ([`backend`]).
    Backend(backend::BackendError),
    /// Re-characterizing against a live backend for drift failed ([`core`]).
    Recheck(core::RecheckError),
    /// A fault plan was malformed or inapplicable ([`faults`]).
    Fault(faults::FaultError),
    /// Building or persisting a host atlas failed ([`core`]).
    Atlas(core::AtlasError),
    /// The prediction service failed ([`serve`]).
    Serve(serve::ServeError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Topology(e) => write!(f, "topology: {e}"),
            Error::Sysfs(e) => write!(f, "sysfs: {e}"),
            Error::Fabric(e) => write!(f, "fabric: {e}"),
            Error::Sim(e) => write!(f, "simulation: {e}"),
            Error::Sched(e) => write!(f, "scheduler: {e}"),
            Error::Fio(e) => write!(f, "fio: {e}"),
            Error::JobFile(e) => write!(f, "job file: {e}"),
            Error::Alloc(e) => write!(f, "allocation: {e}"),
            Error::Diff(e) => write!(f, "model diff: {e}"),
            Error::Platform(e) => write!(f, "platform: {e}"),
            Error::Memsys(e) => write!(f, "measurement: {e}"),
            Error::Backend(e) => write!(f, "backend: {e}"),
            Error::Recheck(e) => write!(f, "drift recheck: {e}"),
            Error::Fault(e) => write!(f, "faults: {e}"),
            Error::Atlas(e) => write!(f, "atlas: {e}"),
            Error::Serve(e) => write!(f, "serve: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Topology(e) => Some(e),
            Error::Sysfs(e) => Some(e),
            Error::Fabric(e) => Some(e),
            Error::Sim(e) => Some(e),
            Error::Sched(e) => Some(e),
            Error::Fio(e) => Some(e),
            Error::JobFile(e) => Some(e),
            Error::Alloc(e) => Some(e),
            Error::Diff(e) => Some(e),
            Error::Platform(e) => Some(e),
            Error::Memsys(e) => Some(e),
            Error::Backend(e) => Some(e),
            Error::Recheck(e) => Some(e),
            Error::Fault(e) => Some(e),
            Error::Atlas(e) => Some(e),
            Error::Serve(e) => Some(e),
        }
    }
}

macro_rules! impl_from_error {
    ($($variant:ident($ty:ty)),+ $(,)?) => {
        $(impl From<$ty> for Error {
            fn from(e: $ty) -> Self {
                Error::$variant(e)
            }
        })+
    };
}

impl_from_error!(
    Topology(topology::TopologyError),
    Sysfs(topology::sysfs::SysfsError),
    Fabric(fabric::FabricError),
    Sim(engine::SimError),
    Sched(sched::SchedError),
    Fio(fio::FioError),
    JobFile(fio::JobFileError),
    Alloc(memsys::AllocError),
    Diff(core::DiffError),
    Platform(core::PlatformError),
    Memsys(memsys::MemsysError),
    Backend(backend::BackendError),
    Recheck(core::RecheckError),
    Fault(faults::FaultError),
    Atlas(core::AtlasError),
    Serve(serve::ServeError),
);

/// Convenience alias: `Result` with the workspace [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// The common vocabulary of the workspace in one import.
///
/// ```
/// use numio::prelude::*;
/// let platform = SimPlatform::dl585();
/// assert_eq!(platform.fabric().num_nodes(), 8);
/// ```
pub mod prelude {
    pub use crate::Error;
    pub use numa_backend::{AnyPlatform, BackendError, RecordingPlatform, ReplayPlatform};
    pub use numa_engine::{FctStats, FlowSpec, SimError, SimReport, Simulation};
    pub use numa_fabric::{CapChange, Fabric, TrafficClass};
    pub use numa_faults::{FaultInjector, FaultKind, FaultPlan, FaultWindow};
    pub use numa_fio::{FioError, JobSpec, Workload};
    pub use numa_sched::fleet::{ClusterScheduler, Fleet, FleetReport, StreamSpec};
    pub use numa_sched::{ClassRanked, Policy, RetryPolicy, SchedError, Scheduler};
    pub use numa_serve::{CharacterizationCache, ModelService, ServeError};
    pub use numa_topology::{DeviceId, DirectedEdge, NodeId, Topology};
    pub use numio_core::{
        Atlas, AtlasError, ClockSource, CopySpec, HostPlatform, IoModeler, IoPerfModel, Platform,
        PlatformError, ScheduleAdvisor, SimPlatform, TransferMode,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_layer_error_converts_into_the_workspace_error() {
        fn roundtrip<E: Into<Error>>(e: E) -> Error {
            e.into()
        }
        assert!(matches!(
            roundtrip(engine::SimError::NoFlows),
            Error::Sim(engine::SimError::NoFlows)
        ));
        assert!(matches!(
            roundtrip(engine::SimError::Faults { reason: "x".into() }),
            Error::Sim(engine::SimError::Faults { .. })
        ));
        assert!(matches!(
            roundtrip(fabric::FabricError::UnknownDevice(9)),
            Error::Fabric(fabric::FabricError::UnknownDevice(9))
        ));
        assert!(matches!(
            roundtrip(sched::SchedError::NoTasks),
            Error::Sched(_)
        ));
        assert!(matches!(roundtrip(fio::FioError::NoNic), Error::Fio(_)));
        assert!(matches!(
            roundtrip(faults::FaultError::EmptyPlan),
            Error::Fault(_)
        ));
        assert!(matches!(
            roundtrip(core::PlatformError::ZeroThreads),
            Error::Platform(_)
        ));
        assert!(matches!(
            roundtrip(memsys::MemsysError::InvalidConfig { reason: "x".into() }),
            Error::Memsys(_)
        ));
        assert!(matches!(
            roundtrip(backend::BackendError::EmptyFixture),
            Error::Backend(_)
        ));
        assert!(matches!(
            roundtrip(core::RecheckError::Diff(core::DiffError::ShapeMismatch)),
            Error::Recheck(_)
        ));
        assert!(matches!(
            roundtrip(core::AtlasError::Empty),
            Error::Atlas(_)
        ));
        assert!(matches!(
            roundtrip(serve::ServeError::BadRequest { reason: "x".into() }),
            Error::Serve(_)
        ));
    }

    #[test]
    fn question_mark_funnels_layer_results() {
        fn sim_then_faults() -> crate::Result<f64> {
            let fabric = fabric::calibration::dl585_fabric();
            let mut sim = engine::Simulation::new(&fabric);
            sim.add_flow(
                engine::FlowSpec::dma(topology::NodeId(6), topology::NodeId(7)).gbits(46.5),
            );
            let report = sim.run()?; // SimError -> Error
            faults::FaultPlan::demo(42).validate()?; // FaultError -> Error
            Ok(report.makespan_s)
        }
        let makespan = sim_then_faults().unwrap();
        assert!((makespan - 1.0).abs() < 1e-9, "{makespan}");
    }

    #[test]
    fn display_names_the_failing_layer_and_source_is_wired() {
        use std::error::Error as _;
        let e: Error = faults::FaultError::EmptyPlan.into();
        assert_eq!(e.to_string(), "faults: fault plan has no faults");
        assert!(e.source().is_some());
        let e: Error = engine::SimError::NoFlows.into();
        assert!(e.to_string().starts_with("simulation: "));
    }

    #[test]
    fn prelude_covers_the_quickstart_vocabulary() {
        use crate::prelude::*;
        let platform = SimPlatform::dl585();
        let model =
            IoModeler::new()
                .reps(4)
                .characterize(&platform, NodeId(7), TransferMode::Write);
        assert_eq!(model.classes().len(), 3);
        let plan = FaultPlan::demo(1);
        assert!(plan.validate().is_ok());
    }
}
