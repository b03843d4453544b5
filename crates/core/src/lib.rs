#![warn(missing_docs)]
//! # numio-core
//!
//! The paper's contribution (§V): **characterize a NUMA host's I/O
//! bandwidth without touching the I/O hardware**, by emulating each
//! device's DMA engine with `memcpy` threads pinned to the device-local
//! node, then turning the per-node bandwidths into a small set of
//! *performance classes* that
//!
//! 1. cut the characterization workload (probe one node per class),
//! 2. predict multi-user aggregate bandwidth (`BW = Σ αᵢ·BWᵢ`, Eq. 1), and
//! 3. drive contention-aware task placement.
//!
//! ## Layout
//!
//! * [`Platform`] — the probe surface: "run `m` copy threads bound to node
//!   `k`, copying from node `i` to node `j`, report bandwidth", plus
//!   capability metadata (topology handle, clock source, determinism,
//!   backend kind). [`SimPlatform`] backs it with the calibrated
//!   simulator; [`HostPlatform`] backs it with real threads and real
//!   `memcpy` on the machine running this code; the `numa-backend` crate
//!   adds record/replay wrappers over any of them.
//! * [`IoModeler`] — Algorithm 1, verbatim structure.
//! * [`IoPerfModel`] / [`classify()`] — per-node bandwidths + gap-based class
//!   construction with the paper's local+neighbour rule.
//! * [`predict_aggregate`] — Eq. 1 and its workload helpers.
//! * [`characterize_storage`] — the storage tier: the same probes mapped
//!   through the calibrated SSD curves into Table IV/V analogues per
//!   (engine × access mode) operating point.
//! * [`ScheduleAdvisor`] — §V-B's scheduling application: spread I/O tasks
//!   across the equivalent top classes instead of piling them on the local
//!   node.
//!
//! ## Quickstart
//!
//! ```
//! use numio_core::{IoModeler, SimPlatform, TransferMode};
//! use numa_topology::NodeId;
//!
//! let platform = SimPlatform::dl585();
//! let model = IoModeler::new().characterize(&platform, NodeId(7), TransferMode::Write);
//! // Table IV: three classes, {6,7} on top, {2,3} starved.
//! assert_eq!(model.classes().len(), 3);
//! assert_eq!(model.classes()[0].nodes, vec![NodeId(6), NodeId(7)]);
//! assert_eq!(model.classes()[2].nodes, vec![NodeId(2), NodeId(3)]);
//! ```

pub mod advisor;
pub mod atlas;
pub mod cbench;
pub mod classify;
pub mod drift;
pub mod host;
pub mod model;
pub mod modeler;
pub mod platform;
pub mod predict;
pub mod report;
pub mod storage;

pub use advisor::{Placement, ScheduleAdvisor};
pub use atlas::{Atlas, AtlasError};
pub use cbench::{MemCostModel, StreamAdvisor};
pub use classify::{classify, rank_correlation, ClassifyParams};
pub use drift::{diff as diff_models, recharacterize_and_diff, DiffError, ModelDiff, RecheckError};
pub use host::HostPlatform;
pub use model::{IoPerfModel, PerfClass, TransferMode};
pub use modeler::IoModeler;
pub use platform::{ClockSource, CopySpec, Platform, PlatformError, SimPlatform};
pub use predict::{predict_aggregate, predict_for_mix, relative_error, WorkloadMix};
pub use report::{render_comparison_table, render_model};
pub use storage::{
    characterize_storage, characterize_storage_full_host, DeviceSelector, StorageConfig,
    StorageError,
};
