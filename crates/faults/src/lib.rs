#![warn(missing_docs)]
//! # numa-faults
//!
//! Deterministic, seed-driven fault injection for the NUMA I/O model.
//!
//! The paper's central warning (§IV-A/C) is that static topology metrics
//! mislead: measured bandwidth shifts with asymmetric routing, OS buffer
//! placement, and IRQ load on the device-local node. This crate makes
//! those shifts *injectable*, so every layer above the fabric can be
//! exercised against the degraded machine it will eventually meet:
//!
//! * [`FaultPlan`] — a seedable, JSON-serializable timeline of
//!   [`FaultKind`]s with inject/heal windows ([`FaultWindow`]).
//! * [`FaultKind::lower`] — the one lowering: a fault becomes the
//!   [`numa_fabric::CapChange`]s of the resources it touches, validated
//!   once.
//! * [`degraded_fabric`] / [`degraded_platform`] — the *static* view: the
//!   changes applied to one shallow fabric copy, ready for
//!   re-characterization ([`numio_core::IoModeler`]) and drift detection
//!   (`numio_core::drift::diff`).
//! * [`FaultInjector`] — the *dynamic* view: the same changes scheduled as
//!   capacity events on a running [`numa_engine::Simulation`], so they hit
//!   mid-transfer and heal on schedule (`fault_injected` /
//!   `fault_healed` obs events).
//! * [`scenario`] — a canned baseline-vs-faulted comparison used by the
//!   CLI's `faults demo` subcommand and the determinism tests.
//!
//! Everything is deterministic: the same plan (same seed) produces
//! bit-identical timelines and reports.

pub mod apply;
pub mod inject;
pub mod plan;
pub mod scenario;

pub use apply::{degraded_backend, degraded_fabric, degraded_platform, FaultError, LINK_DOWN_GBPS};
pub use inject::FaultInjector;
pub use plan::{FaultKind, FaultPlan, FaultWindow};
pub use scenario::{run_demo, run_plan, ScenarioReport};
