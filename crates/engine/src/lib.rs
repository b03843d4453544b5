#![warn(missing_docs)]
//! # numa-engine
//!
//! A discrete-event simulator for concurrent bulk transfers over a
//! [`numa_fabric::Fabric`].
//!
//! Transfers are modelled as fluid **flows**: at any instant every active
//! flow receives the max-min fair rate given the hardware it crosses
//! (directed links, memory controllers, plus caller-registered resources
//! such as device ports and per-node CPU budgets). The event loop advances
//! from completion to completion (and jitter refresh to jitter refresh),
//! integrating transferred bytes exactly between events.
//!
//! This is the substrate under the paper's measurements: the fio runs of
//! Figs. 5–7 (multi-stream TCP/RDMA/SSD), the `memcpy` probes of the
//! proposed methodology (Fig. 10), and the Eq. 1 mixed-class validation all
//! lower to flow sets simulated here.
//!
//! Flows carry **arrival times**: the run loop is a true event calendar
//! ([`Time`], a [`Schedule`] that merges the sorted arrivals with a
//! binary heap of capacity changes and jitter ticks), so
//! open-loop traffic — seeded Poisson or bounded-Pareto interarrivals from
//! a [`Workload`] — runs next to the closed-loop batches the paper
//! measured, and every completion yields a flow-completion-time record
//! summarized by [`FctStats`].
//!
//! ## Example
//!
//! [`Simulation`] is the one engine type: pick a fabric, add explicit
//! flows or a [`Workload`], optionally arm faults ([`FaultSource`]) and
//! attach an observability handle, and run. The run's events and metrics
//! go to that `numa_obs::Obs` handle; there is no second recorder.
//!
//! ```
//! use numa_engine::{FlowSpec, Simulation, Workload};
//! use numa_fabric::calibration::dl585_fabric;
//! use numa_topology::NodeId;
//!
//! let fabric = dl585_fabric();
//! // Two concurrent copies into node 7: one from node 6 (fast path) and
//! // one from node 3 (the narrow Table IV class-3 path).
//! let report = Simulation::new(&fabric)
//!     .flows([
//!         FlowSpec::dma(NodeId(6), NodeId(7)).gbytes(40.0),
//!         FlowSpec::dma(NodeId(3), NodeId(7)).gbytes(40.0),
//!     ])
//!     .run()
//!     .unwrap();
//! // The class-3 flow finishes last and at a lower average rate.
//! assert!(report.flows[0].mean_gbps > report.flows[1].mean_gbps);
//!
//! // 50 small transfers arriving open-loop at 100 flows/s.
//! let template = FlowSpec::dma(NodeId(6), NodeId(7)).gbits(1.0).label("open");
//! let report = Simulation::new(&fabric)
//!     .workload(Workload::poisson(vec![template], 50, 100.0, 42))
//!     .observe(numa_obs::Obs::new())
//!     .run()
//!     .unwrap();
//! assert_eq!(report.flows.len(), 50);
//! assert!(report.fct.p99_s >= report.fct.p50_s);
//! ```

pub mod fct;
pub mod flow;
pub mod jitter;
pub mod resources;
pub mod schedule;
pub mod sim;
pub mod stats;
pub mod time;
pub mod workload;

pub use fct::{fct_digest, FctStats};
pub use flow::{Charges, FlowId, FlowResult, FlowSpec};
pub use jitter::JitterCfg;
pub use resources::{ResourceHandle, ResourceKey};
pub use schedule::{Event, Schedule};
pub use sim::{FaultSource, SimError, SimReport, Simulation};
pub use stats::Summary;
pub use time::Time;
pub use workload::{Arrivals, Workload};

/// The benchmark workspace's old name for [`Simulation`]; it exists for
/// `perf/` and goes with the next benchmark change.
pub type Scenario<'f> = Simulation<'f>;
