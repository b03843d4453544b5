#![warn(missing_docs)]
//! # numa-sched
//!
//! Online placement and migration of parallel I/O tasks, driven by the
//! characterization models of `numio-core` — the system the paper names as
//! its first future-work item ("mechanisms of placing and migrating
//! parallel I/O threads for data-intensive applications based on the
//! result of our characterization methodology", §VI).
//!
//! Tasks arrive over time (a seeded [`trace`]), a [`Policy`] binds each
//! one to a NUMA node on arrival (and may migrate running tasks at
//! rebalance epochs), and the [`Scheduler`] advances a fluid simulation —
//! re-solving the max-min allocation through `numa_fio::steady_job_rates`
//! after every arrival, completion, or migration — until the trace drains.
//!
//! [`Policy`] is the one placement trait. Shipped policies cover the
//! design space the paper discusses:
//!
//! * [`policy::LocalOnly`] — everything on the device node (the baseline
//!   §V-B argues against);
//! * [`policy::HopGreedy`] — distance-based placement (the metric §IV
//!   debunks);
//! * [`policy::SpreadAll`] — round-robin over every node, classes ignored;
//! * [`ClassRanked`] — the one class-ranked rule, as the full-ranking
//!   fallback, model-driven (the model's equivalent top classes per
//!   direction) or the STREAM/cbench baseline pool;
//! * [`policy::ModelDrivenMigrating`] — model-driven plus epoch
//!   rebalancing with an explicit migration cost.
//!
//! The [`fleet`] module lifts placement to N heterogeneous hosts: a fleet
//! rule picks the host, and the class-ranked rule picks the node on it.
//!
//! ## Example
//!
//! ```
//! use numa_sched::{trace, policy, ClassRanked, Scheduler};
//! use numio_core::SimPlatform;
//!
//! let platform = SimPlatform::dl585();
//! let tasks = trace::poisson(8, 2.0, trace::MixProfile::Ingest, 42);
//! let naive = Scheduler::new(&platform).run(tasks.clone(), policy::LocalOnly::new()).unwrap();
//! let smart = Scheduler::new(&platform)
//!     .run(tasks, ClassRanked::model_driven(&platform).unwrap())
//!     .unwrap();
//! assert!(smart.mean_latency_s() <= naive.mean_latency_s());
//! ```

mod error;
pub mod fallback;
pub mod fleet;
pub mod metrics;
pub mod policy;
pub mod scheduler;
pub mod task;
pub mod trace;

pub use error::SchedError;
pub use fallback::{ClassRanked, RetryPolicy};
pub use metrics::EpisodeReport;
pub use policy::Policy;
pub use scheduler::Scheduler;
pub use task::{IoTask, TaskId, TaskOutcome};
