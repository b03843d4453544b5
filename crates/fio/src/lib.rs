#![warn(missing_docs)]
//! # numa-fio
//!
//! A Flexible-I/O-Tester-style benchmark harness over the simulated host.
//!
//! The paper drives all of its device measurements with `fio` (plus the
//! authors' RDMA engine extension \[25\]): N processes, each pinned with
//! `numactl`, each transferring 400 GBytes in 128 KiB blocks, reporting the
//! average aggregate bandwidth (§III-B2, Table III). This crate mirrors
//! that workflow: [`JobSpec`] describes a job the way an fio job file
//! would, [`run_jobs`] lowers jobs to simulator flows (with device ports,
//! CPU budgets, IRQ derating and class ceilings attached) and reports
//! aggregates, and [`sweep()`] regenerates the multi-stream curves of
//! Figs. 5–7.
//!
//! The paper's other tools live in [`memsys`]: the memory policies jobs
//! bind with (`numactl`), `numastat` accounting, and STREAM, simulated
//! and on real memory. Every failure in this crate is a [`FioError`].
//!
//! ## Example
//!
//! ```
//! use numa_fio::{JobSpec, Workload, run_jobs};
//! use numa_iodev::NicOp;
//! use numa_fabric::calibration::dl585_fabric;
//! use numa_topology::NodeId;
//!
//! let fabric = dl585_fabric();
//! // 4 RDMA_WRITE streams pinned to node 3 — the starved Table IV class 3.
//! let job = JobSpec::nic(NicOp::RdmaWrite, NodeId(3)).numjobs(4).size_gbytes(4.0);
//! let report = run_jobs(&fabric, &[job]).unwrap();
//! assert!((report.aggregate_gbps - 17.05).abs() < 0.2);
//! ```

pub mod job;
pub mod jobfile;
pub mod memsys;
pub mod params;
pub mod runner;
pub mod sweep;

pub use job::{JobSpec, Workload};
pub use jobfile::parse as parse_jobfile;
pub use params::NetTestParams;
pub use runner::{
    assemble_report, build_sim, build_sim_with, check_streams, run_jobs, run_jobs_scenario,
    run_jobs_with, steady_job_rates, FioError, FioReport, JobReport, MAX_STREAMS,
};
pub use sweep::{sweep, SweepPoint};
