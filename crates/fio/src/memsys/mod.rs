//! The memory subsystem of the simulated host, and the real-memory
//! kernels beside it:
//!
//! * [`MemPolicy`] — the Linux NUMA allocation policies the paper's tools
//!   (`numactl`, `libnuma`) manipulate: local-preferred (the 2.6 kernel
//!   default), bind, preferred, interleave (§II-B).
//! * [`MemoryState`] — per-node free memory with policy-driven allocation
//!   and `numastat`-style counters (hits, misses, foreign).
//! * [`StreamBench`] — a faithful simulation of how the paper drives the
//!   STREAM benchmark: four threads per node, arrays at least 4x the LLC,
//!   100 repetitions reporting the **maximum**, pinned with `numactl`
//!   semantics, producing the Fig. 3 bandwidth matrix and the Fig. 4
//!   CPU-centric / memory-centric models of a target node.
//! * [`RealStream`] / [`CopyProbe`] — STREAM and the Algorithm 1 memcpy
//!   loop on the machine running this code.
//!
//! Failures (a full node or host, a worker that would not spawn, a
//! configuration that cannot measure) are [`FioError`](crate::FioError)
//! variants.
//!
//! ## Example
//!
//! ```
//! use numa_fio::memsys::{MemoryState, MemPolicy};
//! use numa_topology::{presets, NodeId};
//!
//! let topo = presets::dl585_testbed();
//! let mut mem = MemoryState::dl585_idle(&topo);
//! // The idle system already shows the paper's asymmetry: node 0 holds the
//! // OS image and has far less free memory.
//! assert!(mem.free_mib(NodeId(0)) < mem.free_mib(NodeId(1)) / 2);
//! // A local-preferred allocation on node 3 lands on node 3.
//! let placement = mem.allocate(NodeId(3), &MemPolicy::LocalPreferred, 1024).unwrap();
//! assert_eq!(placement, vec![(NodeId(3), 1024)]);
//! ```

pub mod latency_bench;
pub mod numademo;
pub mod numastat;
pub mod policy;
pub mod probe;
pub mod state;
pub mod stream;
pub mod stream_host;

pub use latency_bench::{CacheHierarchy, LatencyBench, LatencyPoint};
pub use numademo::{run_all as numademo_all, Affinity, DemoResult, TestModule};
pub use numastat::{NumastatCounters, NumastatTable};
pub use policy::MemPolicy;
pub use probe::CopyProbe;
pub use state::MemoryState;
pub use stream::{StreamBench, StreamOp, StreamResult};
pub use stream_host::{RealStream, RealStreamResult};
