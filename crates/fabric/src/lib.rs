#![warn(missing_docs)]
//! # numa-fabric
//!
//! Performance model of the coherent interconnect: **who can move how many
//! bits per second between which nodes, and what happens when transfers
//! share hardware**.
//!
//! The structural graph lives in `numa-topology`; this crate attaches
//! numbers to it:
//!
//! * [`Fabric`] — per-*directed*-link capacities for two traffic classes
//!   ([`TrafficClass::Dma`] bulk transfers by DMA engines, and
//!   [`TrafficClass::Pio`] CPU load/store traffic as produced by STREAM),
//!   per-node local-copy ceilings, and path bandwidth as the min-cut along
//!   the firmware route. Directed capacities are the mechanism behind the
//!   paper's measured asymmetries (request/response buffer imbalance, link
//!   width configuration — §IV-A citing the AMD BKDG).
//! * [`solve_max_min`] — progressive-filling max-min fair allocation, used
//!   by `numa-engine` whenever concurrent flows share links, memory
//!   controllers, CPUs, or device ports.
//! * [`LatencyModel`] — per-hop latency and the Table I "NUMA factor".
//! * [`calibration`] — the constants fitted to the paper's published
//!   measurements (see DESIGN.md §5 for the policy).
//!
//! ## Example: the Table IV/V bottlenecks
//!
//! ```
//! use numa_fabric::calibration::dl585_fabric;
//! use numa_topology::NodeId;
//!
//! let fabric = dl585_fabric();
//! // DMA writes into the device node 7: nodes 2 and 3 are starved by the
//! // narrow request path (Table IV class 3) ...
//! let slow = fabric.dma_path_bandwidth(NodeId(3), NodeId(7));
//! let fast = fabric.dma_path_bandwidth(NodeId(6), NodeId(7));
//! assert!(slow < 0.6 * fast);
//! // ... while in the read direction node 3 is nearly as good as the
//! // neighbour (Table V class 2) — the direction asymmetry hop-distance
//! // models cannot express.
//! let read3 = fabric.dma_path_bandwidth(NodeId(7), NodeId(3));
//! assert!(read3 > 0.95 * fabric.dma_path_bandwidth(NodeId(7), NodeId(6)));
//! ```

pub mod allocator;
pub mod calibration;
pub mod fabric;
pub mod latency;
pub mod traffic;

pub use allocator::{solve_max_min, AllocError, FlowSpec, MaxMinProblem, MaxMinSolver};
pub use fabric::{CapChange, Fabric, FabricBuilder, FabricError, PioModel};

pub use latency::{numa_factor, LatencyModel};
pub use traffic::TrafficClass;
