#![warn(missing_docs)]
//! # numa-topology
//!
//! Hardware topology model for cache-coherent NUMA hosts.
//!
//! This crate describes *what the machine looks like*: NUMA nodes (a CPU die
//! plus its directly attached memory), multi-die packages, point-to-point
//! coherent interconnect links (HyperTransport-style), I/O hubs, and the
//! PCIe devices hanging off them. It deliberately contains **no performance
//! numbers** — capacities, latencies and contention live in `numa-fabric`.
//!
//! The split mirrors the central observation of Li et al. (ICPP 2013):
//! topological distance (hop count) is *not* a usable predictor of NUMA
//! bandwidth cost, so the structural graph and the performance model must be
//! kept separate and related only through explicit routing.
//!
//! ## Key types
//!
//! * [`NodeId`], [`PackageId`], [`DeviceId`] — index newtypes.
//! * [`Topology`] — validated immutable machine description.
//! * [`TopologyBuilder`] — ergonomic construction with validation.
//! * [`RouteTable`] — per-source routing (BFS default + firmware overrides),
//!   every path in one arena, read through borrowed [`Route`] views.
//! * [`Locality`] — the paper's local / neighbour / remote(h) classification.
//! * [`HostSpec`] / [`TopoGen`] — parameterized, seed-reproducible topology
//!   generation for fleets of heterogeneous hosts.
//! * [`presets`] — the four Fig. 1 Magny-Cours variants, the calibrated
//!   DL585 G7 testbed of Table II, and the Table I comparison machines
//!   (regenerated through [`TopoGen`]).
//!
//! ## Example
//!
//! ```
//! use numa_topology::{presets, Locality, NodeId};
//!
//! let topo = presets::dl585_testbed();
//! assert_eq!(topo.num_nodes(), 8);
//! // Node 6 shares a package with node 7 -> "neighbour" in paper terms.
//! assert_eq!(topo.locality(NodeId(6), NodeId(7)), Locality::Neighbour);
//! // The NIC and both SSDs are attached to node 7.
//! for dev in topo.devices() {
//!     assert_eq!(dev.attached_to, NodeId(7));
//! }
//! ```

pub mod device;
pub mod distance;
pub mod error;
pub mod hostgen;
pub mod ids;
pub mod link;
pub mod node;
pub mod presets;
pub mod render;
pub mod routing;
pub mod sysfs;
pub mod topology;

pub use device::{DeviceKind, DeviceSpec, PcieGen, PcieInterface};
pub use distance::{hop_matrix, slit_matrix, SLIT_LOCAL};
pub use error::TopologyError;
pub use hostgen::{HostSpec, TopoGen, Wiring};
pub use ids::{CoreId, DeviceId, LinkId, NodeId, PackageId};
pub use link::{HtWidth, Link, LinkKind};
pub use node::NodeSpec;
pub use routing::{DirectedEdge, Route, RouteTable};
pub use sysfs::{discover, discover_from_root, Discovered, SysfsSnapshot};
pub use topology::{Locality, Topology, TopologyBuilder};
