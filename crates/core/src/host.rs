//! A best-effort real-machine backend for the methodology.
//!
//! [`HostPlatform`] runs the same Algorithm 1 probes as the simulator, but
//! with real threads doing real `memcpy` on the machine executing this
//! code (the measurement loop itself lives in `numa_fio::memsys::CopyProbe`,
//! next to the real STREAM kernels). It does **not** pin threads or memory
//! (that requires `libnuma` / `numactl`, outside this reproduction's
//! dependency budget — see DESIGN.md §7): on a NUMA host, run the binary
//! under `numactl --cpunodebind=K --membind=I` exactly as the paper ran
//! STREAM; on a UMA host every "node" measures the same and the classifier
//! correctly reports a single remote class.
//!
//! Shape comes from one of three places: an explicit node count
//! ([`HostPlatform::new`], which also attaches a matching preset topology
//! for the 4- and 8-node shapes), a fully explicit shape
//! ([`HostPlatform::with_shape`]), or real sysfs discovery
//! ([`HostPlatform::discover`]).

use crate::platform::{ClockSource, CopySpec, Platform, PlatformError};
use numa_fio::memsys::CopyProbe;
use numa_topology::{presets, sysfs, NodeId, Topology};

/// Real-memcpy probe backend.
#[derive(Debug, Clone)]
pub struct HostPlatform {
    nodes: usize,
    cores_per_node: u32,
    topology: Option<Topology>,
}

impl HostPlatform {
    /// A platform with `nodes` NUMA nodes and up to 4 worker cores each
    /// (probe labelling only; without pinning all probes hit the same
    /// physical memory). The 4- and 8-node shapes get a matching preset
    /// topology attached so the modeler's convenience entry points work
    /// without an explicit topology.
    pub fn new(nodes: usize) -> Self {
        let parallelism = std::thread::available_parallelism()
            .map(|n| n.get() as u32)
            .unwrap_or(4);
        let topology = match nodes {
            4 => Some(presets::intel_4s4n()),
            8 => Some(presets::amd_4s8n()),
            _ => None,
        };
        HostPlatform {
            nodes,
            cores_per_node: parallelism.clamp(1, 4),
            topology,
        }
    }

    /// A platform with a fully explicit shape and no topology attached.
    pub fn with_shape(nodes: usize, cores_per_node: u32) -> Self {
        HostPlatform {
            nodes,
            cores_per_node: cores_per_node.max(1),
            topology: None,
        }
    }

    /// Discover the shape of the machine we are running on from a sysfs
    /// node tree rooted at `root` (pass `/sys/devices/system/node` for the
    /// live system). The discovered [`Topology`] is attached, so
    /// `characterize` works directly on the result.
    pub fn discover_from_root(root: &std::path::Path) -> Result<Self, sysfs::SysfsError> {
        let discovered = sysfs::discover_from_root(root, &[])?;
        let topo = discovered.topology;
        let nodes = topo.num_nodes();
        let cores = (0..nodes)
            .map(|n| topo.node(NodeId(n as u16)).cores)
            .max()
            .unwrap_or(1)
            .max(1);
        Ok(HostPlatform {
            nodes,
            cores_per_node: cores,
            topology: Some(topo),
        })
    }

    /// [`discover_from_root`](Self::discover_from_root) against the live
    /// `/sys` tree.
    pub fn discover() -> Result<Self, sysfs::SysfsError> {
        Self::discover_from_root(std::path::Path::new("/sys/devices/system/node"))
    }
}

impl Platform for HostPlatform {
    fn num_nodes(&self) -> usize {
        self.nodes
    }

    fn cores_per_node(&self, _node: NodeId) -> u32 {
        self.cores_per_node
    }

    fn probe(&self, spec: &CopySpec) -> Result<Vec<f64>, PlatformError> {
        spec.validate()?;
        let probe = CopyProbe {
            threads: spec.threads,
            bytes_per_thread: spec.bytes_per_thread,
            reps: spec.reps,
        };
        probe.run().map_err(|e| PlatformError::Probe {
            label: Platform::label(self),
            reason: e.to_string(),
        })
    }

    fn label(&self) -> String {
        format!("host:{}-nodes", self.nodes)
    }

    fn topology(&self) -> Option<&Topology> {
        self.topology.as_ref()
    }

    fn clock(&self) -> ClockSource {
        ClockSource::WallClock
    }

    fn backend_kind(&self) -> &'static str {
        "host"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TransferMode;
    use crate::modeler::IoModeler;

    fn quick_spec() -> CopySpec {
        CopySpec {
            bind: NodeId(0),
            src: NodeId(0),
            dst: NodeId(1),
            threads: 2,
            bytes_per_thread: 1 << 20, // 1 MiB: fast enough for CI
            reps: 3,
        }
    }

    #[test]
    fn real_copies_produce_positive_bandwidth() {
        let p = HostPlatform::new(2);
        let samples = p.run_copy(&quick_spec());
        assert_eq!(samples.len(), 3);
        for s in samples {
            assert!(s > 0.1, "memcpy slower than 0.1 Gbps is implausible: {s}");
            assert!(s.is_finite());
        }
    }

    #[test]
    fn modeler_runs_end_to_end_on_the_host() {
        // On a UMA machine all nodes look alike => class 1 (target +
        // neighbour) plus one big remote class, never more classes than
        // nodes.
        use numa_topology::{presets, Topology};
        let topo: Topology = presets::intel_4s4n();
        let p = HostPlatform::new(4);
        let modeler = IoModeler {
            reps: 2,
            bytes_per_thread: 1 << 20,
            threads: Some(2),
            ..IoModeler::new()
        };
        let model = modeler.characterize_with_topo(&p, &topo, NodeId(0), TransferMode::Write);
        assert_eq!(model.per_node.len(), 4);
        assert!(!model.classes().is_empty());
        assert!(model.classes().len() <= 4);
        assert!(model.platform.starts_with("host:"));
    }

    #[test]
    fn shape_reporting() {
        let p = HostPlatform::new(8);
        assert_eq!(p.num_nodes(), 8);
        assert!(p.cores_per_node(NodeId(0)) >= 1);
        assert!(p.cores_per_node(NodeId(0)) <= 4);
    }

    #[test]
    fn known_shapes_carry_a_topology() {
        assert_eq!(
            HostPlatform::new(4).topology().map(|t| t.num_nodes()),
            Some(4)
        );
        assert_eq!(
            HostPlatform::new(8).topology().map(|t| t.num_nodes()),
            Some(8)
        );
        assert!(HostPlatform::new(3).topology().is_none());
        assert!(HostPlatform::with_shape(2, 2).topology().is_none());
    }

    #[test]
    fn host_capability_metadata() {
        let p = HostPlatform::new(2);
        assert_eq!(p.clock(), ClockSource::WallClock);
        assert!(!p.deterministic());
        assert_eq!(p.backend_kind(), "host");
        assert!(Platform::fabric(&p).is_none());
        // Bad specs come back typed, not as panics.
        let e = p
            .try_run_copy(&CopySpec {
                threads: 0,
                ..quick_spec()
            })
            .unwrap_err();
        assert_eq!(e, PlatformError::ZeroThreads);
    }
}
