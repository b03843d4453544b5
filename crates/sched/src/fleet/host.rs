//! One fleet member: a generated topology, a jittered fabric, and its
//! characterized I/O profile.

use crate::error::SchedError;
use crate::fallback::characterize_both;
use numa_fabric::Fabric;
use numa_par::rng::{mix64, SplitMix64};
use numa_topology::hostgen::{HostSpec, TopoGen};
use numa_topology::NodeId;
use numio_core::{
    characterize_storage, IoModeler, IoPerfModel, Platform, SimPlatform, StorageConfig,
    StorageError, TransferMode,
};

/// Probe repetitions for fleet-scale characterization. The paper runs 100
/// per cell on real hardware; against the deterministic simulator a handful
/// is enough and keeps 64-host fleets cheap.
const FLEET_REPS: u32 = 3;

/// The characterized I/O profile of one host: the write and read models of
/// its device node — the per-host "atlas slice" the placement policies
/// consume.
#[derive(Debug, Clone, PartialEq)]
pub struct HostProfile {
    /// Device-write model (data flows node -> device).
    pub write: IoPerfModel,
    /// Device-read model (device -> node).
    pub read: IoPerfModel,
    /// Storage-tier write model at the paper operating point (libaio QD16,
    /// O_DIRECT), present when the generated host carries SSD cards.
    pub storage_write: Option<IoPerfModel>,
    /// Storage-tier read model at the paper operating point.
    pub storage_read: Option<IoPerfModel>,
}

/// One host of a [`Fleet`](super::Fleet): generated topology + performance-jittered
/// fabric + characterized profile.
///
/// Heterogeneity comes from two seeded sources: the sampled [`HostSpec`]
/// (socket count, wiring, widths, attach points) and a per-host capacity
/// scale in `[0.85, 1.05)` applied to the fabric's DMA and copy ceilings —
/// same-model machines in a real fleet spread about that much from DIMM
/// population and firmware differences.
#[derive(Debug, Clone)]
pub struct Host {
    /// Position in the fleet (stable across runs).
    pub id: usize,
    /// The spec this host was generated from.
    pub spec: HostSpec,
    /// Per-host capacity scale applied to the fabric defaults.
    pub scale: f64,
    platform: SimPlatform,
    profile: HostProfile,
}

impl Host {
    /// Deterministically generate host `id` of a fleet seeded with
    /// `fleet_seed`: sample a spec, build the jittered fabric, and
    /// characterize the device node in both directions.
    pub fn generate(id: usize, fleet_seed: u64) -> Result<Host, SchedError> {
        // One well-mixed sub-seed per host.
        let host_seed = mix64(fleet_seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let gen = TopoGen::sample(format!("host-{id:02}"), host_seed);
        let spec = gen.spec().clone();
        let (topo, routes) = gen.build_routed()?;
        let scale = SplitMix64::new(host_seed ^ 0x5DEE_CE66_D1CE_5EED).range_f64(0.85, 1.05);
        let fabric = Fabric::builder(topo, routes)
            .dma_hop_decay(0.06)
            .dma_defaults(51.2 * scale, 44.0 * scale)
            .node_copy_caps(50.0 * scale)
            .build();
        let mut platform = SimPlatform::new(fabric);
        platform.seed = host_seed;
        Self::from_platform(id, spec, scale, platform)
    }

    /// Wrap an already-built platform (used by tests and by callers that
    /// want explicit specs instead of sampled ones). The spec's `io_node`
    /// must name the device node of the platform's topology.
    pub fn from_platform(
        id: usize,
        spec: HostSpec,
        scale: f64,
        platform: SimPlatform,
    ) -> Result<Host, SchedError> {
        let target = platform
            .io_nodes()
            .first()
            .copied()
            .unwrap_or_else(|| NodeId::new(platform.num_nodes() - 1));
        let (write, read) = characterize_both(&platform, target, FLEET_REPS)?;
        let modeler = IoModeler::new().reps(FLEET_REPS);
        // Storage tier: informational — SSD-less hosts simply carry None,
        // and the placement policies never read it, so its presence cannot
        // perturb the episode digests.
        let storage =
            |mode| match characterize_storage(&modeler, &platform, StorageConfig::paper(), mode) {
                Ok(m) => Ok(Some(m)),
                Err(StorageError::NoSsd { .. } | StorageError::NoFabric { .. }) => Ok(None),
                Err(StorageError::Probe(e)) => Err(SchedError::Platform(e)),
            };
        let storage_write = storage(TransferMode::Write)?;
        let storage_read = storage(TransferMode::Read)?;
        Ok(Host {
            id,
            spec,
            scale,
            platform,
            profile: HostProfile {
                write,
                read,
                storage_write,
                storage_read,
            },
        })
    }

    /// The node holding the I/O hub — every stream's sink on this host.
    pub fn io_node(&self) -> NodeId {
        self.profile.write.target
    }

    /// NUMA node count.
    pub fn num_nodes(&self) -> usize {
        self.platform.num_nodes()
    }

    /// The simulator platform backing this host.
    pub fn platform(&self) -> &SimPlatform {
        &self.platform
    }

    /// The host's fabric (for scenario runs).
    pub fn fabric(&self) -> &Fabric {
        self.platform.fabric()
    }

    /// The characterized write/read profile.
    pub fn profile(&self) -> &HostProfile {
        &self.profile
    }

    /// How much of the probed write path the SSD subsystem can absorb:
    /// best storage-tier class level over best memcpy class level.
    /// `None` on SSD-less hosts.
    pub fn storage_headroom(&self) -> Option<f64> {
        let s = self.profile.storage_write.as_ref()?;
        let probe = self.profile.write.classes()[0].avg_gbps;
        if probe > 0.0 {
            Some(s.classes()[0].avg_gbps / probe)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_deterministic() {
        let a = Host::generate(3, 42).unwrap();
        let b = Host::generate(3, 42).unwrap();
        assert_eq!(a.spec, b.spec);
        assert_eq!(a.scale, b.scale);
        assert_eq!(a.profile, b.profile);
    }

    #[test]
    fn different_ids_give_different_hosts() {
        let hosts: Vec<Host> = (0..6).map(|i| Host::generate(i, 42).unwrap()).collect();
        assert!(hosts.iter().any(|h| h.spec.sockets != hosts[0].spec.sockets
            || h.spec.wiring != hosts[0].spec.wiring
            || h.scale != hosts[0].scale));
    }

    #[test]
    fn scale_stays_in_band() {
        for id in 0..16 {
            let h = Host::generate(id, 7).unwrap();
            assert!((0.85..1.05).contains(&h.scale), "host {id}: {}", h.scale);
        }
    }

    #[test]
    fn profile_targets_the_io_node() {
        let h = Host::generate(0, 42).unwrap();
        assert_eq!(h.profile().write.target, h.io_node());
        assert_eq!(h.profile().read.target, h.io_node());
        assert_eq!(h.profile().write.mode, TransferMode::Write);
        assert_eq!(h.profile().read.mode, TransferMode::Read);
        assert!(h.platform().io_nodes().contains(&h.io_node()));
    }

    fn explicit_host(ssds: u16) -> Host {
        let gen = TopoGen::new("dev").io_node(7).nics(1).ssds(ssds);
        let spec = gen.spec().clone();
        let (topo, routes) = gen.build_routed().unwrap();
        let fabric = Fabric::builder(topo, routes)
            .dma_hop_decay(0.06)
            .dma_defaults(51.2, 44.0)
            .node_copy_caps(50.0)
            .build();
        Host::from_platform(0, spec, 1.0, SimPlatform::new(fabric)).unwrap()
    }

    #[test]
    fn storage_profile_tracks_the_ssd_count() {
        // An SSD-carrying host gets storage-tier models; an SSD-less one
        // carries None — no silent fallbacks either way.
        let with = explicit_host(2);
        assert!(with.profile().storage_write.is_some());
        assert!(with.profile().storage_read.is_some());
        let headroom = with.storage_headroom().unwrap();
        assert!(
            headroom > 0.0 && headroom < 1.0,
            "SSD ceilings sit below the memcpy path, got {headroom}"
        );
        let sw = with.profile().storage_write.as_ref().unwrap();
        assert_eq!(sw.target, with.io_node());
        assert!(sw.platform.contains("ssd0:"), "{}", sw.platform);

        let without = explicit_host(0);
        assert!(without.profile().storage_write.is_none());
        assert!(without.profile().storage_read.is_none());
        assert!(without.storage_headroom().is_none());

        // Sampled fleet hosts obey the same contract.
        for id in 0..6 {
            let h = Host::generate(id, 42).unwrap();
            let has_cards = h.spec.ssds > 0;
            assert_eq!(h.profile().storage_write.is_some(), has_cards, "host {id}");
            assert_eq!(h.storage_headroom().is_some(), has_cards, "host {id}");
        }
    }

    #[test]
    fn profile_covers_every_node() {
        let h = Host::generate(1, 42).unwrap();
        let classes: usize = h
            .profile()
            .write
            .classes()
            .iter()
            .map(|c| c.nodes.len())
            .sum();
        assert_eq!(classes, h.num_nodes());
    }
}
