//! The LSI Nytro WarpDrive SSD model.

use crate::profile::DeviceProfile;
use crate::ratemap::{calibrated, RateMap};
use numa_fabric::Fabric;
use numa_topology::{DeviceKind, NodeId};

/// fio I/O engines the paper compares (§IV-B3): synchronous read/write
/// syscalls vs `libaio` with a queue depth. The paper settles on
/// `libaio` + kernel bypass ("we utilize the libaio engine with the
/// kernel-bypass option to maximize transfer speed"), queue depth 16.
/// Integer-only fields, so it hashes: serve cache keys include the engine
/// when a storage device view is selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoEngine {
    /// Blocking syscalls: one request in flight per process.
    Sync,
    /// Linux native AIO with `iodepth` requests in flight.
    Libaio {
        /// Requests kept in flight per process.
        iodepth: u32,
    },
}

impl IoEngine {
    /// The paper's configuration: libaio, 16 deep.
    pub fn paper() -> Self {
        IoEngine::Libaio { iodepth: 16 }
    }

    /// Throughput efficiency relative to the paper's libaio/QD16 baseline.
    /// Deep queues hide device latency: the ramp is `qd/(qd+2)`, normalized
    /// so QD16 = 1.0; sync behaves like QD1.
    pub fn efficiency(self) -> f64 {
        let qd = match self {
            IoEngine::Sync => 1,
            IoEngine::Libaio { iodepth } => iodepth.max(1),
        };
        let ramp = |q: f64| q / (q + 2.0);
        ramp(qd as f64) / ramp(16.0)
    }
}

/// The testbed's SSD subsystem: `cards` identical devices accessed
/// simultaneously, their aggregate calibrated by the Table IV/V rate maps.
#[derive(Debug, Clone, PartialEq)]
pub struct SsdModel {
    /// NUMA node the cards attach to.
    pub node: NodeId,
    /// Number of cards ("two LSI SSD cards are accessed simultaneously").
    pub cards: u32,
    /// Kernel-buffered I/O penalty (the paper: buffered "performs much
    /// worse" than O_DIRECT kernel bypass).
    pub buffered_penalty: f64,
    /// Topology device indices of the cards, in card order. Fault plans
    /// address stalls by these indices (the dl585 SSDs are devices 1 and
    /// 2; the NIC is device 0).
    pub device_ids: Vec<u16>,
    /// Off-calibration behavior: block-size curve, queue-depth knee,
    /// read/write asymmetry (arxiv 1705.03598 shape).
    pub profile: DeviceProfile,
    /// Aggregate write level curve (both cards, libaio/QD16/direct).
    write_map: RateMap,
    /// Aggregate read level curve.
    read_map: RateMap,
}

impl SsdModel {
    /// The calibrated testbed SSDs at node 7.
    pub fn paper() -> Self {
        SsdModel {
            device_ids: vec![1, 2],
            ..Self::calibrated()
        }
    }

    /// [`Self::paper`] without card ids: the calibrated curves and
    /// constants that [`Self::for_fabric`] keeps.
    fn calibrated() -> Self {
        SsdModel {
            node: NodeId(7),
            cards: 2,
            buffered_penalty: 0.55,
            device_ids: Vec::new(),
            profile: DeviceProfile::nytro_warpdrive(),
            write_map: calibrated::ssd_write(),
            read_map: calibrated::ssd_read(),
        }
    }

    /// Locate the SSDs on a generic fabric.
    pub fn for_fabric(fabric: &Fabric) -> Option<Self> {
        let devices = fabric.topology().devices();
        let first = devices.iter().find(|d| d.kind == DeviceKind::Ssd)?;
        let device_ids: Vec<u16> = (0..devices.len() as u16)
            .filter(|&i| devices[usize::from(i)].kind == DeviceKind::Ssd)
            .collect();
        Some(SsdModel {
            node: first.attached_to,
            cards: device_ids.len() as u32,
            device_ids,
            ..Self::calibrated()
        })
    }

    /// Aggregate ceiling (all cards) for processes bound to `binding`,
    /// using the paper's engine settings.
    pub fn node_ceiling(&self, write: bool, fabric: &Fabric, binding: NodeId) -> f64 {
        self.node_ceiling_with(write, fabric, binding, IoEngine::paper(), true)
    }

    /// Aggregate ceiling with explicit engine and direct-I/O settings.
    pub fn node_ceiling_with(
        &self,
        write: bool,
        fabric: &Fabric,
        binding: NodeId,
        engine: IoEngine,
        direct: bool,
    ) -> f64 {
        let path = if write {
            fabric.dma_path_bandwidth(binding, self.node)
        } else {
            fabric.dma_path_bandwidth(self.node, binding)
        };
        self.level_curve(write, engine, direct)(path)
    }

    /// The ceiling a node with DMA path bandwidth `path` to the cards
    /// reaches, as a function of `path`, with the engine efficiency and
    /// access factor computed once — [`Self::node_ceiling_with`] with the
    /// path supplied directly. Storage characterization feeds *measured*
    /// per-node probe bandwidths through this, so classification inherits
    /// whatever noise the probes saw instead of the fabric's idealized
    /// paths.
    pub fn level_curve(
        &self,
        write: bool,
        engine: IoEngine,
        direct: bool,
    ) -> impl Fn(f64) -> f64 + '_ {
        let map = if write {
            &self.write_map
        } else {
            &self.read_map
        };
        let efficiency = self.profile.engine_efficiency(engine);
        let buffered = if direct {
            1.0
        } else {
            1.0 - self.buffered_penalty
        };
        move |path| map.eval(path) * efficiency * buffered
    }

    /// [`Self::node_ceiling_with`] additionally shaped by the profile's
    /// block-size efficiency curve — the arxiv 1705.03598 operating-point
    /// query ("what does this node get at 16 KiB requests, QD4?"). The
    /// calibrated tables are streaming (≥1 MiB) figures, so
    /// `block_kib >= 1024` reproduces them exactly.
    #[allow(clippy::too_many_arguments)]
    pub fn node_ceiling_block(
        &self,
        write: bool,
        fabric: &Fabric,
        binding: NodeId,
        engine: IoEngine,
        direct: bool,
        block_kib: f64,
    ) -> f64 {
        self.node_ceiling_with(write, fabric, binding, engine, direct)
            * self.profile.block_efficiency(block_kib)
    }

    /// Per-card ceiling: the aggregate split across cards.
    pub fn card_cap(&self, write: bool, fabric: &Fabric, binding: NodeId) -> f64 {
        self.node_ceiling(write, fabric, binding) / self.cards as f64
    }

    /// Best-case per-direction aggregate (fastest binding).
    pub fn port_cap(&self, write: bool) -> f64 {
        if write {
            self.write_map.max_output()
        } else {
            self.read_map.max_output()
        }
    }

    /// The topology device index of card `card` (round-robin order used by
    /// the fio harness). Falls back to `1 + card` when the model was built
    /// without explicit ids (pre-storage-tier fixtures).
    pub fn device_id(&self, card: u32) -> u16 {
        self.device_ids
            .get(card as usize)
            .copied()
            .unwrap_or(1 + card as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_fabric::calibration::{dl585_fabric, paper};

    #[test]
    fn paper_engine_is_identity() {
        assert!((IoEngine::paper().efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sync_is_much_slower_than_deep_async() {
        let sync = IoEngine::Sync.efficiency();
        let qd16 = IoEngine::Libaio { iodepth: 16 }.efficiency();
        assert!(sync < 0.5 * qd16, "{sync} vs {qd16}");
    }

    #[test]
    fn queue_depth_ramps_monotonically() {
        let mut last = 0.0;
        for qd in [1, 2, 4, 8, 16, 32] {
            let e = IoEngine::Libaio { iodepth: qd }.efficiency();
            assert!(e > last);
            last = e;
        }
    }

    #[test]
    fn node_ceilings_reproduce_tables() {
        let f = dl585_fabric();
        let ssd = SsdModel::paper();
        for (nodes, &want) in paper::WRITE_CLASSES.iter().zip(&paper::WRITE_SSD_AVG) {
            let avg: f64 = nodes
                .iter()
                .map(|&n| ssd.node_ceiling(true, &f, NodeId(n)))
                .sum::<f64>()
                / nodes.len() as f64;
            assert!(
                (avg - want).abs() / want < 0.02,
                "write {nodes:?}: {avg} vs {want}"
            );
        }
        for (nodes, &want) in paper::READ_CLASSES.iter().zip(&paper::READ_SSD_AVG) {
            let avg: f64 = nodes
                .iter()
                .map(|&n| ssd.node_ceiling(false, &f, NodeId(n)))
                .sum::<f64>()
                / nodes.len() as f64;
            assert!(
                (avg - want).abs() / want < 0.02,
                "read {nodes:?}: {avg} vs {want}"
            );
        }
    }

    #[test]
    fn buffered_io_is_much_worse() {
        let f = dl585_fabric();
        let ssd = SsdModel::paper();
        let direct = ssd.node_ceiling_with(false, &f, NodeId(6), IoEngine::paper(), true);
        let buffered = ssd.node_ceiling_with(false, &f, NodeId(6), IoEngine::paper(), false);
        assert!(buffered < 0.5 * direct);
    }

    #[test]
    fn card_cap_splits_aggregate() {
        let f = dl585_fabric();
        let ssd = SsdModel::paper();
        let agg = ssd.node_ceiling(false, &f, NodeId(7));
        assert!((ssd.card_cap(false, &f, NodeId(7)) - agg / 2.0).abs() < 1e-12);
    }

    #[test]
    fn disk_read_write_follow_their_tcp_rdma_counterparts() {
        // §IV-B3: "the disk write rate corresponds to the TCP/RDMA send
        // rate ... and the disk read rate corresponds to the receive rate":
        // same class orderings.
        let f = dl585_fabric();
        let ssd = SsdModel::paper();
        let w = |n: u16| ssd.node_ceiling(true, &f, NodeId(n));
        // write: {2,3} bottom class
        assert!(w(2) < 0.7 * w(0));
        assert!(w(3) < 0.7 * w(6));
        let r = |n: u16| ssd.node_ceiling(false, &f, NodeId(n));
        // read: node 4 bottom, {2,3} near top
        assert!(r(4) < 0.65 * r(3));
        assert!(r(2) > r(0));
    }

    #[test]
    fn for_fabric_finds_two_cards() {
        let f = dl585_fabric();
        let ssd = SsdModel::for_fabric(&f).unwrap();
        assert_eq!(ssd.cards, 2);
        assert_eq!(ssd.node, NodeId(7));
    }

    #[test]
    fn port_caps_match_best_nodes() {
        let ssd = SsdModel::paper();
        assert!((ssd.port_cap(true) - 29.1).abs() < 1e-9);
        assert!((ssd.port_cap(false) - 34.7).abs() < 1e-9);
    }

    #[test]
    fn for_fabric_records_topology_device_ids() {
        let f = dl585_fabric();
        let ssd = SsdModel::for_fabric(&f).unwrap();
        // dl585 device order: NIC = 0, SSD cards = 1 and 2.
        assert_eq!(ssd.device_ids, vec![1, 2]);
        assert_eq!(ssd.device_id(0), 1);
        assert_eq!(ssd.device_id(1), 2);
    }

    #[test]
    fn profiled_engine_ramp_keeps_table_ceilings_bit_identical() {
        // The profile's queue-depth ramp replaced the inline
        // IoEngine::efficiency call; the calibrated ceilings must not move
        // by even one ulp (fixtures and golden digests depend on them).
        let f = dl585_fabric();
        let ssd = SsdModel::paper();
        for (node, engine, direct) in [
            (7u16, IoEngine::paper(), true),
            (0, IoEngine::Sync, true),
            (3, IoEngine::Libaio { iodepth: 4 }, false),
        ] {
            let got = ssd.node_ceiling_with(true, &f, NodeId(node), engine, direct);
            let path = f.dma_path_bandwidth(NodeId(node), ssd.node);
            let base = calibrated::ssd_write().eval(path);
            let buffered = if direct {
                1.0
            } else {
                1.0 - ssd.buffered_penalty
            };
            let want = base * engine.efficiency() * buffered;
            assert_eq!(got.to_bits(), want.to_bits(), "node {node} {engine:?}");
        }
    }

    #[test]
    fn block_size_shapes_the_ceiling() {
        let f = dl585_fabric();
        let ssd = SsdModel::paper();
        let streaming =
            ssd.node_ceiling_block(false, &f, NodeId(7), IoEngine::paper(), true, 1024.0);
        let small = ssd.node_ceiling_block(false, &f, NodeId(7), IoEngine::paper(), true, 4.0);
        assert_eq!(
            streaming.to_bits(),
            ssd.node_ceiling(false, &f, NodeId(7)).to_bits(),
            "streaming blocks reproduce the calibrated tables"
        );
        assert!(
            small < 0.4 * streaming,
            "4 KiB requests pay command overhead"
        );
    }
}
