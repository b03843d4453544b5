//! The ConnectX-3 40 GbE NIC model.

use crate::ratemap::{calibrated, RateMap};
use numa_fabric::Fabric;
use numa_topology::{DeviceKind, NodeId, PcieInterface};

/// Network operations the paper benchmarks (§III-B2: fio's TCP engine plus
/// the authors' RDMA engine extension \[25\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NicOp {
    /// TCP send: host stack, DMA *reads* host memory (device-write class).
    TcpSend,
    /// TCP receive: host stack, DMA *writes* host memory (device-read class).
    TcpRecv,
    /// RDMA_WRITE: offloaded, DMA reads host memory.
    RdmaWrite,
    /// RDMA_READ: offloaded, DMA writes host memory.
    RdmaRead,
    /// RDMA SEND/RECEIVE: modelled like RDMA_WRITE (no figure depends on
    /// it; see DESIGN.md §7).
    SendRecv,
}

impl NicOp {
    /// All benchmarked operations.
    pub const ALL: [NicOp; 5] = [
        NicOp::TcpSend,
        NicOp::TcpRecv,
        NicOp::RdmaWrite,
        NicOp::RdmaRead,
        NicOp::SendRecv,
    ];

    /// Does data flow host→device (the "device write" direction of
    /// Table IV) or device→host (the "device read" direction of Table V)?
    pub fn to_device(self) -> bool {
        matches!(self, NicOp::TcpSend | NicOp::RdmaWrite | NicOp::SendRecv)
    }

    /// Is the host CPU on the data path (TCP) or is the protocol offloaded
    /// to the adapter (RDMA)?
    pub fn cpu_bound(self) -> bool {
        matches!(self, NicOp::TcpSend | NicOp::TcpRecv)
    }
}

/// NIC performance model.
#[derive(Debug, Clone, PartialEq)]
pub struct NicModel {
    /// NUMA node the adapter (and its interrupts) lives on.
    pub node: NodeId,
    /// Host interface (PCIe Gen2 x8 on the testbed: 32 Gbps effective).
    pub pcie: PcieInterface,
    /// Per-stream TCP ceiling, Gbit/s — one kernel stream is handled by
    /// one core (Fig. 5: aggregate grows until ~4 streams on 4-core nodes).
    pub tcp_per_stream_gbps: f64,
    /// Aggregate TCP protocol-processing budget of one node, Gbit/s.
    pub node_cpu_budget_gbps: f64,
    /// Fraction of the device node's CPU budget consumed by interrupt
    /// handling while the NIC moves data in the send direction. The paper
    /// pins IRQs to the local node (§III-B2) and observes that running the
    /// application there too makes it *worse* than neighbour node 6.
    pub irq_send_derate: f64,
    /// Relative port-efficiency penalty when streams of *different*
    /// performance classes share the adapter (slow responders stall the
    /// engine pipeline; cf. the 3.1% gap in the Eq. 1 validation).
    pub mixed_class_penalty: f64,
    /// Path-to-protocol level curves.
    tcp_send_map: RateMap,
    tcp_recv_map: RateMap,
    rdma_write_map: RateMap,
    rdma_read_map: RateMap,
}

impl NicModel {
    /// The calibrated testbed NIC at node 7.
    pub fn paper() -> Self {
        NicModel {
            node: NodeId(7),
            pcie: PcieInterface::GEN2_X8,
            tcp_per_stream_gbps: 5.6,
            node_cpu_budget_gbps: 22.4,
            irq_send_derate: 0.125,
            mixed_class_penalty: 0.03,
            tcp_send_map: calibrated::tcp_send(),
            tcp_recv_map: calibrated::tcp_recv(),
            rdma_write_map: calibrated::rdma_write(),
            rdma_read_map: calibrated::rdma_read(),
        }
    }

    /// Build a NIC model for a generic fabric: locate the NIC device, keep
    /// the calibrated curves (they are expressed against path bandwidth, so
    /// they transfer to any machine's min-cuts).
    pub fn for_fabric(fabric: &Fabric) -> Option<Self> {
        let dev = fabric
            .topology()
            .devices()
            .iter()
            .find(|d| d.kind == DeviceKind::Nic)?;
        Some(NicModel {
            node: dev.attached_to,
            pcie: dev.pcie,
            ..Self::paper()
        })
    }

    /// The level curve of one operation.
    pub fn map(&self, op: NicOp) -> &RateMap {
        match op {
            NicOp::TcpSend => &self.tcp_send_map,
            NicOp::TcpRecv => &self.tcp_recv_map,
            NicOp::RdmaWrite | NicOp::SendRecv => &self.rdma_write_map,
            NicOp::RdmaRead => &self.rdma_read_map,
        }
    }

    /// Port ceiling of one operation (best-node level).
    pub fn port_cap(&self, op: NicOp) -> f64 {
        self.map(op).max_output()
    }

    /// DMA path bandwidth between a binding node and the adapter, in the
    /// direction `op` moves payload.
    pub fn path_bandwidth(&self, fabric: &Fabric, op: NicOp, binding: NodeId) -> f64 {
        if op.to_device() {
            fabric.dma_path_bandwidth(binding, self.node)
        } else {
            fabric.dma_path_bandwidth(self.node, binding)
        }
    }

    /// Aggregate bandwidth ceiling for `op` traffic bound to `binding`
    /// (buffers local to the binding node, per the paper's methodology).
    /// This is the per-node class level of Tables IV/V.
    pub fn node_ceiling(&self, op: NicOp, fabric: &Fabric, binding: NodeId) -> f64 {
        self.map(op).eval(self.path_bandwidth(fabric, op, binding))
    }

    /// Effective CPU budget of a node for TCP processing, accounting for
    /// IRQ work if it is the device-local node and the op sends data.
    pub fn cpu_budget(&self, op: NicOp, binding: NodeId) -> f64 {
        if !op.cpu_bound() {
            return f64::INFINITY;
        }
        if binding == self.node && op == NicOp::TcpSend {
            self.node_cpu_budget_gbps * (1.0 - self.irq_send_derate)
        } else {
            self.node_cpu_budget_gbps
        }
    }

    /// Effective port capacity when `stream_ceilings` (one entry per
    /// stream, each the stream's class level) share the adapter: the
    /// stream-count-weighted mixture of class levels (this *is* Eq. 1 as a
    /// hardware behaviour), derated when classes mix.
    pub fn shared_port_cap(&self, op: NicOp, stream_ceilings: &[f64]) -> f64 {
        if stream_ceilings.is_empty() {
            return self.port_cap(op);
        }
        let mixture = stream_ceilings.iter().sum::<f64>() / stream_ceilings.len() as f64;
        let min = stream_ceilings
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let max = stream_ceilings.iter().cloned().fold(0.0_f64, f64::max);
        let mixed = (max - min) / max > 0.02;
        let penalty = if mixed {
            1.0 - self.mixed_class_penalty
        } else {
            1.0
        };
        self.port_cap(op).min(mixture) * penalty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_fabric::calibration::{dl585_fabric, paper};

    #[test]
    fn ops_classify_direction_and_cpu() {
        assert!(NicOp::TcpSend.to_device());
        assert!(!NicOp::TcpRecv.to_device());
        assert!(NicOp::RdmaWrite.to_device());
        assert!(!NicOp::RdmaRead.to_device());
        assert!(NicOp::TcpSend.cpu_bound());
        assert!(!NicOp::RdmaRead.cpu_bound());
    }

    #[test]
    fn node_ceilings_reproduce_table_iv_and_v_classes() {
        let f = dl585_fabric();
        let nic = NicModel::paper();
        // RDMA_WRITE per class (Table IV row 3).
        for (nodes, &want) in paper::WRITE_CLASSES.iter().zip(&paper::WRITE_RDMA_AVG) {
            let avg: f64 = nodes
                .iter()
                .map(|&n| nic.node_ceiling(NicOp::RdmaWrite, &f, NodeId(n)))
                .sum::<f64>()
                / nodes.len() as f64;
            assert!(
                (avg - want).abs() / want < 0.01,
                "{nodes:?}: {avg} vs {want}"
            );
        }
        // RDMA_READ per class (Table V row 3).
        for (nodes, &want) in paper::READ_CLASSES.iter().zip(&paper::READ_RDMA_AVG) {
            let avg: f64 = nodes
                .iter()
                .map(|&n| nic.node_ceiling(NicOp::RdmaRead, &f, NodeId(n)))
                .sum::<f64>()
                / nodes.len() as f64;
            assert!(
                (avg - want).abs() / want < 0.01,
                "{nodes:?}: {avg} vs {want}"
            );
        }
    }

    #[test]
    fn rdma_read_breaks_the_stream_ordering() {
        // §IV-B2: STREAM ranks {0,1} above {2,3}, RDMA_READ the reverse.
        let f = dl585_fabric();
        let nic = NicModel::paper();
        let r = |n: u16| nic.node_ceiling(NicOp::RdmaRead, &f, NodeId(n));
        assert!(r(2) > r(0) * 1.1);
        assert!(r(3) > r(1) * 1.1);
        let m = f.pio_matrix();
        assert!(m[7][0] > m[7][2] * 1.3, "STREAM says the opposite");
    }

    #[test]
    fn irq_derates_only_local_send() {
        let nic = NicModel::paper();
        let at7 = nic.cpu_budget(NicOp::TcpSend, NodeId(7));
        let at6 = nic.cpu_budget(NicOp::TcpSend, NodeId(6));
        assert!(
            (at7 - 19.6).abs() < 1e-9,
            "node 7 send derated to ~19.6 (Table IV)"
        );
        assert_eq!(at6, 22.4);
        assert_eq!(nic.cpu_budget(NicOp::TcpRecv, NodeId(7)), 22.4);
        assert!(nic.cpu_budget(NicOp::RdmaWrite, NodeId(7)).is_infinite());
    }

    #[test]
    fn shared_port_mixture_reproduces_eq1_shape() {
        let nic = NicModel::paper();
        // 2 streams at the class-2 level + 2 at the class-3 level.
        let ceilings = [
            paper::EQ1_CLASS2_BW,
            paper::EQ1_CLASS2_BW,
            paper::EQ1_CLASS3_BW,
            paper::EQ1_CLASS3_BW,
        ];
        let cap = nic.shared_port_cap(NicOp::RdmaRead, &ceilings);
        // Mixture = 20.017 (the Eq. 1 prediction); measured-level cap is
        // ~3% lower: 19.4.
        assert!(
            (cap - paper::EQ1_MEASURED).abs() / paper::EQ1_MEASURED < 0.01,
            "{cap}"
        );
    }

    #[test]
    fn homogeneous_streams_see_no_penalty() {
        let nic = NicModel::paper();
        let cap = nic.shared_port_cap(NicOp::RdmaRead, &[22.0, 22.0, 22.0]);
        assert_eq!(cap, 22.0);
        assert_eq!(
            nic.shared_port_cap(NicOp::RdmaRead, &[]),
            nic.port_cap(NicOp::RdmaRead)
        );
    }

    #[test]
    fn for_fabric_locates_the_nic() {
        let f = dl585_fabric();
        let nic = NicModel::for_fabric(&f).unwrap();
        assert_eq!(nic.node, NodeId(7));
        assert!((nic.pcie.effective_gbps() - 32.0).abs() < 1e-9);
    }

    #[test]
    fn port_caps_are_below_pcie_effective() {
        let nic = NicModel::paper();
        for op in NicOp::ALL {
            assert!(nic.port_cap(op) < nic.pcie.effective_gbps(), "{op:?}");
        }
    }
}
