//! End-to-end transfers between **two** NUMA hosts (Fig. 2's actual
//! setup: two identical DL585s linked by 40 GbE).
//!
//! Single-host models bound one end and assume the peer is perfectly
//! placed. [`TwoHostPath`] composes both ends: the achieved bandwidth is
//! the minimum of the sender-side class level, the receiver-side class
//! level (in its own direction), the wire, and — for wide-area paths —
//! the window/RTT product. This reproduces the paper's intro citation
//! (\[3\]): "the placement of the process on remote CPU cores, at either
//! sender or receiver side, can lead to as much as a 30% loss of the
//! overall TCP bandwidth performance."

use crate::nic::{NicModel, NicOp};
use numa_fabric::Fabric;
use numa_topology::NodeId;

/// A network path between a local and a remote host.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoHostPath {
    /// Wire goodput ceiling, Gbit/s. 40 GbE after framing and the hosts'
    /// PCIe Gen2 x8 slots: the paper measures 25 Gbps "very close to the
    /// theoretical performance limit" (§IV-B1).
    pub wire_gbps: f64,
    /// Round-trip time, milliseconds (testbed: 0.005 ms, §III-A).
    pub rtt_ms: f64,
    /// Data in flight per stream (TCP window / RDMA outstanding), MiB.
    pub window_mib: f64,
    /// Local host's adapter.
    pub local_nic: NicModel,
    /// Remote host's adapter.
    pub remote_nic: NicModel,
}

impl TwoHostPath {
    /// The testbed back-to-back pair (Table II + §III-A).
    pub fn paper() -> Self {
        TwoHostPath {
            wire_gbps: 25.0,
            rtt_ms: 0.005,
            window_mib: 4.0,
            local_nic: NicModel::paper(),
            remote_nic: NicModel::paper(),
        }
    }

    /// The same hosts across a wide-area path (the authors' companion work
    /// \[25\] moves this testbed onto 50+ ms RTT circuits).
    pub fn wide_area(rtt_ms: f64) -> Self {
        TwoHostPath {
            rtt_ms,
            ..Self::paper()
        }
    }

    /// What the *remote* host runs when the local host runs `op`, and the
    /// direction the payload takes through the remote fabric.
    pub fn remote_counterpart(op: NicOp) -> NicOp {
        match op {
            // Local sends => remote receives (remote DMA writes host memory).
            NicOp::TcpSend => NicOp::TcpRecv,
            // Local receives => remote sends.
            NicOp::TcpRecv => NicOp::TcpSend,
            // RDMA_WRITE pushes local memory into remote memory: local pays
            // the device-write path, remote pays the device-read path.
            NicOp::RdmaWrite | NicOp::SendRecv => NicOp::RdmaRead,
            // RDMA_READ pulls remote memory into local memory.
            NicOp::RdmaRead => NicOp::RdmaWrite,
        }
    }

    /// Per-stream window/RTT ceiling, Gbit/s:
    /// `window_bits / rtt = (MiB * 8 * 2^20) / (ms / 1000) / 1e9`.
    pub fn window_cap_gbps(&self) -> f64 {
        self.window_mib * 8.0 * 1.048576 / self.rtt_ms
    }

    /// End-to-end single-stream ceiling for `op`, with the application
    /// bound to `local_bind` on the local fabric and its peer bound to
    /// `remote_bind` on the remote fabric.
    pub fn op_bandwidth(
        &self,
        op: NicOp,
        local: (&Fabric, NodeId),
        remote: (&Fabric, NodeId),
    ) -> f64 {
        let local_level = self.local_nic.node_ceiling(op, local.0, local.1);
        let peer_op = Self::remote_counterpart(op);
        let remote_level = self.remote_nic.node_ceiling(peer_op, remote.0, remote.1);
        local_level
            .min(remote_level)
            .min(self.wire_gbps)
            .min(self.window_cap_gbps())
    }

    /// The full `n x n` end-to-end matrix over both hosts' bindings.
    pub fn matrix(&self, op: NicOp, local: &Fabric, remote: &Fabric) -> Vec<Vec<f64>> {
        let nl = local.num_nodes();
        let nr = remote.num_nodes();
        (0..nl)
            .map(|l| {
                (0..nr)
                    .map(|r| {
                        self.op_bandwidth(op, (local, NodeId::new(l)), (remote, NodeId::new(r)))
                    })
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_fabric::calibration::dl585_fabric;

    fn fabrics() -> (Fabric, Fabric) {
        (dl585_fabric(), dl585_fabric())
    }

    #[test]
    fn window_cap_is_huge_on_the_testbed_lan() {
        let p = TwoHostPath::paper();
        // 4 MiB / 5 microseconds is terabits — never the bottleneck.
        assert!(p.window_cap_gbps() > 1000.0, "{}", p.window_cap_gbps());
    }

    #[test]
    fn wan_rtt_makes_the_window_bind() {
        let (l, r) = fabrics();
        let wan = TwoHostPath::wide_area(50.0);
        let bw = wan.op_bandwidth(NicOp::RdmaWrite, (&l, NodeId(6)), (&r, NodeId(6)));
        // 4 MiB over 50 ms = 0.67 Gbps: the wide-area problem the authors'
        // companion paper [25] attacks.
        assert!(bw < 1.0, "{bw}");
        assert!((bw - wan.window_cap_gbps()).abs() < 1e-9);
    }

    #[test]
    fn optimally_bound_pair_reaches_the_single_host_level() {
        let (l, r) = fabrics();
        let p = TwoHostPath::paper();
        let bw = p.op_bandwidth(NicOp::RdmaWrite, (&l, NodeId(6)), (&r, NodeId(6)));
        assert!(
            (bw - 22.0).abs() < 1e-9,
            "min(23.3 write, 22.0 remote read): {bw}"
        );
    }

    #[test]
    fn bad_placement_at_either_end_costs_about_30_percent() {
        // The intro's [3] citation, reproduced end to end with TCP.
        let (l, r) = fabrics();
        let p = TwoHostPath::paper();
        let best = p.op_bandwidth(NicOp::TcpSend, (&l, NodeId(6)), (&r, NodeId(7)));
        // Receiver mis-bound to its node 4 (Table V class 4).
        let bad_rx = p.op_bandwidth(NicOp::TcpSend, (&l, NodeId(6)), (&r, NodeId(4)));
        let rx_loss = 1.0 - bad_rx / best;
        assert!(
            (0.25..=0.40).contains(&rx_loss),
            "receiver-side loss {rx_loss}"
        );
        // Sender mis-bound to its node 3 (Table IV class 3).
        let bad_tx = p.op_bandwidth(NicOp::TcpSend, (&l, NodeId(3)), (&r, NodeId(7)));
        let tx_loss = 1.0 - bad_tx / best;
        assert!(
            (0.20..=0.35).contains(&tx_loss),
            "sender-side loss {tx_loss}"
        );
    }

    #[test]
    fn counterparts_pair_directions() {
        assert_eq!(
            TwoHostPath::remote_counterpart(NicOp::TcpSend),
            NicOp::TcpRecv
        );
        assert_eq!(
            TwoHostPath::remote_counterpart(NicOp::TcpRecv),
            NicOp::TcpSend
        );
        assert_eq!(
            TwoHostPath::remote_counterpart(NicOp::RdmaWrite),
            NicOp::RdmaRead
        );
        assert_eq!(
            TwoHostPath::remote_counterpart(NicOp::RdmaRead),
            NicOp::RdmaWrite
        );
    }

    #[test]
    fn matrix_is_min_composed(/* end-to-end never beats either end */) {
        let (l, r) = fabrics();
        let p = TwoHostPath::paper();
        let m = p.matrix(NicOp::RdmaRead, &l, &r);
        for (li, row) in m.iter().enumerate() {
            for (ri, &bw) in row.iter().enumerate() {
                let local = p
                    .local_nic
                    .node_ceiling(NicOp::RdmaRead, &l, NodeId::new(li));
                let remote = p
                    .remote_nic
                    .node_ceiling(NicOp::RdmaWrite, &r, NodeId::new(ri));
                assert!(bw <= local + 1e-9);
                assert!(bw <= remote + 1e-9);
                assert!(bw <= p.wire_gbps + 1e-9);
            }
        }
    }

    #[test]
    fn asymmetric_hosts_compose() {
        // Remote host with a derated NIC (e.g. Gen1 slot): the slow end
        // dominates everywhere.
        let (l, r) = fabrics();
        let mut p = TwoHostPath::paper();
        p.wire_gbps = 10.0;
        let m = p.matrix(NicOp::TcpSend, &l, &r);
        for row in &m {
            for &bw in row {
                assert!(bw <= 10.0 + 1e-9);
            }
        }
    }
}
