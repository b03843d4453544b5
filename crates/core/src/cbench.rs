//! The baseline the paper argues against: a cbench-style memory-access
//! cost model built from STREAM (\[18\], \[27\]), used for I/O placement.
//!
//! McCormick et al. built empirical memory cost models from STREAM and
//! packaged them as `cbench`; §IV-B examines exactly this approach and
//! shows it mispredicts I/O. [`MemCostModel`] reproduces the baseline
//! faithfully — a full pinned-STREAM matrix with per-target rankings — and
//! [`StreamAdvisor`] places I/O tasks with it, so experiments can quantify
//! how much bandwidth the broken metric costs against the
//! [`crate::ScheduleAdvisor`] driven by the memcpy methodology.

use crate::platform::SimPlatform;
use numa_memsys::StreamBench;
use numa_topology::NodeId;

/// A STREAM-derived memory-access cost model (bandwidth matrix, Gbit/s).
#[derive(Debug, Clone, PartialEq)]
pub struct MemCostModel {
    /// `matrix[cpu][mem]`: pinned STREAM Copy bandwidth.
    matrix: Vec<Vec<f64>>,
}

impl MemCostModel {
    /// Characterize with the paper's STREAM protocol (4 threads, max of
    /// 100 runs per cell) — the cbench workflow.
    pub fn from_stream(platform: &SimPlatform) -> Self {
        MemCostModel {
            matrix: StreamBench::paper().matrix(platform.fabric()),
        }
    }

    /// Build from an explicit matrix (tests).
    pub fn from_matrix(matrix: Vec<Vec<f64>>) -> Self {
        assert!(!matrix.is_empty());
        for row in &matrix {
            assert_eq!(row.len(), matrix.len(), "matrix must be square");
        }
        MemCostModel { matrix }
    }

    /// Modelled bandwidth of threads on `cpu` accessing memory at `mem`.
    pub fn bandwidth(&self, cpu: NodeId, mem: NodeId) -> f64 {
        self.matrix[cpu.index()][mem.index()]
    }

    /// Nodes ranked (best first) by their modelled bandwidth *to* data on
    /// `target` — the memory-centric view a STREAM-based scheduler uses to
    /// place tasks whose data sits at the device node.
    pub fn rank_for_target(&self, target: NodeId) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = (0..self.matrix.len()).map(NodeId::new).collect();
        nodes.sort_by(|&a, &b| {
            self.bandwidth(b, target)
                .total_cmp(&self.bandwidth(a, target))
        });
        nodes
    }
}

/// Task placement by the STREAM cost model: spread across the nodes whose
/// modelled bandwidth to the device node is within `tolerance` of the best.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamAdvisor {
    /// The underlying cost model.
    pub model: MemCostModel,
    /// Relative tolerance for "equivalent" nodes.
    pub tolerance: f64,
}

impl StreamAdvisor {
    /// Default tolerance mirrors the real advisor's.
    pub fn new(model: MemCostModel) -> Self {
        StreamAdvisor {
            model,
            tolerance: 0.12,
        }
    }

    /// Nodes the STREAM model considers equivalent for work against data
    /// at `target`.
    pub fn eligible_nodes(&self, target: NodeId) -> Vec<NodeId> {
        let ranked = self.model.rank_for_target(target);
        let best = self.model.bandwidth(ranked[0], target);
        let mut nodes: Vec<NodeId> = ranked
            .into_iter()
            .filter(|&n| self.model.bandwidth(n, target) >= best * (1.0 - self.tolerance))
            .collect();
        nodes.sort();
        nodes
    }

    /// The `k` best *remote* nodes (excluding the target's package, which a
    /// spreading scheduler avoids for contention) in STREAM-model order —
    /// where a cbench-driven scheduler would place overflow I/O tasks.
    pub fn spread_candidates(&self, target: NodeId, k: usize) -> Vec<NodeId> {
        let neighbour = NodeId(target.0 ^ 1);
        self.model
            .rank_for_target(target)
            .into_iter()
            .filter(|&n| n != target && n != neighbour)
            .take(k)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TransferMode;
    use crate::modeler::IoModeler;
    use numa_iodev::{NicModel, NicOp};

    #[test]
    fn rankings_follow_the_matrix() {
        let m = MemCostModel::from_matrix(vec![
            vec![30.0, 10.0, 20.0],
            vec![15.0, 30.0, 25.0],
            vec![22.0, 18.0, 30.0],
        ]);
        // For data on node 0: candidates ranked by column 0: n0(30), n2(22), n1(15).
        assert_eq!(
            m.rank_for_target(NodeId(0)),
            vec![NodeId(0), NodeId(2), NodeId(1)]
        );
        assert_eq!(m.bandwidth(NodeId(2), NodeId(0)), 22.0);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn ragged_matrix_rejected() {
        let _ = MemCostModel::from_matrix(vec![vec![1.0, 2.0], vec![3.0]]);
    }

    #[test]
    fn stream_advisor_ranks_01_above_23_for_node7_data() {
        // The §IV-B trap: the memory-centric STREAM view of node 7 ranks
        // nodes {0,1} above {2,3}, while real device-read traffic (RDMA_READ)
        // behaves the other way around.
        let platform = SimPlatform::dl585();
        let model = MemCostModel::from_stream(&platform);
        let ranked = model.rank_for_target(NodeId(7));
        let pos = |n: u16| ranked.iter().position(|&x| x == NodeId(n)).unwrap();
        assert!(pos(0) < pos(2), "{ranked:?}");
        assert!(pos(1) < pos(3), "{ranked:?}");
        // Its spreading set therefore leads with {5,0,1} and defers {2,3}.
        let spread = StreamAdvisor::new(model).spread_candidates(NodeId(7), 3);
        assert!(!spread.contains(&NodeId(2)), "{spread:?}");
        assert!(!spread.contains(&NodeId(3)), "{spread:?}");
    }

    #[test]
    fn stream_placement_loses_rdma_read_bandwidth() {
        // Quantify the baseline's mistake: average RDMA_READ level over the
        // STREAM-eligible remote nodes vs over the methodology's.
        let platform = SimPlatform::dl585();
        let fabric = platform.fabric();
        let nic = NicModel::paper();
        let stream_advisor = StreamAdvisor::new(MemCostModel::from_stream(&platform));
        let model = IoModeler::new().characterize(&platform, NodeId(7), TransferMode::Read);
        let ours = crate::advisor::ScheduleAdvisor {
            equivalence_tolerance: 0.12,
            avoid_irq_node: true,
        };
        let avg_level = |nodes: &[NodeId]| {
            let remote: Vec<&NodeId> = nodes
                .iter()
                .filter(|&&n| n != NodeId(7) && n != NodeId(6))
                .collect();
            assert!(!remote.is_empty(), "need remote candidates: {nodes:?}");
            remote
                .iter()
                .map(|&&n| nic.node_ceiling(NicOp::RdmaRead, fabric, n))
                .sum::<f64>()
                / remote.len() as f64
        };
        let baseline = avg_level(&stream_advisor.spread_candidates(NodeId(7), 3));
        let methodology = avg_level(&ours.eligible_nodes(&model));
        assert!(
            methodology > baseline * 1.1,
            "methodology {methodology} should clearly beat STREAM baseline {baseline}"
        );
    }
}
