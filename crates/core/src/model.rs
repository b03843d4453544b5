//! The I/O performance model produced by the methodology.

use numa_engine::Summary;
use numa_topology::NodeId;

numa_par::json_enum! {
    /// Direction of the modelled device transfer.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum TransferMode {
        /// Device write: data flows from host memory *into* the device. The
        /// stand-in DMA engine reads from the varied node and sinks at the
        /// target (Fig. 9a); models TCP send, RDMA_WRITE, SSD write.
        Write,
        /// Device read: data flows from the device into host memory. Source
        /// fixed at the target node, sink varied (Fig. 9b); models TCP receive,
        /// RDMA_READ, SSD read.
        Read,
    }
}

impl TransferMode {
    /// Both directions.
    pub const ALL: [TransferMode; 2] = [TransferMode::Write, TransferMode::Read];
}

numa_par::json_struct! {
    /// One performance class: nodes whose modelled bandwidths are
    /// indistinguishable for scheduling purposes (Tables IV/V columns).
    #[derive(Debug, Clone, PartialEq)]
    pub struct PerfClass {
        /// Member nodes, ascending.
        pub nodes: Vec<NodeId>,
        /// Lowest member mean, Gbit/s.
        pub min_gbps: f64,
        /// Highest member mean, Gbit/s.
        pub max_gbps: f64,
        /// Mean of member means — the `BWᵢ` of Eq. 1.
        pub avg_gbps: f64,
    }
}

impl PerfClass {
    /// Build from `(node, mean)` members: a mutable slice (which is
    /// sorted by node in place) or an owned list.
    pub fn from_members(mut members: impl AsMut<[(NodeId, f64)]>) -> Self {
        let members = members.as_mut();
        assert!(!members.is_empty(), "class cannot be empty");
        members.sort_by_key(|(n, _)| *n);
        let min = members
            .iter()
            .map(|(_, b)| *b)
            .fold(f64::INFINITY, f64::min);
        let max = members.iter().map(|(_, b)| *b).fold(0.0, f64::max);
        let avg = members.iter().map(|(_, b)| *b).sum::<f64>() / members.len() as f64;
        PerfClass {
            nodes: members.iter().map(|(n, _)| *n).collect(),
            min_gbps: min,
            max_gbps: max,
            avg_gbps: avg,
        }
    }

    /// Does this class contain `node`?
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.contains(&node)
    }
}

numa_par::json_struct! {
    /// The full model for one target node and direction.
    #[derive(Debug, Clone, PartialEq)]
    pub struct IoPerfModel {
        /// The characterized (device-local) node.
        pub target: NodeId,
        /// Direction.
        pub mode: TransferMode,
        /// Per-node probe statistics; index = node id.
        pub per_node: Vec<Summary>,
        /// Classes, best first; class 1 always holds the target and its
        /// package neighbours (§V-A: "The local and neighboring nodes are
        /// always assigned to the first class").
        classes: Vec<PerfClass>,
        /// Label of the platform that produced the model.
        pub platform: String,
    }
}

impl IoPerfModel {
    /// Assemble a model (used by the modeler; classes must be consistent
    /// with `per_node`).
    pub fn new(
        target: NodeId,
        mode: TransferMode,
        per_node: Vec<Summary>,
        classes: Vec<PerfClass>,
        platform: String,
    ) -> Self {
        let covered: usize = classes.iter().map(|c| c.nodes.len()).sum();
        assert_eq!(covered, per_node.len(), "classes must partition the nodes");
        IoPerfModel {
            target,
            mode,
            per_node,
            classes,
            platform,
        }
    }

    /// The classes, best first.
    pub fn classes(&self) -> &[PerfClass] {
        &self.classes
    }

    /// Modelled mean bandwidth of one node.
    pub fn node_gbps(&self, node: NodeId) -> f64 {
        self.per_node[node.index()].mean
    }

    /// Per-node means as a vector (for correlation analyses).
    pub fn means(&self) -> Vec<f64> {
        self.per_node.iter().map(|s| s.mean).collect()
    }

    /// Class index (0 = best) of a node.
    ///
    /// Panics for nodes outside the model; [`Self::try_class_of`] is the
    /// fallible form for externally supplied node ids.
    pub fn class_of(&self, node: NodeId) -> usize {
        self.try_class_of(node)
            .expect("classes partition the nodes")
    }

    /// Class index (0 = best) of a node, or `None` if the node is not
    /// covered by this model.
    pub fn try_class_of(&self, node: NodeId) -> Option<usize> {
        self.classes.iter().position(|c| c.contains(node))
    }

    /// One representative node per class — the reduced probe set that cuts
    /// characterization cost (§V-B: 8 cases -> 4 cases, "the evaluation
    /// cost decreases by 50%").
    pub fn representatives(&self) -> Vec<NodeId> {
        self.classes.iter().map(|c| c.nodes[0]).collect()
    }

    /// Fraction of probes saved by testing only representatives.
    pub fn probe_savings(&self) -> f64 {
        1.0 - self.classes.len() as f64 / self.per_node.len() as f64
    }

    /// Serialize to JSON (the persisted model format of the `iomodel` tool).
    pub fn to_json(&self) -> String {
        numa_par::json::to_string_pretty(self)
    }

    /// Load from JSON.
    pub fn from_json(s: &str) -> Result<Self, numa_par::json::Error> {
        numa_par::json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(v: f64) -> Summary {
        Summary::from(&[v])
    }

    fn toy_model() -> IoPerfModel {
        let per_node = vec![summary(40.0), summary(41.0), summary(26.0), summary(50.0)];
        let classes = vec![
            PerfClass::from_members(vec![(NodeId(3), 50.0)]),
            PerfClass::from_members(vec![(NodeId(0), 40.0), (NodeId(1), 41.0)]),
            PerfClass::from_members(vec![(NodeId(2), 26.0)]),
        ];
        IoPerfModel::new(
            NodeId(3),
            TransferMode::Write,
            per_node,
            classes,
            "test".into(),
        )
    }

    #[test]
    fn perf_class_stats() {
        let c = PerfClass::from_members(vec![(NodeId(2), 27.3), (NodeId(1), 26.0)]);
        assert_eq!(c.nodes, vec![NodeId(1), NodeId(2)]);
        assert_eq!(c.min_gbps, 26.0);
        assert_eq!(c.max_gbps, 27.3);
        assert!((c.avg_gbps - 26.65).abs() < 1e-12);
        assert!(c.contains(NodeId(1)));
        assert!(!c.contains(NodeId(0)));
    }

    #[test]
    fn model_lookups() {
        let m = toy_model();
        assert_eq!(m.node_gbps(NodeId(2)), 26.0);
        assert_eq!(m.class_of(NodeId(3)), 0);
        assert_eq!(m.class_of(NodeId(1)), 1);
        assert_eq!(m.class_of(NodeId(2)), 2);
        assert_eq!(m.representatives(), vec![NodeId(3), NodeId(0), NodeId(2)]);
        assert!((m.probe_savings() - 0.25).abs() < 1e-12);
        assert_eq!(m.means(), vec![40.0, 41.0, 26.0, 50.0]);
        assert_eq!(m.try_class_of(NodeId(2)), Some(2));
        assert_eq!(
            m.try_class_of(NodeId(9)),
            None,
            "foreign node is not a panic"
        );
    }

    #[test]
    fn json_round_trip() {
        let m = toy_model();
        let back = IoPerfModel::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    #[should_panic(expected = "partition")]
    fn classes_must_cover_all_nodes() {
        let per_node = vec![summary(1.0), summary(2.0)];
        let classes = vec![PerfClass::from_members(vec![(NodeId(0), 1.0)])];
        let _ = IoPerfModel::new(NodeId(0), TransferMode::Read, per_node, classes, "x".into());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_class_rejected() {
        let _ = PerfClass::from_members(vec![]);
    }
}
