//! Performance-class construction and model-agreement analysis.

use crate::model::PerfClass;
use numa_topology::{NodeId, Topology};

/// Knobs for the class construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassifyParams {
    /// Relative bandwidth gap that separates two classes: consecutive
    /// (sorted) nodes whose means differ by more than this fraction of the
    /// larger one start a new class. 8% cleanly separates the Table IV/V
    /// structure while absorbing run noise.
    pub gap_threshold: f64,
    /// Apply the paper's rule that the target and its package neighbours
    /// always form class 1 (§V-A). Disabling it clusters purely by gaps —
    /// an ablation knob; see the `ablations` experiment.
    pub force_local_class1: bool,
}

impl Default for ClassifyParams {
    fn default() -> Self {
        ClassifyParams { gap_threshold: 0.08, force_local_class1: true }
    }
}

/// Build classes from per-node means (§V-A):
///
/// * the target node and its package neighbours always form **class 1**
///   ("The local and neighboring nodes are always be assigned to the first
///   class, and the main task of our methodology is to classify the remote
///   nodes");
/// * remaining nodes are sorted by mean, descending, and split at relative
///   gaps larger than `params.gap_threshold`.
///
/// Classes are returned local pair first: class 1 (the target and its
/// package neighbours) leads whatever its bandwidth, then the remote
/// classes in descending bandwidth order. With `force_local_class1`,
/// class 1 can average below a remote class (on the healthy DL585 at
/// target 4 write, and after a fault on a local-pair path), so the order
/// is not best-first.
pub fn classify(
    topo: &Topology,
    target: NodeId,
    means: &[f64],
    params: ClassifyParams,
) -> Vec<PerfClass> {
    assert_eq!(means.len(), topo.num_nodes(), "one mean per node");
    let class1: Vec<(NodeId, f64)> = if params.force_local_class1 {
        let mut c = vec![(target, means[target.index()])];
        for n in topo.neighbour_nodes(target) {
            c.push((n, means[n.index()]));
        }
        c
    } else {
        Vec::new()
    };
    let in_class1 = |n: NodeId| class1.iter().any(|(m, _)| *m == n);

    let mut remote: Vec<(NodeId, f64)> = topo
        .node_ids()
        .filter(|&n| !in_class1(n))
        .map(|n| (n, means[n.index()]))
        .collect();
    remote.sort_by(|a, b| b.1.total_cmp(&a.1));

    let mut classes: Vec<PerfClass> = if class1.is_empty() {
        Vec::new()
    } else {
        vec![PerfClass::from_members(class1)]
    };
    let mut current: Vec<(NodeId, f64)> = Vec::new();
    for (node, bw) in remote {
        if let Some(&(_, prev)) = current.last() {
            let gap = (prev - bw) / prev;
            if gap > params.gap_threshold {
                classes.push(PerfClass::from_members(std::mem::take(&mut current)));
            }
        }
        current.push((node, bw));
    }
    if !current.is_empty() {
        classes.push(PerfClass::from_members(current));
    }
    classes
}

/// Spearman rank correlation between two per-node vectors — used to
/// quantify whether one model (STREAM, memcpy) predicts another's (TCP,
/// RDMA, SSD) node ordering. 1.0 = identical ordering, negative = inverted.
pub fn rank_correlation(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "vectors must align");
    assert!(a.len() >= 2, "need at least two nodes");
    let ra = ranks(a);
    let rb = ranks(b);
    let n = a.len() as f64;
    let mean = (n + 1.0) / 2.0;
    let mut num = 0.0;
    let mut da = 0.0;
    let mut db = 0.0;
    for i in 0..a.len() {
        let xa = ra[i] - mean;
        let xb = rb[i] - mean;
        num += xa * xb;
        da += xa * xa;
        db += xb * xb;
    }
    if da == 0.0 || db == 0.0 {
        return 0.0;
    }
    num / (da * db).sqrt()
}

/// Fractional ranks (average rank for ties), 1-based.
fn ranks(v: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..v.len()).collect();
    idx.sort_by(|&i, &j| v[i].total_cmp(&v[j]));
    let mut r = vec![0.0; v.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && v[idx[j + 1]] == v[idx[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for k in i..=j {
            r[idx[k]] = avg;
        }
        i = j + 1;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_topology::presets;

    #[test]
    fn table_iv_write_classes_emerge() {
        let topo = presets::dl585_testbed();
        // Per-node write-direction means (fabric calibration targets).
        let means = [42.9, 44.6, 27.3, 26.0, 46.5, 45.0, 46.5, 53.5];
        let classes = classify(&topo, NodeId(7), &means, ClassifyParams::default());
        assert_eq!(classes.len(), 3);
        assert_eq!(classes[0].nodes, vec![NodeId(6), NodeId(7)]);
        assert_eq!(
            classes[1].nodes,
            vec![NodeId(0), NodeId(1), NodeId(4), NodeId(5)]
        );
        assert_eq!(classes[2].nodes, vec![NodeId(2), NodeId(3)]);
    }

    #[test]
    fn table_v_read_classes_emerge() {
        let topo = presets::dl585_testbed();
        let means = [39.9, 40.2, 46.9, 50.3, 27.9, 40.9, 47.1, 53.5];
        let classes = classify(&topo, NodeId(7), &means, ClassifyParams::default());
        assert_eq!(classes.len(), 4);
        assert_eq!(classes[0].nodes, vec![NodeId(6), NodeId(7)]);
        assert_eq!(classes[1].nodes, vec![NodeId(2), NodeId(3)]);
        assert_eq!(classes[2].nodes, vec![NodeId(0), NodeId(1), NodeId(5)]);
        assert_eq!(classes[3].nodes, vec![NodeId(4)]);
    }

    #[test]
    fn uniform_means_give_two_classes() {
        // Class 1 (forced) + everyone else in one remote class.
        let topo = presets::dl585_testbed();
        let means = [30.0; 8];
        let classes = classify(&topo, NodeId(7), &means, ClassifyParams::default());
        assert_eq!(classes.len(), 2);
        assert_eq!(classes[1].nodes.len(), 6);
    }

    #[test]
    fn tight_threshold_splits_more() {
        let topo = presets::dl585_testbed();
        let means = [39.9, 40.2, 46.9, 50.3, 27.9, 40.9, 47.1, 53.5];
        let tight = classify(&topo, NodeId(7), &means, ClassifyParams { gap_threshold: 0.001, ..ClassifyParams::default() });
        let loose = classify(&topo, NodeId(7), &means, ClassifyParams { gap_threshold: 0.5, ..ClassifyParams::default() });
        assert!(tight.len() > loose.len());
        assert_eq!(loose.len(), 2);
    }

    #[test]
    fn classes_partition_all_nodes() {
        let topo = presets::dl585_testbed();
        let means = [39.9, 40.2, 46.9, 50.3, 27.9, 40.9, 47.1, 53.5];
        let classes = classify(&topo, NodeId(7), &means, ClassifyParams::default());
        let mut all: Vec<NodeId> = classes.iter().flat_map(|c| c.nodes.clone()).collect();
        all.sort();
        assert_eq!(all, (0..8).map(NodeId).collect::<Vec<_>>());
    }

    #[test]
    fn classify_works_from_other_targets() {
        // §V-B: "The methodology ... can also be generalized to other
        // nodes in the host".
        let topo = presets::dl585_testbed();
        let means = [50.0, 48.0, 30.0, 31.0, 44.0, 45.0, 29.0, 28.0];
        let classes = classify(&topo, NodeId(0), &means, ClassifyParams::default());
        assert_eq!(classes[0].nodes, vec![NodeId(0), NodeId(1)]);
        // remote classes: {4,5} then {2,3,6,7}
        assert_eq!(classes[1].nodes, vec![NodeId(4), NodeId(5)]);
    }

    #[test]
    fn rank_correlation_extremes() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 20.0, 30.0, 40.0];
        assert!((rank_correlation(&a, &b) - 1.0).abs() < 1e-12);
        let c = [40.0, 30.0, 20.0, 10.0];
        assert!((rank_correlation(&a, &c) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn rank_correlation_handles_ties() {
        let a = [1.0, 1.0, 2.0, 3.0];
        let b = [1.0, 1.0, 2.0, 3.0];
        assert!((rank_correlation(&a, &b) - 1.0).abs() < 1e-12);
        let flat = [5.0, 5.0, 5.0, 5.0];
        assert_eq!(rank_correlation(&flat, &a), 0.0);
    }

    #[test]
    fn stream_vs_rdma_read_disagreement_is_detectable() {
        // The §IV-B2 mismatch as a correlation statement: STREAM's row-7
        // ordering anti-correlates with RDMA_READ on nodes {0,1,2,3}.
        let stream_row7 = [23.5, 23.0, 15.5, 14.4];
        let rdma_read = [18.036, 18.3, 21.998, 22.0];
        let r = rank_correlation(&stream_row7, &rdma_read);
        assert!(r < -0.9, "expected strong inversion, got {r}");
    }

    #[test]
    fn without_the_local_rule_class1_merges_with_class2() {
        // Ablation of the §V-A rule: pure gap clustering cannot separate
        // {6,7} from {2,3} in the read model (their bandwidths overlap).
        let topo = presets::dl585_testbed();
        let means = [39.9, 40.2, 46.9, 50.3, 27.9, 40.9, 47.1, 53.5];
        let params = ClassifyParams { force_local_class1: false, ..ClassifyParams::default() };
        let classes = classify(&topo, NodeId(7), &means, params);
        assert_eq!(classes.len(), 3, "{classes:?}");
        // Top class now mixes the local pair with nodes 2,3.
        assert!(classes[0].contains(NodeId(3)));
        assert!(classes[0].contains(NodeId(7)));
    }

    #[test]
    #[should_panic(expected = "one mean per node")]
    fn wrong_length_rejected() {
        let topo = presets::dl585_testbed();
        let _ = classify(&topo, NodeId(7), &[1.0, 2.0], ClassifyParams::default());
    }
}
