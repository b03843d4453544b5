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
    /// an ablation knob; see the `ablations` experiment. On a fault view
    /// [`crate::IoModeler`] voids the rule for each neighbour whose probe
    /// path a fault lowered, so a throttled neighbour is ranked like a
    /// remote node instead of holding class 1.
    pub force_local_class1: bool,
}

impl Default for ClassifyParams {
    fn default() -> Self {
        ClassifyParams {
            gap_threshold: 0.08,
            force_local_class1: true,
        }
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
/// target 4 write), so the order is not best-first. The rule describes a
/// healthy host; [`crate::IoModeler`] and the storage models void it
/// for a neighbour whose probe path a fault lowered, so a fault on a
/// local-pair path no longer inverts class 1.
pub fn classify(
    topo: &Topology,
    target: NodeId,
    means: &[f64],
    params: ClassifyParams,
) -> Vec<PerfClass> {
    classify_voiding(topo, target, means, params, &[])
}

/// [`classify`] with the §V-A prior voided for the package neighbours in
/// `voided`: each joins the remote nodes' sort and gap split instead of
/// class 1. The target always stays in class 1. With `voided` empty this
/// is [`classify`].
pub(crate) fn classify_voiding(
    topo: &Topology,
    target: NodeId,
    means: &[f64],
    params: ClassifyParams,
    voided: &[NodeId],
) -> Vec<PerfClass> {
    assert_eq!(means.len(), topo.num_nodes(), "one mean per node");
    // One scratch list: class 1 (the target's package, ascending) first,
    // then the remote tail, which is sorted and split in place.
    let package = topo.node(target).package;
    let local = |n: NodeId| {
        params.force_local_class1
            && topo.node(n).package == package
            && (n == target || !voided.contains(&n))
    };
    let mut scratch: Vec<(NodeId, f64)> = Vec::with_capacity(means.len());
    scratch.extend(
        topo.node_ids()
            .filter(|&n| local(n))
            .map(|n| (n, means[n.index()])),
    );
    let class1_len = scratch.len();
    scratch.extend(
        topo.node_ids()
            .filter(|&n| !local(n))
            .map(|n| (n, means[n.index()])),
    );
    let (class1, remote) = scratch.split_at_mut(class1_len);
    remote.sort_by(|a, b| b.1.total_cmp(&a.1));

    let mut classes = Vec::new();
    if !class1.is_empty() {
        classes.push(PerfClass::from_members(class1));
    }
    let mut start = 0;
    for i in 1..remote.len() {
        let (prev, bw) = (remote[i - 1].1, remote[i].1);
        if (prev - bw) / prev > params.gap_threshold {
            classes.push(PerfClass::from_members(&mut remote[start..i]));
            start = i;
        }
    }
    if start < remote.len() {
        classes.push(PerfClass::from_members(&mut remote[start..]));
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
        let tight = classify(
            &topo,
            NodeId(7),
            &means,
            ClassifyParams {
                gap_threshold: 0.001,
                ..ClassifyParams::default()
            },
        );
        let loose = classify(
            &topo,
            NodeId(7),
            &means,
            ClassifyParams {
                gap_threshold: 0.5,
                ..ClassifyParams::default()
            },
        );
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
        let params = ClassifyParams {
            force_local_class1: false,
            ..ClassifyParams::default()
        };
        let classes = classify(&topo, NodeId(7), &means, params);
        assert_eq!(classes.len(), 3, "{classes:?}");
        // Top class now mixes the local pair with nodes 2,3.
        assert!(classes[0].contains(NodeId(3)));
        assert!(classes[0].contains(NodeId(7)));
    }

    /// `classify` as it was before the one-scratch rewrite (class 1 from
    /// `neighbour_nodes`, one `Vec` per class), with the old
    /// `PerfClass::from_members` inlined.
    fn reference_classify(
        topo: &Topology,
        target: NodeId,
        means: &[f64],
        params: ClassifyParams,
    ) -> Vec<PerfClass> {
        fn from_members(mut members: Vec<(NodeId, f64)>) -> PerfClass {
            members.sort_by_key(|(n, _)| *n);
            let min = members
                .iter()
                .map(|(_, b)| *b)
                .fold(f64::INFINITY, f64::min);
            let max = members.iter().map(|(_, b)| *b).fold(0.0, f64::max);
            let avg = members.iter().map(|(_, b)| *b).sum::<f64>() / members.len() as f64;
            PerfClass {
                nodes: members.into_iter().map(|(n, _)| n).collect(),
                min_gbps: min,
                max_gbps: max,
                avg_gbps: avg,
            }
        }
        let class1: Vec<(NodeId, f64)> = if params.force_local_class1 {
            let mut c = vec![(target, means[target.index()])];
            for n in topo.neighbour_nodes(target) {
                c.push((n, means[n.index()]));
            }
            c
        } else {
            Vec::new()
        };
        let mut remote: Vec<(NodeId, f64)> = topo
            .node_ids()
            .filter(|&n| !class1.iter().any(|(m, _)| *m == n))
            .map(|n| (n, means[n.index()]))
            .collect();
        remote.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut classes: Vec<PerfClass> = if class1.is_empty() {
            Vec::new()
        } else {
            vec![from_members(class1)]
        };
        let mut current: Vec<(NodeId, f64)> = Vec::new();
        for (node, bw) in remote {
            if let Some(&(_, prev)) = current.last() {
                if (prev - bw) / prev > params.gap_threshold {
                    classes.push(from_members(std::mem::take(&mut current)));
                }
            }
            current.push((node, bw));
        }
        if !current.is_empty() {
            classes.push(from_members(current));
        }
        classes
    }

    #[test]
    fn classify_matches_the_reference_bit_for_bit() {
        use numa_par::rng::SplitMix64;
        use numa_topology::hostgen::TopoGen;

        let mut topos = vec![presets::dl585_testbed()];
        let mut seeds = SplitMix64::new(0x0c1a_55e5);
        while topos.len() < 48 {
            if let Ok(t) = TopoGen::sample("gen", seeds.next_u64()).build() {
                topos.push(t);
            }
        }
        for want in [2, 32] {
            assert!(
                topos.iter().any(|t| t.num_nodes() == want),
                "no {want}-node host"
            );
        }
        const SPECIAL: [f64; 6] = [f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 30.0];
        let bits = |c: &PerfClass| {
            (
                c.nodes.clone(),
                [c.min_gbps, c.max_gbps, c.avg_gbps].map(f64::to_bits),
            )
        };
        for case in 0..2000u64 {
            let mut rng = SplitMix64::new(case);
            let topo = &topos[rng.below(topos.len() as u64) as usize];
            let n = topo.num_nodes();
            let target = NodeId(rng.below(n as u64) as u16);
            let mut means: Vec<f64> = Vec::with_capacity(n);
            for i in 0..n {
                let m = match rng.below(10) {
                    0 => SPECIAL[rng.below(SPECIAL.len() as u64) as usize],
                    1 if i > 0 => means[rng.below(i as u64) as usize],
                    _ => rng.range_f64(10.0, 60.0),
                };
                means.push(m);
            }
            for gap_threshold in [0.0, 0.02, 0.08, 0.3] {
                for force_local_class1 in [true, false] {
                    let params = ClassifyParams {
                        gap_threshold,
                        force_local_class1,
                    };
                    let got = classify(topo, target, &means, params);
                    let want = reference_classify(topo, target, &means, params);
                    assert_eq!(
                        got.iter().map(bits).collect::<Vec<_>>(),
                        want.iter().map(bits).collect::<Vec<_>>(),
                        "case {case}: {means:?} at target {target}, {params:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_voided_neighbour_is_ranked_with_the_remote_nodes() {
        // The faulted write means of target 7 after the 6->7 throttle:
        // node 6 falls to the bottom remote class, node 7 keeps class 1.
        let topo = presets::dl585_testbed();
        let means = [42.9, 44.6, 27.3, 26.0, 46.5, 45.0, 11.7, 26.8];
        let p = ClassifyParams::default();
        let voided = classify_voiding(&topo, NodeId(7), &means, p, &[NodeId(6)]);
        let nodes: Vec<Vec<NodeId>> = voided.iter().map(|c| c.nodes.clone()).collect();
        let ids = |v: &[u16]| v.iter().map(|&n| NodeId(n)).collect::<Vec<_>>();
        assert_eq!(
            nodes,
            [ids(&[7]), ids(&[0, 1, 4, 5]), ids(&[2, 3]), ids(&[6])]
        );
        // The target itself cannot be voided; no voiding is `classify`.
        assert_eq!(
            classify_voiding(&topo, NodeId(7), &means, p, &[NodeId(7)]),
            classify(&topo, NodeId(7), &means, p)
        );
    }

    #[test]
    #[should_panic(expected = "one mean per node")]
    fn wrong_length_rejected() {
        let topo = presets::dl585_testbed();
        let _ = classify(&topo, NodeId(7), &[1.0, 2.0], ClassifyParams::default());
    }
}
