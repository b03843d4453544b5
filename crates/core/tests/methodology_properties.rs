//! Seeded property tests of the methodology's invariants: classification,
//! prediction, correlation, drift. Each property runs `CASES` cases, case
//! `c` drawing its inputs from `SplitMix64::new(c)`.

use numa_par::rng::SplitMix64;
use numa_topology::{presets, NodeId};
use numio_core::{
    classify, diff_models, predict_for_mix, rank_correlation, ClassifyParams, IoModeler,
    IoPerfModel, SimPlatform, TransferMode,
};

const CASES: u64 = 128;

/// Eight per-node means in `[5, 60)` Gbit/s.
fn arb_means(rng: &mut SplitMix64) -> Vec<f64> {
    (0..8).map(|_| rng.range_f64(5.0, 60.0)).collect()
}

#[test]
fn classification_partitions_and_orders() {
    let topo = presets::dl585_testbed();
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let means = arb_means(&mut rng);
        let target = rng.below(8) as u16;
        let classes = classify(&topo, NodeId(target), &means, ClassifyParams::default());
        // Partition: every node exactly once.
        let mut seen: Vec<NodeId> = classes.iter().flat_map(|c| c.nodes.clone()).collect();
        seen.sort();
        assert_eq!(seen, (0..8).map(NodeId).collect::<Vec<_>>(), "case {case}");
        // Class 1 always holds target + neighbour.
        assert!(classes[0].contains(NodeId(target)), "case {case}");
        assert!(classes[0].contains(NodeId(target ^ 1)), "case {case}");
        // Remote classes strictly descend in average.
        for w in classes[1..].windows(2) {
            assert!(w[0].avg_gbps > w[1].avg_gbps, "case {case}");
        }
        // Within each class stats are consistent.
        for c in &classes {
            assert!(
                c.min_gbps <= c.avg_gbps && c.avg_gbps <= c.max_gbps,
                "case {case}"
            );
        }
    }
}

#[test]
fn remote_class_gaps_exceed_threshold() {
    // Between consecutive remote classes there is a genuine gap; within
    // a class, consecutive sorted members never gap more than the
    // threshold.
    let topo = presets::dl585_testbed();
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let means = arb_means(&mut rng);
        let threshold = rng.range_f64(0.02, 0.3);
        let params = ClassifyParams {
            gap_threshold: threshold,
            ..ClassifyParams::default()
        };
        let classes = classify(&topo, NodeId(7), &means, params);
        for w in classes[1..].windows(2) {
            let gap = (w[0].min_gbps - w[1].max_gbps) / w[0].min_gbps;
            assert!(
                gap > threshold - 1e-9,
                "case {case}: inter-class gap {gap} <= {threshold}"
            );
        }
        for c in &classes[1..] {
            let mut bws: Vec<f64> = c.nodes.iter().map(|n| means[n.index()]).collect();
            bws.sort_by(|a, b| b.total_cmp(a));
            for w in bws.windows(2) {
                let gap = (w[0] - w[1]) / w[0];
                assert!(
                    gap <= threshold + 1e-9,
                    "case {case}: intra-class gap {gap} > {threshold}"
                );
            }
        }
    }
}

#[test]
fn prediction_is_bounded_by_participating_classes() {
    let platform = SimPlatform::dl585();
    let model = IoModeler::new()
        .reps(5)
        .characterize(&platform, NodeId(7), TransferMode::Read);
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let counts: Vec<(u16, u32)> = (0..1 + rng.below(4))
            .map(|_| (rng.below(8) as u16, 1 + rng.below(4) as u32))
            .collect();
        let p = predict_for_mix(&model, counts.iter().map(|&(n, c)| (NodeId(n), c)));
        let class_avgs: Vec<f64> = counts
            .iter()
            .map(|&(n, _)| model.classes()[model.class_of(NodeId(n))].avg_gbps)
            .collect();
        let lo = class_avgs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = class_avgs.iter().cloned().fold(0.0, f64::max);
        assert!(
            p >= lo - 1e-9 && p <= hi + 1e-9,
            "case {case}: {p} outside [{lo},{hi}]"
        );
    }
}

#[test]
fn rank_correlation_is_bounded_and_symmetric() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let n = 2 + rng.below(10) as usize;
        let a: Vec<f64> = (0..n).map(|_| rng.range_f64(0.0, 100.0)).collect();
        // Build b as a seeded shuffle-ish transformation of a's indices.
        let b_seed = rng.next_u64();
        let b: Vec<f64> = (0..n)
            .map(|i| ((i as u64).wrapping_mul(b_seed | 1) % 1000) as f64)
            .collect();
        let r = rank_correlation(&a, &b);
        assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r), "case {case}: {r}");
        let r2 = rank_correlation(&b, &a);
        assert!(
            (r - r2).abs() < 1e-9,
            "case {case}: not symmetric: {r} vs {r2}"
        );
        // Self correlation is 1 unless constant.
        let rs = rank_correlation(&a, &a);
        assert!(rs == 0.0 || (rs - 1.0).abs() < 1e-9, "case {case}: {rs}");
    }
}

#[test]
fn drift_of_scaled_model_is_the_scale() {
    // Scaling every bandwidth uniformly never moves class memberships
    // and reports exactly the scale as drift.
    let platform = SimPlatform::dl585();
    let base = IoModeler::new()
        .reps(5)
        .characterize(&platform, NodeId(7), TransferMode::Write);
    let topo = presets::dl585_testbed();
    for case in 0..CASES {
        let factor = SplitMix64::new(case).range_f64(0.7, 1.3);
        // Rebuild a scaled model by hand.
        let scaled_means: Vec<f64> = base.means().iter().map(|m| m * factor).collect();
        let classes = classify(&topo, NodeId(7), &scaled_means, ClassifyParams::default());
        let per_node: Vec<numa_engine::Summary> = scaled_means
            .iter()
            .map(|&m| numa_engine::Summary::from(&[m]))
            .collect();
        let scaled = IoPerfModel::new(
            NodeId(7),
            TransferMode::Write,
            per_node,
            classes,
            base.platform.clone(),
        );
        let d = diff_models(&base, &scaled).unwrap();
        assert!(d.moved.is_empty(), "case {case}: {:?}", d.moved);
        assert!(
            (d.max_rel_delta - (factor - 1.0).abs()).abs() < 1e-9,
            "case {case}: {}",
            d.max_rel_delta
        );
    }
}
