//! Seeded property tests for the device models: each property runs
//! `CASES` cases, case `c` drawing its inputs from `SplitMix64::new(c)`.

use numa_fabric::calibration::dl585_fabric;
use numa_iodev::{IoEngine, NicModel, NicOp, RateMap, SsdModel, TwoHostPath};
use numa_par::rng::SplitMix64;
use numa_topology::NodeId;

const CASES: u64 = 128;

/// 1–7 control points with strictly increasing x and positive y.
fn arb_points(rng: &mut SplitMix64) -> Vec<(f64, f64)> {
    let mut pts: Vec<(f64, f64)> = (0..1 + rng.below(7))
        .map(|_| (rng.range_f64(0.1, 100.0), rng.range_f64(0.1, 100.0)))
        .collect();
    pts.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut x = 0.0;
    pts.into_iter()
        .map(|(dx, y)| {
            x += dx + 0.001;
            (x, y)
        })
        .collect()
}

#[test]
fn ratemap_eval_is_bounded_by_its_outputs() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let pts = arb_points(&mut rng);
        let x = rng.range_f64(0.0, 500.0);
        let map = RateMap::empirical(pts.clone());
        let y = map.eval(x);
        let lo = pts.iter().map(|&(_, y)| y).fold(f64::INFINITY, f64::min);
        let hi = map.max_output();
        assert!(
            y >= lo - 1e-9 && y <= hi + 1e-9,
            "case {case}: {y} outside [{lo},{hi}]"
        );
        // Exact at control points.
        for &(px, py) in &pts {
            assert!((map.eval(px) - py).abs() < 1e-9, "case {case}: eval({px})");
        }
    }
}

#[test]
fn monotone_maps_are_monotone_everywhere() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let pts = arb_points(&mut rng);
        let (a, b) = (rng.range_f64(0.0, 500.0), rng.range_f64(0.0, 500.0));
        // Sort y ascending to make the map monotone.
        let mut ys: Vec<f64> = pts.iter().map(|&(_, y)| y).collect();
        ys.sort_by(|p, q| p.total_cmp(q));
        let pts: Vec<(f64, f64)> = pts.iter().zip(&ys).map(|(&(x, _), &y)| (x, y)).collect();
        let map = RateMap::monotone(pts);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(
            map.eval(lo) <= map.eval(hi) + 1e-9,
            "case {case}: eval({lo}) > eval({hi})"
        );
    }
}

#[test]
fn nic_ceilings_never_exceed_port_caps() {
    let fabric = dl585_fabric();
    let nic = NicModel::paper();
    for node in 0..8u16 {
        for op in NicOp::ALL {
            let level = nic.node_ceiling(op, &fabric, NodeId(node));
            assert!(level > 0.0, "{op:?}@{node}");
            assert!(level <= nic.port_cap(op) + 1e-9, "{op:?}@{node}");
        }
    }
}

#[test]
fn shared_port_mixture_is_bounded() {
    let nic = NicModel::paper();
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let levels: Vec<f64> = (0..1 + rng.below(11))
            .map(|_| rng.range_f64(10.0, 24.0))
            .collect();
        let cap = nic.shared_port_cap(NicOp::RdmaRead, &levels);
        let mean = levels.iter().sum::<f64>() / levels.len() as f64;
        assert!(cap <= mean + 1e-9, "case {case}: mixture above mean");
        assert!(cap <= nic.port_cap(NicOp::RdmaRead) + 1e-9, "case {case}");
        assert!(
            cap >= mean * (1.0 - nic.mixed_class_penalty) - 1e-9
                || cap >= nic.port_cap(NicOp::RdmaRead) * (1.0 - nic.mixed_class_penalty) - 1e-9,
            "case {case}: {cap}"
        );
    }
}

#[test]
fn ssd_engine_efficiency_is_bounded() {
    // Buffered/sync are always worse than the paper config.
    assert!(IoEngine::Sync.efficiency() < 1.0);
    for iodepth in 1..128 {
        let e = IoEngine::Libaio { iodepth }.efficiency();
        assert!(e > 0.0, "iodepth {iodepth}");
        // Normalized to QD16; deeper queues gain at most ~12%.
        assert!(e <= 1.125 + 1e-9, "iodepth {iodepth}: {e}");
    }
}

#[test]
fn two_host_bandwidth_is_the_min_of_its_parts() {
    let local = dl585_fabric();
    let remote = dl585_fabric();
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let (l, r) = (NodeId(rng.below(8) as u16), NodeId(rng.below(8) as u16));
        let path = TwoHostPath {
            rtt_ms: rng.range_f64(0.001, 100.0),
            ..TwoHostPath::paper()
        };
        for op in [NicOp::TcpSend, NicOp::RdmaWrite, NicOp::RdmaRead] {
            let bw = path.op_bandwidth(op, (&local, l), (&remote, r));
            let local_level = path.local_nic.node_ceiling(op, &local, l);
            let peer = TwoHostPath::remote_counterpart(op);
            let remote_level = path.remote_nic.node_ceiling(peer, &remote, r);
            let expected = local_level
                .min(remote_level)
                .min(path.wire_gbps)
                .min(path.window_cap_gbps());
            assert!(
                (bw - expected).abs() < 1e-9,
                "case {case}: {op:?}: {bw} vs {expected}"
            );
            assert!(bw > 0.0, "case {case}: {op:?}");
        }
    }
}

#[test]
fn ssd_direct_always_beats_buffered() {
    let fabric = dl585_fabric();
    let ssd = SsdModel::paper();
    for node in 0..8u16 {
        for write in [false, true] {
            let direct =
                ssd.node_ceiling_with(write, &fabric, NodeId(node), IoEngine::paper(), true);
            let buffered =
                ssd.node_ceiling_with(write, &fabric, NodeId(node), IoEngine::paper(), false);
            assert!(
                direct > buffered,
                "node {node} write {write}: {direct} <= {buffered}"
            );
        }
    }
}
