//! End-to-end checks of the paper's headline claims, spanning all crates.

use numio::core::{rank_correlation, IoModeler, SimPlatform, TransferMode};
use numio::fabric::calibration::paper;
use numio::fio::{run_jobs, JobSpec};
use numio::iodev::{NicModel, NicOp, SsdModel};
use numio::memsys::StreamBench;
use numio::topology::NodeId;

fn per_node<F: Fn(u16) -> f64>(f: F) -> Vec<f64> {
    (0..8).map(f).collect()
}

/// §IV-B/§IV-C: the STREAM-based models of node 7 do NOT predict the I/O
/// bandwidth orderings, while the proposed memcpy model does.
#[test]
fn stream_models_fail_where_iomodel_succeeds() {
    let platform = SimPlatform::dl585();
    let fabric = platform.fabric();
    let nic = NicModel::paper();
    let ssd = SsdModel::paper();
    let stream = StreamBench::paper();

    // The three competitor models of node 7.
    let cpu_centric = stream.cpu_centric(fabric, NodeId(7));
    let mem_centric = stream.mem_centric(fabric, NodeId(7));
    let read_model = IoModeler::new()
        .characterize(&platform, NodeId(7), TransferMode::Read)
        .means();
    let write_model = IoModeler::new()
        .characterize(&platform, NodeId(7), TransferMode::Write)
        .means();

    // Device-read-direction I/O measurements.
    let rdma_read = per_node(|n| nic.node_ceiling(NicOp::RdmaRead, fabric, NodeId(n)));
    let ssd_read = per_node(|n| ssd.node_ceiling(false, fabric, NodeId(n)));
    // Device-write-direction measurements.
    let rdma_write = per_node(|n| nic.node_ceiling(NicOp::RdmaWrite, fabric, NodeId(n)));
    let ssd_write = per_node(|n| ssd.node_ceiling(true, fabric, NodeId(n)));

    for (io_name, io) in [("rdma_read", &rdma_read), ("ssd_read", &ssd_read)] {
        let ours = rank_correlation(&read_model, io);
        let cpu = rank_correlation(&cpu_centric, io);
        let mem = rank_correlation(&mem_centric, io);
        assert!(ours > 0.85, "{io_name}: iomodel corr {ours}");
        assert!(
            ours > cpu + 0.2 && ours > mem + 0.2,
            "{io_name}: iomodel ({ours:.2}) must clearly beat STREAM cpu-centric \
             ({cpu:.2}) and memory-centric ({mem:.2})"
        );
    }
    for (io_name, io) in [("rdma_write", &rdma_write), ("ssd_write", &ssd_write)] {
        let ours = rank_correlation(&write_model, io);
        assert!(ours > 0.85, "{io_name}: iomodel corr {ours}");
    }
}

/// §IV-B2's sharpest mismatch: STREAM ranks nodes {0,1} far above {2,3},
/// RDMA_READ ranks them the other way around.
#[test]
fn rdma_read_inverts_the_stream_ordering() {
    let platform = SimPlatform::dl585();
    let fabric = platform.fabric();
    let nic = NicModel::paper();
    let stream = StreamBench::paper().cpu_centric(fabric, NodeId(7));
    let stream01 = (stream[0] + stream[1]) / 2.0;
    let stream23 = (stream[2] + stream[3]) / 2.0;
    let ratio = stream01 / stream23;
    assert!(
        (1.43..=1.88).contains(&ratio),
        "paper: 43%-88% advantage, got {ratio}"
    );

    let r = |n: u16| nic.node_ceiling(NicOp::RdmaRead, fabric, NodeId(n));
    let rdma01 = (r(0) + r(1)) / 2.0;
    let rdma23 = (r(2) + r(3)) / 2.0;
    let drop = 1.0 - rdma01 / rdma23;
    // Paper: RDMA_READ on {0,1} is worse than {2,3} by 15%-18.4%.
    assert!((0.14..=0.20).contains(&drop), "got {drop}");
}

/// §IV-B1: binding everything to the device-local node is not optimal —
/// the neighbour (node 6) sends faster because node 7 also handles IRQs.
#[test]
fn neighbour_beats_local_for_tcp_send() {
    let platform = SimPlatform::dl585();
    let at = |node: u16| {
        let job = JobSpec::nic(NicOp::TcpSend, NodeId(node))
            .numjobs(4)
            .size_gbytes(8.0);
        run_jobs(platform.fabric(), &[job]).unwrap().aggregate_gbps
    };
    assert!(at(6) > at(7) * 1.04, "node 6 {} vs node 7 {}", at(6), at(7));
}

/// Tables IV and V: the methodology's class memberships, exactly.
#[test]
fn class_memberships_match_tables_iv_and_v() {
    let platform = SimPlatform::dl585();
    let write = IoModeler::new().characterize(&platform, NodeId(7), TransferMode::Write);
    let read = IoModeler::new().characterize(&platform, NodeId(7), TransferMode::Read);
    let as_ids = |c: &numio::core::PerfClass| c.nodes.iter().map(|n| n.0).collect::<Vec<_>>();
    assert_eq!(
        write.classes().iter().map(as_ids).collect::<Vec<_>>(),
        paper::WRITE_CLASSES
            .iter()
            .map(|c| c.to_vec())
            .collect::<Vec<_>>()
    );
    assert_eq!(
        read.classes().iter().map(as_ids).collect::<Vec<_>>(),
        paper::READ_CLASSES
            .iter()
            .map(|c| c.to_vec())
            .collect::<Vec<_>>()
    );
}

/// §V-B: Eq. 1 predicts the paper's mixed-class RDMA_READ workload within
/// a few percent of the simulated measurement (the paper reports 3.1%).
#[test]
fn eq1_validation_reproduces() {
    let platform = SimPlatform::dl585();
    let model = IoModeler::new().characterize(&platform, NodeId(7), TransferMode::Read);
    let nic = NicModel::paper();
    let class2 = nic.map(NicOp::RdmaRead).eval(model.classes()[1].avg_gbps);
    let class3 = nic.map(NicOp::RdmaRead).eval(model.classes()[2].avg_gbps);
    let predicted = numio::core::predict_aggregate(&[(class2, 0.5), (class3, 0.5)]);
    assert!(
        (predicted - paper::EQ1_PREDICTED).abs() < 0.25,
        "{predicted}"
    );

    let jobs = [
        JobSpec::nic(NicOp::RdmaRead, NodeId(2))
            .numjobs(2)
            .size_gbytes(40.0),
        JobSpec::nic(NicOp::RdmaRead, NodeId(0))
            .numjobs(2)
            .size_gbytes(40.0),
    ];
    let measured = run_jobs(platform.fabric(), &jobs).unwrap().aggregate_gbps;
    assert!((measured - paper::EQ1_MEASURED).abs() < 0.4, "{measured}");
    let err = numio::core::relative_error(predicted, measured);
    assert!(err < 0.05, "relative error {err} should be a few percent");
}

/// Table I: the NUMA factors of the four machine generations.
#[test]
fn table1_numa_factors() {
    for ((topo, model, target), (label, published)) in numio::fabric::calibration::table1_machines()
        .into_iter()
        .zip(paper::TABLE1)
    {
        let f = numio::fabric::numa_factor(&topo, &model);
        assert!(
            (f - target).abs() / target < 0.02,
            "{label}: {f} vs {target}"
        );
        assert_eq!(target, published);
    }
}

/// §IV-A: the measured STREAM matrix defeats topology inference — its
/// asymmetry means no symmetric hop metric can generate it.
#[test]
fn stream_matrix_asymmetry_defeats_hop_models() {
    let platform = SimPlatform::dl585();
    let m = StreamBench::paper().matrix(platform.fabric());
    assert!(m[7][4] > m[4][7] * 1.1, "the 21.34 vs 18.45 anchor pair");
    // Node 3 is ONE hop from node 7 yet slowest in row 7; node 0 is THREE
    // hops away yet near-best: distance and bandwidth are uncorrelated.
    let topo = platform.fabric().topology();
    assert_eq!(topo.hop_distance(NodeId(7), NodeId(3)), 1);
    assert_eq!(topo.hop_distance(NodeId(7), NodeId(0)), 3);
    assert!(m[7][0] > m[7][3] * 1.5);
}

/// §IV-B3: disk behaviour mirrors the network: write follows the send-side
/// classes, read the receive-side classes.
#[test]
fn ssd_mirrors_network_directions() {
    let platform = SimPlatform::dl585();
    let fabric = platform.fabric();
    let nic = NicModel::paper();
    let ssd = SsdModel::paper();
    let rdma_w = per_node(|n| nic.node_ceiling(NicOp::RdmaWrite, fabric, NodeId(n)));
    let ssd_w = per_node(|n| ssd.node_ceiling(true, fabric, NodeId(n)));
    assert!(rank_correlation(&rdma_w, &ssd_w) > 0.9);
    let rdma_r = per_node(|n| nic.node_ceiling(NicOp::RdmaRead, fabric, NodeId(n)));
    let ssd_r = per_node(|n| ssd.node_ceiling(false, fabric, NodeId(n)));
    assert!(rank_correlation(&rdma_r, &ssd_r) > 0.9);
}
