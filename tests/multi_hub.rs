//! Multi-hub generality: the methodology, harness and advisor on a host
//! whose NIC and SSDs live on *different* nodes.

use numio::core::{IoModeler, ScheduleAdvisor, SimPlatform, TransferMode};
use numio::fabric::calibration::dl585_split_io_fabric;
use numio::fio::{run_jobs, JobSpec};
use numio::iodev::{NicOp, SsdModel};
use numio::topology::NodeId;

fn platform() -> SimPlatform {
    SimPlatform::new(dl585_split_io_fabric())
}

#[test]
fn both_hubs_are_characterization_targets() {
    let p = platform();
    let models = IoModeler::new().reps(10).characterize_all(&p);
    // 2 hubs x 2 directions.
    assert_eq!(models.len(), 4);
    let targets: Vec<NodeId> = models.iter().map(|m| m.target).collect();
    assert_eq!(targets, vec![NodeId(3), NodeId(3), NodeId(7), NodeId(7)]);
    // Node 3's class 1 is {2,3}; node 7's stays {6,7}.
    assert_eq!(models[0].classes()[0].nodes, vec![NodeId(2), NodeId(3)]);
    assert_eq!(models[2].classes()[0].nodes, vec![NodeId(6), NodeId(7)]);
}

#[test]
fn the_two_hubs_have_different_class_structures() {
    let p = platform();
    let node3 = IoModeler::new()
        .reps(5)
        .characterize(&p, NodeId(3), TransferMode::Write);
    let node7 = IoModeler::new()
        .reps(5)
        .characterize(&p, NodeId(7), TransferMode::Write);
    // Node 6 is top-class for node 7's devices but not for node 3's.
    assert_eq!(node7.class_of(NodeId(6)), 0);
    assert!(node3.class_of(NodeId(6)) > 0);
    // And vice versa for node 2.
    assert_eq!(node3.class_of(NodeId(2)), 0);
    assert!(node7.class_of(NodeId(2)) > 0);
}

#[test]
fn fio_ssd_jobs_target_the_node3_cards() {
    let p = platform();
    let fabric = p.fabric();
    let ssd = SsdModel::for_fabric(fabric).unwrap();
    assert_eq!(ssd.node, NodeId(3));
    // Writing from node 2 (neighbour of the SSD hub) is now a *good*
    // binding — the exact opposite of the single-hub testbed where {2,3}
    // were the starved class.
    let near = run_jobs(
        fabric,
        &[JobSpec::ssd(true, NodeId(2)).numjobs(2).size_gbytes(6.0)],
    )
    .unwrap()
    .aggregate_gbps;
    let far = run_jobs(
        fabric,
        &[JobSpec::ssd(true, NodeId(6)).numjobs(2).size_gbytes(6.0)],
    )
    .unwrap()
    .aggregate_gbps;
    assert!(near > far, "near-hub {near} should beat far {far}");
}

#[test]
fn nic_jobs_still_see_the_node7_classes() {
    let p = platform();
    let fabric = p.fabric();
    let at = |n: u16| {
        run_jobs(
            fabric,
            &[JobSpec::nic(NicOp::RdmaWrite, NodeId(n)).size_gbytes(6.0)],
        )
        .unwrap()
        .aggregate_gbps
    };
    // Same Table IV shape as the single-hub host: {2,3} starved for the NIC.
    assert!(at(3) < 0.8 * at(6));
}

#[test]
fn advisor_gives_per_device_answers() {
    let p = platform();
    let advisor = ScheduleAdvisor {
        equivalence_tolerance: 0.1,
        avoid_irq_node: true,
    };
    let nic_model = IoModeler::new()
        .reps(5)
        .characterize(&p, NodeId(7), TransferMode::Write);
    let ssd_model = IoModeler::new()
        .reps(5)
        .characterize(&p, NodeId(3), TransferMode::Write);
    let nic_nodes = advisor.eligible_nodes(&nic_model);
    let ssd_nodes = advisor.eligible_nodes(&ssd_model);
    assert_ne!(
        nic_nodes, ssd_nodes,
        "different devices, different spreading sets"
    );
    assert!(nic_nodes.contains(&NodeId(6)));
    assert!(ssd_nodes.contains(&NodeId(2)));
}

#[test]
fn concurrent_nic_and_ssd_load_no_longer_share_a_hub() {
    // On the single-hub host, NIC + SSD traffic all funnels through node
    // 7; split hubs relieve that: the same mixed workload achieves more.
    let single = SimPlatform::dl585();
    let split = platform();
    // Device-local ("naive") binding on each host: NIC users at the NIC
    // hub, SSD users at the SSD hub. On the single-hub host that is one
    // node's memory controller carrying everything; on the split host the
    // load lands on two controllers.
    let jobs = |fabric: &numio::fabric::Fabric| {
        let ssd_node = SsdModel::for_fabric(fabric).unwrap().node;
        vec![
            JobSpec::nic(NicOp::RdmaRead, NodeId(7))
                .numjobs(2)
                .size_gbytes(10.0),
            JobSpec::ssd(true, ssd_node).numjobs(2).size_gbytes(10.0),
            JobSpec::ssd(false, ssd_node).numjobs(2).size_gbytes(10.0),
        ]
    };
    let on_single = run_jobs(single.fabric(), &jobs(single.fabric())).unwrap();
    let on_split = run_jobs(split.fabric(), &jobs(split.fabric())).unwrap();
    assert!(
        on_split.aggregate_gbps > on_single.aggregate_gbps,
        "split {} vs single {}",
        on_split.aggregate_gbps,
        on_single.aggregate_gbps
    );
}
