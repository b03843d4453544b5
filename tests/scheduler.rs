//! §V-B scheduling application: the model-driven advisor beats naive
//! local binding for contended multi-user workloads.

use numio::core::{IoModeler, ScheduleAdvisor, SimPlatform, TransferMode};
use numio::fio::{run_jobs, JobSpec};
use numio::iodev::NicOp;
use numio::topology::NodeId;

/// An ingest pipeline: RDMA pull + SSD persist + SSD re-export.
fn dtn_jobs(read_nodes: &[NodeId], write_nodes: &[NodeId]) -> Vec<JobSpec> {
    let r = |i: usize| read_nodes[i % read_nodes.len()];
    let w = |i: usize| write_nodes[i % write_nodes.len()];
    vec![
        JobSpec::nic(NicOp::RdmaRead, r(0))
            .numjobs(2)
            .size_gbytes(10.0),
        JobSpec::nic(NicOp::RdmaRead, r(1))
            .numjobs(2)
            .size_gbytes(10.0),
        JobSpec::ssd(true, w(0)).numjobs(1).size_gbytes(14.0),
        JobSpec::ssd(true, w(1)).numjobs(1).size_gbytes(14.0),
        JobSpec::ssd(true, w(2)).numjobs(1).size_gbytes(14.0),
        JobSpec::ssd(true, w(3)).numjobs(1).size_gbytes(14.0),
        JobSpec::ssd(false, r(1)).numjobs(1).size_gbytes(30.0),
        JobSpec::ssd(false, r(2)).numjobs(1).size_gbytes(30.0),
    ]
}

#[test]
fn advisor_beats_naive_local_on_contended_pipeline() {
    let platform = SimPlatform::dl585();
    let fabric = platform.fabric();
    let advisor = ScheduleAdvisor {
        equivalence_tolerance: 0.12,
        avoid_irq_node: true,
    };
    let read_model = IoModeler::new().characterize(&platform, NodeId(7), TransferMode::Read);
    let write_model = IoModeler::new().characterize(&platform, NodeId(7), TransferMode::Write);
    let read_nodes = advisor.eligible_nodes(&read_model);
    let write_nodes = advisor.eligible_nodes(&write_model);

    let local = [NodeId(7)];
    let naive = run_jobs(fabric, &dtn_jobs(&local, &local)).unwrap();
    let spread = run_jobs(fabric, &dtn_jobs(&read_nodes, &write_nodes)).unwrap();
    assert!(
        spread.aggregate_gbps > naive.aggregate_gbps * 1.3,
        "spread {} vs naive {}",
        spread.aggregate_gbps,
        naive.aggregate_gbps
    );
    assert!(spread.makespan_s < naive.makespan_s);
}

#[test]
fn advisor_never_places_into_the_starved_class() {
    let platform = SimPlatform::dl585();
    let advisor = ScheduleAdvisor {
        equivalence_tolerance: 0.2,
        avoid_irq_node: true,
    };
    let write_model = IoModeler::new().characterize(&platform, NodeId(7), TransferMode::Write);
    for tasks in 1..=32 {
        let p = advisor.place(&write_model, tasks);
        for &n in &p.assignments {
            assert_ne!(n, NodeId(2), "{tasks} tasks");
            assert_ne!(n, NodeId(3), "{tasks} tasks");
        }
    }
}

#[test]
fn naive_local_equalizes_when_workload_is_tiny() {
    // With a single small job there is no contention to avoid: local and
    // advised placements perform identically (advice is never *worse* than
    // the class level).
    let platform = SimPlatform::dl585();
    let fabric = platform.fabric();
    let local = run_jobs(
        fabric,
        &[JobSpec::nic(NicOp::RdmaWrite, NodeId(7)).size_gbytes(5.0)],
    )
    .unwrap();
    let neighbour = run_jobs(
        fabric,
        &[JobSpec::nic(NicOp::RdmaWrite, NodeId(6)).size_gbytes(5.0)],
    )
    .unwrap();
    let diff = (local.aggregate_gbps - neighbour.aggregate_gbps).abs();
    assert!(
        diff < 0.2,
        "{} vs {}",
        local.aggregate_gbps,
        neighbour.aggregate_gbps
    );
}

#[test]
fn spreading_across_equal_classes_matches_paper_rdma_write_example() {
    // §V-B: "in the case of RDMA_WRITE ... class 1 and class 2 have almost
    // identical performance. Therefore, instead of allocating all
    // application processes to node 7 only, we can evenly split the task
    // processes among all nodes in class 1 and class 2."
    let platform = SimPlatform::dl585();
    let write_model = IoModeler::new().characterize(&platform, NodeId(7), TransferMode::Write);
    let c1 = write_model.classes()[0].avg_gbps;
    let c2 = write_model.classes()[1].avg_gbps;
    // memcpy units: class 2 within ~11% of class 1; in protocol units the
    // RDMA_WRITE levels are within half a percent.
    assert!((c1 - c2) / c1 < 0.12);
    let nic = numio::iodev::NicModel::paper();
    let p1 = nic.map(NicOp::RdmaWrite).eval(c1);
    let p2 = nic.map(NicOp::RdmaWrite).eval(c2);
    assert!((p1 - p2) / p1 < 0.005, "{p1} vs {p2}");
}
