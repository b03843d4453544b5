//! QoS weights end to end: a premium transfer sharing the adapter with
//! best-effort background streams gets a proportionally larger share.

use numio::core::SimPlatform;
use numio::fio::{parse_jobfile, run_jobs, JobSpec};
use numio::iodev::NicOp;
use numio::topology::NodeId;

#[test]
fn premium_job_gets_a_triple_share_of_the_port() {
    let platform = SimPlatform::dl585();
    // Same node, same op, same volume: only the weight differs.
    let jobs = [
        JobSpec::nic(NicOp::RdmaWrite, NodeId(6))
            .size_gbytes(20.0)
            .weight(3.0),
        JobSpec::nic(NicOp::RdmaWrite, NodeId(6)).size_gbytes(20.0),
    ];
    let report = run_jobs(platform.fabric(), &jobs).unwrap();
    // While both run, the premium stream holds 3x the rate, so it finishes
    // in roughly half the time the background stream needs.
    let premium = &report.jobs[0];
    let background = &report.jobs[1];
    assert!(
        premium.makespan_s < background.makespan_s * 0.75,
        "premium {} vs background {}",
        premium.makespan_s,
        background.makespan_s
    );
    // Work conservation: the port still runs at the class level overall.
    assert!(
        (report.aggregate_gbps - 23.3).abs() < 0.1,
        "{}",
        report.aggregate_gbps
    );
}

#[test]
fn weights_do_not_change_uncontended_jobs() {
    let platform = SimPlatform::dl585();
    let run_with = |w: f64| {
        let job = JobSpec::nic(NicOp::RdmaRead, NodeId(3))
            .size_gbytes(10.0)
            .weight(w);
        run_jobs(platform.fabric(), &[job]).unwrap().aggregate_gbps
    };
    assert_eq!(
        run_with(1.0),
        run_with(10.0),
        "a lone flow owns its path either way"
    );
}

#[test]
fn jobfile_weights_flow_through_the_runner() {
    let platform = SimPlatform::dl585();
    let text = "\
[premium]
ioengine=rdma
verb=write
cpunodebind=6
size=20g
weight=3

[background]
ioengine=rdma
verb=write
cpunodebind=6
size=20g
";
    let jobs: Vec<JobSpec> = parse_jobfile(text)
        .unwrap()
        .into_iter()
        .map(|(_, j)| j)
        .collect();
    assert_eq!(jobs[0].weight, 3.0);
    assert_eq!(jobs[1].weight, 1.0);
    let report = run_jobs(platform.fabric(), &jobs).unwrap();
    assert!(report.jobs[0].makespan_s < report.jobs[1].makespan_s * 0.75);
}
