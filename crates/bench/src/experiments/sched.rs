//! §V-B scheduling application: model-driven spreading vs naive local
//! binding.

use crate::Experiment;
use numa_fio::{run_jobs, JobSpec};
use numa_iodev::NicOp;
use numa_sched::ClassRanked;
use numa_topology::NodeId;
use numio_core::SimPlatform;
use std::fmt::Write as _;

fn dtn_jobs(read_nodes: &[NodeId], write_nodes: &[NodeId]) -> Vec<JobSpec> {
    let r = |i: usize| read_nodes[i % read_nodes.len()];
    let w = |i: usize| write_nodes[i % write_nodes.len()];
    let mut jobs = vec![
        JobSpec::nic(NicOp::RdmaRead, r(0))
            .numjobs(2)
            .size_gbytes(15.0),
        JobSpec::nic(NicOp::RdmaRead, r(1))
            .numjobs(2)
            .size_gbytes(15.0),
    ];
    for i in 0..4 {
        jobs.push(JobSpec::ssd(true, w(i)).numjobs(1).size_gbytes(20.0));
    }
    for i in 0..2 {
        jobs.push(JobSpec::ssd(false, r(i + 1)).numjobs(1).size_gbytes(44.0));
    }
    jobs
}

/// Regenerate the scheduling comparison.
pub fn run() -> Experiment {
    let platform = SimPlatform::dl585();
    let fabric = platform.fabric();
    // The model-driven scheduler's per-direction spreading sets.
    let model_driven = ClassRanked::model_driven(&platform).expect("the DL585 characterizes");
    let read_nodes = &model_driven.ranking(false)[0];
    let write_nodes = &model_driven.ranking(true)[0];

    let local = [NodeId(7)];
    let naive = run_jobs(fabric, &dtn_jobs(&local, &local)).unwrap();
    let spread = run_jobs(fabric, &dtn_jobs(read_nodes, write_nodes)).unwrap();

    let mut text = String::new();
    let _ = writeln!(
        text,
        "workload: 2 RDMA ingest users (2 streams each) + 4 SSD writers +\n\
         2 SSD read-back users, concurrently\n"
    );
    let _ = writeln!(text, "  read-direction spreading set:  {read_nodes:?}");
    let _ = writeln!(text, "  write-direction spreading set: {write_nodes:?}\n");
    let _ = writeln!(
        text,
        "  {:<26} {:>10} {:>12}",
        "placement", "aggregate", "makespan"
    );
    let _ = writeln!(
        text,
        "  {:<26} {:>8.2}G {:>10.1}s",
        "naive: all on node 7", naive.aggregate_gbps, naive.makespan_s
    );
    let _ = writeln!(
        text,
        "  {:<26} {:>8.2}G {:>10.1}s",
        "advised: spread by class", spread.aggregate_gbps, spread.makespan_s
    );
    let _ = writeln!(
        text,
        "\n  improvement: {:+.1}% aggregate bandwidth",
        (spread.aggregate_gbps / naive.aggregate_gbps - 1.0) * 100.0
    );
    Experiment {
        id: "sched",
        title: "Scheduler assistance (§V-B application 3)",
        text,
        data: None,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn spreading_wins() {
        let e = super::run();
        assert!(e.text.contains("improvement: +"), "{}", e.text);
    }
}
