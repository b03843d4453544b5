//! The §V-B Eq. 1 worked example: predict, measure, report the error.

use crate::Experiment;
use numa_fabric::calibration::paper;
use numa_fio::{run_jobs, JobSpec};
use numa_iodev::{NicModel, NicOp};
use numa_topology::NodeId;
use numio_core::{predict_aggregate, relative_error, IoModeler, SimPlatform, TransferMode};
use std::fmt::Write as _;

/// Regenerate the prediction experiment, plus a grid of additional mixes.
pub fn run() -> Experiment {
    let platform = SimPlatform::dl585();
    let model = IoModeler::new().characterize(&platform, NodeId(7), TransferMode::Read);
    let nic = NicModel::paper();
    let mut text = String::new();

    // The paper's example: 2 x node 2 (class 2) + 2 x node 0 (class 3).
    let class2 = nic.map(NicOp::RdmaRead).eval(model.classes()[1].avg_gbps);
    let class3 = nic.map(NicOp::RdmaRead).eval(model.classes()[2].avg_gbps);
    let predicted = predict_aggregate(&[(class2, 0.5), (class3, 0.5)]);
    let jobs = [
        JobSpec::nic(NicOp::RdmaRead, NodeId(2))
            .numjobs(2)
            .size_gbytes(50.0),
        JobSpec::nic(NicOp::RdmaRead, NodeId(0))
            .numjobs(2)
            .size_gbytes(50.0),
    ];
    let measured = run_jobs(platform.fabric(), &jobs).unwrap().aggregate_gbps;
    let err = relative_error(predicted, measured);
    let _ = writeln!(
        text,
        "the paper's worked example (RDMA_READ, 2 x node2 + 2 x node0):"
    );
    let _ = writeln!(text, "  {:<12} {:>10} {:>10}", "", "ours", "paper");
    let _ = writeln!(
        text,
        "  {:<12} {:>10.3} {:>10.3}",
        "predicted",
        predicted,
        paper::EQ1_PREDICTED
    );
    let _ = writeln!(
        text,
        "  {:<12} {:>10.3} {:>10.3}",
        "measured",
        measured,
        paper::EQ1_MEASURED
    );
    let _ = writeln!(
        text,
        "  {:<12} {:>9.1}% {:>9.1}%",
        "rel. error",
        err * 100.0,
        paper::EQ1_REL_ERROR * 100.0
    );

    // A broader validation grid.
    let _ = writeln!(text, "\nvalidation grid (RDMA_READ mixes):");
    let _ = writeln!(
        text,
        "  {:<22} {:>10} {:>10} {:>8}",
        "mix", "predicted", "measured", "error"
    );
    let mut worst: f64 = 0.0;
    for mix in [
        vec![(6u16, 2u32), (4, 2)],
        vec![(2, 1), (0, 3)],
        vec![(3, 2), (5, 2)],
        vec![(7, 1), (1, 1), (4, 2)],
    ] {
        let total: u32 = mix.iter().map(|&(_, c)| c).sum();
        let terms: Vec<(f64, f64)> = mix
            .iter()
            .map(|&(n, c)| {
                let class = &model.classes()[model.class_of(NodeId(n))];
                (
                    nic.map(NicOp::RdmaRead).eval(class.avg_gbps),
                    c as f64 / total as f64,
                )
            })
            .collect();
        let p = predict_aggregate(&terms);
        let jobs: Vec<JobSpec> = mix
            .iter()
            .map(|&(n, c)| {
                JobSpec::nic(NicOp::RdmaRead, NodeId(n))
                    .numjobs(c)
                    .size_gbytes(30.0)
            })
            .collect();
        let m = run_jobs(platform.fabric(), &jobs).unwrap().aggregate_gbps;
        let e = relative_error(p, m);
        worst = worst.max(e);
        let mix_str: Vec<String> = mix.iter().map(|(n, c)| format!("{n}x{c}")).collect();
        let _ = writeln!(
            text,
            "  {:<22} {:>10.3} {:>10.3} {:>7.1}%",
            mix_str.join(","),
            p,
            m,
            e * 100.0
        );
    }
    let _ = writeln!(text, "  worst error: {:.1}%", worst * 100.0);
    Experiment {
        id: "eq1",
        title: "Aggregate bandwidth prediction (Eq. 1)",
        text,
        data: None,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn example_reported_with_small_error() {
        let e = super::run();
        assert!(
            e.text.contains("19.4"),
            "measured near the paper's 19.415: {}",
            e.text
        );
        assert!(e.text.contains("worst error"));
    }
}
