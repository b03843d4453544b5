//! Eq. 1 in action: predict multi-user aggregate I/O bandwidth from the
//! class model, then validate against simulated fio runs (§V-B).
//!
//! ```sh
//! cargo run --example multi_user_prediction
//! ```

use numio::core::{predict_aggregate, relative_error};
use numio::fio::run_jobs;
use numio::iodev::{NicModel, NicOp};
use numio::prelude::*;

fn main() {
    let platform = SimPlatform::dl585();
    let fabric = platform.fabric();
    let nic = NicModel::paper();

    // Build both direction models once.
    let modeler = IoModeler::new();
    let write_model = modeler.characterize(&platform, NodeId(7), TransferMode::Write);
    let read_model = modeler.characterize(&platform, NodeId(7), TransferMode::Read);

    // A spread of multi-user mixes, including the paper's worked example
    // (RDMA_READ, 2 procs on node 2 + 2 on node 0 -> 20.017 predicted,
    // 19.415 measured, 3.1% error).
    let scenarios: Vec<(NicOp, Vec<(u16, u32)>)> = vec![
        (NicOp::RdmaRead, vec![(2, 2), (0, 2)]), // the paper's example
        (NicOp::RdmaRead, vec![(4, 1), (6, 3)]),
        (NicOp::RdmaRead, vec![(0, 1), (3, 1), (5, 2)]),
        (NicOp::RdmaWrite, vec![(2, 2), (6, 2)]),
        (NicOp::RdmaWrite, vec![(0, 2), (4, 2), (3, 4)]),
        (NicOp::RdmaRead, vec![(7, 2), (4, 2)]),
    ];

    println!(
        "{:<12} {:<22} {:>10} {:>10} {:>8}",
        "op", "mix (node x count)", "predicted", "measured", "error"
    );
    let mut worst: f64 = 0.0;
    for (op, mix) in scenarios {
        let model = if op.to_device() {
            &write_model
        } else {
            &read_model
        };
        let total: u32 = mix.iter().map(|&(_, c)| c).sum();
        let terms: Vec<(f64, f64)> = mix
            .iter()
            .map(|&(node, count)| {
                let class = &model.classes()[model.class_of(NodeId(node))];
                (
                    nic.map(op).eval(class.avg_gbps),
                    count as f64 / total as f64,
                )
            })
            .collect();
        let predicted = predict_aggregate(&terms);

        let jobs: Vec<JobSpec> = mix
            .iter()
            .map(|&(node, count)| {
                JobSpec::nic(op, NodeId(node))
                    .numjobs(count)
                    .size_gbytes(40.0)
            })
            .collect();
        let measured = run_jobs(fabric, &jobs).expect("fio run").aggregate_gbps;
        let err = relative_error(predicted, measured);
        worst = worst.max(err);
        let mix_str: Vec<String> = mix.iter().map(|(n, c)| format!("{n}x{c}")).collect();
        println!(
            "{:<12} {:<22} {:>9.3} {:>10.3} {:>7.1}%",
            format!("{op:?}"),
            mix_str.join(","),
            predicted,
            measured,
            err * 100.0
        );
    }
    println!(
        "\nworst relative error: {:.1}% (the paper reports 3.1% for its example)",
        worst * 100.0
    );
}
