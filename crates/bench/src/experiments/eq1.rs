//! The §V-B Eq. 1 worked example: predict, measure, report the error.

use crate::Experiment;
use numa_fabric::calibration::paper;
use numa_iodev::NicOp;
use numa_topology::NodeId;
use numio_core::{check_mix, IoModeler, SimPlatform, TransferMode};
use std::fmt::Write as _;

/// Regenerate the prediction experiment, plus a grid of additional mixes.
pub fn run() -> Experiment {
    let platform = SimPlatform::dl585();
    let model = IoModeler::new().characterize(&platform, NodeId(7), TransferMode::Read);
    let check = |mix: &[(NodeId, u32)], gbytes| {
        check_mix(platform.fabric(), &model, NicOp::RdmaRead, mix, gbytes).unwrap()
    };
    let mut text = String::new();

    // The paper's example: 2 x node 2 (class 2) + 2 x node 0 (class 3).
    let example = check(&[(NodeId(2), 2), (NodeId(0), 2)], 50.0);
    let _ = writeln!(
        text,
        "the paper's worked example (RDMA_READ, 2 x node2 + 2 x node0):"
    );
    let _ = writeln!(text, "  {:<12} {:>10} {:>10}", "", "ours", "paper");
    for (row, ours, theirs) in [
        ("predicted", example.predicted, paper::EQ1_PREDICTED),
        ("measured", example.measured, paper::EQ1_MEASURED),
    ] {
        let _ = writeln!(text, "  {row:<12} {ours:>10.3} {theirs:>10.3}");
    }
    let _ = writeln!(
        text,
        "  {:<12} {:>9.1}% {:>9.1}%",
        "rel. error",
        example.error() * 100.0,
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
        let nodes: Vec<(NodeId, u32)> = mix.iter().map(|&(n, c)| (NodeId(n), c)).collect();
        let grid = check(&nodes, 30.0);
        let (p, m, e) = (grid.predicted, grid.measured, grid.error());
        worst = worst.max(e);
        let mix_str: Vec<String> = mix.iter().map(|(n, c)| format!("{n}x{c}")).collect();
        let (mix_str, pct) = (mix_str.join(","), e * 100.0);
        let _ = writeln!(text, "  {mix_str:<22} {p:>10.3} {m:>10.3} {pct:>7.1}%");
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
