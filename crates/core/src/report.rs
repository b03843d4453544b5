//! Text renderings of models and model-vs-measurement comparisons — the
//! layouts of Tables IV and V.

use crate::model::{IoPerfModel, TransferMode};
use std::fmt::Write as _;

/// Render a model: per-node means plus the class table.
pub fn render_model(model: &IoPerfModel) -> String {
    let mut out = String::new();
    let dir = match model.mode {
        TransferMode::Write => "device write",
        TransferMode::Read => "device read",
    };
    let _ = writeln!(
        out,
        "I/O performance model: target node {} ({dir}), platform {}",
        model.target, model.platform
    );
    let _ = writeln!(out, "  per-node mean bandwidth (Gbit/s):");
    for (i, s) in model.per_node.iter().enumerate() {
        let _ = writeln!(
            out,
            "    node {i}: {:>6.2}  (min {:.2}, max {:.2}, n={})",
            s.mean, s.min, s.max, s.n
        );
    }
    let _ = writeln!(out, "  classes (best first):");
    for (i, c) in model.classes().iter().enumerate() {
        let nodes: Vec<String> = c.nodes.iter().map(|n| n.to_string()).collect();
        let _ = writeln!(
            out,
            "    class {}: nodes {{{}}}  range {:.1} – {:.1}  avg {:.1}",
            i + 1,
            nodes.join(", "),
            c.min_gbps,
            c.max_gbps,
            c.avg_gbps
        );
    }
    let _ = writeln!(
        out,
        "  probe reduction: test {} representative nodes instead of {} ({:.0}% saved)",
        model.representatives().len(),
        model.per_node.len(),
        model.probe_savings() * 100.0
    );
    out
}

/// Render the Table IV/V layout: rows of `(operation, per-node values)`
/// summarized per class of `model`, as `Range / Avg` cells.
pub fn render_comparison_table(model: &IoPerfModel, rows: &[(&str, Vec<f64>)]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{:<16}", "Operation");
    for (i, c) in model.classes().iter().enumerate() {
        let nodes: Vec<String> = c.nodes.iter().map(|n| n.to_string()).collect();
        let _ = write!(
            out,
            "{:>24}",
            format!("Class {} {{{}}}", i + 1, nodes.join(","))
        );
    }
    let _ = writeln!(out);
    for (name, values) in rows {
        assert_eq!(
            values.len(),
            model.per_node.len(),
            "row {name} must have one value per node"
        );
        let _ = write!(out, "{name:<16}");
        for c in model.classes() {
            let members: Vec<f64> = c.nodes.iter().map(|n| values[n.index()]).collect();
            let min = members.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = members.iter().cloned().fold(0.0, f64::max);
            let avg = members.iter().sum::<f64>() / members.len() as f64;
            let _ = write!(out, "{:>24}", format!("{min:.1}–{max:.1} / {avg:.1}"));
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modeler::IoModeler;
    use crate::platform::SimPlatform;
    use numa_topology::NodeId;

    fn model() -> IoPerfModel {
        IoModeler::new()
            .reps(5)
            .characterize(&SimPlatform::dl585(), NodeId(7), TransferMode::Write)
    }

    #[test]
    fn model_rendering_contains_classes_and_savings() {
        let s = render_model(&model());
        assert!(s.contains("target node 7"));
        assert!(s.contains("class 1: nodes {6, 7}"));
        assert!(s.contains("class 3: nodes {2, 3}"));
        assert!(s.contains("% saved"));
        assert!(s.contains("device write"));
    }

    #[test]
    fn comparison_table_summarizes_rows_per_class() {
        let m = model();
        let tcp = vec![20.0, 20.4, 16.3, 16.2, 20.9, 20.5, 20.9, 19.6];
        let s = render_comparison_table(&m, &[("TCP sender", tcp)]);
        assert!(s.contains("TCP sender"));
        assert!(s.contains("Class 1 {6,7}"));
        // Class 3 {2,3} cell: 16.2–16.3 / 16.2 or 16.3 avg.
        assert!(s.contains("16.2–16.3"), "{s}");
    }

    #[test]
    #[should_panic(expected = "one value per node")]
    fn misaligned_row_rejected() {
        let m = model();
        let _ = render_comparison_table(&m, &[("bad", vec![1.0, 2.0])]);
    }
}
