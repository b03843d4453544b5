//! Figure 10: bandwidth performance model of node 7 by the proposed
//! methodology.

use crate::Experiment;
use numa_par::json;
use numa_topology::NodeId;
use numio_core::{render_model, IoModeler, SimPlatform, TransferMode};
use std::fmt::Write as _;

fn bar(v: f64, scale: f64) -> String {
    "#".repeat(((v / scale) * 40.0).round() as usize)
}

/// Regenerate both panels of Fig. 10 plus the class tables.
pub fn run() -> Experiment {
    let platform = SimPlatform::dl585();
    let modeler = IoModeler::new();
    let mut text = String::new();
    let mut data = json::Map::new();
    for (panel, mode) in [
        (
            "(a) device write simulation (sink fixed at node 7)",
            TransferMode::Write,
        ),
        (
            "(b) device read simulation (source fixed at node 7)",
            TransferMode::Read,
        ),
    ] {
        let model = modeler.characterize(&platform, NodeId(7), mode);
        let scale = model.means().iter().cloned().fold(0.0_f64, f64::max);
        let _ = writeln!(text, "{panel}:");
        for (i, v) in model.means().iter().enumerate() {
            let _ = writeln!(text, "  node {i}: {v:>6.2} {}", bar(*v, scale));
        }
        text.push('\n');
        text.push_str(&render_model(&model));
        text.push('\n');
        data.insert(
            format!("{mode:?}").to_lowercase(),
            numa_par::json!({
                "per_node_gbps": model.means(),
                "classes": model
                    .classes()
                    .iter()
                    .map(|c| numa_par::json!({
                        "nodes": c.nodes.iter().map(|n| n.0).collect::<Vec<u16>>(),
                        "avg_gbps": c.avg_gbps,
                    }))
                    .collect::<Vec<_>>(),
            }),
        );
    }
    Experiment {
        id: "fig10",
        title: "Bandwidth model of node 7 by the proposed methodology",
        text,
        data: Some(json::Value::Object(data)),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn both_directions_with_classes() {
        let e = super::run();
        assert!(e.text.contains("device write simulation"));
        assert!(e.text.contains("device read simulation"));
        assert!(e.text.contains("class 1: nodes {6, 7}"));
        assert!(e.text.contains("class 4: nodes {4}"));
    }
}
