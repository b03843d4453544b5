//! Figure 1: possible topologies of 4P AMD Opteron Magny-Cours processors.

use crate::Experiment;
use numa_topology::{distance, presets, render, NodeId};
use std::fmt::Write as _;

/// Regenerate the four candidate wirings with their locality structure.
pub fn run() -> Experiment {
    let mut text = String::new();
    for topo in presets::fig1_variants() {
        let _ = writeln!(text, "--- {} ---", topo.name());
        let _ = writeln!(text, "{}", render::render_localities(&topo, NodeId(7)));
        let _ = writeln!(
            text,
            "links: {}",
            topo.links()
                .iter()
                .map(|l| format!("{}-{}({}b)", l.a, l.b, l.width.bits()))
                .collect::<Vec<_>>()
                .join(" ")
        );
        text.push_str(&render::render_matrix(
            "from",
            "to",
            &distance::hop_matrix(&topo),
        ));
        text.push('\n');
    }
    let _ = writeln!(
        text,
        "All four satisfy the G34 port budget; §IV-A shows the measured\n\
         bandwidths are consistent with NONE of them — the motivating\n\
         failure of hop-distance models (see the topology_explorer example)."
    );
    Experiment {
        id: "fig1",
        title: "Possible topologies of 4P Magny-Cours",
        text,
        data: None,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn mentions_all_variants() {
        let e = super::run();
        for v in ["fig1a", "fig1b", "fig1c", "fig1d"] {
            assert!(e.text.contains(v));
        }
    }
}
