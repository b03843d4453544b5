//! §V-B cost reduction: probe one node per class instead of all nodes.

use crate::Experiment;
use numa_topology::NodeId;
use numio_core::{CopySpec, IoModeler, Platform, SimPlatform, TransferMode};
use std::fmt::Write as _;

/// Regenerate the probe-reduction argument with concrete numbers.
pub fn run() -> Experiment {
    let platform = SimPlatform::dl585();
    let mut text = String::new();
    for mode in TransferMode::ALL {
        let model = IoModeler::new().characterize(&platform, NodeId(7), mode);
        let n = model.per_node.len();
        let reps = model.representatives();
        let _ = writeln!(
            text,
            "{mode:?} model: {} classes over {n} nodes -> probe {} nodes \
             ({:.0}% of the work saved)",
            model.classes().len(),
            reps.len(),
            model.probe_savings() * 100.0
        );
        for (class, rep) in model.classes().iter().zip(&reps) {
            let (src, dst) = match mode {
                TransferMode::Write => (*rep, NodeId(7)),
                TransferMode::Read => (NodeId(7), *rep),
            };
            let samples = platform.run_copy(&CopySpec {
                bind: NodeId(7),
                src,
                dst,
                threads: 4,
                bytes_per_thread: 64 << 20,
                reps: 20,
            });
            let rep_mean = samples.iter().sum::<f64>() / samples.len() as f64;
            let _ = writeln!(
                text,
                "  class {:?}: representative {rep} probes {rep_mean:.1} Gbps \
                 (class range {:.1}–{:.1})",
                class.nodes, class.min_gbps, class.max_gbps
            );
        }
        text.push('\n');
    }
    let _ = writeln!(
        text,
        "the paper's read-direction example: 4 classes over 8 nodes halve the\n\
         evaluation cost; on larger hosts (see the blade32 cross-topology test)\n\
         savings exceed 80%."
    );
    Experiment {
        id: "cost",
        title: "Characterization cost reduction (§V-B application 1)",
        text,
        data: None,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn fifty_percent_for_the_read_model() {
        let e = super::run();
        assert!(e.text.contains("50% of the work saved"), "{}", e.text);
    }
}
