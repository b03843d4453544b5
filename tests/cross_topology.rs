//! The methodology generalizes beyond the calibrated testbed (§V-B: "can
//! also be generalized to other nodes in the host and other NUMA systems").

use numio::core::{IoModeler, SimPlatform, TransferMode};
use numio::fabric::calibration::generic_fabric;
use numio::topology::{presets, NodeId};

fn platform_for(topo: numio::topology::Topology) -> SimPlatform {
    SimPlatform::new(generic_fabric(topo))
}

#[test]
fn every_fig1_variant_characterizes() {
    for topo in presets::fig1_variants() {
        let name = topo.name().to_string();
        let n = topo.num_nodes();
        let platform = platform_for(topo);
        for target in 0..n as u16 {
            for mode in TransferMode::ALL {
                let model = IoModeler::new()
                    .reps(5)
                    .characterize(&platform, NodeId(target), mode);
                assert!(!model.classes().is_empty(), "{name} target {target}");
                // Class 1 holds the target and its neighbour die.
                assert!(model.classes()[0].contains(NodeId(target)));
                assert!(model.classes()[0].contains(NodeId(target ^ 1)));
                // Means positive and finite everywhere.
                for s in &model.per_node {
                    assert!(s.mean > 0.0 && s.mean.is_finite());
                }
            }
        }
    }
}

#[test]
fn uniform_fabrics_yield_few_classes() {
    // On the generic (uncalibrated) fabric every remote path of the same
    // width looks alike; the classifier should find a small class count,
    // i.e. it does not hallucinate structure.
    let platform = platform_for(presets::fig1b());
    let model = IoModeler::new()
        .reps(5)
        .characterize(&platform, NodeId(7), TransferMode::Write);
    assert!(
        model.classes().len() <= 3,
        "uniform machine produced {} classes",
        model.classes().len()
    );
}

#[test]
fn intel_mesh_has_single_remote_class() {
    let platform = platform_for(presets::intel_4s4n());
    let model = IoModeler::new()
        .reps(5)
        .characterize(&platform, NodeId(0), TransferMode::Read);
    // Full mesh, identical links: class 1 = {0} (no neighbour die), plus
    // one remote class.
    assert_eq!(model.classes().len(), 2);
    assert_eq!(model.classes()[0].nodes, vec![NodeId(0)]);
    assert_eq!(model.classes()[1].nodes.len(), 3);
}

#[test]
fn probe_savings_grow_with_machine_size() {
    // blade32: 32 nodes collapse into a handful of classes => most probes
    // saved. This is the methodology's scaling argument.
    let platform = platform_for(presets::blade32());
    let model = IoModeler::new()
        .reps(3)
        .characterize(&platform, NodeId(0), TransferMode::Write);
    assert!(model.per_node.len() == 32);
    assert!(
        model.classes().len() <= 6,
        "expected few classes, got {}",
        model.classes().len()
    );
    assert!(
        model.probe_savings() > 0.8,
        "savings {}",
        model.probe_savings()
    );
}

#[test]
fn dl585_other_targets_have_coherent_models() {
    // Characterize every node of the calibrated testbed as a hypothetical
    // device site; each model must put the target+neighbour in class 1 and
    // keep all eight nodes accounted for.
    let platform = SimPlatform::dl585();
    for target in 0..8u16 {
        for mode in TransferMode::ALL {
            let model = IoModeler::new()
                .reps(5)
                .characterize(&platform, NodeId(target), mode);
            let covered: usize = model.classes().iter().map(|c| c.nodes.len()).sum();
            assert_eq!(covered, 8);
            assert_eq!(model.class_of(NodeId(target)), 0);
            assert_eq!(model.class_of(NodeId(target ^ 1)), 0);
        }
    }
}
