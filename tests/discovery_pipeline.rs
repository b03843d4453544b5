//! The real-host pipeline end to end: sysfs snapshot → topology →
//! fabric → methodology, without any pre-baked preset.

use numio::core::{IoModeler, SimPlatform, TransferMode};
use numio::fabric::calibration::generic_fabric;
use numio::topology::{sysfs, NodeId};

/// A fabricated sysfs dump of a 2-package, 4-node host (SLIT 10/16/22).
#[allow(clippy::needless_range_loop)]
fn snapshot() -> sysfs::SysfsSnapshot {
    let slit = ["10 16 22 22", "16 10 22 22", "22 22 10 16", "22 22 16 10"];
    let mut s = sysfs::SysfsSnapshot::new();
    for i in 0..4 {
        s = s
            .with(
                &format!("node{i}/cpulist"),
                &format!("{}-{}", i * 8, i * 8 + 7),
            )
            .with(
                &format!("node{i}/meminfo"),
                &format!("Node {i} MemTotal:  8388608 kB"),
            )
            .with(&format!("node{i}/distance"), slit[i]);
    }
    s
}

#[test]
fn discovered_machine_runs_the_full_methodology() {
    let discovered = sysfs::discover(&snapshot()).unwrap();
    assert!(!discovered.slit_was_flat);
    let topo = discovered.topology;
    assert_eq!(topo.num_nodes(), 4);
    assert_eq!(topo.node(NodeId(0)).cores, 8);
    assert_eq!(topo.node(NodeId(0)).dram_mib, 8192);

    // Wrap in a generic fabric and characterize node 3 as if a device
    // lived there.
    let platform = SimPlatform::new(generic_fabric(topo));
    for mode in TransferMode::ALL {
        let model = IoModeler::new()
            .reps(5)
            .characterize(&platform, NodeId(3), mode);
        // Class 1 = node 3 + its discovered package sibling (node 2).
        assert_eq!(model.classes()[0].nodes, vec![NodeId(2), NodeId(3)]);
        let covered: usize = model.classes().iter().map(|c| c.nodes.len()).sum();
        assert_eq!(covered, 4);
        for s in &model.per_node {
            assert!(s.mean > 0.0);
        }
    }
}

#[test]
fn flat_slit_machines_still_characterize_with_one_remote_class() {
    // Lazy firmware: flat SLIT. Discovery meshes the fabric; the
    // methodology then correctly reports "no remote structure".
    let mut s = sysfs::SysfsSnapshot::new();
    for i in 0..4 {
        s = s
            .with(&format!("node{i}/cpulist"), "0-3")
            .with(&format!("node{i}/meminfo"), "MemTotal: 4194304 kB")
            .with(
                &format!("node{i}/distance"),
                &(0..4)
                    .map(|j| if j == i { "10" } else { "20" })
                    .collect::<Vec<_>>()
                    .join(" "),
            );
    }
    let discovered = sysfs::discover(&s).unwrap();
    assert!(discovered.slit_was_flat);
    let platform = SimPlatform::new(generic_fabric(discovered.topology));
    let model = IoModeler::new()
        .reps(5)
        .characterize(&platform, NodeId(0), TransferMode::Write);
    // One forced class-1 ({0}: no package sibling on a flat machine) plus
    // exactly one remote class: the classifier does not invent tiers.
    assert_eq!(model.classes().len(), 2);
    assert_eq!(model.classes()[1].nodes.len(), 3);
}
