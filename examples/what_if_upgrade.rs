//! What-if analysis: retrain the starved 3→7 request channel to full
//! width and watch the class structure, the advisor's answer, and the
//! bottleneck report change.
//!
//! The paper's future work #2 asks about "architectural details leading to
//! performance asymmetry"; the fabric's what-if queries make those details
//! falsifiable: *this* link is why nodes {2,3} are Table IV's bottom class.
//!
//! ```sh
//! cargo run --example what_if_upgrade
//! ```

use numio::core::diff_models;
use numio::prelude::*;

fn main() {
    let before = SimPlatform::dl585();
    let modeler = IoModeler::new();
    let advisor = ScheduleAdvisor {
        equivalence_tolerance: 0.15,
        avoid_irq_node: true,
    };

    // Today: nodes 2,3 are the write-direction bottom class because the
    // 3->7 request channel runs at 26 Gbps.
    let old_model = modeler.characterize(&before, NodeId(7), TransferMode::Write);
    println!("before the upgrade:");
    for (i, c) in old_model.classes().iter().enumerate() {
        println!("  class {}: {:?} avg {:.1}", i + 1, c.nodes, c.avg_gbps);
    }
    println!(
        "  advisor spreads over {:?}\n",
        advisor.eligible_nodes(&old_model)
    );

    // Bottleneck check: with writers on 2 and 3, the narrow links saturate.
    let fabric = before.fabric();
    let bottlenecks = Simulation::new(fabric)
        .flows([
            FlowSpec::dma(NodeId(2), NodeId(7)).gbytes(4.0),
            FlowSpec::dma(NodeId(3), NodeId(7)).gbytes(4.0),
        ])
        .bottlenecks()
        .expect("flows admitted");
    println!("top bottlenecks with writers on nodes 2,3:");
    for (key, used, cap, util) in bottlenecks.into_iter().take(3) {
        println!(
            "  {key:?}: {used:.1}/{cap:.1} Gbit/s ({:.0}%)",
            util * 100.0
        );
    }

    // The what-if: firmware retrains 3->7 and 2->6 to full width.
    let mut upgraded_fabric = fabric.clone();
    for (from, to, gbps) in [(3, 7, 46.5), (2, 6, 46.9)] {
        let edge = DirectedEdge::new(NodeId(from), NodeId(to));
        upgraded_fabric
            .apply(CapChange::Edge { edge, gbps })
            .expect("a dl585 link");
    }
    let after = SimPlatform::new(upgraded_fabric);
    let new_model = modeler.characterize(&after, NodeId(7), TransferMode::Write);
    println!("\nafter retraining 3->7 and 2->6 to full width:");
    for (i, c) in new_model.classes().iter().enumerate() {
        println!("  class {}: {:?} avg {:.1}", i + 1, c.nodes, c.avg_gbps);
    }
    println!(
        "  advisor now spreads over {:?}",
        advisor.eligible_nodes(&new_model)
    );

    let d = diff_models(&old_model, &new_model).expect("same target/mode");
    println!("\nmodel drift report:\n{}", d.render());
    assert!(
        d.moved
            .iter()
            .any(|&(n, from, to)| (n == NodeId(2) || n == NodeId(3)) && to < from),
        "nodes 2/3 should climb out of the bottom class"
    );
    println!(
        "one directed link capacity explains an entire Table IV class — the\n\
         paper's 'architectural details' future work, answered by query."
    );
}
