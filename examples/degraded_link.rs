//! Surviving a degraded link: re-characterize, detect the drift, and let
//! the scheduler route around the damage.
//!
//! §IV-A's warning is that static topology metrics mislead once the
//! machine degrades — a retrained lane, a flaky connector, an IRQ storm on
//! the device-local node. This example walks the full fault lifecycle:
//!
//! 1. declare the damage as a seeded, JSON-serializable [`FaultPlan`],
//! 2. re-characterize the degraded machine and watch the Table IV class
//!    order genuinely change,
//! 3. catch the change with `drift::diff`,
//! 4. place work with the class-ranked fallback policy, which steers every
//!    stream off the throttled path,
//! 5. inject the same faults *mid-transfer* into a running simulation.
//!
//! ```sh
//! cargo run --example degraded_link
//! ```

use numio::core::diff_models;
use numio::faults::degraded_platform;
use numio::prelude::*;
use numio::sched::IoTask;

fn write_model(p: &SimPlatform) -> IoPerfModel {
    IoModeler::new()
        .reps(10)
        .characterize(p, NodeId(7), TransferMode::Write)
}

fn main() {
    // The damage: the 6->7 hop drops to quarter capacity and an IRQ storm
    // halves node 7's effective copy bandwidth. This is exactly what a
    // `--faults plan.json` file for `iomodel run` contains.
    let plan = FaultPlan::new(42)
        .with(FaultWindow::permanent(FaultKind::LinkDegrade {
            from: 6,
            to: 7,
            factor: 0.25,
        }))
        .with(FaultWindow::permanent(FaultKind::IrqStorm {
            node: 7,
            intensity: 0.5,
        }));
    println!("fault plan:\n{}\n", plan.to_json());

    // Step 1: the healthy baseline — Table IV's {6,7} > {0,1,4,5} > {2,3}.
    let healthy = SimPlatform::dl585();
    let before = write_model(&healthy);
    println!("healthy write classes:");
    for (i, c) in before.classes().iter().enumerate() {
        println!("  class {i}: {:?} @ {:.1} Gbit/s", c.nodes, c.avg_gbps);
    }

    // Step 2: re-characterize the degraded machine. Node 6 — every route
    // to the NIC crosses the throttled hop — falls out of the top class;
    // node 3's direct link suddenly outranks it.
    let faults: Vec<FaultKind> = plan.faults.iter().map(|w| w.kind).collect();
    let degraded = degraded_platform(&healthy, &faults).expect("plan fits the testbed");
    let after = write_model(&degraded);
    println!("\ndegraded write classes:");
    for (i, c) in after.classes().iter().enumerate() {
        println!("  class {i}: {:?} @ {:.1} Gbit/s", c.nodes, c.avg_gbps);
    }

    // Step 3: the drift monitor catches it — this is the signal to stop
    // trusting the stored model.
    let d = diff_models(&before, &after).expect("same target/mode");
    println!(
        "\ndrift: max {:.0}%, {} node(s) changed class, stable at 5%? {}",
        d.max_rel_delta * 100.0,
        d.moved.len(),
        d.is_stable(0.05)
    );

    // Step 4: the class-ranked fallback policy, built from the *degraded*
    // model, places four write streams without touching the damaged path.
    let read = IoModeler::new()
        .reps(10)
        .characterize(&degraded, NodeId(7), TransferMode::Read);
    let dfab = numio::faults::degraded_fabric(healthy.fabric(), &faults).unwrap();
    let task = IoTask::new(0.0, Workload::Nic(numio::iodev::NicOp::RdmaWrite), 1, 50.0);
    let placed = ClassRanked::from_models(&after, &read).place_n(&task, 4, &dfab);
    for (i, node) in placed.iter().enumerate() {
        println!("stream {i} -> node {}", node.0);
    }

    // Step 5: the same plan, injected mid-transfer. Two DMA flows into the
    // NIC node; the simulation arms the plan on the engine's event calendar,
    // so capacity drops exactly when the timeline says.
    let fabric = healthy.fabric();
    let flows = || {
        [
            FlowSpec::dma(NodeId(6), NodeId(7)).gbytes(4.0),
            FlowSpec::dma(NodeId(1), NodeId(7)).gbytes(4.0),
        ]
    };
    let healthy_report = Simulation::new(fabric)
        .flows(flows())
        .run()
        .expect("flows admitted");
    let faulted_report = Simulation::new(fabric)
        .flows(flows())
        .faults(FaultInjector::new(plan))
        .run()
        .expect("plan lowers onto the event calendar");
    println!(
        "mid-transfer injection: aggregate {:.1} -> {:.1} Gbit/s, makespan {:.2}s -> {:.2}s",
        healthy_report.aggregate_gbps,
        faulted_report.aggregate_gbps,
        healthy_report.makespan_s,
        faulted_report.makespan_s
    );
}
