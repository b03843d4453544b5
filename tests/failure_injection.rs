//! Failure injection: every layer's error path fires cleanly and loudly.

use numio::engine::{FlowSpec, JitterCfg, ResourceKey, SimError, Simulation};
use numio::fabric::calibration::dl585_fabric;
use numio::fabric::CapChange;
use numio::fio::{run_jobs, FioError, JobSpec};
use numio::iodev::NicOp;
use numio::topology::{DirectedEdge, NodeId};

#[test]
fn dead_link_starves_dependent_flows_with_a_diagnosis() {
    // A failed 3->7 link (capacity ~0 is modelled as an explicitly dead
    // resource) must starve the node-3 writer, not hang or divide by zero.
    let fabric = dl585_fabric();
    let mut sim = Simulation::new(&fabric);
    let dead = sim.register(ResourceKey::Custom(99), 0.0);
    sim.add_flow(FlowSpec::dma(NodeId(3), NodeId(7)).gbits(1.0).charge(dead));
    sim.add_flow(FlowSpec::dma(NodeId(6), NodeId(7)).gbits(1.0));
    match sim.run() {
        Err(SimError::Starved { flow }) => assert_eq!(flow.index(), 0),
        other => panic!("expected starvation, got {other:?}"),
    }
}

#[test]
fn healthy_flows_complete_even_when_another_would_starve_later() {
    // Starvation is reported against the stuck flow only after progress
    // stops; the error carries the right id even with mixed flows.
    let fabric = dl585_fabric();
    let mut sim = Simulation::new(&fabric);
    sim.add_flow(FlowSpec::dma(NodeId(6), NodeId(7)).gbits(1.0));
    let dead = sim.register(ResourceKey::Custom(1), 0.0);
    sim.add_flow(FlowSpec::dma(NodeId(5), NodeId(7)).gbits(1.0).charge(dead));
    match sim.run() {
        Err(SimError::Starved { flow }) => assert_eq!(flow.index(), 1),
        other => panic!("{other:?}"),
    }
}

#[test]
fn runaway_jitter_trips_the_event_limit_valve() {
    // A pathological jitter refresh period floods the event loop; the
    // MAX_EVENTS valve converts an infinite loop into an error.
    let fabric = dl585_fabric();
    let mut sim = Simulation::new(&fabric).jitter(JitterCfg {
        amplitude: 0.01,
        refresh_s: 1e-9,
        seed: 1,
    });
    sim.add_flow(FlowSpec::dma(NodeId(6), NodeId(7)).gbytes(400.0));
    assert_eq!(sim.run().unwrap_err(), SimError::EventLimit);
}

#[test]
fn fio_propagates_simulation_failures() {
    // A fabric whose 6->7 edge died under-delivers for flows routed over
    // it; a zero capacity would starve them — fio wraps the error rather
    // than panicking.
    let fabric = dl585_fabric();
    let edge = DirectedEdge::new(NodeId(6), NodeId(7));
    let degraded = fabric.with(CapChange::Edge { edge, gbps: 1e-9 }).unwrap();
    let job = JobSpec::nic(NicOp::RdmaWrite, NodeId(4)).size_gbytes(1000.0);
    match run_jobs(&degraded, &[job]) {
        // Near-zero capacity: either the run takes "forever" (event limit)
        // or completes at a crawl — both are acceptable, panics are not.
        Ok(report) => assert!(report.aggregate_gbps < 0.01),
        Err(FioError::Sim(_)) => {}
        Err(other) => panic!("unexpected error class: {other}"),
    }
}

#[test]
fn scheduler_rejects_empty_and_reports_starvation_types() {
    use numio::sched::{policy::LocalOnly, SchedError, Scheduler};
    let platform = numio::core::SimPlatform::dl585();
    let err = Scheduler::new(&platform)
        .run(vec![], LocalOnly::new())
        .unwrap_err();
    assert_eq!(err, SchedError::NoTasks);
    assert!(err.to_string().contains("no tasks"));
}

#[test]
fn error_types_render_useful_messages() {
    assert!(SimError::EventLimit.to_string().contains("event limit"));
    assert!(FioError::NoNic.to_string().contains("NIC"));
    let e = numio::topology::sysfs::discover(&numio::topology::SysfsSnapshot::new()).unwrap_err();
    assert!(e.to_string().contains("sysfs discovery"));
}
