//! Regression: static (`degraded_fabric`) and dynamic (`FaultInjector`)
//! application of the same plan must produce **bit-identical** fio
//! results, for every `FaultKind`.
//!
//! Both paths consume one lowering (`FaultKind::lower`). The static view
//! applies it to a fabric copy, whose derates the fio lowering folds into
//! the port and CPU budgets it registers (`base * derate`); the dynamic
//! path schedules a capacity event to the same `base * factor` — the
//! identical two-operand multiply, so steady rates, makespans, and
//! aggregates match to the last bit. Before the single lowering,
//! `degraded_fabric` skipped `DeviceStall` and the static `IrqStorm` view
//! left the TCP CPU budget untouched, so the two paths disagreed.

use numa_fabric::calibration::dl585_fabric;
use numa_faults::{degraded_fabric, FaultInjector, FaultKind, FaultPlan, FaultWindow};
use numa_fio::{assemble_report, build_sim, run_jobs, FioReport, JobSpec};
use numa_iodev::NicOp;
use numa_topology::NodeId;

/// SSD and RDMA jobs in both directions of every device port the dl585
/// hosts, plus a two-stream TCP sender on the device node 7. The device
/// jobs sit on nodes 3 and 4, whose class levels an IRQ storm's
/// copy-ceiling derate does not bind; for jobs it does bind, the paths
/// still differ (see the last test).
fn mixed_jobs() -> Vec<JobSpec> {
    vec![
        JobSpec::ssd(true, NodeId(3)).numjobs(2).size_gbytes(20.0),
        JobSpec::ssd(false, NodeId(4)).numjobs(2).size_gbytes(20.0),
        JobSpec::nic(NicOp::RdmaWrite, NodeId(3))
            .numjobs(2)
            .size_gbytes(20.0),
        JobSpec::nic(NicOp::RdmaRead, NodeId(4))
            .numjobs(2)
            .size_gbytes(20.0),
        JobSpec::nic(NicOp::TcpSend, NodeId(7))
            .numjobs(2)
            .size_gbytes(20.0),
    ]
}

/// Run `jobs` on a fabric already degraded by the plan's kinds (static
/// what-if path).
fn static_path(plan: &FaultPlan, jobs: &[JobSpec]) -> FioReport {
    let degraded = degraded_fabric(&dl585_fabric(), &plan.kinds()).unwrap();
    run_jobs(&degraded, jobs).unwrap()
}

/// Run `jobs` on the pristine fabric with the plan armed as capacity
/// events (dynamic injection path).
fn dynamic_path(plan: &FaultPlan, jobs: &[JobSpec]) -> FioReport {
    let fabric = dl585_fabric();
    let (mut sim, flow_job) = build_sim(&fabric, jobs).unwrap();
    FaultInjector::new(plan.clone())
        .arm(&mut sim, &fabric)
        .unwrap();
    assemble_report(jobs, sim.run().unwrap(), &flow_job)
}

fn assert_bit_identical(a: &FioReport, b: &FioReport) {
    assert_eq!(a.makespan_s.to_bits(), b.makespan_s.to_bits(), "makespan");
    assert_eq!(
        a.aggregate_gbps.to_bits(),
        b.aggregate_gbps.to_bits(),
        "aggregate"
    );
    assert_eq!(a.jobs.len(), b.jobs.len());
    for (ja, jb) in a.jobs.iter().zip(&b.jobs) {
        assert_eq!(
            ja.aggregate_gbps.to_bits(),
            jb.aggregate_gbps.to_bits(),
            "{}",
            ja.describe
        );
        assert_eq!(ja.per_stream_gbps.len(), jb.per_stream_gbps.len());
        for (ra, rb) in ja.per_stream_gbps.iter().zip(&jb.per_stream_gbps) {
            assert_eq!(ra.to_bits(), rb.to_bits(), "{}", ja.describe);
        }
    }
}

#[test]
fn every_fault_kind_is_bit_identical_across_paths() {
    // Each fault, and the job of `mixed_jobs` it must visibly slow.
    let cases = [
        // The 3->7 request link carries the node-3 writes.
        (
            FaultKind::LinkDegrade {
                from: 3,
                to: 7,
                factor: 0.25,
            },
            0,
        ),
        // 7->5 carries the reads into node 4 (route 7, 5, 4).
        (FaultKind::LinkDown { from: 7, to: 5 }, 1),
        // The regression: the TCP sender on node 7 ran at 11.2 Gbit/s in
        // the static view but 9.8 under dynamic injection.
        (
            FaultKind::IrqStorm {
                node: 7,
                intensity: 0.5,
            },
            4,
        ),
        // One SSD card (topology device 1), then the NIC (device 0).
        (
            FaultKind::DeviceStall {
                device: 1,
                factor: 0.4,
            },
            0,
        ),
        (
            FaultKind::DeviceStall {
                device: 0,
                factor: 0.3,
            },
            2,
        ),
    ];
    let jobs = mixed_jobs();
    let base = run_jobs(&dl585_fabric(), &jobs).unwrap();
    for (i, &(kind, slowed)) in cases.iter().enumerate() {
        let plan = FaultPlan::new(10 + i as u64).with(FaultWindow::permanent(kind));
        let s = static_path(&plan, &jobs);
        assert_bit_identical(&s, &dynamic_path(&plan, &jobs));
        let (got, healthy) = (
            s.jobs[slowed].aggregate_gbps,
            base.jobs[slowed].aggregate_gbps,
        );
        assert!(got < healthy - 1.0, "{kind:?}: {got} vs healthy {healthy}");
    }
    // Every kind at once, with the second SSD card stalled too, so every
    // device port the harness lowers is touched.
    let all = cases
        .iter()
        .map(|&(k, _)| k)
        .chain([FaultKind::DeviceStall {
            device: 2,
            factor: 0.5,
        }])
        .fold(FaultPlan::new(20), |p, k| p.with(FaultWindow::permanent(k)));
    assert_bit_identical(&static_path(&all, &jobs), &dynamic_path(&all, &jobs));
}

#[test]
fn irq_storm_copy_derate_reaches_device_levels_only_statically() {
    // Known gap: the static view derates node 7's copy ceiling, which the
    // fio lowering folds into every device job's class level (memcpy
    // paths to the device node). The dynamic path throttles the engine's
    // `NodeCopy(7)` resource, which device-sided flows do not charge. An
    // SSD writer on node 6 is bound by that level, so only the static
    // view slows it. When the two lowerings meet, this becomes a
    // bit-identity assertion.
    let plan = FaultPlan::new(30).with(FaultWindow::permanent(FaultKind::IrqStorm {
        node: 7,
        intensity: 0.5,
    }));
    let jobs = [JobSpec::ssd(true, NodeId(6)).numjobs(2).size_gbytes(20.0)];
    let (s, d) = (static_path(&plan, &jobs), dynamic_path(&plan, &jobs));
    let (s, d) = (s.aggregate_gbps, d.aggregate_gbps);
    assert!(s < 0.8 * d, "static {s} vs dynamic {d}");
}
