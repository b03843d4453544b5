//! Acceptance scenario for the fault-injection subsystem (ISSUE): a seeded
//! plan throttling the 6->7 write path and storming node 7's IRQs must
//! (a) measurably reorder the Table IV performance classes, (b) be caught
//! by `drift::diff` on re-characterization, and (c) leave the class-ranked
//! fallback placement within 10% of the post-fault max-min optimum under
//! Eq. 1 — all deterministically, with every failure path typed.

use numio::core::{
    diff_models, predict_aggregate, relative_error, IoModeler, SimPlatform, TransferMode,
};
use numio::faults::{degraded_fabric, degraded_platform, FaultKind, FaultPlan};
use numio::fio::{run_jobs, JobSpec};
use numio::iodev::{NicModel, NicOp};
use numio::prelude::NodeId;
use numio::sched::{ClassRanked, IoTask};

/// The acceptance plan: the 6->7 hop at quarter capacity plus an IRQ storm
/// halving node 7's copy throughput.
fn acceptance_faults() -> Vec<FaultKind> {
    vec![
        FaultKind::LinkDegrade {
            from: 6,
            to: 7,
            factor: 0.25,
        },
        FaultKind::IrqStorm {
            node: 7,
            intensity: 0.5,
        },
    ]
}

fn models_for(platform: &SimPlatform) -> (numio::core::IoPerfModel, numio::core::IoPerfModel) {
    let m = IoModeler::new().reps(10);
    (
        m.characterize(platform, NodeId(7), TransferMode::Write),
        m.characterize(platform, NodeId(7), TransferMode::Read),
    )
}

#[test]
fn seeded_faults_reorder_table_iv_classes_and_drift_detects_it() {
    let healthy = SimPlatform::dl585();
    let (base_write, _) = models_for(&healthy);
    // Table IV baseline: {6,7} are the best write class.
    assert_eq!(base_write.class_of(NodeId(6)), 0);
    assert_eq!(base_write.class_of(NodeId(7)), 0);
    assert_eq!(
        base_write.class_of(NodeId(3)),
        base_write.classes().len() - 1
    );

    let degraded = degraded_platform(&healthy, &acceptance_faults()).unwrap();
    let (faulted_write, _) = models_for(&degraded);

    // The class order genuinely changed: node 6 (every route over the
    // throttled hop) fell out of the top class, while node 3's direct
    // 3->7 link now outranks it.
    assert!(faulted_write.class_of(NodeId(6)) > 0, "{faulted_write:?}");
    assert!(
        faulted_write.class_of(NodeId(3)) < faulted_write.class_of(NodeId(6)),
        "node 3 ({}) should outrank node 6 ({}) post-fault",
        faulted_write.class_of(NodeId(3)),
        faulted_write.class_of(NodeId(6)),
    );

    // drift::diff sees it: unstable, nodes moved class, and node 6's
    // bandwidth collapsed (46.5 -> ~11.6 Gbit/s on the throttled hop).
    let d = diff_models(&base_write, &faulted_write).unwrap();
    assert!(!d.is_stable(0.05), "{}", d.render());
    assert!(!d.moved.is_empty(), "{}", d.render());
    assert!(
        d.moved.iter().any(|&(n, _, _)| n == NodeId(6)),
        "{:?}",
        d.moved
    );
    assert!(d.rel_delta[6] < -0.5, "rel_delta[6] = {}", d.rel_delta[6]);
    assert!(d.rel_delta[7] < -0.3, "rel_delta[7] = {}", d.rel_delta[7]);
}

#[test]
fn class_fallback_keeps_eq1_prediction_within_10_percent_post_fault() {
    let healthy = SimPlatform::dl585();
    let faults = acceptance_faults();
    let degraded = degraded_platform(&healthy, &faults).unwrap();
    let dfab = degraded_fabric(healthy.fabric(), &faults).unwrap();
    let (w, r) = models_for(&degraded);

    // Fallback placement on the degraded model steers around the damage:
    // no task lands on a node whose write path crosses the throttled hop.
    let task = IoTask::new(0.0, numio::fio::Workload::Nic(NicOp::RdmaWrite), 1, 50.0);
    let placed = ClassRanked::from_models(&w, &r).place_n(&task, 4, &dfab);
    for n in &placed {
        assert!(
            ![NodeId(0), NodeId(2), NodeId(4), NodeId(6)].contains(n),
            "fallback placed a task on throttled node {n:?}: {placed:?}"
        );
    }

    // Eq. 1 over the placement, in protocol units via the RDMA_WRITE
    // curve, against the max-min measurement on the degraded fabric.
    let nic = NicModel::for_fabric(&dfab).expect("testbed has a NIC");
    let total = placed.len() as f64;
    let terms: Vec<(f64, f64)> = placed
        .iter()
        .map(|&n| {
            let class = &w.classes()[w.class_of(n)];
            (nic.map(NicOp::RdmaWrite).eval(class.avg_gbps), 1.0 / total)
        })
        .collect();
    let predicted = predict_aggregate(&terms);

    let mut counts: std::collections::BTreeMap<NodeId, u32> = Default::default();
    for &n in &placed {
        *counts.entry(n).or_default() += 1;
    }
    let jobs: Vec<JobSpec> = counts
        .iter()
        .map(|(&n, &c)| {
            JobSpec::nic(NicOp::RdmaWrite, n)
                .numjobs(c)
                .size_gbytes(50.0)
        })
        .collect();
    let measured = run_jobs(&dfab, &jobs).unwrap().aggregate_gbps;
    let err = relative_error(predicted, measured);
    assert!(
        err < 0.10,
        "Eq.1 predicted {predicted:.3} vs post-fault max-min {measured:.3}: {:.1}% off",
        err * 100.0
    );
}

#[test]
fn fault_pipeline_is_deterministic_for_a_fixed_seed() {
    let fabric = numio::fabric::calibration::dl585_fabric();
    // BENCH-style rendered output is bit-identical for the same seed.
    let a = numio::faults::run_demo(&fabric, 42, None).unwrap();
    let b = numio::faults::run_demo(&fabric, 42, None).unwrap();
    assert_eq!(a.render(), b.render());

    // And so is the whole degraded re-characterization (model JSON).
    let go = || {
        let degraded = degraded_platform(&SimPlatform::dl585(), &acceptance_faults()).unwrap();
        models_for(&degraded).0.to_json()
    };
    assert_eq!(go(), go());

    // Different seed, different timeline.
    let c = numio::faults::run_demo(&fabric, 43, None).unwrap();
    assert_ne!(a.render(), c.render());
}

#[test]
fn every_fault_path_is_typed_never_a_panic() {
    // Malformed plan JSON -> FaultError::Parse -> numio::Error::Fault.
    let bad = FaultPlan::from_json("{\"seed\": 1, \"faults\": [{\"kind\": \"gremlins\"}]}");
    let e: numio::Error = bad.unwrap_err().into();
    assert!(matches!(
        e,
        numio::Error::Fault(numio::faults::FaultError::Parse(_))
    ));
    assert!(e.to_string().contains("malformed fault plan"), "{e}");

    // A structurally valid plan against the wrong machine: typed, not a
    // panic, both statically and at arm time.
    let fabric = numio::fabric::calibration::dl585_fabric();
    let phantom = [FaultKind::LinkDown { from: 0, to: 7 }];
    assert!(matches!(
        degraded_fabric(&fabric, &phantom),
        Err(numio::faults::FaultError::UnknownLink { .. })
    ));
    let mut sim = numio::engine::Simulation::new(&fabric);
    let plan = FaultPlan::new(9).with(numio::faults::FaultWindow::permanent(phantom[0]));
    assert!(numio::faults::FaultInjector::new(plan)
        .arm(&mut sim, &fabric)
        .is_err());

    // Empty flow set under an armed-capable sim: typed SimError.
    let empty: Result<_, numio::Error> = numio::engine::Simulation::new(&fabric)
        .run()
        .map_err(Into::into);
    assert!(matches!(empty.unwrap_err(), numio::Error::Sim(_)));

    // Out-of-range probe spec: typed PlatformError through the same funnel.
    let p = SimPlatform::dl585();
    let spec = numio::core::CopySpec {
        bind: NodeId(99),
        src: NodeId(0),
        dst: NodeId(0),
        threads: 4,
        bytes_per_thread: 1 << 20,
        reps: 1,
    };
    let v: Result<(), numio::Error> = p.validate(&spec).map_err(Into::into);
    assert!(matches!(v.unwrap_err(), numio::Error::Platform(_)));
}
