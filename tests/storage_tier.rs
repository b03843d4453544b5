//! Acceptance: the storage device tier end to end — seeded mixed NIC+SSD
//! contention, SSD job re-ranking under a device_stall plan, and the
//! Table IV/V storage analogues through the umbrella and serve surfaces.

use numio::core::{
    characterize_storage, characterize_storage_full_host, IoModeler, SimPlatform, StorageConfig,
    TransferMode,
};
use numio::faults::{degraded_fabric, FaultKind, FaultPlan, FaultWindow};
use numio::fio::{run_jobs, JobSpec};
use numio::iodev::NicOp;
use numio::serve::{ModelService, Request, Response, WireMode};
use numio::topology::NodeId;

/// One single-stream TCP sender (CPU-bound at about 5.6 Gbit/s, the Fig. 5
/// golden's row 1) against a two-stream striped SSD writer (card-limited
/// near 29 Gbit/s healthy).
fn mixed_jobs() -> Vec<JobSpec> {
    vec![
        JobSpec::nic(NicOp::TcpSend, NodeId(6)).size_gbytes(8.0),
        JobSpec::ssd(true, NodeId(7)).numjobs(2).size_gbytes(8.0),
    ]
}

#[test]
fn mixed_nic_and_ssd_contention_is_seed_deterministic() {
    let platform = SimPlatform::dl585();
    let a = run_jobs(platform.fabric(), &mixed_jobs()).unwrap();
    let b = run_jobs(platform.fabric(), &mixed_jobs()).unwrap();
    assert_eq!(a.jobs.len(), 2);
    assert_eq!(
        a.aggregate_gbps.to_bits(),
        b.aggregate_gbps.to_bits(),
        "same-seed mixed runs must be bit-identical"
    );
    assert_eq!(a.makespan_s.to_bits(), b.makespan_s.to_bits());
    for (x, y) in a.jobs.iter().zip(&b.jobs) {
        assert_eq!(x.aggregate_gbps.to_bits(), y.aggregate_gbps.to_bits());
        assert_eq!(x.per_stream_gbps.len(), y.per_stream_gbps.len());
    }
}

#[test]
fn device_stall_reranks_the_ssd_job_below_the_nic_job() {
    let platform = SimPlatform::dl585();
    let healthy = run_jobs(platform.fabric(), &mixed_jobs()).unwrap();
    let (h_nic, h_ssd) = (
        healthy.jobs[0].aggregate_gbps,
        healthy.jobs[1].aggregate_gbps,
    );
    assert!(
        h_ssd > h_nic,
        "healthy ranking: ssd {h_ssd} above nic {h_nic}"
    );
    // Stall BOTH SSD cards (devices 1 and 2 on the dl585) hard enough that
    // the card-limited striped writer drops to half the CPU-bound TCP
    // sender's healthy rate.
    let factor = 0.5 * h_nic / h_ssd;
    let faults = [
        FaultKind::DeviceStall { device: 1, factor },
        FaultKind::DeviceStall { device: 2, factor },
    ];
    let stalled_fabric = degraded_fabric(platform.fabric(), &faults).unwrap();
    let stalled = run_jobs(&stalled_fabric, &mixed_jobs()).unwrap();

    let (s_nic, s_ssd) = (
        stalled.jobs[0].aggregate_gbps,
        stalled.jobs[1].aggregate_gbps,
    );
    assert!(
        s_ssd < s_nic,
        "stalled ranking: ssd {s_ssd} below nic {s_nic}"
    );
    // The stall is device-scoped: the SSD job collapses, the NIC job keeps
    // (at least) its healthy bandwidth once the cards stop contending.
    assert!(s_ssd < 0.5 * h_ssd, "ssd {s_ssd} vs healthy {h_ssd}");
    assert!(s_nic > 0.9 * h_nic, "nic {s_nic} vs healthy {h_nic}");
    // And deterministic on rerun, stalled path included.
    let again = run_jobs(&stalled_fabric, &mixed_jobs()).unwrap();
    assert_eq!(
        again.aggregate_gbps.to_bits(),
        stalled.aggregate_gbps.to_bits()
    );
}

#[test]
fn storage_characterization_reproduces_the_paper_partition_end_to_end() {
    let platform = SimPlatform::dl585();
    let modeler = IoModeler::new().reps(10);
    let models = characterize_storage_full_host(&modeler, &platform).unwrap();
    // 4 operating points x write/read.
    assert_eq!(models.len(), 8);
    for m in &models {
        assert!(m.platform.contains("ssd0:"), "{}", m.platform);
        assert_eq!(m.target, NodeId(7));
    }
    // The paper operating point keeps Table IV's write partition shape.
    let write = characterize_storage(
        &modeler,
        &platform,
        StorageConfig::paper(),
        TransferMode::Write,
    )
    .unwrap();
    let partition: Vec<Vec<u16>> = write
        .classes()
        .iter()
        .map(|c| c.nodes.iter().map(|n| n.0).collect())
        .collect();
    assert_eq!(partition, vec![vec![6, 7], vec![0, 1, 4, 5], vec![2, 3]]);
    // Bit-identical same-seed rerun, model for model.
    let again = characterize_storage_full_host(&modeler, &platform).unwrap();
    assert_eq!(models, again);
}

#[test]
fn serve_surface_exposes_the_storage_tier_with_fault_views() {
    let svc = ModelService::new(SimPlatform::dl585()).with_modeler(IoModeler::new().reps(3));
    // Classify through the wire enum with a storage selector: the read
    // direction puts node 4 alone at the bottom (Table V analogue).
    let resp = svc.handle(&Request::Classify {
        node: 4,
        target: 7,
        mode: WireMode::Read,
        device: Some("ssd0".into()),
    });
    let Response::Classify {
        class,
        classes,
        class_nodes,
        ..
    } = resp
    else {
        panic!("unexpected reply: {resp:?}");
    };
    assert_eq!(class, classes - 1);
    assert_eq!(class_nodes, vec![4]);
    // Arming a device_stall plan derates storage predictions by the
    // aggregate factor: one of two cards at 50% leaves 75%.
    let mix = vec![(6u16, 1u32), (0, 1)];
    let base = svc.handle(&Request::Predict {
        target: 7,
        mode: WireMode::Write,
        device: Some("ssd0".into()),
        mix: mix.clone(),
    });
    let plan = FaultPlan::new(9).with(FaultWindow::permanent(FaultKind::DeviceStall {
        device: 1,
        factor: 0.5,
    }));
    svc.handle(&Request::SetFaults { plan });
    let stalled = svc.handle(&Request::Predict {
        target: 7,
        mode: WireMode::Write,
        device: Some("ssd0".into()),
        mix,
    });
    match (base, stalled) {
        (
            Response::Predict {
                predicted_gbps: b, ..
            },
            Response::Predict {
                predicted_gbps: s, ..
            },
        ) => {
            let ratio = s / b;
            assert!((ratio - 0.75).abs() < 1e-9, "aggregate derate: {ratio}");
        }
        other => panic!("unexpected replies: {other:?}"),
    }
}
