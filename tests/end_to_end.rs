//! Full-pipeline integration: model -> persistence -> reduced probing ->
//! prediction -> placement, across crates.

use numio::core::{IoModeler, IoPerfModel, Platform, ScheduleAdvisor, SimPlatform, TransferMode};
use numio::topology::NodeId;

#[test]
fn model_json_round_trips_through_disk_format() {
    let platform = SimPlatform::dl585();
    let model = IoModeler::new().characterize(&platform, NodeId(7), TransferMode::Read);
    let json = model.to_json();
    assert!(json.contains("\"target\""));
    let back = IoPerfModel::from_json(&json).unwrap();
    // Compare via re-serialization: JSON float printing is shortest-repr,
    // so the canonical persisted form is the equality domain (raw f64
    // equality would fail on last-ulp differences).
    assert_eq!(back.to_json(), json);
    assert_eq!(back.classes().len(), model.classes().len());
    assert_eq!(back.target, model.target);
}

#[test]
fn representative_probing_reproduces_class_averages() {
    // §V-B cost reduction: probing one node per class gives the same
    // class-average model as probing everything.
    let platform = SimPlatform::dl585();
    let modeler = IoModeler::new();
    let full = modeler.characterize(&platform, NodeId(7), TransferMode::Read);
    for class in full.classes() {
        let rep = class.nodes[0];
        // Probe only the representative.
        let samples = platform.run_copy(&numio::core::CopySpec {
            bind: NodeId(7),
            src: NodeId(7),
            dst: rep,
            threads: 4,
            bytes_per_thread: 64 << 20,
            reps: 100,
        });
        let rep_mean = samples.iter().sum::<f64>() / samples.len() as f64;
        // The representative lands inside its class's observed band (class
        // 1 spans local + neighbour, so exact-average agreement is not
        // expected — the paper's claim is per-class equivalence).
        assert!(
            rep_mean >= class.min_gbps * 0.98 && rep_mean <= class.max_gbps * 1.02,
            "representative {rep} ({rep_mean}) outside class band [{}, {}]",
            class.min_gbps,
            class.max_gbps
        );
    }
    assert!((full.probe_savings() - 0.5).abs() < 1e-12);
}

#[test]
fn prediction_over_every_two_node_mix_is_consistent() {
    // Eq. 1 sanity across the full mix space: prediction always lies
    // between the participating class averages.
    let platform = SimPlatform::dl585();
    let model = IoModeler::new().characterize(&platform, NodeId(7), TransferMode::Write);
    for a in 0..8u16 {
        for b in 0..8u16 {
            let p = numio::core::predict_for_mix(&model, [(NodeId(a), 1), (NodeId(b), 3)]);
            let ca = model.classes()[model.class_of(NodeId(a))].avg_gbps;
            let cb = model.classes()[model.class_of(NodeId(b))].avg_gbps;
            let (lo, hi) = (ca.min(cb), ca.max(cb));
            assert!(
                p >= lo - 1e-9 && p <= hi + 1e-9,
                "{a},{b}: {p} not in [{lo},{hi}]"
            );
        }
    }
}

#[test]
fn advisor_plus_model_pipeline() {
    let platform = SimPlatform::dl585();
    let model = IoModeler::new().characterize(&platform, NodeId(7), TransferMode::Write);
    let advisor = ScheduleAdvisor {
        equivalence_tolerance: 0.15,
        avoid_irq_node: true,
    };
    let placement = advisor.place(&model, 12);
    // All bindings must be in classes 1-2 (never the starved {2,3}).
    for &n in &placement.assignments {
        assert!(
            model.class_of(n) <= 1,
            "task landed in class {}",
            model.class_of(n) + 1
        );
    }
    // Spread: no node more than ceil(12/6)=2.
    assert!(placement.max_load() <= 2);
}

#[test]
fn characterize_all_gives_write_and_read_models_for_every_io_node() {
    let platform = SimPlatform::dl585();
    let models = IoModeler::new().reps(10).characterize_all(&platform);
    assert_eq!(models.len(), 2);
    let write = &models[0];
    let read = &models[1];
    assert_eq!(write.mode, TransferMode::Write);
    assert_eq!(read.mode, TransferMode::Read);
    // The two directions disagree about node 4 and nodes {2,3} — the core
    // directional finding.
    assert!(write.class_of(NodeId(4)) < read.class_of(NodeId(4)));
    assert!(read.class_of(NodeId(3)) < write.class_of(NodeId(3)));
}

#[test]
fn cli_library_smoke() {
    // The CLI drives the same pipeline; make sure its top commands run.
    for cmd in [
        vec!["topo"],
        vec!["characterize", "--reps", "3"],
        vec!["advise", "--tasks", "4"],
        vec!["numastat"],
    ] {
        let args: Vec<String> = cmd.iter().map(|s| s.to_string()).collect();
        let out = numio_cli::run(&args).unwrap_or_else(|e| panic!("{cmd:?}: {e}"));
        assert!(!out.is_empty());
    }
}
