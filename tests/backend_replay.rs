//! Golden-fixture replay: the shipped `results/fixtures/dl585.jsonl`
//! must reproduce the paper's Table IV class partition bit-identically,
//! and a record→replay round trip of the full-host characterization must
//! match the live run exactly.

use numio::backend::{Fixture, RecordingPlatform, ReplayPlatform};
use numio::core::IoModeler;
use numio::prelude::*;
use numio::topology::NodeId;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/results/fixtures/dl585.jsonl");

#[test]
fn shipped_fixture_reproduces_table_iv_partition_bit_identically() {
    let obs = numio::obs::Obs::new();
    let replay = ReplayPlatform::from_file(FIXTURE)
        .unwrap()
        .with_obs(obs.clone());
    assert_eq!(replay.label(), "sim:dl585-g7");
    assert!(replay.deterministic());
    let topo = Platform::topology(&replay).unwrap().clone();
    let modeler = IoModeler::new();
    let model = modeler
        .try_characterize_observed(&replay, &topo, NodeId(7), TransferMode::Write, &obs)
        .unwrap();
    let partition: Vec<Vec<u16>> = model
        .classes()
        .iter()
        .map(|c| c.nodes.iter().map(|n| n.0).collect())
        .collect();
    assert_eq!(
        partition,
        vec![vec![6, 7], vec![0, 1, 4, 5], vec![2, 3]],
        "Table IV: {{6,7}} > {{0,1,4,5}} > {{2,3}}"
    );
    // The fixture is noiseless Table IV means, so class averages are the
    // paper's numbers exactly.
    assert_eq!(model.classes()[0].avg_gbps, (46.5 + 53.5) / 2.0);
    assert_eq!(model.classes()[2].avg_gbps, (27.3 + 26.0) / 2.0);

    // Two replays of the same fixture are bit-identical, down to the JSON.
    let again = modeler
        .try_characterize_with_topo(&replay, &topo, NodeId(7), TransferMode::Write)
        .unwrap();
    assert_eq!(again, model);
    assert_eq!(again.to_json(), model.to_json());
    assert!(obs.jsonl().contains("\"ev\":\"probe_replayed\""));
}

#[test]
fn record_then_replay_full_host_matches_live_bit_identically() {
    let live_platform = SimPlatform::dl585();
    let modeler = IoModeler::new().reps(3);
    let live = modeler.characterize_full_host(&live_platform);

    let rec = RecordingPlatform::new(SimPlatform::dl585());
    let recorded = modeler.characterize_full_host(&rec);
    assert_eq!(recorded, live, "recording must not perturb measurement");

    let fixture = rec.fixture();
    let replay = ReplayPlatform::from_jsonl(&fixture.to_jsonl()).unwrap();
    let replayed = modeler.characterize_full_host(&replay);
    assert_eq!(
        replayed, live,
        "replayed atlas must be bit-identical to the live one"
    );
    for (a, b) in replayed.iter().zip(&live) {
        assert_eq!(a.to_json(), b.to_json());
    }
}

#[test]
fn missing_probe_is_a_typed_workspace_error() {
    let replay = ReplayPlatform::from_file(FIXTURE).unwrap();
    // The fixture only covers reps=100 write probes against node 7.
    let e = IoModeler::new()
        .reps(5)
        .try_characterize(&replay, NodeId(7), TransferMode::Write)
        .unwrap_err();
    assert!(
        matches!(e, PlatformError::NoRecordedProbe { .. }),
        "want NoRecordedProbe, got {e:?}"
    );
    let err: numio::Error = e.into();
    assert!(err.to_string().contains("no recorded probe"), "{err}");
}

#[test]
fn shipped_fixture_header_is_self_describing() {
    let fixture = Fixture::read_from(FIXTURE).unwrap();
    assert_eq!(fixture.header.schema, numio::backend::SCHEMA);
    assert_eq!(fixture.header.platform, "sim:dl585-g7");
    assert_eq!(fixture.header.nodes, 8);
    assert_eq!(fixture.probes.len(), 8);
    assert!(fixture.header.deterministic);
    // No embedded topology: resolution goes through the preset registry.
    assert!(fixture.header.topology.is_none());
    let topo = fixture.resolve_topology().unwrap().unwrap();
    assert_eq!(topo.name(), "dl585-g7");
    assert_eq!(topo.num_nodes(), 8);
}
