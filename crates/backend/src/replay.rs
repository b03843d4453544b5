//! [`ReplayPlatform`]: re-execute a recorded fixture bit-identically.

use crate::error::BackendError;
use crate::fixture::{Fixture, FixtureHeader};
use numa_obs::Obs;
use numa_topology::{NodeId, Topology};
use numio_core::{ClockSource, CopySpec, Platform, PlatformError};
use std::collections::HashMap;
use std::path::Path;

/// A [`Platform`] that answers probes from a recorded [`Fixture`]
/// instead of measuring anything.
///
/// Replay is exact: a probe whose [`CopySpec`] matches a recorded one
/// returns the recorded samples verbatim (floats round-trip bit-exactly
/// through the JSONL), so a model characterized over replay equals the
/// live model byte for byte — including its platform label, which is the
/// *recorded* platform's label, not `"replay"`. A spec the fixture does
/// not cover is a typed [`PlatformError::NoRecordedProbe`], never a
/// panic.
pub struct ReplayPlatform {
    header: FixtureHeader,
    topology: Option<Topology>,
    probes: HashMap<CopySpec, Vec<f64>>,
    obs: Option<Obs>,
}

impl ReplayPlatform {
    /// Build from a parsed fixture. Rejects fixtures with no probes and
    /// resolves the topology (embedded, else preset lookup).
    pub fn from_fixture(fixture: Fixture) -> Result<Self, BackendError> {
        if fixture.probes.is_empty() {
            return Err(BackendError::EmptyFixture);
        }
        let topology = fixture.resolve_topology()?;
        let mut probes = HashMap::with_capacity(fixture.probes.len());
        // Later records win — harmless for honest captures (duplicate
        // specs record identical samples on a deterministic platform) and
        // predictable for hand-edited ones.
        for p in fixture.probes {
            probes.insert(p.spec, p.samples);
        }
        Ok(ReplayPlatform {
            header: fixture.header,
            topology,
            probes,
            obs: None,
        })
    }

    /// Parse JSONL text and build.
    pub fn from_jsonl(text: &str) -> Result<Self, BackendError> {
        Self::from_fixture(Fixture::from_jsonl(text)?)
    }

    /// Read a fixture file and build.
    pub fn from_file(path: impl AsRef<Path>) -> Result<Self, BackendError> {
        Self::from_fixture(Fixture::read_from(path)?)
    }

    /// Emit a `probe_replayed` event (and bump
    /// `numio_probes_replayed_total`) on every answered probe.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// The fixture header this platform replays.
    pub fn header(&self) -> &FixtureHeader {
        &self.header
    }

    /// Distinct specs the fixture can answer.
    pub fn probe_count(&self) -> usize {
        self.probes.len()
    }
}

impl Platform for ReplayPlatform {
    fn num_nodes(&self) -> usize {
        self.header.nodes
    }

    fn cores_per_node(&self, node: NodeId) -> u32 {
        self.header
            .cores_per_node
            .get(node.index())
            .copied()
            .unwrap_or(1)
    }

    fn probe(&self, spec: &CopySpec) -> Result<Vec<f64>, PlatformError> {
        let samples = self
            .probes
            .get(spec)
            .cloned()
            .ok_or(PlatformError::NoRecordedProbe { spec: *spec })?;
        if let Some(o) = &self.obs {
            o.counter("numio_probes_replayed_total", &[("backend", "replay")])
                .inc();
            o.event(
                "probe_replayed",
                spec.bind.index() as f64,
                &[
                    ("bind", numa_obs::Value::from(spec.bind.index())),
                    ("src", numa_obs::Value::from(spec.src.index())),
                    ("dst", numa_obs::Value::from(spec.dst.index())),
                    ("reps", numa_obs::Value::from(spec.reps)),
                ],
            );
        }
        Ok(samples)
    }

    fn io_nodes(&self) -> Vec<NodeId> {
        self.header.io_nodes.iter().map(|&n| NodeId(n)).collect()
    }

    fn label(&self) -> String {
        // The *recorded* platform's label: replayed models must compare
        // bit-identical to live ones, label included.
        self.header.platform.clone()
    }

    fn topology(&self) -> Option<&Topology> {
        self.topology.as_ref()
    }

    fn clock(&self) -> ClockSource {
        ClockSource::Recorded
    }

    fn deterministic(&self) -> bool {
        true
    }

    fn backend_kind(&self) -> &'static str {
        "replay"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordingPlatform;
    use numio_core::SimPlatform;

    fn spec() -> CopySpec {
        CopySpec {
            bind: NodeId(7),
            src: NodeId(3),
            dst: NodeId(7),
            threads: 4,
            bytes_per_thread: 1 << 20,
            reps: 5,
        }
    }

    fn recorded() -> ReplayPlatform {
        let rec = RecordingPlatform::new(SimPlatform::dl585());
        let _ = rec.run_copy(&spec());
        ReplayPlatform::from_jsonl(&rec.fixture().to_jsonl()).unwrap()
    }

    #[test]
    fn replay_returns_recorded_samples_bit_identically() {
        let live = SimPlatform::dl585().run_copy(&spec());
        let replay = recorded();
        assert_eq!(replay.run_copy(&spec()), live);
        assert_eq!(replay.run_copy(&spec()), live, "stable across calls");
    }

    #[test]
    fn replay_mirrors_the_recorded_shape() {
        let replay = recorded();
        assert_eq!(replay.num_nodes(), 8);
        assert_eq!(replay.cores_per_node(NodeId(0)), 4);
        assert_eq!(replay.io_nodes(), vec![NodeId(7)]);
        assert_eq!(replay.label(), "sim:dl585-g7");
        assert_eq!(replay.topology().map(|t| t.name()), Some("dl585-g7"));
        assert!(Platform::fabric(&replay).is_none());
        assert_eq!(replay.clock(), ClockSource::Recorded);
        assert!(replay.deterministic());
        assert_eq!(replay.backend_kind(), "replay");
        assert_eq!(replay.probe_count(), 1);
    }

    #[test]
    fn missing_probe_is_a_typed_error() {
        let replay = recorded();
        let other = CopySpec {
            src: NodeId(2),
            ..spec()
        };
        let e = replay.try_run_copy(&other).unwrap_err();
        assert_eq!(e, PlatformError::NoRecordedProbe { spec: other });
        assert!(e.to_string().contains("no recorded probe"), "{e}");
    }

    #[test]
    fn empty_fixture_is_rejected() {
        let rec = RecordingPlatform::new(SimPlatform::dl585());
        let fix = rec.fixture();
        assert!(matches!(
            ReplayPlatform::from_fixture(fix),
            Err(BackendError::EmptyFixture)
        ));
    }

    #[test]
    fn obs_sees_replayed_probes() {
        let obs = Obs::new();
        let replay = recorded().with_obs(obs.clone());
        let _ = replay.run_copy(&spec());
        assert_eq!(
            obs.counter("numio_probes_replayed_total", &[("backend", "replay")])
                .get(),
            1
        );
        assert!(obs.jsonl().contains("\"ev\":\"probe_replayed\""));
    }
}
