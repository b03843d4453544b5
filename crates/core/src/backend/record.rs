//! [`RecordingPlatform`]: a transparent probe recorder over any backend.

use super::fixture::{Fixture, FixtureHeader, ProbeRecord, SCHEMA};
use super::note_probe;
use crate::{ClockSource, CopySpec, Platform, PlatformError};
use numa_fabric::Fabric;
use numa_obs::Obs;
use numa_topology::{NodeId, Topology};
use std::sync::Mutex;

/// Wraps any [`Platform`] and logs every successful probe as a
/// [`ProbeRecord`], producing a [`Fixture`] that a
/// [`ReplayPlatform`](super::ReplayPlatform) can re-execute bit-identically.
///
/// The wrapper is behaviourally transparent — it delegates every
/// capability (label, topology, fabric, determinism) to the inner
/// platform, so models characterized through it equal the live ones.
/// The modeler probes serially, so the log is in the stable `(target,
/// mode, node)` order.
pub struct RecordingPlatform<P: Platform> {
    inner: P,
    log: Mutex<Vec<ProbeRecord>>,
    obs: Option<Obs>,
}

impl<P: Platform> RecordingPlatform<P> {
    /// Start recording over `inner`.
    pub fn new(inner: P) -> Self {
        RecordingPlatform {
            inner,
            log: Mutex::new(Vec::new()),
            obs: None,
        }
    }

    /// Emit a `probe_recorded` event (and bump
    /// `numio_probes_recorded_total`) on every captured probe.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// How many probes have been captured so far.
    pub fn probes_recorded(&self) -> usize {
        self.log.lock().expect("probe log poisoned").len()
    }

    /// Snapshot the capture as a self-contained [`Fixture`] (the inner
    /// platform's topology is embedded when it has one).
    pub fn fixture(&self) -> Fixture {
        let n = self.inner.num_nodes();
        let topology: Option<Topology> = self.inner.topology().cloned();
        let header = FixtureHeader {
            schema: SCHEMA.to_string(),
            platform: self.inner.label(),
            nodes: n,
            cores_per_node: (0..n)
                .map(|i| self.inner.cores_per_node(NodeId::new(i)))
                .collect(),
            io_nodes: self.inner.io_nodes().iter().map(|id| id.0).collect(),
            deterministic: self.inner.deterministic(),
            preset: topology.as_ref().map(|t| t.name().to_string()),
            topology,
        };
        let probes = self.log.lock().expect("probe log poisoned").clone();
        Fixture { header, probes }
    }
}

impl<P: Platform> Platform for RecordingPlatform<P> {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn cores_per_node(&self, node: NodeId) -> u32 {
        self.inner.cores_per_node(node)
    }

    fn probe(&self, spec: &CopySpec) -> Result<Vec<f64>, PlatformError> {
        let samples = self.inner.probe(spec)?;
        let seq = {
            let mut log = self.log.lock().expect("probe log poisoned");
            log.push(ProbeRecord {
                spec: *spec,
                samples: samples.clone(),
            });
            log.len()
        };
        if let Some(o) = &self.obs {
            let names = ("numio_probes_recorded_total", "probe_recorded");
            note_probe(o, names, self.inner.backend_kind(), seq as f64, spec);
        }
        Ok(samples)
    }

    fn io_nodes(&self) -> Vec<NodeId> {
        self.inner.io_nodes()
    }

    fn label(&self) -> String {
        self.inner.label()
    }

    fn topology(&self) -> Option<&Topology> {
        self.inner.topology()
    }

    fn fabric(&self) -> Option<&Fabric> {
        self.inner.fabric()
    }

    fn clock(&self) -> ClockSource {
        self.inner.clock()
    }

    fn deterministic(&self) -> bool {
        self.inner.deterministic()
    }

    fn backend_kind(&self) -> &'static str {
        "record"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimPlatform;

    fn spec() -> CopySpec {
        CopySpec {
            bind: NodeId(7),
            src: NodeId(3),
            dst: NodeId(7),
            threads: 4,
            bytes_per_thread: 1 << 20,
            reps: 3,
        }
    }

    #[test]
    fn recording_is_transparent() {
        let live = SimPlatform::dl585();
        let rec = RecordingPlatform::new(SimPlatform::dl585());
        assert_eq!(rec.run_copy(&spec()), live.run_copy(&spec()));
        assert_eq!(rec.label(), live.label());
        assert_eq!(rec.num_nodes(), 8);
        assert!(rec.fabric().is_some());
        assert!(rec.deterministic());
        assert_eq!(rec.backend_kind(), "record");
        assert_eq!(rec.probes_recorded(), 1);
    }

    #[test]
    fn full_host_fixture_is_in_serial_probe_order() {
        use crate::{IoModeler, TransferMode};
        let rec = RecordingPlatform::new(SimPlatform::dl585());
        let modeler = IoModeler::new().reps(3);
        let _ = modeler.characterize_full_host(&rec);
        let got: Vec<CopySpec> = rec.fixture().probes.iter().map(|p| p.spec).collect();
        let want: Vec<CopySpec> = (0..8)
            .flat_map(|t| TransferMode::ALL.into_iter().map(move |m| (NodeId(t), m)))
            .flat_map(|(t, m)| (0..8).map(move |n| (t, m, NodeId(n))))
            .map(|(target, mode, node)| {
                let (src, dst) = match mode {
                    TransferMode::Write => (node, target),
                    TransferMode::Read => (target, node),
                };
                CopySpec {
                    bind: target,
                    src,
                    dst,
                    threads: 4,
                    bytes_per_thread: modeler.bytes_per_thread,
                    reps: 3,
                }
            })
            .collect();
        assert_eq!(got, want, "(target, mode, node) order");
    }

    #[test]
    fn failed_probes_are_not_recorded() {
        let rec = RecordingPlatform::new(SimPlatform::dl585());
        let bad = CopySpec {
            src: NodeId(99),
            ..spec()
        };
        assert!(rec.try_run_copy(&bad).is_err());
        assert_eq!(rec.probes_recorded(), 0);
    }

    #[test]
    fn fixture_header_reflects_the_inner_platform() {
        let rec = RecordingPlatform::new(SimPlatform::dl585());
        let _ = rec.run_copy(&spec());
        let fix = rec.fixture();
        assert_eq!(fix.header.schema, SCHEMA);
        assert_eq!(fix.header.platform, "sim:dl585-g7");
        assert_eq!(fix.header.nodes, 8);
        assert_eq!(fix.header.cores_per_node, vec![4; 8]);
        assert_eq!(fix.header.io_nodes, vec![7]);
        assert!(fix.header.deterministic);
        assert_eq!(fix.header.preset.as_deref(), Some("dl585-g7"));
        assert!(fix.header.topology.is_some());
        assert_eq!(fix.probes.len(), 1);
        assert_eq!(fix.probes[0].spec, spec());
    }

    #[test]
    fn obs_sees_recorded_probes() {
        let obs = Obs::new();
        let rec = RecordingPlatform::new(SimPlatform::dl585()).with_obs(obs.clone());
        let _ = rec.run_copy(&spec());
        let _ = rec.run_copy(&spec());
        assert_eq!(
            obs.counter("numio_probes_recorded_total", &[("backend", "sim")])
                .get(),
            2
        );
        assert!(obs.jsonl().contains("\"ev\":\"probe_recorded\""));
    }
}
