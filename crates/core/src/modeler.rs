//! Algorithm 1: NUMA I/O performance modelling.

use crate::classify::{classify_voiding, ClassifyParams};
use crate::model::{IoPerfModel, TransferMode};
use crate::platform::{CopySpec, Platform, PlatformError};
use numa_engine::Summary;
use numa_fabric::Fabric;
use numa_topology::{NodeId, Topology};

/// The paper's `iomodel` module (added to `numademo`), generalized over a
/// [`Platform`].
///
/// Algorithm 1, line by line:
///
/// ```text
/// n <- numa_num_configured_nodes()
/// m <- num_configured_cores() / n
/// for i in 1..=n:
///     if mode == write: src[i] on node i, snk[i] on node k
///     if mode == read:  src[i] on node k, snk[i] on node i
///     spawn m threads bound to node k, copy src->snk 100 times,
///     record the average bandwidth
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoModeler {
    /// Repetitions per node pair (Algorithm 1: 100).
    pub reps: u32,
    /// Bytes each thread copies per repetition. Large enough to defeat
    /// caches; 64 MiB mirrors the bulk-transfer regime.
    pub bytes_per_thread: u64,
    /// Explicit thread count; `None` = one per core of the target node
    /// (the algorithm's `m`).
    pub threads: Option<u32>,
    /// Classifier knobs.
    pub classify: ClassifyParams,
}

impl Default for IoModeler {
    fn default() -> Self {
        IoModeler {
            reps: 100,
            bytes_per_thread: 64 << 20,
            threads: None,
            classify: ClassifyParams::default(),
        }
    }
}

impl IoModeler {
    /// Paper defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Override the repetition count.
    pub fn reps(mut self, reps: u32) -> Self {
        self.reps = reps;
        self
    }

    /// Characterize `target` in one direction. Needs the topology for the
    /// local+neighbour class rule.
    ///
    /// Panics on a target/topology mismatch; prefer
    /// [`Self::try_characterize_with_topo`] when those come from user input.
    pub fn characterize_with_topo<P: Platform>(
        &self,
        platform: &P,
        topo: &Topology,
        target: NodeId,
        mode: TransferMode,
    ) -> IoPerfModel {
        self.characterize_inner(platform, topo, target, mode, None)
    }

    /// Fallible [`Self::characterize_with_topo`]: a bad target node or a
    /// platform/topology size mismatch comes back as a typed error.
    pub fn try_characterize_with_topo<P: Platform>(
        &self,
        platform: &P,
        topo: &Topology,
        target: NodeId,
        mode: TransferMode,
    ) -> Result<IoPerfModel, PlatformError> {
        self.try_characterize_inner(platform, topo, target, mode, None)
    }

    /// [`Self::characterize_with_topo`], recording per-rep bandwidth
    /// histograms (`numio_probe_gbps{node,mode}`) and per-node probe
    /// counters (`numio_probes_total{node}`) into `obs`.
    pub fn characterize_observed<P: Platform>(
        &self,
        platform: &P,
        topo: &Topology,
        target: NodeId,
        mode: TransferMode,
        obs: &numa_obs::Obs,
    ) -> IoPerfModel {
        self.characterize_inner(platform, topo, target, mode, Some(obs))
    }

    fn characterize_inner<P: Platform>(
        &self,
        platform: &P,
        topo: &Topology,
        target: NodeId,
        mode: TransferMode,
        obs: Option<&numa_obs::Obs>,
    ) -> IoPerfModel {
        self.try_characterize_inner(platform, topo, target, mode, obs)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    fn try_characterize_inner<P: Platform>(
        &self,
        platform: &P,
        topo: &Topology,
        target: NodeId,
        mode: TransferMode,
        obs: Option<&numa_obs::Obs>,
    ) -> Result<IoPerfModel, PlatformError> {
        let n = platform.num_nodes();
        if n != topo.num_nodes() {
            return Err(PlatformError::NodeCountMismatch {
                platform: n,
                topology: topo.num_nodes(),
            });
        }
        if target.index() >= n {
            return Err(PlatformError::NodeOutOfRange {
                node: target,
                nodes: n,
            });
        }
        let m = self
            .threads
            .unwrap_or_else(|| platform.cores_per_node(target));
        let _span = obs.map(|o| o.span("modeler.characterize"));
        let mode_label = match mode {
            TransferMode::Write => "write",
            TransferMode::Read => "read",
        };

        // Algorithm 1's probe loop, serially on the caller's thread: a
        // simulated probe is far cheaper than a thread spawn, and real
        // hardware must not see concurrent probes contend for the memory
        // system being measured.
        let mut all_samples = Vec::with_capacity(n);
        for i in 0..n {
            let node = NodeId::new(i);
            let (src, dst) = match mode {
                TransferMode::Write => (node, target),
                TransferMode::Read => (target, node),
            };
            let spec = CopySpec {
                bind: target,
                src,
                dst,
                threads: m,
                bytes_per_thread: self.bytes_per_thread,
                reps: self.reps,
            };
            let _probe_span = obs.map(|o| o.span("modeler.probe_node"));
            all_samples.push(platform.try_run_copy(&spec)?);
        }
        let per_node = Summary::from_rows(&all_samples);
        if let Some(o) = obs {
            for (i, (samples, summary)) in all_samples.iter().zip(&per_node).enumerate() {
                let node_label = format!("N{i}");
                o.counter(
                    "numio_probes_total",
                    &[
                        ("node", node_label.as_str()),
                        ("backend", platform.backend_kind()),
                    ],
                )
                .add(samples.len() as u64);
                let hist = o.histogram(
                    "numio_probe_gbps",
                    &[("node", node_label.as_str()), ("mode", mode_label)],
                    numa_obs::buckets::GBPS,
                );
                for &s in samples {
                    hist.observe(s);
                }
                o.event(
                    "probe_summary",
                    i as f64,
                    &[
                        ("node", node_label.as_str().into()),
                        ("mode", mode_label.into()),
                        ("mean_gbps", numa_obs::Value::from(summary.mean)),
                        ("reps", numa_obs::Value::from(summary.n)),
                    ],
                );
            }
        }
        let means: Vec<f64> = per_node.iter().map(|s| s.mean).collect();
        let voided = platform
            .fabric()
            .map_or_else(Vec::new, |f| faulted_neighbours(f, target, mode));
        let classes = classify_voiding(topo, target, &means, self.classify, &voided);
        Ok(IoPerfModel::new(
            target,
            mode,
            per_node,
            classes,
            platform.label(),
        ))
    }

    /// Characterize on a platform that carries its own topology (the
    /// simulator, a discovered host, a replay fixture).
    ///
    /// Panics when the platform has no topology; prefer
    /// [`Self::try_characterize`] for user-driven backends.
    pub fn characterize<P: Platform>(
        &self,
        platform: &P,
        target: NodeId,
        mode: TransferMode,
    ) -> IoPerfModel {
        self.try_characterize(platform, target, mode)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::characterize`]: a platform without a topology
    /// handle yields [`PlatformError::NoTopology`].
    pub fn try_characterize<P: Platform>(
        &self,
        platform: &P,
        target: NodeId,
        mode: TransferMode,
    ) -> Result<IoPerfModel, PlatformError> {
        let topo = platform
            .topology()
            .ok_or_else(|| PlatformError::NoTopology {
                label: platform.label(),
            })?;
        self.try_characterize_inner(platform, topo, target, mode, None)
    }

    /// Fallible [`Self::characterize_observed`].
    pub fn try_characterize_observed<P: Platform>(
        &self,
        platform: &P,
        topo: &Topology,
        target: NodeId,
        mode: TransferMode,
        obs: &numa_obs::Obs,
    ) -> Result<IoPerfModel, PlatformError> {
        self.try_characterize_inner(platform, topo, target, mode, Some(obs))
    }

    /// Characterize both directions of every I/O node the platform knows
    /// about — the full system model.
    pub fn characterize_all<P: Platform>(&self, platform: &P) -> Vec<IoPerfModel> {
        let mut models = Vec::new();
        for target in platform.io_nodes() {
            for mode in TransferMode::ALL {
                models.push(self.characterize(platform, target, mode));
            }
        }
        models
    }
}

impl IoModeler {
    /// Characterize **every node** of the platform as a hypothetical device
    /// site, both directions. Returns `2 * n` models ordered `(node 0
    /// write, node 0 read, node 1 write, ...)` — the full host atlas a
    /// cluster scheduler would persist.
    ///
    /// Probes run serially on the caller's thread in `(target, mode,
    /// node)` order, so a recording wrapper logs them in a stable order
    /// and every model equals the one [`Self::characterize`] returns for
    /// its slot.
    pub fn characterize_full_host<P: Platform>(&self, platform: &P) -> Vec<IoPerfModel> {
        self.try_characterize_full_host(platform)
            .unwrap_or_else(|e| panic!("characterize_full_host: {e}"))
    }

    /// Fallible [`Self::characterize_full_host`]: the first failing slot's
    /// error comes back instead of a panic, and no later slot is probed.
    pub fn try_characterize_full_host<P: Platform>(
        &self,
        platform: &P,
    ) -> Result<Vec<IoPerfModel>, PlatformError> {
        (0..2 * platform.num_nodes())
            .map(|k| self.try_characterize(platform, NodeId::new(k / 2), TransferMode::ALL[k % 2]))
            .collect()
    }
}

/// The target's package neighbours whose probe path a fault recorded on
/// `fabric` lowered ([`Fabric::fault_lowers_path`]): the copy
/// `n -> target` for `Write`, `target -> n` for `Read`. The target's own
/// copy ceiling is on every one of those paths, so a fault on it alone
/// voids nothing. The §V-A class-1 rule is voided for these neighbours.
pub(crate) fn faulted_neighbours(
    fabric: &Fabric,
    target: NodeId,
    mode: TransferMode,
) -> Vec<NodeId> {
    let topo = fabric.topology();
    let package = topo.node(target).package;
    topo.node_ids()
        .filter(|&n| n != target && topo.node(n).package == package)
        .filter(|&n| match mode {
            TransferMode::Write => fabric.fault_lowers_path(n, target, target),
            TransferMode::Read => fabric.fault_lowers_path(target, n, target),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::SimPlatform;
    use numa_fabric::calibration::paper;

    #[test]
    fn write_model_reproduces_table_iv() {
        let p = SimPlatform::dl585();
        let model = IoModeler::new().characterize(&p, NodeId(7), TransferMode::Write);
        assert_eq!(model.classes().len(), 3);
        for (class, nodes) in model.classes().iter().zip(paper::WRITE_CLASSES) {
            assert_eq!(
                class.nodes,
                nodes.iter().map(|&n| NodeId(n)).collect::<Vec<_>>()
            );
        }
        // Class averages within 3.5% of Table IV.
        for (class, &want) in model.classes().iter().zip(&paper::WRITE_MEMCPY_AVG) {
            assert!(
                (class.avg_gbps - want).abs() / want < 0.035,
                "{} vs {want}",
                class.avg_gbps
            );
        }
    }

    #[test]
    fn read_model_reproduces_table_v() {
        let p = SimPlatform::dl585();
        let model = IoModeler::new().characterize(&p, NodeId(7), TransferMode::Read);
        assert_eq!(model.classes().len(), 4);
        for (class, nodes) in model.classes().iter().zip(paper::READ_CLASSES) {
            assert_eq!(
                class.nodes,
                nodes.iter().map(|&n| NodeId(n)).collect::<Vec<_>>()
            );
        }
        for (class, &want) in model.classes().iter().zip(&paper::READ_MEMCPY_AVG) {
            assert!(
                (class.avg_gbps - want).abs() / want < 0.035,
                "{} vs {want}",
                class.avg_gbps
            );
        }
    }

    #[test]
    fn read_model_matches_50_percent_probe_savings() {
        // §V-B: 4 classes over 8 nodes => half the test cases.
        let p = SimPlatform::dl585();
        let model = IoModeler::new().characterize(&p, NodeId(7), TransferMode::Read);
        assert!((model.probe_savings() - 0.5).abs() < 1e-12);
        assert_eq!(model.representatives().len(), 4);
    }

    #[test]
    fn observed_characterization_records_probes() {
        let p = SimPlatform::dl585();
        let obs = numa_obs::Obs::new();
        let reps = 5u32;
        let model = IoModeler::new().reps(reps).characterize_observed(
            &p,
            p.fabric().topology(),
            NodeId(7),
            TransferMode::Write,
            &obs,
        );
        // Same result as the unobserved path.
        let plain = IoModeler::new()
            .reps(reps)
            .characterize(&p, NodeId(7), TransferMode::Write);
        assert_eq!(model, plain);
        // 8 nodes probed `reps` times each, attributed to the sim backend.
        assert_eq!(
            obs.counter("numio_probes_total", &[("node", "N0"), ("backend", "sim")])
                .get(),
            u64::from(reps)
        );
        let prom = obs.prometheus();
        assert!(
            prom.contains("numio_probe_gbps_count{mode=\"write\",node=\"N7\"} 5"),
            "{prom}"
        );
        assert!(obs.jsonl().contains("\"ev\":\"probe_summary\""));
    }

    #[test]
    fn model_is_reproducible() {
        let p = SimPlatform::dl585();
        let a = IoModeler::new().characterize(&p, NodeId(7), TransferMode::Write);
        let b = IoModeler::new().characterize(&p, NodeId(7), TransferMode::Write);
        assert_eq!(a, b);
    }

    #[test]
    fn fewer_reps_still_classify() {
        let p = SimPlatform::dl585();
        let model = IoModeler::new()
            .reps(5)
            .characterize(&p, NodeId(7), TransferMode::Write);
        assert_eq!(model.classes().len(), 3);
        assert_eq!(model.per_node[0].n, 5);
    }

    #[test]
    fn characterize_all_covers_both_directions() {
        let p = SimPlatform::dl585();
        let models = IoModeler::new().reps(3).characterize_all(&p);
        assert_eq!(models.len(), 2);
        assert_eq!(models[0].mode, TransferMode::Write);
        assert_eq!(models[1].mode, TransferMode::Read);
        assert!(models.iter().all(|m| m.target == NodeId(7)));
    }

    #[test]
    fn other_targets_characterize_too() {
        let p = SimPlatform::dl585();
        let model = IoModeler::new()
            .reps(3)
            .characterize(&p, NodeId(0), TransferMode::Write);
        assert_eq!(model.classes()[0].nodes, vec![NodeId(0), NodeId(1)]);
        assert!(model.classes().len() >= 2);
    }

    #[test]
    fn full_host_atlas_is_ordered_and_matches_serial() {
        let p = SimPlatform::dl585();
        let modeler = IoModeler::new().reps(3);
        let atlas = modeler.characterize_full_host(&p);
        assert_eq!(atlas.len(), 16);
        for (i, chunk) in atlas.chunks(2).enumerate() {
            assert_eq!(chunk[0].target, NodeId::new(i));
            assert_eq!(chunk[0].mode, TransferMode::Write);
            assert_eq!(chunk[1].mode, TransferMode::Read);
        }
        // Each slot equals the single-model characterization.
        let serial = modeler.characterize(&p, NodeId(7), TransferMode::Read);
        assert_eq!(atlas[15], serial);
    }

    #[test]
    #[should_panic(expected = "target out of range")]
    fn bad_target_rejected() {
        let p = SimPlatform::dl585();
        let _ = IoModeler::new().characterize(&p, NodeId(99), TransferMode::Write);
    }

    #[test]
    fn try_characterize_reports_typed_errors() {
        use crate::platform::PlatformError;
        let p = SimPlatform::dl585();
        let err = IoModeler::new()
            .try_characterize(&p, NodeId(99), TransferMode::Write)
            .unwrap_err();
        assert_eq!(
            err,
            PlatformError::NodeOutOfRange {
                node: NodeId(99),
                nodes: 8
            }
        );
        // Mismatched topology: pair the 8-node platform with a 2-node topo.
        let mut b = numa_topology::Topology::builder("tiny");
        let n0 = b
            .node(numa_topology::NodeSpec::magny_cours(numa_topology::PackageId(0)).with_os_home());
        let n1 = b.node(numa_topology::NodeSpec::magny_cours(
            numa_topology::PackageId(0),
        ));
        b.link(n0, n1, numa_topology::HtWidth::W16);
        let small = b.build().unwrap();
        let err = IoModeler::new()
            .try_characterize_with_topo(&p, &small, NodeId(0), TransferMode::Write)
            .unwrap_err();
        assert!(matches!(
            err,
            PlatformError::NodeCountMismatch {
                platform: 8,
                topology: 2
            }
        ));
        // The happy path agrees with the panicking one.
        let ok = IoModeler::new()
            .reps(3)
            .try_characterize(&p, NodeId(7), TransferMode::Write)
            .unwrap();
        assert_eq!(
            ok,
            IoModeler::new()
                .reps(3)
                .characterize(&p, NodeId(7), TransferMode::Write)
        );
    }
}
