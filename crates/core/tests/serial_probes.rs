//! The modeler probes serially on the caller's thread, in Algorithm 1's
//! `(target, mode, node)` order, and the storage atlas probes the SSD
//! attach node once per direction.

use numa_fabric::Fabric;
use numa_topology::{NodeId, Topology};
use numio_core::{
    characterize_storage, characterize_storage_full_host, CopySpec, IoModeler, Platform,
    PlatformError, SimPlatform, StorageConfig, TransferMode,
};
use std::sync::Mutex;
use std::thread::ThreadId;

/// The dl585 simulator, logging the thread and spec of every probe.
struct Logged {
    inner: SimPlatform,
    log: Mutex<Vec<(ThreadId, CopySpec)>>,
}

impl Logged {
    fn dl585() -> Self {
        Logged {
            inner: SimPlatform::dl585(),
            log: Mutex::new(Vec::new()),
        }
    }

    fn take(&self) -> Vec<(ThreadId, CopySpec)> {
        std::mem::take(&mut *self.log.lock().unwrap())
    }
}

impl Platform for Logged {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn cores_per_node(&self, node: NodeId) -> u32 {
        self.inner.cores_per_node(node)
    }

    fn probe(&self, spec: &CopySpec) -> Result<Vec<f64>, PlatformError> {
        self.log
            .lock()
            .unwrap()
            .push((std::thread::current().id(), *spec));
        self.inner.probe(spec)
    }

    // Claims probes are pure, as the simulator's are: the modeler must
    // stay serial even when a platform would allow a fan-out.
    fn parallel_probes(&self) -> bool {
        true
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
        Platform::fabric(&self.inner)
    }
}

/// Algorithm 1's spec for probing `node` against `target` in `mode`.
fn spec(modeler: &IoModeler, target: usize, mode: TransferMode, node: usize) -> CopySpec {
    let (target, node) = (NodeId::new(target), NodeId::new(node));
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
        reps: modeler.reps,
    }
}

#[test]
fn full_host_probes_serially_in_algorithm_order() {
    let p = Logged::dl585();
    let modeler = IoModeler::new().reps(3);
    let atlas = modeler.characterize_full_host(&p);
    assert_eq!(atlas.len(), 16);
    let log = p.take();
    assert_eq!(log.len(), 128, "8 targets x 2 modes x 8 nodes");
    let me = std::thread::current().id();
    assert!(
        log.iter().all(|(t, _)| *t == me),
        "every probe on the caller's thread"
    );
    let want: Vec<CopySpec> = (0..8)
        .flat_map(|target| {
            TransferMode::ALL
                .into_iter()
                .map(move |mode| (target, mode))
        })
        .flat_map(|(target, mode)| (0..8).map(move |node| (target, mode, node)))
        .map(|(target, mode, node)| spec(&modeler, target, mode, node))
        .collect();
    let got: Vec<CopySpec> = log.into_iter().map(|(_, s)| s).collect();
    assert_eq!(got, want);
}

#[test]
fn storage_atlas_probes_each_direction_once_and_matches_per_config() {
    let p = Logged::dl585();
    let modeler = IoModeler::new().reps(3);
    let atlas = characterize_storage_full_host(&modeler, &p).unwrap();
    let log = p.take();
    assert_eq!(log.len(), 16, "one 8-node sweep per direction");
    let me = std::thread::current().id();
    assert!(
        log.iter().all(|(t, _)| *t == me),
        "every probe on the caller's thread"
    );

    let per_config: Vec<_> = StorageConfig::ALL
        .into_iter()
        .flat_map(|cfg| TransferMode::ALL.into_iter().map(move |mode| (cfg, mode)))
        .map(|(cfg, mode)| characterize_storage(&modeler, &p, cfg, mode).unwrap())
        .collect();
    assert_eq!(atlas.len(), 8);
    for (a, b) in atlas.iter().zip(&per_config) {
        // Debug prints each f64 as its shortest round-trip text, so equal
        // strings mean equal bits.
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{}", a.platform);
    }
}
