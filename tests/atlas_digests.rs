//! Bit-identity anchors for Algorithm 1's probe summaries: an FNV-1a
//! digest over the bits of every `Summary` field (`n`, `min`, `max`,
//! `mean`, `std`) and every class membership of three model sets that
//! between them summarize rows in every shape the modeler produces:
//!
//! - the DL585 full-host atlas (16 models of 8 nodes, 100 reps each);
//! - the storage atlas of the DL585 under three static faults (a 6->7
//!   link at quarter capacity, an IRQ storm on node 7, one SSD card
//!   stalled at half rate);
//! - the device-node write and read models of 64 sampled hosts, whose
//!   2 to 32 nodes give row counts of every size class.
//!
//! A change to how probe samples are summarized or classified that moves
//! any bit of any model fails here. A second digest pins what the first
//! leaves out: each class's `min_gbps`, `max_gbps` and `avg_gbps` (the
//! `BWᵢ` that Eq. 1 reads) and each model's platform label.

use numa_par::rng::{fnv1a64, SplitMix64, FNV1A64_INIT};
use numio::core::{
    characterize_storage_full_host, IoModeler, IoPerfModel, Platform, SimPlatform, TransferMode,
};
use numio::fabric::Fabric;
use numio::faults::{degraded_platform, FaultKind};
use numio::topology::TopoGen;

/// Fold one model: every per-node summary, then every class as its
/// size followed by its member node ids.
fn fold_model(mut h: u64, m: &IoPerfModel) -> u64 {
    h = fnv1a64(h, &(m.per_node.len() as u64).to_le_bytes());
    for s in &m.per_node {
        h = fnv1a64(h, &(s.n as u64).to_le_bytes());
        for x in [s.min, s.max, s.mean, s.std] {
            h = fnv1a64(h, &x.to_bits().to_le_bytes());
        }
    }
    h = fnv1a64(h, &(m.classes().len() as u64).to_le_bytes());
    for c in m.classes() {
        h = fnv1a64(h, &(c.nodes.len() as u64).to_le_bytes());
        for n in &c.nodes {
            h = fnv1a64(h, &(n.index() as u64).to_le_bytes());
        }
    }
    h
}

fn digest<'a>(models: impl IntoIterator<Item = &'a IoPerfModel>) -> u64 {
    models.into_iter().fold(FNV1A64_INIT, fold_model)
}

/// Fold one model's label (length-prefixed) and every class's bandwidth
/// bounds and average.
fn fold_classes_and_label(mut h: u64, m: &IoPerfModel) -> u64 {
    h = fnv1a64(h, &(m.platform.len() as u64).to_le_bytes());
    h = fnv1a64(h, m.platform.as_bytes());
    for c in m.classes() {
        for x in [c.min_gbps, c.max_gbps, c.avg_gbps] {
            h = fnv1a64(h, &x.to_bits().to_le_bytes());
        }
    }
    h
}

fn dl585_full_host_atlas() -> Vec<IoPerfModel> {
    IoModeler::new().reps(100).try_characterize_full_host(&SimPlatform::dl585()).unwrap()
}

fn faulted_storage_atlas() -> Vec<IoPerfModel> {
    let faults = [
        FaultKind::LinkDegrade { from: 6, to: 7, factor: 0.25 },
        FaultKind::IrqStorm { node: 7, intensity: 0.5 },
        FaultKind::DeviceStall { device: 1, factor: 0.5 },
    ];
    let platform = degraded_platform(&SimPlatform::dl585(), &faults).unwrap();
    characterize_storage_full_host(&IoModeler::new(), &platform).unwrap()
}

/// The write and read models of the device node of 64 sampled hosts, and
/// the node counts seen.
fn sampled_host_models() -> (Vec<IoPerfModel>, Vec<usize>) {
    let mut seeds = SplitMix64::new(0x5eed_a71a5);
    let mut models = Vec::new();
    let mut sizes = Vec::new();
    while sizes.len() < 64 {
        let host_seed = seeds.next_u64();
        let Ok((topo, routes)) = TopoGen::sample("gen", host_seed).build_routed() else {
            continue;
        };
        let mut sim = SimPlatform::new(Fabric::builder(topo, routes).dma_hop_decay(0.06).build());
        sim.seed = host_seed;
        let target = *sim.io_nodes().first().expect("a device node");
        for mode in TransferMode::ALL {
            models.push(IoModeler::new().characterize(&sim, target, mode));
        }
        sizes.push(sim.num_nodes());
    }
    (models, sizes)
}

#[test]
fn probe_summary_and_class_digests_are_pinned() {
    let atlas = dl585_full_host_atlas();
    assert_eq!(atlas.len(), 16);
    assert_eq!(digest(&atlas), 0x50e7_2be3_4e46_bed6, "DL585 full-host atlas");

    let storage = faulted_storage_atlas();
    assert_eq!(storage.len(), 8);
    assert_eq!(digest(&storage), 0x5b7d_3167_09b6_5ac1, "faulted storage atlas");

    let (hosts, sizes) = sampled_host_models();
    // The summaries take blocks of 4 rows and single rows: 2 nodes give
    // single rows only, 4 one block, 32 many blocks.
    for want in [2, 4, 32] {
        assert!(sizes.contains(&want), "no sampled host with {want} nodes: {sizes:?}");
    }
    assert_eq!(digest(&hosts), 0x3bff_30b0_430e_f7b3, "sampled host models");
}

#[test]
fn class_bandwidth_and_label_digest_is_pinned() {
    let atlas = dl585_full_host_atlas();
    let storage = faulted_storage_atlas();
    let (hosts, _) = sampled_host_models();
    let h = atlas.iter().chain(&storage).chain(&hosts).fold(FNV1A64_INIT, fold_classes_and_label);
    assert_eq!(h, 0x7810_bab9_ee13_46d2, "class min/max/avg bits and model labels");
}
