//! Ablations: remove each calibrated mechanism and show which reproduced
//! result breaks. This is the evidence that the design choices in
//! DESIGN.md §5 are load-bearing rather than decorative.

use crate::Experiment;
use numa_fabric::calibration::{
    dl585_pio_matrix, DL585_DMA_DEFAULT_W16, DL585_DMA_DEFAULT_W8, DL585_DMA_EDGE_CAPS,
    DL585_NODE_COPY_CAP,
};
use numa_fabric::{Fabric, PioModel};
use numa_fio::{run_jobs_with, JobSpec};
use numa_iodev::{NicModel, NicOp, SsdModel};
use numa_topology::{presets, NodeId, RouteTable};
use numio_core::{ClassifyParams, IoModeler, SimPlatform, TransferMode};
use std::fmt::Write as _;

/// Build the calibrated fabric but with plain BFS routing instead of the
/// firmware route overrides.
fn fabric_with_bfs_routes() -> Fabric {
    let topo = presets::dl585_testbed();
    let routes = RouteTable::bfs(&topo);
    let pio = PioModel::Matrix(dl585_pio_matrix(&topo));
    let mut b = Fabric::builder(topo, routes)
        .dma_defaults(DL585_DMA_DEFAULT_W16, DL585_DMA_DEFAULT_W8)
        .node_copy_caps(DL585_NODE_COPY_CAP)
        .pio(pio);
    for &(f, t, cap) in DL585_DMA_EDGE_CAPS {
        b = b.dma_cap(f, t, cap);
    }
    b.build()
}

/// Run all four ablations and report what changes.
pub fn run() -> Experiment {
    let mut text = String::new();
    let platform = SimPlatform::dl585();

    // ---- 1. Gap threshold sweep: is 8% a knife edge?
    let _ = writeln!(
        text,
        "(1) classifier gap threshold sweep (read model class count):"
    );
    for threshold in [0.01, 0.03, 0.05, 0.08, 0.12, 0.20, 0.35] {
        let modeler = IoModeler {
            classify: ClassifyParams {
                gap_threshold: threshold,
                ..ClassifyParams::default()
            },
            ..IoModeler::new()
        };
        let model = modeler.characterize(&platform, NodeId(7), TransferMode::Read);
        let _ = writeln!(
            text,
            "    threshold {threshold:>5.2} -> {} classes",
            model.classes().len()
        );
    }
    let _ = writeln!(
        text,
        "    verdict: a wide plateau around the default (0.08–0.12 under\n\
         measurement noise; 0.05–0.20 noiseless) yields the paper's 4\n\
         classes — the structure is not a knife-edge tuning artifact.\n"
    );

    // ---- 2. Local+neighbour rule off.
    let no_rule = IoModeler {
        classify: ClassifyParams {
            force_local_class1: false,
            ..ClassifyParams::default()
        },
        ..IoModeler::new()
    };
    let ablated = no_rule.characterize(&platform, NodeId(7), TransferMode::Read);
    let _ = writeln!(
        text,
        "(2) without the §V-A local+neighbour rule: {} classes; top class {:?}\n\
         — pure gap clustering merges {{6,7}} with {{2,3}} (their bandwidths\n\
         overlap), losing the distinction between 'free because local' and\n\
         'fast but remote'.\n",
        ablated.classes().len(),
        ablated.classes()[0].nodes
    );

    // ---- 3. IRQ derate off: the neighbour advantage disappears.
    let fabric = platform.fabric();
    let job = |node: u16| {
        vec![JobSpec::nic(NicOp::TcpSend, NodeId(node))
            .numjobs(4)
            .size_gbytes(6.0)]
    };
    let mut quiet_nic = NicModel::paper();
    quiet_nic.irq_send_derate = 0.0;
    let with = |nic: &NicModel, node: u16| {
        run_jobs_with(
            fabric,
            &job(node),
            Some(nic.clone()),
            SsdModel::for_fabric(fabric),
        )
        .unwrap()
        .aggregate_gbps
    };
    let base = NicModel::paper();
    let _ = writeln!(
        text,
        "(3) IRQ derating ablation (TCP send, 4 streams):\n\
         \x20   with IRQ load on node 7 : node7 {:>5.2}  node6 {:>5.2}  (neighbour wins)\n\
         \x20   without (ablated)       : node7 {:>5.2}  node6 {:>5.2}  (local wins again)\n\
         \x20   the §IV-B1 'neighbour beats local' finding *requires* the\n\
         \x20   interrupt-affinity mechanism.\n",
        with(&base, 7),
        with(&base, 6),
        with(&quiet_nic, 7),
        with(&quiet_nic, 6),
    );

    // ---- 4. Mixed-class port penalty off: the Eq. 1 gap closes.
    let mut ideal_nic = NicModel::paper();
    ideal_nic.mixed_class_penalty = 0.0;
    let eq1_jobs = [
        JobSpec::nic(NicOp::RdmaRead, NodeId(2))
            .numjobs(2)
            .size_gbytes(30.0),
        JobSpec::nic(NicOp::RdmaRead, NodeId(0))
            .numjobs(2)
            .size_gbytes(30.0),
    ];
    let measured_base = run_jobs_with(
        fabric,
        &eq1_jobs,
        Some(base.clone()),
        SsdModel::for_fabric(fabric),
    )
    .unwrap()
    .aggregate_gbps;
    let measured_ideal = run_jobs_with(
        fabric,
        &eq1_jobs,
        Some(ideal_nic),
        SsdModel::for_fabric(fabric),
    )
    .unwrap()
    .aggregate_gbps;
    let _ = writeln!(
        text,
        "(4) mixed-class port penalty ablation (the Eq. 1 workload):\n\
         \x20   with penalty    : measured {measured_base:.3} (paper: 19.415, 3.1% below prediction)\n\
         \x20   without (ablated): measured {measured_ideal:.3} (prediction becomes near-exact)\n\
         \x20   the penalty models the pipeline stalls that make Eq. 1 an\n\
         \x20   over-estimate in the paper.\n"
    );

    // ---- 5. Firmware routing replaced by BFS.
    let bfs_platform = SimPlatform::new(fabric_with_bfs_routes());
    let bfs_model = IoModeler::new().characterize(&bfs_platform, NodeId(7), TransferMode::Write);
    let base_model = IoModeler::new().characterize(&platform, NodeId(7), TransferMode::Write);
    let _ = writeln!(
        text,
        "(5) firmware routes replaced by shortest-path BFS (write model):\n\
         \x20   calibrated routes: classes {:?}\n\
         \x20   BFS routes       : classes {:?}\n\
         \x20   shortest-path routing funnels nodes 0,1 through the narrow\n\
         \x20   3->7 link, collapsing them into the bottom class — firmware\n\
         \x20   routing is part of why hop distance fails on real hosts.",
        base_model
            .classes()
            .iter()
            .map(|c| c.nodes.clone())
            .collect::<Vec<_>>(),
        bfs_model
            .classes()
            .iter()
            .map(|c| c.nodes.clone())
            .collect::<Vec<_>>(),
    );

    Experiment {
        id: "ablations",
        title: "Design-choice ablations",
        text,
        data: None,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_ablation_reports() {
        let e = super::run();
        for key in ["threshold", "local+neighbour", "IRQ", "penalty", "BFS"] {
            assert!(e.text.contains(key), "{key} missing:\n{}", e.text);
        }
        // The plateau check: 4 classes across the default region.
        assert!(e.text.contains(" 0.08 -> 4 classes"), "{}", e.text);
        assert!(e.text.contains(" 0.12 -> 4 classes"), "{}", e.text);
    }
}
