//! A guided tour of the paper's argument, executed live: each section of
//! Li et al. (ICPP 2013) as one runnable step over the calibrated testbed.
//!
//! ```sh
//! cargo run --release --example paper_tour
//! ```

use numio::core::{check_mix, rank_correlation};
use numio::fio::run_jobs;
use numio::iodev::{NicModel, NicOp, SsdModel};
use numio::memsys::StreamBench;
use numio::prelude::*;
use numio::topology::distance;

fn heading(s: &str) {
    println!("\n==== {s} ====");
}

fn main() {
    let platform = SimPlatform::dl585();
    let fabric = platform.fabric();
    let nic = NicModel::paper();
    let ssd = SsdModel::paper();

    heading("§II — the machine (Table II, Fig. 2)");
    let topo = fabric.topology();
    println!(
        "{} NUMA nodes, {} cores, {} devices on node 7, OS home on node {}",
        topo.num_nodes(),
        topo.total_cores(),
        topo.devices().len(),
        topo.os_home_node().unwrap()
    );

    heading("§IV-A — hop distance fails (Fig. 3)");
    let stream = StreamBench::paper().matrix(fabric);
    let hops = distance::hop_matrix(topo);
    println!(
        "CPU7->MEM4: {:.2} Gbps vs CPU4->MEM7: {:.2} Gbps (paper: 21.34 vs 18.45)",
        stream[7][4], stream[4][7]
    );
    println!(
        "node 3 is {} hop from node 7 yet row-7 slowest ({:.2}); node 0 is {} hops yet {:.2}",
        hops[7][3], stream[7][3], hops[7][0], stream[7][0]
    );

    heading("§IV-B — STREAM models fail for I/O (Figs. 5–7)");
    let rdma_read: Vec<f64> = (0..8)
        .map(|n| nic.node_ceiling(NicOp::RdmaRead, fabric, NodeId(n)))
        .collect();
    let cpu_centric = StreamBench::paper().cpu_centric(fabric, NodeId(7));
    println!(
        "rank correlation of STREAM(cpu-centric) vs RDMA_READ: {:+.2} — near-useless",
        rank_correlation(&cpu_centric, &rdma_read)
    );
    let send6 = run_jobs(
        fabric,
        &[JobSpec::nic(NicOp::TcpSend, NodeId(6))
            .numjobs(4)
            .size_gbytes(5.0)],
    )
    .unwrap()
    .aggregate_gbps;
    let send7 = run_jobs(
        fabric,
        &[JobSpec::nic(NicOp::TcpSend, NodeId(7))
            .numjobs(4)
            .size_gbytes(5.0)],
    )
    .unwrap()
    .aggregate_gbps;
    println!("TCP send: neighbour node 6 = {send6:.1} beats local node 7 = {send7:.1} (IRQs)");

    heading("§V-A — the methodology (Algorithm 1, Fig. 10, Tables IV/V)");
    let modeler = IoModeler::new();
    let write = modeler.characterize(&platform, NodeId(7), TransferMode::Write);
    let read = modeler.characterize(&platform, NodeId(7), TransferMode::Read);
    for (name, model) in [("write", &write), ("read", &read)] {
        let classes: Vec<String> = model
            .classes()
            .iter()
            .map(|c| format!("{:?}@{:.1}", c.nodes, c.avg_gbps))
            .collect();
        println!("{name} model: {}", classes.join(" > "));
    }
    let write_vec = write.means();
    let ssd_write: Vec<f64> = (0..8)
        .map(|n| ssd.node_ceiling(true, fabric, NodeId(n)))
        .collect();
    println!(
        "memcpy model vs SSD write rank correlation: {:+.2} — the model transfers",
        rank_correlation(&write_vec, &ssd_write)
    );

    heading("§V-B.1 — probe-cost reduction");
    println!(
        "read model: {} classes over 8 nodes -> {:.0}% of probes saved",
        read.classes().len(),
        read.probe_savings() * 100.0
    );

    heading("§V-B.2 — Eq. 1 prediction");
    let mix = [(NodeId(2), 2), (NodeId(0), 2)];
    let eq1 = check_mix(fabric, &read, NicOp::RdmaRead, &mix, 30.0).unwrap();
    println!(
        "predicted {:.3} vs measured {:.3}: {:.1}% error (paper: 3.1%)",
        eq1.predicted,
        eq1.measured,
        eq1.error() * 100.0
    );

    heading("§V-B.3 — scheduler assistance");
    let advisor = ScheduleAdvisor {
        equivalence_tolerance: 0.12,
        avoid_irq_node: true,
    };
    println!(
        "write-direction spreading set {:?}; read-direction {:?}",
        advisor.eligible_nodes(&write),
        advisor.eligible_nodes(&read)
    );
    println!("(see `cargo run --example data_transfer_node` for the +66% win)");

    heading("done");
    println!("every number above regenerates deterministically; `validate` re-checks them all.");
}
