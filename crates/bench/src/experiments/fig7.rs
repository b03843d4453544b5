//! Figure 7: SSD read/write bandwidth per NUMA configuration.

use crate::Experiment;
use numa_fabric::calibration::dl585_fabric;
use numa_fio::sweep::{paper_nodes, render_table, sweep};
use numa_fio::Workload;
use numa_iodev::IoEngine;
use std::fmt::Write as _;

/// Regenerate both panels of Fig. 7 (two LSI cards, libaio QD16, O_DIRECT,
/// at least two processes — §IV-B3).
pub fn run() -> Experiment {
    let fabric = dl585_fabric();
    let nodes = paper_nodes();
    let procs = [2u32, 4, 8];
    let mut text = String::new();
    for (panel, write) in [("(a) SSD write", true), ("(b) SSD read", false)] {
        let wl = Workload::Ssd {
            write,
            engine: IoEngine::paper(),
            direct: true,
        };
        let points = sweep(&fabric, &wl, &nodes, &procs, 6.0, 77).expect("sweep runs");
        let _ = writeln!(text, "{panel} — aggregate Gbit/s (both cards):");
        text.push_str(&render_table(&points, &nodes, &procs));
        text.push('\n');
    }
    let _ = writeln!(
        text,
        "shape checks: the write panel follows the TCP/RDMA *send* classes\n\
         (nodes 2/3 starved at ~18) and the read panel follows the *receive*\n\
         classes (node 4 starved at ~18.5) — §IV-B3's correspondence; neither\n\
         matches the STREAM model of Fig. 3."
    );
    Experiment {
        id: "fig7",
        title: "Disk I/O bandwidth performance characteristics",
        text,
        data: None,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn both_panels_present() {
        let e = super::run();
        assert!(e.text.contains("SSD write"));
        assert!(e.text.contains("SSD read"));
    }
}
