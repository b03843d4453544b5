//! Figure 5: TCP bandwidth vs concurrent streams, per binding node.

use crate::Experiment;
use numa_fabric::calibration::dl585_fabric;
use numa_fio::sweep::{paper_nodes, render_table, sweep, PAPER_STREAM_COUNTS};
use numa_fio::Workload;
use numa_iodev::NicOp;
use numa_par::json;
use std::fmt::Write as _;

/// Regenerate both panels of Fig. 5.
pub fn run() -> Experiment {
    let fabric = dl585_fabric();
    let nodes = paper_nodes();
    let streams = PAPER_STREAM_COUNTS;
    let mut text = String::new();
    let mut data = json::Map::new();
    for (panel, op) in [
        ("(a) TCP send", NicOp::TcpSend),
        ("(b) TCP receive", NicOp::TcpRecv),
    ] {
        let points =
            sweep(&fabric, &Workload::Nic(op), &nodes, &streams, 4.0, 2013).expect("sweep runs");
        let _ = writeln!(text, "{panel} — aggregate Gbit/s:");
        text.push_str(&render_table(&points, &nodes, &streams));
        text.push('\n');
        data.insert(format!("{op:?}"), json::to_value(&points));
    }
    let _ = writeln!(
        text,
        "shape checks vs the paper: bandwidth grows until 4 parallel streams\n\
         (one core per stream, 4 cores per node); nodes 2/3 saturate near\n\
         16 Gbps (send) while others reach 20–21; node 6 beats the device-local\n\
         node 7 for sends (IRQ handling, §IV-B1); contention noise above 4\n\
         streams occasionally reorders the top nodes."
    );
    Experiment {
        id: "fig5",
        title: "TCP bandwidth performance characteristics",
        text,
        data: Some(json::Value::Object(data)),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn both_panels_present() {
        let e = super::run();
        assert!(e.text.contains("TCP send"));
        assert!(e.text.contains("TCP receive"));
        assert!(e.text.contains("streams"));
    }
}
