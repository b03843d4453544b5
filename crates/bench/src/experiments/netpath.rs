//! Two-host end-to-end composition (Fig. 2's real setup; intro ref. \[3\]).

use crate::Experiment;
use numa_fabric::calibration::dl585_fabric;
use numa_iodev::{NicOp, TwoHostPath};
use numa_topology::NodeId;
use std::fmt::Write as _;

/// Regenerate the two-host matrix, the "30% at either end" numbers and the
/// wide-area crossover.
pub fn run() -> Experiment {
    let local = dl585_fabric();
    let remote = dl585_fabric();
    let path = TwoHostPath::paper();
    let mut text = String::new();

    let m = path.matrix(NicOp::TcpSend, &local, &remote);
    let _ = writeln!(
        text,
        "end-to-end TCP send (tx binding x rx binding), Gbit/s:"
    );
    let _ = write!(text, "{:>8}", "tx\\rx");
    for r in 0..8 {
        let _ = write!(text, "{r:>8}");
    }
    let _ = writeln!(text);
    for (l, row) in m.iter().enumerate() {
        let _ = write!(text, "{l:>8}");
        for v in row {
            let _ = write!(text, "{v:>8.2}");
        }
        let _ = writeln!(text);
    }

    let best = m[6][7];
    let _ = writeln!(
        text,
        "\nbest pair (tx 6, rx 7): {best:.2}; rx mis-bound to node 4: {:.2} \
         ({:.0}% loss); tx mis-bound to node 3: {:.2} ({:.0}% loss)\n\
         — ref [3]: \"as much as a 30% loss ... at either sender or receiver side\".",
        m[6][4],
        (1.0 - m[6][4] / best) * 100.0,
        m[3][7],
        (1.0 - m[3][7] / best) * 100.0
    );

    let _ = writeln!(
        text,
        "\nwide-area regime (RDMA_WRITE, both ends at their best nodes):"
    );
    for rtt in [0.005, 1.0, 10.0, 50.0] {
        let wan = TwoHostPath::wide_area(rtt);
        let bw = wan.op_bandwidth(NicOp::RdmaWrite, (&local, NodeId(6)), (&remote, NodeId(6)));
        let limiter = if (bw - wan.window_cap_gbps()).abs() < 1e-9 {
            "window/RTT"
        } else {
            "NUMA class / port"
        };
        let _ = writeln!(text, "  RTT {rtt:>7.3} ms -> {bw:>7.3} Gbit/s  ({limiter})");
    }
    Experiment {
        id: "netpath",
        title: "Two-host end-to-end composition (ref [3])",
        text,
        data: None,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn reproduces_the_30_percent_citation() {
        let e = super::run();
        assert!(
            e.text.contains("31% loss") || e.text.contains("30% loss"),
            "{}",
            e.text
        );
        assert!(e.text.contains("window/RTT"));
    }
}
