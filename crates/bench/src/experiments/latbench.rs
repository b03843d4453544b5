//! Latency staircase support for Table I: the lat_mem_rd methodology
//! measures the NUMA factor instead of assuming it.

use crate::Experiment;
use numa_memsys::LatencyBench;
use numa_topology::{presets, NodeId};
use std::fmt::Write as _;

/// Regenerate the pointer-chase staircase and the measured factor.
pub fn run() -> Experiment {
    let topo = presets::dl585_testbed();
    let bench = LatencyBench::paper();
    let mut text = String::new();
    let _ = writeln!(
        text,
        "pointer-chase load-to-use latency, threads on node 0 (ns):\n"
    );
    let _ = writeln!(
        text,
        "{:>12} {:>10} {:>10} {:>10}",
        "working set", "local", "nb(n1)", "far(n7)"
    );
    for point in bench.curve(&topo, NodeId(0), NodeId(0), 256 << 20) {
        if point.bytes < 16 << 10 {
            continue;
        }
        let nb = bench.latency_ns(&topo, NodeId(0), NodeId(1), point.bytes);
        let far = bench.latency_ns(&topo, NodeId(0), NodeId(7), point.bytes);
        let label = if point.bytes >= 1 << 20 {
            format!("{} MiB", point.bytes >> 20)
        } else {
            format!("{} KiB", point.bytes >> 10)
        };
        let _ = writeln!(
            text,
            "{label:>12} {:>10.1} {nb:>10.1} {far:>10.1}",
            point.ns
        );
    }
    let measured = bench.measured_numa_factor(&topo);
    let _ = writeln!(
        text,
        "\nmeasured NUMA factor from DRAM plateaus: {measured:.2} (Table I row 2: 2.7).\n\
         Note the staircase is flat across placements until the working set\n\
         defeats the LLC — cache-resident benchmarks cannot see NUMA at all,\n\
         which is why the paper sizes STREAM arrays at >= 4x the cache."
    );
    Experiment {
        id: "latbench",
        title: "Latency staircase & measured NUMA factor (Table I support)",
        text,
        data: None,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn staircase_and_factor_reported() {
        let e = super::run();
        assert!(e.text.contains("MiB"));
        assert!(e.text.contains("factor from DRAM plateaus: 2.7"));
    }
}
