//! Figure 4: CPU-centric and memory-centric STREAM models of node 7.

use crate::Experiment;
use numa_fabric::calibration::dl585_fabric;
use numa_memsys::StreamBench;
use numa_topology::NodeId;
use std::fmt::Write as _;

fn bar(v: f64, scale: f64) -> String {
    let n = ((v / scale) * 40.0).round() as usize;
    "#".repeat(n)
}

/// Regenerate both Fig. 4 bar charts as text.
pub fn run() -> Experiment {
    let fabric = dl585_fabric();
    let bench = StreamBench::paper();
    let cpu = bench.cpu_centric(&fabric, NodeId(7));
    let mem = bench.mem_centric(&fabric, NodeId(7));
    let scale = cpu
        .iter()
        .chain(mem.iter())
        .cloned()
        .fold(0.0_f64, f64::max);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "(a) CPU centric: STREAM threads on node 7, data on node i"
    );
    for (i, v) in cpu.iter().enumerate() {
        let _ = writeln!(text, "  mem {i}: {v:>6.2} {}", bar(*v, scale));
    }
    let _ = writeln!(
        text,
        "\n(b) memory centric: data on node 7, STREAM threads on node i"
    );
    for (i, v) in mem.iter().enumerate() {
        let _ = writeln!(text, "  cpu {i}: {v:>6.2} {}", bar(*v, scale));
    }
    let r01 = (cpu[0] + cpu[1]) / (cpu[2] + cpu[3]);
    let _ = writeln!(
        text,
        "\nCPU-centric {{0,1}}/{{2,3}} advantage: {:.0}% (paper quotes 43%–88%, §IV-B2);\n\
         memory-centric nodes 2,3 ({:.2}, {:.2}) beat node 4 ({:.2}) as in §IV-A.",
        (r01 - 1.0) * 100.0,
        mem[2],
        mem[3],
        mem[4]
    );
    Experiment {
        id: "fig4",
        title: "STREAM models of node 7 (CPU/memory centric)",
        text,
        data: None,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn both_views_rendered() {
        let e = super::run();
        assert!(e.text.contains("CPU centric"));
        assert!(e.text.contains("memory centric"));
        assert!(e.text.contains('#'));
    }
}
