//! Table II + Figure 2: the testbed and its device attachment.

use crate::Experiment;
use numa_fio::NetTestParams;
use numa_topology::{presets, render};
use std::fmt::Write as _;

/// Print the testbed configuration (Table II), the connection diagram
/// facts (Fig. 2: all PCIe devices on node 7), and the network parameters
/// (Table III).
pub fn run() -> Experiment {
    let info = presets::table_ii();
    let topo = presets::dl585_testbed();
    let mut text = String::new();
    let _ = writeln!(text, "Table II — configuration of the AMD 4P server:");
    for (k, v) in [
        ("Motherboard", info.motherboard),
        ("Chipset", info.chipset),
        ("CPU Model", info.cpu_model),
        ("CPU cores/NUMA nodes", info.cores_nodes),
        ("Memory", info.memory),
        ("Last level cache (LLC)", info.llc),
        ("I/O Bus", info.io_bus),
        ("Linux Kernel", info.kernel),
        ("SSD Drive", info.ssd),
        ("Network Interface Card", info.nic),
        ("NIC Driver", info.nic_driver),
    ] {
        let _ = writeln!(text, "  {k:<26} {v}");
    }
    let _ = writeln!(text, "\nFig. 2 — modelled machine:");
    text.push_str(&render::render_tree(&topo));
    let _ = writeln!(text, "\nTable III — network test parameters:");
    text.push_str(&NetTestParams::paper().render());
    Experiment {
        id: "fig2",
        title: "Testbed configuration (Tables II/III, Fig. 2)",
        text,
        data: None,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn testbed_facts_present() {
        let e = super::run();
        assert!(e.text.contains("DL585"));
        assert!(e.text.contains("Nytro"));
        assert!(e.text.contains("400 GBytes"));
        assert!(e.text.contains("io-hub"));
    }
}
