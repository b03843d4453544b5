//! Text renderings of a topology: an hwloc-style tree and Graphviz DOT.
//!
//! The paper notes that `hwloc` shows the node/core/device hierarchy but
//! "does not include the information regarding how the NUMA nodes are
//! interconnected" (§II-B). Our [`render_tree`] has the same blind spot on
//! purpose; [`render_dot`] adds what hwloc cannot: the link graph.

use crate::ids::NodeId;
use crate::topology::Topology;
use std::fmt::Write as _;

/// hwloc-style hierarchy: machine -> package -> node -> cores/devices.
pub fn render_tree(topo: &Topology) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Machine \"{}\" ({} nodes, {} cores, {} MiB)",
        topo.name(),
        topo.num_nodes(),
        topo.total_cores(),
        topo.total_dram_mib()
    );
    for p in 0..topo.num_packages() {
        let _ = writeln!(out, "  Package P{p}");
        for n in topo.node_ids() {
            if topo.node(n).package.index() != p {
                continue;
            }
            let spec = topo.node(n);
            let mut tags = Vec::new();
            if spec.has_io_hub {
                tags.push("io-hub");
            }
            if spec.os_home {
                tags.push("os-home");
            }
            let tag_str = if tags.is_empty() {
                String::new()
            } else {
                format!(" [{}]", tags.join(","))
            };
            let _ = writeln!(
                out,
                "    NUMANode N{n} ({} cores, {} MiB, LLC {} KiB){tag_str}",
                spec.cores,
                spec.dram_mib,
                spec.llc_bytes / 1024
            );
            for (d, dev) in topo.devices_at(n) {
                let _ = writeln!(
                    out,
                    "      PCIDev D{d} {:?} (PCIe {:?} x{}, {:.0} Gbps effective)",
                    dev.kind,
                    dev.pcie.gen,
                    dev.pcie.lanes,
                    dev.pcie.effective_gbps()
                );
            }
        }
    }
    out
}

/// Graphviz DOT of the link graph. Full-width links render bold.
pub fn render_dot(topo: &Topology) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "graph \"{}\" {{", topo.name());
    let _ = writeln!(out, "  layout=circo;");
    for n in topo.node_ids() {
        let spec = topo.node(n);
        let shape = if spec.has_io_hub {
            "doublecircle"
        } else {
            "circle"
        };
        let _ = writeln!(
            out,
            "  n{n} [label=\"N{n}\\nP{}\" shape={shape}];",
            spec.package
        );
    }
    for l in topo.links() {
        let style = match l.width {
            crate::link::HtWidth::W16 => "bold",
            crate::link::HtWidth::W8 => "solid",
        };
        let _ = writeln!(out, "  n{} -- n{} [style={style}];", l.a, l.b);
    }
    let _ = writeln!(out, "}}");
    out
}

/// Render a numeric matrix (hop counts, SLIT, bandwidth) with row/column
/// headers — the layout used by `numactl --hardware` and our figure bins.
pub fn render_matrix<T: std::fmt::Display>(
    row_label: &str,
    col_label: &str,
    matrix: &[Vec<T>],
) -> String {
    let mut out = String::new();
    let _ = write!(out, "{:>8}", format!("{row_label}\\{col_label}"));
    for j in 0..matrix.first().map_or(0, Vec::len) {
        let _ = write!(out, "{:>8}", j);
    }
    let _ = writeln!(out);
    for (i, row) in matrix.iter().enumerate() {
        let _ = write!(out, "{i:>8}");
        for v in row {
            let _ = write!(out, "{:>8}", format!("{v}"));
        }
        let _ = writeln!(out);
    }
    out
}

/// Render a bandwidth matrix with two decimal places.
pub fn render_bw_matrix(row_label: &str, col_label: &str, matrix: &[Vec<f64>]) -> String {
    let rounded: Vec<Vec<String>> = matrix
        .iter()
        .map(|row| row.iter().map(|v| format!("{v:.2}")).collect())
        .collect();
    render_matrix(row_label, col_label, &rounded)
}

/// One-line summary of localities from a vantage node, in the paper's
/// local/neighbour/remote(h) vocabulary.
pub fn render_localities(topo: &Topology, from: NodeId) -> String {
    let mut parts = Vec::new();
    for n in topo.node_ids() {
        parts.push(format!("N{n}:{:?}", topo.locality(from, n)));
    }
    format!("from N{from}: {}", parts.join(" "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn tree_mentions_devices_and_tags() {
        let t = presets::dl585_testbed();
        let s = render_tree(&t);
        assert!(s.contains("dl585-g7"));
        assert!(s.contains("io-hub"));
        assert!(s.contains("os-home"));
        assert!(s.contains("Nic"));
        assert!(s.contains("Ssd"));
        assert!(s.contains("32 cores") || s.contains("32768 MiB"));
    }

    #[test]
    fn dot_has_all_nodes_and_edges() {
        let t = presets::fig1b();
        let s = render_dot(&t);
        for n in 0..8 {
            assert!(s.contains(&format!("n{n} [")), "missing node {n}");
        }
        let edge_count = s.matches(" -- ").count();
        assert_eq!(edge_count, t.links().len());
    }

    #[test]
    fn matrix_renderer_aligns() {
        let m = vec![vec![0u32, 1], vec![1, 0]];
        let s = render_matrix("cpu", "mem", &m);
        assert!(s.contains("cpu\\mem"));
        assert_eq!(s.lines().count(), 3);
    }

    #[test]
    fn bw_matrix_rounds() {
        let m = vec![vec![21.336666]];
        let s = render_bw_matrix("cpu", "mem", &m);
        assert!(s.contains("21.34"));
    }

    #[test]
    fn localities_line() {
        let t = presets::fig1a();
        let s = render_localities(&t, NodeId(7));
        assert!(s.contains("N6:Neighbour"));
        assert!(s.contains("N7:Local"));
    }
}
