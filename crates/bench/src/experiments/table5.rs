//! Table V: the NUMA I/O bandwidth performance model for device reads —
//! proposed memcpy model vs measured TCP receive / RDMA_READ / SSD read.

use crate::experiments::table4::{append_paper_row, measure_per_node};
use crate::Experiment;
use numa_fabric::calibration::paper;
use numa_fio::JobSpec;
use numa_iodev::NicOp;
use numa_topology::NodeId;
use numio_core::{render_comparison_table, IoModeler, SimPlatform, TransferMode};
use std::fmt::Write as _;

/// Regenerate Table V.
pub fn run() -> Experiment {
    let platform = SimPlatform::dl585();
    let model = IoModeler::new().characterize(&platform, NodeId(7), TransferMode::Read);

    let tcp = measure_per_node(&platform, |n| {
        JobSpec::nic(NicOp::TcpRecv, n).numjobs(4).size_gbytes(8.0)
    });
    let rdma = measure_per_node(&platform, |n| {
        JobSpec::nic(NicOp::RdmaRead, n).numjobs(2).size_gbytes(8.0)
    });
    let ssd = measure_per_node(&platform, |n| {
        JobSpec::ssd(false, n).numjobs(2).size_gbytes(8.0)
    });

    let mut text = render_comparison_table(
        &model,
        &[
            ("memcpy (ours)", model.means()),
            ("TCP receiver", tcp),
            ("RDMA_READ", rdma),
            ("SSD read", ssd),
        ],
    );
    let _ = writeln!(text, "\npublished class averages for comparison:");
    append_paper_row(&mut text, "memcpy", &paper::READ_MEMCPY_AVG);
    append_paper_row(&mut text, "TCP receiver", &paper::READ_TCP_AVG);
    append_paper_row(&mut text, "RDMA_READ", &paper::READ_RDMA_AVG);
    append_paper_row(&mut text, "SSD read", &paper::READ_SSD_AVG);
    Experiment {
        id: "table5",
        title: "NUMA I/O bandwidth model for device read",
        text,
        data: None,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn four_classes_and_all_rows() {
        let e = super::run();
        assert!(e.text.contains("Class 4 {4}"));
        for row in ["memcpy", "TCP receiver", "RDMA_READ", "SSD read"] {
            assert!(e.text.contains(row), "{row}");
        }
    }
}
