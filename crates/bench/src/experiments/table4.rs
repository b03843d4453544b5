//! Table IV: the NUMA I/O bandwidth performance model for device writes —
//! proposed memcpy model vs measured TCP send / RDMA_WRITE / SSD write.

use crate::Experiment;
use numa_fabric::calibration::paper;
use numa_fio::{run_jobs, JobSpec};
use numa_iodev::NicOp;
use numa_topology::NodeId;
use numio_core::{render_comparison_table, IoModeler, Platform, SimPlatform, TransferMode};
use std::fmt::Write as _;

/// Measure one op on every node (paper protocol: enough streams to
/// saturate, buffers local, average aggregate).
pub(crate) fn measure_per_node<F: Fn(NodeId) -> JobSpec>(
    platform: &SimPlatform,
    make_job: F,
) -> Vec<f64> {
    (0..platform.num_nodes() as u16)
        .map(|n| {
            run_jobs(platform.fabric(), &[make_job(NodeId(n))])
                .expect("job runs")
                .aggregate_gbps
        })
        .collect()
}

pub(crate) fn append_paper_row(text: &mut String, label: &str, avgs: &[f64]) {
    let _ = write!(text, "{label:<16}");
    for a in avgs {
        let _ = write!(text, "{:>24}", format!("avg {a:.1} (paper)"));
    }
    let _ = writeln!(text);
}

/// Regenerate Table IV.
pub fn run() -> Experiment {
    let platform = SimPlatform::dl585();
    let model = IoModeler::new().characterize(&platform, NodeId(7), TransferMode::Write);

    let tcp = measure_per_node(&platform, |n| {
        JobSpec::nic(NicOp::TcpSend, n).numjobs(4).size_gbytes(8.0)
    });
    let rdma = measure_per_node(&platform, |n| {
        JobSpec::nic(NicOp::RdmaWrite, n)
            .numjobs(2)
            .size_gbytes(8.0)
    });
    let ssd = measure_per_node(&platform, |n| {
        JobSpec::ssd(true, n).numjobs(2).size_gbytes(8.0)
    });

    let mut text = render_comparison_table(
        &model,
        &[
            ("memcpy (ours)", model.means()),
            ("TCP sender", tcp),
            ("RDMA_WRITE", rdma),
            ("SSD write", ssd),
        ],
    );
    let _ = writeln!(text, "\npublished class averages for comparison:");
    append_paper_row(&mut text, "memcpy", &paper::WRITE_MEMCPY_AVG);
    append_paper_row(&mut text, "TCP sender", &paper::WRITE_TCP_AVG);
    append_paper_row(&mut text, "RDMA_WRITE", &paper::WRITE_RDMA_AVG);
    append_paper_row(&mut text, "SSD write", &paper::WRITE_SSD_AVG);
    Experiment {
        id: "table4",
        title: "NUMA I/O bandwidth model for device write",
        text,
        data: None,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn all_rows_present_with_three_classes() {
        let e = super::run();
        for row in ["memcpy", "TCP sender", "RDMA_WRITE", "SSD write"] {
            assert!(e.text.contains(row), "{row}");
        }
        assert!(e.text.contains("Class 3 {2,3}"));
        assert!(e.text.contains("(paper)"));
    }
}
