//! Parameter sweeps: the stream-count x binding-node grids of Figs. 5–7.

use crate::job::{JobSpec, Workload};
use crate::runner::{run_jobs, FioError};
use numa_engine::JitterCfg;
use numa_fabric::Fabric;
use numa_topology::NodeId;

numa_par::json_struct! {
    /// One measured point of a sweep.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SweepPoint {
        /// Binding node (CPU + local buffers, the paper's protocol).
        pub node: NodeId,
        /// Concurrent streams/processes.
        pub streams: u32,
        /// Aggregate bandwidth, Gbit/s.
        pub aggregate_gbps: f64,
    }
}

/// Run a full sweep of one workload over `nodes x stream_counts`.
///
/// Jitter seeds mix in the node and stream count so that contention noise
/// differs across configurations (the paper: with 8–16 streams "sometimes
/// the performance of node 5 appears to be the best").
///
/// Grid points run in parallel ([`numa_par::map_indexed`]) — every point
/// is seeded purely from `(base_seed, node, streams)`, so the output is
/// byte-identical to the historical serial row-major loop, including
/// which error surfaces when several points fail (the first in row-major
/// order).
pub fn sweep(
    fabric: &Fabric,
    workload: &Workload,
    nodes: &[NodeId],
    stream_counts: &[u32],
    size_gbytes: f64,
    base_seed: u64,
) -> Result<Vec<SweepPoint>, FioError> {
    let grid: Vec<(NodeId, u32)> = nodes
        .iter()
        .flat_map(|&node| stream_counts.iter().map(move |&streams| (node, streams)))
        .collect();
    let points = numa_par::map_indexed(grid.len(), |k| {
        let (node, streams) = grid[k];
        let mut job = match workload {
            Workload::Nic(op) => JobSpec::nic(*op, node),
            Workload::Ssd {
                write,
                engine,
                direct,
            } => {
                let mut j = JobSpec::ssd(*write, node);
                j.workload = Workload::Ssd {
                    write: *write,
                    engine: *engine,
                    direct: *direct,
                };
                j
            }
        }
        .numjobs(streams)
        .size_gbytes(size_gbytes);
        // Contention noise beyond the per-node core count, mild
        // measurement noise below it.
        let cores = fabric.topology().node(node).cores;
        let seed = base_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((u64::from(node.0) << 8) | u64::from(streams));
        job = job.jitter(if streams > cores {
            JitterCfg::contention(seed)
        } else {
            JitterCfg::measurement(seed)
        });
        let report = run_jobs(fabric, &[job])?;
        Ok(SweepPoint {
            node,
            streams,
            aggregate_gbps: report.aggregate_gbps,
        })
    });
    points.into_iter().collect()
}

/// Extract one node's curve from sweep output (ordered by stream count).
pub fn curve(points: &[SweepPoint], node: NodeId) -> Vec<(u32, f64)> {
    let mut c: Vec<(u32, f64)> = points
        .iter()
        .filter(|p| p.node == node)
        .map(|p| (p.streams, p.aggregate_gbps))
        .collect();
    c.sort_by_key(|&(s, _)| s);
    c
}

/// Render a sweep as a text table: rows = stream counts, columns = nodes.
pub fn render_table(points: &[SweepPoint], nodes: &[NodeId], stream_counts: &[u32]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(out, "{:>8}", "streams");
    for n in nodes {
        let _ = write!(out, "{:>9}", format!("node{n}"));
    }
    let _ = writeln!(out);
    for &s in stream_counts {
        let _ = write!(out, "{s:>8}");
        for &n in nodes {
            let v = points
                .iter()
                .find(|p| p.node == n && p.streams == s)
                .map_or(f64::NAN, |p| p.aggregate_gbps);
            let _ = write!(out, "{v:>9.2}");
        }
        let _ = writeln!(out);
    }
    out
}

/// The node bindings the paper plots in Figs. 5–7 (a selection spanning
/// all classes).
pub fn paper_nodes() -> Vec<NodeId> {
    (0..8).map(NodeId).collect()
}

/// The stream counts of Fig. 5.
pub const PAPER_STREAM_COUNTS: [u32; 5] = [1, 2, 4, 8, 16];

#[cfg(test)]
mod tests {
    use super::*;
    use numa_fabric::calibration::dl585_fabric;
    use numa_iodev::NicOp;

    #[test]
    fn tcp_send_sweep_grows_until_four_streams() {
        let f = dl585_fabric();
        let pts = sweep(
            &f,
            &Workload::Nic(NicOp::TcpSend),
            &[NodeId(6)],
            &[1, 2, 4, 8],
            4.0,
            1,
        )
        .unwrap();
        let c = curve(&pts, NodeId(6));
        assert_eq!(c.len(), 4);
        assert!(c[1].1 > 1.8 * c[0].1, "2 streams nearly double: {c:?}");
        assert!(c[2].1 > 1.7 * c[1].1, "4 streams keep growing: {c:?}");
        // Saturation: 8 streams gain little over 4.
        assert!(c[3].1 < 1.15 * c[2].1, "{c:?}");
    }

    #[test]
    fn class3_nodes_saturate_lower() {
        let f = dl585_fabric();
        let pts = sweep(
            &f,
            &Workload::Nic(NicOp::TcpSend),
            &[NodeId(2), NodeId(5)],
            &[4],
            4.0,
            1,
        )
        .unwrap();
        let n2 = curve(&pts, NodeId(2))[0].1;
        let n5 = curve(&pts, NodeId(5))[0].1;
        assert!(n2 < 0.85 * n5, "{n2} vs {n5}");
    }

    #[test]
    fn heavy_contention_shuffles_orderings_sometimes() {
        // With 16 streams the class 1/2 gap (±few %) drowns in noise for
        // some seeds — reproducing the paper's "sometimes node 5 appears
        // to be the best".
        let f = dl585_fabric();
        let mut node5_won = false;
        for seed in 0..12 {
            let pts = sweep(
                &f,
                &Workload::Nic(NicOp::TcpSend),
                &[NodeId(5), NodeId(6)],
                &[16],
                4.0,
                seed,
            )
            .unwrap();
            let n5 = curve(&pts, NodeId(5))[0].1;
            let n6 = curve(&pts, NodeId(6))[0].1;
            if n5 > n6 {
                node5_won = true;
                break;
            }
        }
        assert!(node5_won, "node 5 should win under some contention seed");
    }

    #[test]
    fn render_table_is_complete() {
        let f = dl585_fabric();
        let nodes = [NodeId(0), NodeId(7)];
        let pts = sweep(
            &f,
            &Workload::Nic(NicOp::RdmaWrite),
            &nodes,
            &[1, 2],
            2.0,
            3,
        )
        .unwrap();
        let s = render_table(&pts, &nodes, &[1, 2]);
        assert!(s.contains("node0"));
        assert!(s.contains("node7"));
        assert_eq!(s.lines().count(), 3);
        assert!(!s.contains("NaN"));
    }

    #[test]
    fn sweep_is_deterministic_per_seed() {
        let f = dl585_fabric();
        let args = (&Workload::Nic(NicOp::RdmaRead), [NodeId(4)], [2u32], 2.0);
        let a = sweep(&f, args.0, &args.1, &args.2, args.3, 9).unwrap();
        let b = sweep(&f, args.0, &args.1, &args.2, args.3, 9).unwrap();
        assert_eq!(a, b);
    }
}
