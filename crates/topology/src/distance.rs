//! Hop-distance and SLIT-style distance matrices.
//!
//! `numactl --hardware` prints an ACPI SLIT table: 10 for local access and
//! firmware-chosen larger values for remote nodes. The paper (citing \[18\])
//! notes this table is "often inaccurate" — firmware routinely reports a
//! flat 16 or 20 for every remote node regardless of actual cost. We expose
//! both an *ideal* SLIT derived from true hop counts and a *flattened* one
//! mimicking lazy firmware, so experiments can show how little either
//! predicts measured bandwidth.

use crate::ids::NodeId;
use crate::topology::Topology;

/// SLIT value for local access, fixed by the ACPI spec.
pub const SLIT_LOCAL: u32 = 10;

/// True minimum hop counts as an `n x n` matrix.
pub fn hop_matrix(topo: &Topology) -> Vec<Vec<u32>> {
    let ids: Vec<NodeId> = topo.node_ids().collect();
    ids.iter()
        .map(|&a| ids.iter().map(|&b| topo.hop_distance(a, b)).collect())
        .collect()
}

/// An idealized SLIT: `10 + 6 * hops` for remote nodes. This is what a
/// *careful* firmware would report.
pub fn slit_matrix(topo: &Topology) -> Vec<Vec<u32>> {
    hop_matrix(topo)
        .into_iter()
        .map(|row| {
            row.into_iter()
                .map(|h| {
                    if h == 0 {
                        SLIT_LOCAL
                    } else {
                        SLIT_LOCAL + 6 * h
                    }
                })
                .collect()
        })
        .collect()
}

/// A lazy-firmware SLIT: every remote distance is the same flat value
/// (default 20), which is what many real BIOSes ship and why `numactl`
/// distances mislead schedulers.
pub fn flat_slit_matrix(topo: &Topology, remote: u32) -> Vec<Vec<u32>> {
    let n = topo.num_nodes();
    (0..n)
        .map(|i| {
            (0..n)
                .map(|j| if i == j { SLIT_LOCAL } else { remote })
                .collect()
        })
        .collect()
}

/// Mean remote hop count from each node, a scalar "centrality" that
/// hop-based models would use to rank nodes.
pub fn mean_remote_hops(topo: &Topology) -> Vec<f64> {
    let m = hop_matrix(topo);
    let n = topo.num_nodes();
    if n == 1 {
        return vec![0.0];
    }
    m.iter()
        .map(|row| {
            let total: u32 = row.iter().sum();
            total as f64 / (n - 1) as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::PackageId;
    use crate::link::HtWidth;
    use crate::node::NodeSpec;

    fn line3() -> Topology {
        let mut b = Topology::builder("line3");
        let ids: Vec<NodeId> = (0..3)
            .map(|i| b.node(NodeSpec::magny_cours(PackageId(i))))
            .collect();
        b.link(ids[0], ids[1], HtWidth::W16);
        b.link(ids[1], ids[2], HtWidth::W16);
        b.build().unwrap()
    }

    #[test]
    fn hop_matrix_of_line() {
        let m = hop_matrix(&line3());
        assert_eq!(m, vec![vec![0, 1, 2], vec![1, 0, 1], vec![2, 1, 0]]);
    }

    #[test]
    fn slit_scales_with_hops() {
        let m = slit_matrix(&line3());
        assert_eq!(m[0][0], SLIT_LOCAL);
        assert_eq!(m[0][1], 16);
        assert_eq!(m[0][2], 22);
    }

    #[test]
    fn flat_slit_hides_structure() {
        let m = flat_slit_matrix(&line3(), 20);
        assert_eq!(m[0][1], m[0][2]);
        assert_eq!(m[0][0], SLIT_LOCAL);
    }

    #[test]
    fn mean_remote_hops_finds_centre() {
        let c = mean_remote_hops(&line3());
        // middle node (1) has the lowest mean distance
        assert!(c[1] < c[0]);
        assert!(c[1] < c[2]);
        assert_eq!(c[0], 1.5);
    }

    #[test]
    fn single_node_mean_is_zero() {
        let mut b = Topology::builder("one");
        b.node(NodeSpec::magny_cours(PackageId(0)));
        let t = b.build().unwrap();
        assert_eq!(mean_remote_hops(&t), vec![0.0]);
    }
}
