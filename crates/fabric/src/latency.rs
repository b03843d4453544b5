//! Memory access latency and the Table I "NUMA factor".
//!
//! The paper defines the NUMA factor as "the ratio between remote access
//! latency versus local one" and quotes (from Red Hat's scalability data,
//! its ref. \[2\]) 1.5 for an Intel 4-socket/4-node host up to 5.5 for a
//! 32-node blade system. [`LatencyModel`] assigns latencies by locality and
//! [`numa_factor`] computes the host-average ratio.

use numa_topology::{Locality, NodeId, Topology};

/// Idle (uncontended) access latency by locality class, in nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyModel {
    /// Local access (same die).
    pub local_ns: f64,
    /// Other die, same package. `None` means "use the per-hop rule".
    pub neighbour_ns: Option<f64>,
    /// Latency per coherent hop added on top of `local_ns`.
    pub per_hop_ns: f64,
    /// Extra per-hop cost beyond `deep_after` hops (board-to-board cables
    /// and switches on blade systems are much slower than on-board traces).
    pub deep_hop_extra_ns: f64,
    /// Hop count after which `deep_hop_extra_ns` applies.
    pub deep_after: u32,
}

impl LatencyModel {
    /// Uniform per-hop model.
    pub fn per_hop(local_ns: f64, per_hop_ns: f64) -> Self {
        LatencyModel {
            local_ns,
            neighbour_ns: None,
            per_hop_ns,
            deep_hop_extra_ns: 0.0,
            deep_after: u32::MAX,
        }
    }

    /// Latency of `cpu` accessing memory on `mem`.
    pub fn latency_ns(&self, topo: &Topology, cpu: NodeId, mem: NodeId) -> f64 {
        match topo.locality(cpu, mem) {
            Locality::Local => self.local_ns,
            Locality::Neighbour => self.neighbour_ns.unwrap_or(self.local_ns + self.per_hop_ns),
            Locality::Remote(h) => {
                let deep = h.saturating_sub(self.deep_after) as f64;
                self.local_ns + self.per_hop_ns * h as f64 + self.deep_hop_extra_ns * deep
            }
        }
    }

    /// Full latency matrix (`[cpu][mem]`), ns.
    pub fn matrix(&self, topo: &Topology) -> Vec<Vec<f64>> {
        let n = topo.num_nodes();
        (0..n)
            .map(|c| {
                (0..n)
                    .map(|m| self.latency_ns(topo, NodeId::new(c), NodeId::new(m)))
                    .collect()
            })
            .collect()
    }

    /// Solve for the per-hop latency that yields a target NUMA factor on
    /// `topo`, holding the other fields fixed. Uses the linearity of the
    /// factor in `per_hop_ns`.
    pub fn calibrate_to_factor(topo: &Topology, local_ns: f64, target_factor: f64) -> Self {
        let probe_a = LatencyModel::per_hop(local_ns, 0.0);
        let probe_b = LatencyModel::per_hop(local_ns, 1.0);
        let fa = numa_factor(topo, &probe_a);
        let fb = numa_factor(topo, &probe_b);
        let slope = fb - fa; // factor gained per ns of hop latency
        assert!(slope > 0.0, "topology has no remote pairs to calibrate on");
        let per_hop = (target_factor - fa) / slope;
        LatencyModel::per_hop(local_ns, per_hop)
    }
}

/// Host NUMA factor: mean non-local access latency over all ordered node
/// pairs, divided by the local latency.
pub fn numa_factor(topo: &Topology, model: &LatencyModel) -> f64 {
    let n = topo.num_nodes();
    if n < 2 {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut count = 0usize;
    for a in topo.node_ids() {
        for b in topo.node_ids() {
            if a != b {
                sum += model.latency_ns(topo, a, b);
                count += 1;
            }
        }
    }
    (sum / count as f64) / model.local_ns
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_topology::presets;

    #[test]
    fn local_latency_is_baseline() {
        let t = presets::intel_4s4n();
        let m = LatencyModel::per_hop(100.0, 50.0);
        assert_eq!(m.latency_ns(&t, NodeId(0), NodeId(0)), 100.0);
        assert_eq!(m.latency_ns(&t, NodeId(0), NodeId(1)), 150.0);
    }

    #[test]
    fn full_mesh_factor_is_single_hop_ratio() {
        let t = presets::intel_4s4n();
        let m = LatencyModel::per_hop(100.0, 50.0);
        assert!((numa_factor(&t, &m) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn neighbour_override_applies() {
        let t = presets::dl585_testbed();
        let mut m = LatencyModel::per_hop(100.0, 100.0);
        m.neighbour_ns = Some(150.0);
        assert_eq!(m.latency_ns(&t, NodeId(6), NodeId(7)), 150.0);
        // remote 1-hop (different package) uses the per-hop rule
        assert_eq!(m.latency_ns(&t, NodeId(5), NodeId(7)), 200.0);
    }

    #[test]
    fn deep_hops_cost_extra() {
        let t = presets::blade32();
        let mut shallow = LatencyModel::per_hop(100.0, 50.0);
        let mut deep = shallow.clone();
        deep.deep_hop_extra_ns = 200.0;
        deep.deep_after = 1;
        shallow.deep_after = 1;
        assert!(numa_factor(&t, &deep) > numa_factor(&t, &shallow));
    }

    #[test]
    fn calibrate_hits_target() {
        for (topo, target) in [
            (presets::intel_4s4n(), 1.5),
            (presets::amd_4s8n(), 2.7),
            (presets::amd_8s8n(), 2.8),
            (presets::blade32(), 5.5),
        ] {
            let m = LatencyModel::calibrate_to_factor(&topo, 100.0, target);
            let f = numa_factor(&topo, &m);
            assert!(
                (f - target).abs() < 1e-9,
                "{}: {f} vs {target}",
                topo.name()
            );
        }
    }

    #[test]
    fn single_node_factor_is_one() {
        use numa_topology::{NodeSpec, PackageId, Topology};
        let mut b = Topology::builder("uma");
        b.node(NodeSpec::magny_cours(PackageId(0)));
        let t = b.build().unwrap();
        let m = LatencyModel::per_hop(100.0, 50.0);
        assert_eq!(numa_factor(&t, &m), 1.0);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn matrix_is_symmetric_for_per_hop_models() {
        let t = presets::amd_4s8n();
        let m = LatencyModel::per_hop(100.0, 80.0).matrix(&t);
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(m[i][j], m[j][i]);
            }
        }
    }
}
