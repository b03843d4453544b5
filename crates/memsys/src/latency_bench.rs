//! A `lat_mem_rd`-style pointer-chase latency benchmark over the simulated
//! memory hierarchy.
//!
//! Table I's "NUMA factor" is a latency ratio; real characterizations
//! measure it with dependent-load chases over growing working sets
//! (lmbench's `lat_mem_rd`). This module reproduces that methodology: the
//! classic cache staircase (L1 → L2 → LLC → DRAM) whose final plateau
//! depends on where the memory lives, so dividing remote plateaus by the
//! local one *measures* the factor the fabric's [`LatencyModel`] defines.

use numa_fabric::LatencyModel;
use numa_topology::{NodeId, Topology};

/// Cache hierarchy latencies (per-level load-to-use, nanoseconds).
#[derive(Debug, Clone, PartialEq)]
pub struct CacheHierarchy {
    /// L1 size in bytes.
    pub l1_bytes: u64,
    /// L1 latency.
    pub l1_ns: f64,
    /// L2 size in bytes.
    pub l2_bytes: u64,
    /// L2 latency.
    pub l2_ns: f64,
    /// LLC size in bytes (per die).
    pub llc_bytes: u64,
    /// LLC latency.
    pub llc_ns: f64,
}

impl CacheHierarchy {
    /// Opteron 6136: 64 KiB L1D, 512 KiB L2, 5 MiB shared L3.
    pub fn magny_cours() -> Self {
        CacheHierarchy {
            l1_bytes: 64 << 10,
            l1_ns: 1.2,
            l2_bytes: 512 << 10,
            l2_ns: 5.0,
            llc_bytes: 5 << 20,
            llc_ns: 19.0,
        }
    }
}

/// One measured point of the staircase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyPoint {
    /// Working-set size, bytes.
    pub bytes: u64,
    /// Measured load latency, nanoseconds.
    pub ns: f64,
}

/// The pointer-chase driver.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyBench {
    /// Cache hierarchy of the probing core.
    pub caches: CacheHierarchy,
    /// DRAM latency model of the host.
    pub dram: LatencyModel,
}

impl LatencyBench {
    /// Testbed configuration: Magny-Cours caches over the Table I AMD
    /// 4-socket latency model.
    pub fn paper() -> Self {
        let dl585_latency = numa_fabric::calibration::table1_machines()
            .into_iter()
            .nth(1)
            .expect("table 1 has the AMD 4s/8n row")
            .1;
        LatencyBench {
            caches: CacheHierarchy::magny_cours(),
            dram: dl585_latency,
        }
    }

    /// Load-to-use latency for a working set of `bytes`, threads on `cpu`,
    /// memory bound to `mem`. Within-cache sets never leave the die, so
    /// placement only matters past the LLC — exactly why cache-resident
    /// benchmarks cannot see NUMA at all.
    pub fn latency_ns(&self, topo: &Topology, cpu: NodeId, mem: NodeId, bytes: u64) -> f64 {
        let c = &self.caches;
        if bytes <= c.l1_bytes {
            c.l1_ns
        } else if bytes <= c.l2_bytes {
            // Mixed L1/L2 hit blend near the boundary.
            let f = bytes as f64 / c.l2_bytes as f64;
            c.l1_ns + (c.l2_ns - c.l1_ns) * f
        } else if bytes <= c.llc_bytes {
            let f = bytes as f64 / c.llc_bytes as f64;
            c.l2_ns + (c.llc_ns - c.l2_ns) * f
        } else {
            // DRAM plateau: the NUMA-dependent part.
            self.dram.latency_ns(topo, cpu, mem)
        }
    }

    /// The classic doubling staircase from 4 KiB to `max_bytes`.
    pub fn curve(
        &self,
        topo: &Topology,
        cpu: NodeId,
        mem: NodeId,
        max_bytes: u64,
    ) -> Vec<LatencyPoint> {
        let mut points = Vec::new();
        let mut bytes = 4 << 10;
        while bytes <= max_bytes {
            points.push(LatencyPoint {
                bytes,
                ns: self.latency_ns(topo, cpu, mem, bytes),
            });
            bytes *= 2;
        }
        points
    }

    /// Measure the host NUMA factor the lat_mem_rd way: DRAM-plateau
    /// latency of every non-local binding over the local plateau, averaged.
    pub fn measured_numa_factor(&self, topo: &Topology) -> f64 {
        let deep = 256 << 20; // far past every cache
        let mut sum = 0.0;
        let mut count = 0;
        for cpu in topo.node_ids() {
            let local = self.latency_ns(topo, cpu, cpu, deep);
            for mem in topo.node_ids() {
                if mem != cpu {
                    sum += self.latency_ns(topo, cpu, mem, deep) / local;
                    count += 1;
                }
            }
        }
        sum / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_topology::presets;

    fn setup() -> (Topology, LatencyBench) {
        (presets::dl585_testbed(), LatencyBench::paper())
    }

    #[test]
    fn staircase_is_monotone_and_plateaus() {
        let (topo, bench) = setup();
        let curve = bench.curve(&topo, NodeId(0), NodeId(0), 128 << 20);
        for w in curve.windows(2) {
            assert!(w[1].ns >= w[0].ns - 1e-9, "{w:?}");
        }
        // First point: pure L1; last two points: identical DRAM plateau.
        assert_eq!(curve[0].ns, 1.2);
        let n = curve.len();
        assert_eq!(curve[n - 1].ns, curve[n - 2].ns);
    }

    #[test]
    fn cache_resident_sets_cannot_see_numa() {
        let (topo, bench) = setup();
        // 1 MiB fits in LLC: local and remote measure identically.
        let local = bench.latency_ns(&topo, NodeId(0), NodeId(0), 1 << 20);
        let remote = bench.latency_ns(&topo, NodeId(0), NodeId(7), 1 << 20);
        assert_eq!(local, remote);
        // 64 MiB does not.
        let local = bench.latency_ns(&topo, NodeId(0), NodeId(0), 64 << 20);
        let remote = bench.latency_ns(&topo, NodeId(0), NodeId(7), 64 << 20);
        assert!(remote > 2.0 * local, "{remote} vs {local}");
    }

    #[test]
    fn measured_factor_matches_the_analytic_table_i_value() {
        let (topo, bench) = setup();
        let measured = bench.measured_numa_factor(&topo);
        let analytic = numa_fabric::numa_factor(&topo, &bench.dram);
        assert!(
            (measured - analytic).abs() < 1e-9,
            "{measured} vs {analytic}"
        );
        assert!(
            (measured - 2.7).abs() < 0.06,
            "AMD 4s/8n row of Table I: {measured}"
        );
    }

    #[test]
    fn neighbour_is_cheaper_than_remote() {
        let (topo, bench) = setup();
        let deep = 256 << 20;
        let neighbour = bench.latency_ns(&topo, NodeId(6), NodeId(7), deep);
        let remote = bench.latency_ns(&topo, NodeId(0), NodeId(7), deep);
        assert!(neighbour < remote);
    }

    #[test]
    fn hierarchy_levels_are_visible_in_the_curve() {
        let (topo, bench) = setup();
        let at = |bytes: u64| bench.latency_ns(&topo, NodeId(2), NodeId(2), bytes);
        assert!(at(32 << 10) < at(256 << 10), "L1 < L2");
        assert!(at(256 << 10) < at(4 << 20), "L2 < LLC");
        assert!(at(4 << 20) < at(64 << 20), "LLC < DRAM");
    }
}
