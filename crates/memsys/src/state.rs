//! Per-node memory accounting with policy-driven allocation.

use crate::numastat::NumastatTable;
use crate::policy::MemPolicy;
use numa_topology::{NodeId, Topology};

/// Allocation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// A `Bind` policy targeted a node without enough free memory.
    BindNodeFull {
        /// The bound node.
        node: NodeId,
        /// Free MiB at failure time.
        free_mib: u64,
        /// Requested MiB.
        requested_mib: u64,
    },
    /// The whole host is out of memory.
    HostFull {
        /// Requested MiB.
        requested_mib: u64,
    },
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::BindNodeFull {
                node,
                free_mib,
                requested_mib,
            } => write!(
                f,
                "bind target {node:?} has {free_mib} MiB free, {requested_mib} requested"
            ),
            AllocError::HostFull { requested_mib } => {
                write!(f, "host cannot satisfy {requested_mib} MiB")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// MiB the OS image occupies on its home node at idle. Calibrated to the
/// paper's `numactl --hardware` observation: ~1.5 GiB free of 4 GiB on
/// node 0 while the others show almost 4 GiB (§IV-A).
pub const OS_HOME_RESERVED_MIB: u64 = 2560;
/// Small per-node kernel overhead on every node.
pub const PER_NODE_RESERVED_MIB: u64 = 96;

/// Mutable memory state of a host.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryState {
    total_mib: Vec<u64>,
    free_mib: Vec<u64>,
    /// hop-distance fallback order per node (nearest first, then id order)
    fallback: Vec<Vec<NodeId>>,
    /// round-robin cursor for interleaving
    interleave_cursor: usize,
    /// numastat counters
    stats: NumastatTable,
}

impl MemoryState {
    /// Fresh state: every node fully free minus the per-node kernel
    /// overhead, and the OS reservation on the topology's `os_home` node.
    pub fn new(topo: &Topology) -> Self {
        let n = topo.num_nodes();
        let total_mib: Vec<u64> = topo.node_ids().map(|i| topo.node(i).dram_mib).collect();
        let mut free_mib = total_mib.clone();
        for (i, f) in free_mib.iter_mut().enumerate() {
            let mut reserved = PER_NODE_RESERVED_MIB;
            if topo.node(NodeId::new(i)).os_home {
                reserved += OS_HOME_RESERVED_MIB;
            }
            *f = f.saturating_sub(reserved);
        }
        let fallback = (0..n)
            .map(|i| {
                let me = NodeId::new(i);
                let mut order: Vec<NodeId> = topo.node_ids().collect();
                order.sort_by_key(|&other| (topo.hop_distance(me, other), other));
                order
            })
            .collect();
        MemoryState {
            total_mib,
            free_mib,
            fallback,
            interleave_cursor: 0,
            stats: NumastatTable::new(n),
        }
    }

    /// The paper's idle DL585: node 0 visibly drained by the OS image.
    pub fn dl585_idle(topo: &Topology) -> Self {
        Self::new(topo)
    }

    /// Free MiB on a node.
    pub fn free_mib(&self, n: NodeId) -> u64 {
        self.free_mib[n.index()]
    }

    /// Total MiB on a node.
    pub fn total_mib(&self, n: NodeId) -> u64 {
        self.total_mib[n.index()]
    }

    /// numastat counters.
    pub fn stats(&self) -> &NumastatTable {
        &self.stats
    }

    /// Render the `numactl --hardware` free-memory listing that the paper
    /// uses to demonstrate the node-0 reservation.
    pub fn render_hardware(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "available: {} nodes (0-{})",
            self.total_mib.len(),
            self.total_mib.len() - 1
        );
        for i in 0..self.total_mib.len() {
            let _ = writeln!(
                out,
                "node {i} size: {} MB   node {i} free: {} MB",
                self.total_mib[i], self.free_mib[i]
            );
        }
        out
    }

    /// Allocate `mib` under `policy` for a task running on `task_node`.
    /// Returns the placement as `(node, mib)` chunks (multiple entries when
    /// an allocation spills or interleaves).
    pub fn allocate(
        &mut self,
        task_node: NodeId,
        policy: &MemPolicy,
        mib: u64,
    ) -> Result<Vec<(NodeId, u64)>, AllocError> {
        match policy {
            MemPolicy::Bind(node) => {
                let free = self.free_mib[node.index()];
                if free < mib {
                    return Err(AllocError::BindNodeFull {
                        node: *node,
                        free_mib: free,
                        requested_mib: mib,
                    });
                }
                self.take(task_node, *node, *node, mib);
                Ok(vec![(*node, mib)])
            }
            MemPolicy::LocalPreferred => self.spill_from(task_node, task_node, mib),
            MemPolicy::Preferred(node) => self.spill_from(task_node, *node, mib),
            MemPolicy::Interleave(nodes) => {
                assert!(!nodes.is_empty(), "interleave set must be non-empty");
                let free_total: u64 = nodes.iter().map(|n| self.free_mib[n.index()]).sum();
                if free_total < mib {
                    return Err(AllocError::HostFull { requested_mib: mib });
                }
                // Round-robin 1 MiB "pages" across the set, skipping full
                // nodes; coalesce into chunks for the report.
                let mut placed: Vec<(NodeId, u64)> = Vec::new();
                let mut left = mib;
                while left > 0 {
                    let node = nodes[self.interleave_cursor % nodes.len()];
                    self.interleave_cursor += 1;
                    if self.free_mib[node.index()] == 0 {
                        continue;
                    }
                    let chunk = 1.min(left).min(self.free_mib[node.index()]);
                    self.take(task_node, node, node, chunk);
                    self.stats.record_interleave_hit(node, chunk);
                    match placed.iter_mut().find(|(n, _)| *n == node) {
                        Some((_, amount)) => *amount += chunk,
                        None => placed.push((node, chunk)),
                    }
                    left -= chunk;
                }
                Ok(placed)
            }
        }
    }

    /// Release memory back to its nodes.
    pub fn free(&mut self, placement: &[(NodeId, u64)]) {
        for &(node, mib) in placement {
            let f = &mut self.free_mib[node.index()];
            *f = (*f + mib).min(self.total_mib[node.index()]);
        }
    }

    fn spill_from(
        &mut self,
        task_node: NodeId,
        intended: NodeId,
        mib: u64,
    ) -> Result<Vec<(NodeId, u64)>, AllocError> {
        let host_free: u64 = self.free_mib.iter().sum();
        if host_free < mib {
            return Err(AllocError::HostFull { requested_mib: mib });
        }
        let mut placed = Vec::new();
        let mut left = mib;
        // Nearest-first fallback starting from the *intended* node, which
        // is how the kernel's zonelists are ordered.
        let order = self.fallback[intended.index()].clone();
        for node in order {
            if left == 0 {
                break;
            }
            let chunk = left.min(self.free_mib[node.index()]);
            if chunk > 0 {
                self.take(task_node, intended, node, chunk);
                placed.push((node, chunk));
                left -= chunk;
            }
        }
        debug_assert_eq!(left, 0);
        Ok(placed)
    }

    fn take(&mut self, task_node: NodeId, intended: NodeId, actual: NodeId, mib: u64) {
        self.free_mib[actual.index()] -= mib;
        self.stats.record(task_node, intended, actual, mib);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_topology::presets;

    fn state() -> MemoryState {
        MemoryState::new(&presets::dl585_testbed())
    }

    #[test]
    fn idle_state_matches_paper_observation() {
        let m = state();
        // node 0: ~1.4 GiB free; others ~3.9 GiB.
        assert_eq!(m.free_mib(NodeId(0)), 4096 - 2560 - 96);
        for i in 1..8 {
            assert_eq!(m.free_mib(NodeId(i)), 4096 - 96);
        }
        let s = m.render_hardware();
        assert!(s.contains("node 0 free: 1440 MB"));
    }

    #[test]
    fn bind_allocates_or_fails_loudly() {
        let mut m = state();
        let p = m.allocate(NodeId(2), &MemPolicy::bind(7), 1000).unwrap();
        assert_eq!(p, vec![(NodeId(7), 1000)]);
        assert_eq!(m.free_mib(NodeId(7)), 3000);
        let err = m
            .allocate(NodeId(2), &MemPolicy::bind(7), 4000)
            .unwrap_err();
        assert!(matches!(
            err,
            AllocError::BindNodeFull {
                node: NodeId(7),
                ..
            }
        ));
    }

    #[test]
    fn local_preferred_stays_local_when_possible() {
        let mut m = state();
        let p = m
            .allocate(NodeId(5), &MemPolicy::LocalPreferred, 2048)
            .unwrap();
        assert_eq!(p, vec![(NodeId(5), 2048)]);
        assert_eq!(m.stats().node(NodeId(5)).numa_hit, 2048);
        assert_eq!(m.stats().node(NodeId(5)).local_node, 2048);
    }

    #[test]
    fn local_preferred_spills_to_nearest() {
        let mut m = state();
        // Drain node 5, then ask for more than it has.
        let _ = m.allocate(NodeId(5), &MemPolicy::bind(5), 4000).unwrap();
        let p = m
            .allocate(NodeId(5), &MemPolicy::LocalPreferred, 1000)
            .unwrap();
        // Nearest fallback: node 4 (neighbour, 1 hop) before 1/7 (1 hop,
        // higher... ties break by id: distance-1 set is {1,4,7}).
        assert_eq!(p[0].0, NodeId(1).min(NodeId(4)).min(NodeId(7)));
        // Counters: miss on receiving node, foreign on node 5.
        assert!(m.stats().node(NodeId(5)).numa_foreign >= 1000);
        assert_eq!(m.stats().total_misses(), m.stats().node(p[0].0).numa_miss);
    }

    #[test]
    fn preferred_falls_back_from_target() {
        let mut m = state();
        let _ = m.allocate(NodeId(0), &MemPolicy::bind(7), 4000).unwrap();
        let p = m
            .allocate(NodeId(0), &MemPolicy::Preferred(NodeId(7)), 500)
            .unwrap();
        // Fallback order starts from node 7's neighbours, not node 0's.
        assert_ne!(p[0].0, NodeId(7));
        assert!(m.stats().node(NodeId(7)).numa_foreign >= 500);
    }

    #[test]
    fn interleave_spreads_evenly() {
        let mut m = state();
        let p = m
            .allocate(NodeId(0), &MemPolicy::interleave_all(8), 800)
            .unwrap();
        assert_eq!(p.len(), 8);
        for &(_, mib) in &p {
            assert_eq!(mib, 100);
        }
        let hits: u64 = (0..8)
            .map(|i| m.stats().node(NodeId(i)).interleave_hit)
            .sum();
        assert_eq!(hits, 800);
    }

    #[test]
    fn interleave_skips_full_nodes() {
        let mut m = state();
        let _ = m.allocate(NodeId(3), &MemPolicy::bind(3), 4000).unwrap();
        let p = m
            .allocate(
                NodeId(0),
                &MemPolicy::Interleave(vec![NodeId(2), NodeId(3)]),
                100,
            )
            .unwrap();
        assert_eq!(p, vec![(NodeId(2), 100)]);
    }

    #[test]
    fn host_full_reported() {
        let mut m = state();
        let total_free: u64 = (0..8).map(|i| m.free_mib(NodeId(i))).sum();
        let err = m
            .allocate(NodeId(0), &MemPolicy::LocalPreferred, total_free + 1)
            .unwrap_err();
        assert!(matches!(err, AllocError::HostFull { .. }));
    }

    #[test]
    fn free_returns_memory() {
        let mut m = state();
        let before = m.free_mib(NodeId(6));
        let p = m.allocate(NodeId(6), &MemPolicy::bind(6), 512).unwrap();
        assert_eq!(m.free_mib(NodeId(6)), before - 512);
        m.free(&p);
        assert_eq!(m.free_mib(NodeId(6)), before);
    }

    #[test]
    fn free_never_exceeds_total() {
        let mut m = state();
        m.free(&[(NodeId(1), 99999)]);
        assert_eq!(m.free_mib(NodeId(1)), m.total_mib(NodeId(1)));
    }
}
