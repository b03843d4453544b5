//! `numastat`-style allocation counters (§II-B: "numastat displays the NUMA
//! memory allocation statistics, including the number of hit and miss events
//! of memory page allocations, from kernel memory allocator").

use numa_topology::NodeId;
use std::fmt::Write as _;

/// Counters for one node, with the kernel's semantics:
///
/// * `numa_hit` — pages allocated on this node as intended;
/// * `numa_miss` — pages allocated *here* although another node was
///   intended (this node absorbed someone's overflow);
/// * `numa_foreign` — pages intended for this node but allocated elsewhere
///   (this node was full);
/// * `interleave_hit` — interleaved pages that landed on the intended node;
/// * `local_node` / `other_node` — allocations requested by a task running
///   on this node vs on another node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NumastatCounters {
    /// Allocated here as intended.
    pub numa_hit: u64,
    /// Allocated here, intended elsewhere.
    pub numa_miss: u64,
    /// Intended here, allocated elsewhere.
    pub numa_foreign: u64,
    /// Interleaved page landed on its round-robin target.
    pub interleave_hit: u64,
    /// Allocation requested by a task on this node.
    pub local_node: u64,
    /// Allocation requested by a task on another node.
    pub other_node: u64,
}

/// Per-node counter table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NumastatTable {
    counters: Vec<NumastatCounters>,
}

impl NumastatTable {
    /// Table for `n` nodes, zeroed.
    pub fn new(n: usize) -> Self {
        NumastatTable {
            counters: vec![NumastatCounters::default(); n],
        }
    }

    /// Counters of one node.
    pub fn node(&self, n: NodeId) -> &NumastatCounters {
        &self.counters[n.index()]
    }

    /// Mutable counters of one node.
    pub fn node_mut(&mut self, n: NodeId) -> &mut NumastatCounters {
        &mut self.counters[n.index()]
    }

    /// Record an allocation of `pages` pages: the task ran on `task_node`,
    /// wanted `intended`, got `actual`.
    pub fn record(&mut self, task_node: NodeId, intended: NodeId, actual: NodeId, pages: u64) {
        if actual == intended {
            self.counters[actual.index()].numa_hit += pages;
        } else {
            self.counters[actual.index()].numa_miss += pages;
            self.counters[intended.index()].numa_foreign += pages;
        }
        if actual == task_node {
            self.counters[actual.index()].local_node += pages;
        } else {
            self.counters[actual.index()].other_node += pages;
        }
    }

    /// Record an interleave hit.
    pub fn record_interleave_hit(&mut self, node: NodeId, pages: u64) {
        self.counters[node.index()].interleave_hit += pages;
    }

    /// Total hits across nodes.
    pub fn total_hits(&self) -> u64 {
        self.counters.iter().map(|c| c.numa_hit).sum()
    }

    /// Total misses across nodes (always equals total foreign).
    pub fn total_misses(&self) -> u64 {
        self.counters.iter().map(|c| c.numa_miss).sum()
    }

    /// Render the classic `numastat` column layout.
    pub fn render(&self) -> String {
        type Getter = fn(&NumastatCounters) -> u64;
        let mut out = String::new();
        let _ = write!(out, "{:<16}", "");
        for i in 0..self.counters.len() {
            let _ = write!(out, "{:>12}", format!("node{i}"));
        }
        let _ = writeln!(out);
        let rows: [(&str, Getter); 6] = [
            ("numa_hit", |c| c.numa_hit),
            ("numa_miss", |c| c.numa_miss),
            ("numa_foreign", |c| c.numa_foreign),
            ("interleave_hit", |c| c.interleave_hit),
            ("local_node", |c| c.local_node),
            ("other_node", |c| c.other_node),
        ];
        for (label, get) in rows {
            let _ = write!(out, "{label:<16}");
            for c in &self.counters {
                let _ = write!(out, "{:>12}", get(c));
            }
            let _ = writeln!(out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_counts_on_target() {
        let mut t = NumastatTable::new(4);
        t.record(NodeId(1), NodeId(1), NodeId(1), 10);
        assert_eq!(t.node(NodeId(1)).numa_hit, 10);
        assert_eq!(t.node(NodeId(1)).local_node, 10);
        assert_eq!(t.total_misses(), 0);
    }

    #[test]
    fn miss_and_foreign_are_paired() {
        let mut t = NumastatTable::new(4);
        // Task on node 0 wanted node 0 but got node 2.
        t.record(NodeId(0), NodeId(0), NodeId(2), 5);
        assert_eq!(t.node(NodeId(2)).numa_miss, 5);
        assert_eq!(t.node(NodeId(0)).numa_foreign, 5);
        assert_eq!(t.node(NodeId(2)).other_node, 5);
        assert_eq!(t.total_misses(), 5);
        assert_eq!(t.total_hits(), 0);
    }

    #[test]
    fn remote_intended_hit_is_other_node() {
        let mut t = NumastatTable::new(4);
        // Task on node 0 explicitly binds to node 3 and succeeds.
        t.record(NodeId(0), NodeId(3), NodeId(3), 7);
        assert_eq!(t.node(NodeId(3)).numa_hit, 7);
        assert_eq!(t.node(NodeId(3)).other_node, 7);
        assert_eq!(t.node(NodeId(3)).local_node, 0);
    }

    #[test]
    fn render_has_all_rows_and_nodes() {
        let mut t = NumastatTable::new(3);
        t.record(NodeId(0), NodeId(0), NodeId(0), 1);
        t.record_interleave_hit(NodeId(2), 4);
        let s = t.render();
        for label in [
            "numa_hit",
            "numa_miss",
            "numa_foreign",
            "interleave_hit",
            "local_node",
            "other_node",
        ] {
            assert!(s.contains(label), "{label}");
        }
        assert!(s.contains("node2"));
    }
}
