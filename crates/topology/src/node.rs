//! Per-node hardware description.

use crate::ids::PackageId;

numa_par::json_struct! {
    /// Static description of one NUMA node: a CPU die with its cores, last-level
    /// cache, memory controller and (optionally) an I/O hub attachment point.
    #[derive(Debug, Clone, PartialEq)]
    pub struct NodeSpec {
        /// Package (socket) this die belongs to.
        pub package: PackageId,
        /// Number of CPU cores on the die. The DL585 testbed has 4 per node
        /// (32 cores / 8 nodes); the paper runs 4 benchmark threads per node
        /// because of this.
        pub cores: u32,
        /// Installed DRAM behind this node's memory controller, in MiB.
        pub dram_mib: u64,
        /// Last-level cache size in bytes (5 MiB per die on Opteron 6136).
        /// STREAM requires arrays at least 4x this size (§III-B1).
        pub llc_bytes: u64,
        /// Whether this die hosts an I/O hub (a non-coherent HT port to PCIe).
        /// On the testbed only node 7's package exposes the active I/O hub.
        pub has_io_hub: bool,
        /// Whether the OS image homes kernel buffers and shared libraries here.
        /// On Linux this is node 0, which the paper shows retains only ~1.5 GiB
        /// of 4 GiB free at idle and enjoys an unfair local-STREAM advantage.
        pub os_home: bool,
    }
}

impl NodeSpec {
    /// A Magny-Cours style die: 4 cores, 4 GiB DRAM, 5 MiB LLC.
    pub fn magny_cours(package: PackageId) -> Self {
        NodeSpec {
            package,
            cores: 4,
            dram_mib: 4096,
            llc_bytes: 5 * 1024 * 1024,
            has_io_hub: false,
            os_home: false,
        }
    }

    /// Builder-style: mark this die as carrying the active I/O hub.
    pub fn with_io_hub(mut self) -> Self {
        self.has_io_hub = true;
        self
    }

    /// Builder-style: mark this node as the OS home node.
    pub fn with_os_home(mut self) -> Self {
        self.os_home = true;
        self
    }

    /// Builder-style: override the core count.
    pub fn with_cores(mut self, cores: u32) -> Self {
        self.cores = cores;
        self
    }

    /// Builder-style: override installed DRAM (MiB).
    pub fn with_dram_mib(mut self, dram_mib: u64) -> Self {
        self.dram_mib = dram_mib;
        self
    }

    /// Minimum STREAM array length (in 8-byte elements) that defeats this
    /// node's LLC, per the benchmark's "4x largest cache" rule. For the
    /// 5 MiB Opteron LLC this is 2,621,440 elements, the figure quoted in
    /// §III-B1 of the paper.
    pub fn stream_min_elems(&self) -> u64 {
        4 * self.llc_bytes / 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn magny_cours_matches_table_ii() {
        let n = NodeSpec::magny_cours(PackageId(0));
        assert_eq!(n.cores, 4);
        assert_eq!(n.llc_bytes, 5 * 1024 * 1024);
        assert_eq!(n.dram_mib, 4096);
        assert!(!n.has_io_hub);
        assert!(!n.os_home);
    }

    #[test]
    fn stream_rule_matches_paper_constant() {
        // "the array contains at least 20MBytes, or 2,621,440 long integers"
        let n = NodeSpec::magny_cours(PackageId(0));
        assert_eq!(n.stream_min_elems(), 2_621_440);
    }

    #[test]
    fn builder_flags_compose() {
        let n = NodeSpec::magny_cours(PackageId(3))
            .with_io_hub()
            .with_os_home();
        assert!(n.has_io_hub);
        assert!(n.os_home);
        assert_eq!(n.package, PackageId(3));
    }

    #[test]
    fn overrides_apply() {
        let n = NodeSpec::magny_cours(PackageId(0))
            .with_cores(8)
            .with_dram_mib(16384);
        assert_eq!(n.cores, 8);
        assert_eq!(n.dram_mib, 16384);
    }
}
