//! Linux NUMA memory policies (§II-B of the paper).

use numa_topology::NodeId;

/// Where an allocation's pages may land. Mirrors `set_mempolicy(2)` /
/// `numactl` modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemPolicy {
    /// The Linux 2.6 default: allocate on the requesting task's node if
    /// space is available, otherwise fall back to the nearest node with
    /// free memory. ("the default memory policy in Linux kernel 2.6 is
    /// *local preferred*").
    LocalPreferred,
    /// `numactl --membind`: allocate **only** on the given node; fail when
    /// it is full. This is what the paper uses to pin STREAM arrays and
    /// fio buffers.
    Bind(NodeId),
    /// `numactl --preferred`: try the given node first, then fall back
    /// anywhere.
    Preferred(NodeId),
    /// `numactl --interleave`: round-robin pages across the node set.
    Interleave(Vec<NodeId>),
}

impl MemPolicy {
    /// Bind to a node (convenience).
    pub fn bind(n: u16) -> Self {
        MemPolicy::Bind(NodeId(n))
    }

    /// Interleave over all nodes `0..n`.
    pub fn interleave_all(n: usize) -> Self {
        MemPolicy::Interleave((0..n).map(NodeId::new).collect())
    }
}

/// The `numactl` flag spelling: `default(local)`, `--membind=N`,
/// `--preferred=N` or `--interleave=A,B,...`.
impl std::fmt::Display for MemPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemPolicy::LocalPreferred => f.write_str("default(local)"),
            MemPolicy::Bind(n) => write!(f, "--membind={n}"),
            MemPolicy::Preferred(n) => write!(f, "--preferred={n}"),
            MemPolicy::Interleave(ns) => {
                f.write_str("--interleave=")?;
                for (i, n) in ns.iter().enumerate() {
                    let sep = if i == 0 { "" } else { "," };
                    write!(f, "{sep}{n}")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_numactl() {
        assert_eq!(MemPolicy::LocalPreferred.to_string(), "default(local)");
        assert_eq!(MemPolicy::bind(7).to_string(), "--membind=7");
        assert_eq!(MemPolicy::Preferred(NodeId(3)).to_string(), "--preferred=3");
        assert_eq!(
            MemPolicy::interleave_all(3).to_string(),
            "--interleave=0,1,2"
        );
    }

    #[test]
    fn interleave_all_covers_every_node() {
        if let MemPolicy::Interleave(ns) = MemPolicy::interleave_all(8) {
            assert_eq!(ns.len(), 8);
            assert_eq!(ns[7], NodeId(7));
        } else {
            panic!("wrong variant");
        }
    }
}
