//! Error type for topology construction and validation.

use crate::ids::{DeviceId, LinkId, NodeId};
use std::fmt;

/// Everything that can go wrong while building or validating a [`crate::Topology`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The topology has no nodes at all.
    Empty,
    /// A link references a node id outside `0..num_nodes`.
    LinkEndpointOutOfRange {
        /// The offending link.
        link: LinkId,
        /// The nonexistent endpoint.
        node: NodeId,
    },
    /// A link connects a node to itself.
    SelfLink {
        /// The offending link.
        link: LinkId,
        /// The node linked to itself.
        node: NodeId,
    },
    /// Two links connect the same unordered node pair.
    DuplicateLink {
        /// Lower endpoint.
        a: NodeId,
        /// Higher endpoint.
        b: NodeId,
    },
    /// A device is attached to a node id outside `0..num_nodes`.
    DeviceNodeOutOfRange {
        /// The offending device.
        device: DeviceId,
        /// The nonexistent node.
        node: NodeId,
    },
    /// The coherent fabric is not connected: `unreachable` cannot be reached
    /// from node 0.
    Disconnected {
        /// A node BFS could not reach.
        unreachable: NodeId,
    },
    /// A node is assigned to a package id that does not exist.
    PackageOutOfRange {
        /// The offending node.
        node: NodeId,
    },
    /// A node exceeds the HT port budget (Magny-Cours G34: at most 4 ports,
    /// one of which may be consumed by an I/O hub).
    PortBudgetExceeded {
        /// The over-budget node.
        node: NodeId,
        /// Ports in use (links + I/O hub).
        used: usize,
        /// The allowed budget.
        budget: usize,
    },
    /// A [`crate::hostgen::HostSpec`] is internally inconsistent (zero
    /// sockets, a wiring family incompatible with the socket count, a
    /// device or OS-home node outside the generated id range, ...).
    InvalidSpec {
        /// Why the spec was rejected.
        reason: String,
    },
    /// A routing override references a node pair outside the topology or a
    /// path that is not a connected walk over existing links.
    InvalidRoute {
        /// Route source.
        src: NodeId,
        /// Route destination.
        dst: NodeId,
        /// Why the path was rejected.
        reason: String,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::Empty => write!(f, "topology has no nodes"),
            TopologyError::LinkEndpointOutOfRange { link, node } => {
                write!(f, "link {link:?} references nonexistent node {node:?}")
            }
            TopologyError::SelfLink { link, node } => {
                write!(f, "link {link:?} connects node {node:?} to itself")
            }
            TopologyError::DuplicateLink { a, b } => {
                write!(f, "duplicate link between {a:?} and {b:?}")
            }
            TopologyError::DeviceNodeOutOfRange { device, node } => {
                write!(f, "device {device:?} attached to nonexistent node {node:?}")
            }
            TopologyError::Disconnected { unreachable } => {
                write!(
                    f,
                    "coherent fabric is disconnected: {unreachable:?} unreachable"
                )
            }
            TopologyError::PackageOutOfRange { node } => {
                write!(f, "node {node:?} assigned to nonexistent package")
            }
            TopologyError::PortBudgetExceeded { node, used, budget } => write!(
                f,
                "node {node:?} uses {used} HT ports but the budget is {budget}"
            ),
            TopologyError::InvalidSpec { reason } => {
                write!(f, "invalid host spec: {reason}")
            }
            TopologyError::InvalidRoute { src, dst, reason } => {
                write!(f, "invalid route {src:?} -> {dst:?}: {reason}")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_ids() {
        let e = TopologyError::Disconnected {
            unreachable: NodeId(5),
        };
        assert!(e.to_string().contains("N5"));
        let e = TopologyError::PortBudgetExceeded {
            node: NodeId(7),
            used: 5,
            budget: 4,
        };
        assert!(e.to_string().contains("5"));
        assert!(e.to_string().contains("budget is 4"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&TopologyError::Empty);
    }
}
