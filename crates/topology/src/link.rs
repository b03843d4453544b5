//! Interconnect links between NUMA nodes.

use crate::ids::NodeId;

numa_par::json_enum! {
    /// Electrical width of a HyperTransport-style link.
    ///
    /// The Magny-Cours platform mixes full 16-bit links (typically within a
    /// package) and half-width 8-bit links (typically between packages) — one of
    /// the concrete hardware asymmetries the paper cites when explaining why
    /// hop distance misranks bandwidth (§IV-A, [20], [26]).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum HtWidth {
        /// Half-width (8-bit) link.
        W8,
        /// Full-width (16-bit) link.
        W16,
    }
}

impl HtWidth {
    /// Width in bits, as configured in the link control registers.
    #[inline]
    pub fn bits(self) -> u32 {
        match self {
            HtWidth::W8 => 8,
            HtWidth::W16 => 16,
        }
    }

    /// Nominal raw unidirectional bandwidth of an HT 3.0 link of this width
    /// at 6.4 GT/s, in Gbit/s. This is the *ceiling* the fabric calibration
    /// must stay below; effective capacities are set in `numa-fabric`.
    #[inline]
    pub fn nominal_gbps(self) -> f64 {
        // HT 3.0 at 3.2 GHz DDR: 6.4 GT/s per bit lane.
        6.4 * self.bits() as f64
    }
}

numa_par::json_enum! {
    /// What a link is used for.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum LinkKind {
        /// Coherent HT between two CPU dies (carries probes + data).
        Coherent,
        /// Non-coherent HT from a die to an I/O hub (carries DMA/PIO to PCIe).
        IoHub,
    }
}

numa_par::json_struct! {
    /// An undirected interconnect link between two NUMA nodes.
    ///
    /// Links are stored with `a < b` normalized endpoints; direction-specific
    /// properties (capacities, buffer credits) live in the fabric layer keyed by
    /// [`crate::routing::DirectedEdge`].
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Link {
        /// Lower-numbered endpoint.
        pub a: NodeId,
        /// Higher-numbered endpoint.
        pub b: NodeId,
        /// Electrical width.
        pub width: HtWidth,
        /// Coherent CPU-CPU link or non-coherent I/O-hub attachment.
        pub kind: LinkKind,
    }
}

impl Link {
    /// Create a coherent link, normalizing endpoint order.
    pub fn coherent(x: NodeId, y: NodeId, width: HtWidth) -> Self {
        let (a, b) = if x <= y { (x, y) } else { (y, x) };
        Link {
            a,
            b,
            width,
            kind: LinkKind::Coherent,
        }
    }

    /// Does this link touch `n`?
    #[inline]
    pub fn touches(&self, n: NodeId) -> bool {
        self.a == n || self.b == n
    }

    /// The endpoint that is not `n`. Panics if the link does not touch `n`.
    #[inline]
    pub fn other(&self, n: NodeId) -> NodeId {
        if self.a == n {
            self.b
        } else if self.b == n {
            self.a
        } else {
            panic!("link {:?}-{:?} does not touch {:?}", self.a, self.b, n)
        }
    }

    /// Unordered endpoint pair, normalized `(min, max)`.
    #[inline]
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        (self.a, self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coherent_normalizes_order() {
        let l = Link::coherent(NodeId(7), NodeId(3), HtWidth::W8);
        assert_eq!(l.endpoints(), (NodeId(3), NodeId(7)));
    }

    #[test]
    fn other_returns_opposite_endpoint() {
        let l = Link::coherent(NodeId(2), NodeId(6), HtWidth::W8);
        assert_eq!(l.other(NodeId(2)), NodeId(6));
        assert_eq!(l.other(NodeId(6)), NodeId(2));
        assert!(l.touches(NodeId(2)));
        assert!(!l.touches(NodeId(5)));
    }

    #[test]
    #[should_panic(expected = "does not touch")]
    fn other_panics_for_foreign_node() {
        let l = Link::coherent(NodeId(0), NodeId(1), HtWidth::W16);
        let _ = l.other(NodeId(4));
    }

    #[test]
    fn nominal_bandwidth_scales_with_width() {
        assert_eq!(HtWidth::W8.nominal_gbps(), 51.2);
        assert_eq!(HtWidth::W16.nominal_gbps(), 102.4);
        assert_eq!(HtWidth::W8.bits() * 2, HtWidth::W16.bits());
    }
}
