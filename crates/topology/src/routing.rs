//! Static routing over the coherent fabric.
//!
//! HyperTransport routing is table-driven and set by platform firmware; it
//! is *not* required to be shortest-path or symmetric, and on real
//! Magny-Cours systems it frequently is neither — one of the reasons the
//! paper finds hop distance useless as a cost metric. [`RouteTable`]
//! therefore starts from a deterministic BFS default (shortest hop count,
//! lowest-id tie-break) and lets presets install explicit **firmware
//! overrides** for specific ordered pairs.
//!
//! Every host the pipeline builds carries one table of `n²` routes, so
//! the layout is flat: all paths sit back to back in one `Vec<NodeId>`
//! arena, with one `(start, len)` span per ordered pair. A table is two
//! allocations whatever its size, and [`RouteTable::route`] hands out a
//! [`Route`], a `Copy` view borrowing a slice of that arena.

use crate::error::TopologyError;
use crate::ids::NodeId;
use crate::topology::Topology;
use std::collections::HashMap;

/// One direction of a link: traffic flowing `from -> to`. The fabric layer
/// attaches per-direction capacities to these (request/response buffer
/// asymmetry, §IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DirectedEdge {
    /// Transmitting node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
}

impl DirectedEdge {
    /// Construct a directed edge.
    pub fn new(from: NodeId, to: NodeId) -> Self {
        DirectedEdge { from, to }
    }

    /// The opposite direction.
    pub fn reversed(self) -> Self {
        DirectedEdge {
            from: self.to,
            to: self.from,
        }
    }
}

/// A concrete path through the fabric: the visited nodes, in order,
/// including both endpoints. A route from a node to itself is the
/// single-element path.
///
/// A `Route` is a borrowed, `Copy` view into its [`RouteTable`]'s arena;
/// only [`RouteTable::route`] hands one out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route<'a> {
    nodes: &'a [NodeId],
}

impl<'a> Route<'a> {
    /// Source node.
    pub fn src(self) -> NodeId {
        self.nodes[0]
    }

    /// Destination node.
    pub fn dst(self) -> NodeId {
        self.nodes[self.nodes.len() - 1]
    }

    /// Visited nodes including endpoints.
    pub fn nodes(self) -> &'a [NodeId] {
        self.nodes
    }

    /// Number of links traversed (0 for a local route).
    pub fn hops(self) -> usize {
        self.nodes.len() - 1
    }

    /// Directed edges traversed, in order.
    pub fn edges(self) -> impl Iterator<Item = DirectedEdge> + 'a {
        self.nodes.windows(2).map(|w| DirectedEdge::new(w[0], w[1]))
    }

    /// Is this a trivial (same-node) route?
    pub fn is_local(self) -> bool {
        self.nodes.len() == 1
    }
}

/// Per-ordered-pair routing: BFS defaults plus firmware overrides.
///
/// Every path lives in one arena, back to back, and each ordered pair
/// owns one `(start, len)` span into it, so a table of `n` nodes is two
/// allocations however many routes it holds. Equality compares routes,
/// not the arena layout: two tables with the same paths are equal
/// whatever their override history.
#[derive(Debug, Clone)]
pub struct RouteTable {
    n: usize,
    /// Every path, back to back.
    arena: Vec<NodeId>,
    /// `spans[src * n + dst]` = `(start, len)` of that pair's path in `arena`.
    spans: Vec<(u32, u32)>,
}

impl RouteTable {
    /// Build the default table: BFS shortest paths with deterministic
    /// lowest-next-hop tie-breaking, computed per source.
    ///
    /// One BFS per source, over a (parent, depth) table and a queue
    /// shared by all sources; each path is written straight into the
    /// arena, destination first, by walking the parents back to the
    /// source. The arena starts with room for three nodes a path, which
    /// holds every table whose mean route is at most two hops.
    pub fn bfs(topo: &Topology) -> Self {
        let n = topo.num_nodes();
        let mut arena = Vec::with_capacity(3 * n * n);
        let mut spans = Vec::with_capacity(n * n);
        let mut tree = vec![(NodeId(0), u32::MAX); n];
        let mut queue = Vec::with_capacity(n);
        for src in topo.node_ids() {
            tree.fill((src, u32::MAX));
            tree[src.index()].1 = 0;
            queue.clear();
            queue.push(src);
            let mut head = 0;
            while let Some(&cur) = queue.get(head) {
                head += 1;
                // neighbours() is sorted by peer id => deterministic tie-break.
                for &(peer, _) in topo.neighbours(cur) {
                    if tree[peer.index()].1 == u32::MAX {
                        tree[peer.index()] = (cur, tree[cur.index()].1 + 1);
                        queue.push(peer);
                    }
                }
            }
            // All of this source's paths in one resize: path `dst` has
            // its depth plus one nodes, the first of them `src`.
            assert!(
                tree.iter().all(|&(_, depth)| depth != u32::MAX),
                "validated topology is connected"
            );
            let mut start = arena.len();
            let total: usize = tree.iter().map(|&(_, depth)| depth as usize + 1).sum();
            arena.resize(start + total, src);
            for dst in topo.node_ids() {
                let len = tree[dst.index()].1 as usize + 1;
                let mut cur = dst;
                for slot in arena[start + 1..start + len].iter_mut().rev() {
                    *slot = cur;
                    cur = tree[cur.index()].0;
                }
                spans.push(span(start, len));
                start += len;
            }
        }
        RouteTable { n, arena, spans }
    }

    /// Build a table with explicit overrides applied on top of BFS.
    ///
    /// Each override is an ordered node path `src .. dst`. Overrides are
    /// validated: every consecutive pair must be linked in `topo`, and the
    /// path must be simple (no repeated nodes).
    pub fn with_overrides(
        topo: &Topology,
        overrides: &[Vec<NodeId>],
    ) -> Result<Self, TopologyError> {
        let mut table = Self::bfs(topo);
        for path in overrides {
            table.set_route(topo, path)?;
        }
        Ok(table)
    }

    /// Install one override route. A path no longer than the one it
    /// replaces is written in place; a longer one is appended to the arena.
    pub fn set_route(&mut self, topo: &Topology, path: &[NodeId]) -> Result<(), TopologyError> {
        let invalid = |src: NodeId, dst: NodeId, reason: &str| TopologyError::InvalidRoute {
            src,
            dst,
            reason: reason.to_string(),
        };
        let (Some(&src), Some(&dst)) = (path.first(), path.last()) else {
            return Err(invalid(NodeId(0), NodeId(0), "empty path"));
        };
        for &node in path {
            if node.index() >= self.n {
                return Err(invalid(src, dst, "node out of range"));
            }
        }
        let mut seen = vec![false; self.n];
        for &node in path {
            if seen[node.index()] {
                return Err(invalid(src, dst, "path revisits a node"));
            }
            seen[node.index()] = true;
        }
        for w in path.windows(2) {
            if topo.link_between(w[0], w[1]).is_none() {
                return Err(invalid(src, dst, "consecutive nodes are not linked"));
            }
        }
        let slot = &mut self.spans[src.index() * self.n + dst.index()];
        let start = if path.len() <= slot.1 as usize {
            let start = slot.0 as usize;
            self.arena[start..start + path.len()].copy_from_slice(path);
            start
        } else {
            let start = self.arena.len();
            self.arena.extend_from_slice(path);
            start
        };
        *slot = span(start, path.len());
        Ok(())
    }

    /// The route for an ordered pair.
    ///
    /// # Panics
    /// If either endpoint is not a node of the table; callers validate
    /// user-supplied nodes first.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Route<'_> {
        assert!(
            src.index() < self.n && dst.index() < self.n,
            "route {src:?} -> {dst:?} is outside the {}-node table",
            self.n
        );
        self.pair(src.index() * self.n + dst.index())
    }

    /// Number of nodes covered.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// True if any ordered pair routes differently in the two directions
    /// (i.e. `route(a,b)` reversed is not `route(b,a)`), which defeats any
    /// symmetric distance metric.
    pub fn is_asymmetric(&self) -> bool {
        (0..self.n).any(|s| {
            (s + 1..self.n).any(|d| {
                let fwd = self.pair(s * self.n + d).nodes();
                let rev = self.pair(d * self.n + s).nodes();
                !fwd.iter().eq(rev.iter().rev())
            })
        })
    }

    /// Count how many ordered pairs route through directed edge `e`.
    /// Useful for spotting hot links in a topology.
    pub fn edge_load(&self) -> HashMap<DirectedEdge, usize> {
        let mut load = HashMap::new();
        for i in 0..self.spans.len() {
            for e in self.pair(i).edges() {
                *load.entry(e).or_insert(0) += 1;
            }
        }
        load
    }

    /// The route of the pair at flat index `i` (`src * n + dst`).
    fn pair(&self, i: usize) -> Route<'_> {
        let (start, len) = self.spans[i];
        let start = start as usize;
        Route {
            nodes: &self.arena[start..start + len as usize],
        }
    }
}

impl PartialEq for RouteTable {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && (0..self.spans.len()).all(|i| self.pair(i) == other.pair(i))
    }
}

/// The `(start, len)` span of a path in the arena.
fn span(start: usize, len: usize) -> (u32, u32) {
    let narrow = |v: usize| u32::try_from(v).expect("route arena fits u32 offsets");
    (narrow(start), narrow(len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::PackageId;
    use crate::link::HtWidth;
    use crate::node::NodeSpec;

    fn ring4() -> Topology {
        let mut b = Topology::builder("ring4");
        let ids: Vec<NodeId> = (0..4)
            .map(|i| b.node(NodeSpec::magny_cours(PackageId(i / 2))))
            .collect();
        b.link(ids[0], ids[1], HtWidth::W16);
        b.link(ids[1], ids[2], HtWidth::W8);
        b.link(ids[2], ids[3], HtWidth::W16);
        b.link(ids[3], ids[0], HtWidth::W8);
        b.build().unwrap()
    }

    #[test]
    fn bfs_routes_shortest() {
        let t = ring4();
        let rt = RouteTable::bfs(&t);
        assert_eq!(rt.route(NodeId(0), NodeId(1)).hops(), 1);
        assert_eq!(rt.route(NodeId(0), NodeId(2)).hops(), 2);
        assert_eq!(rt.route(NodeId(0), NodeId(0)).hops(), 0);
        assert!(rt.route(NodeId(0), NodeId(0)).is_local());
    }

    #[test]
    fn bfs_tie_break_prefers_low_ids() {
        let t = ring4();
        let rt = RouteTable::bfs(&t);
        // 0->2 could go 0-1-2 or 0-3-2; BFS visits peer 1 first.
        assert_eq!(
            rt.route(NodeId(0), NodeId(2)).nodes(),
            &[NodeId(0), NodeId(1), NodeId(2)]
        );
    }

    #[test]
    fn route_edges_enumerate_directions() {
        let t = ring4();
        let rt = RouteTable::bfs(&t);
        let edges: Vec<DirectedEdge> = rt.route(NodeId(0), NodeId(2)).edges().collect();
        assert_eq!(
            edges,
            vec![
                DirectedEdge::new(NodeId(0), NodeId(1)),
                DirectedEdge::new(NodeId(1), NodeId(2))
            ]
        );
    }

    #[test]
    fn override_replaces_route_and_creates_asymmetry() {
        let t = ring4();
        let mut rt = RouteTable::bfs(&t);
        assert!(!rt.is_asymmetric());
        rt.set_route(&t, &[NodeId(0), NodeId(3), NodeId(2)])
            .unwrap();
        assert_eq!(
            rt.route(NodeId(0), NodeId(2)).nodes(),
            &[NodeId(0), NodeId(3), NodeId(2)]
        );
        // reverse direction still goes 2-1-0 => asymmetric table.
        assert!(rt.is_asymmetric());
    }

    #[test]
    fn override_must_follow_links() {
        let t = ring4();
        let mut rt = RouteTable::bfs(&t);
        let err = rt.set_route(&t, &[NodeId(0), NodeId(2)]).unwrap_err();
        assert!(matches!(err, TopologyError::InvalidRoute { .. }));
    }

    #[test]
    fn override_must_be_simple() {
        let t = ring4();
        let mut rt = RouteTable::bfs(&t);
        let err = rt
            .set_route(&t, &[NodeId(0), NodeId(1), NodeId(0)])
            .unwrap_err();
        assert!(matches!(err, TopologyError::InvalidRoute { .. }));
    }

    #[test]
    fn override_rejects_out_of_range() {
        let t = ring4();
        let mut rt = RouteTable::bfs(&t);
        assert!(rt.set_route(&t, &[NodeId(0), NodeId(9)]).is_err());
        assert!(rt.set_route(&t, &[]).is_err());
    }

    #[test]
    fn edge_load_counts_paths() {
        let t = ring4();
        let rt = RouteTable::bfs(&t);
        let load = rt.edge_load();
        // Edge 0->1 is used by 0->1 and 0->2 at least.
        assert!(load[&DirectedEdge::new(NodeId(0), NodeId(1))] >= 2);
        // Reversed key is distinct.
        let fwd = DirectedEdge::new(NodeId(0), NodeId(1));
        assert_eq!(fwd.reversed(), DirectedEdge::new(NodeId(1), NodeId(0)));
    }

    #[test]
    fn with_overrides_batch() {
        let t = ring4();
        let rt = RouteTable::with_overrides(
            &t,
            &[
                vec![NodeId(0), NodeId(3), NodeId(2)],
                vec![NodeId(1), NodeId(0), NodeId(3)],
            ],
        )
        .unwrap();
        assert_eq!(rt.route(NodeId(1), NodeId(3)).hops(), 2);
        assert_eq!(
            rt.route(NodeId(1), NodeId(3)).nodes(),
            &[NodeId(1), NodeId(0), NodeId(3)]
        );
    }

    #[test]
    #[should_panic(expected = "route N0 -> N9 is outside the 4-node table")]
    fn route_rejects_an_out_of_range_endpoint() {
        let _ = RouteTable::bfs(&ring4()).route(NodeId(0), NodeId(9));
    }

    #[test]
    fn override_is_written_in_place_or_appended() {
        let t = ring4();
        let mut rt = RouteTable::bfs(&t);
        let arena_len = rt.arena.len();
        // 0->2 is two hops either way round the ring: fits in place.
        rt.set_route(&t, &[NodeId(0), NodeId(3), NodeId(2)])
            .unwrap();
        assert_eq!(rt.arena.len(), arena_len);
        // 0->1 direct is one hop; the three-hop detour is appended.
        rt.set_route(&t, &[NodeId(0), NodeId(3), NodeId(2), NodeId(1)])
            .unwrap();
        assert_eq!(rt.arena.len(), arena_len + 4);
        assert_eq!(
            rt.route(NodeId(0), NodeId(1)).nodes(),
            &[NodeId(0), NodeId(3), NodeId(2), NodeId(1)]
        );
        // Shrinking back reuses the appended span; no other pair moved.
        rt.set_route(&t, &[NodeId(0), NodeId(1)]).unwrap();
        assert_eq!(rt.arena.len(), arena_len + 4);
        assert_eq!(
            rt.route(NodeId(0), NodeId(1)).nodes(),
            &[NodeId(0), NodeId(1)]
        );
        assert_eq!(
            rt.route(NodeId(0), NodeId(2)).nodes(),
            &[NodeId(0), NodeId(3), NodeId(2)]
        );
        assert_eq!(
            rt.route(NodeId(2), NodeId(0)).nodes(),
            &[NodeId(2), NodeId(1), NodeId(0)]
        );
    }

    #[test]
    fn equality_compares_routes_not_override_history() {
        let t = ring4();
        let bfs = RouteTable::bfs(&t);
        let mut detoured = bfs.clone();
        detoured
            .set_route(&t, &[NodeId(0), NodeId(3), NodeId(2), NodeId(1)])
            .unwrap();
        assert_ne!(detoured, bfs);
        detoured.set_route(&t, &[NodeId(0), NodeId(1)]).unwrap();
        assert_ne!(detoured.arena, bfs.arena);
        assert_eq!(detoured, bfs);
    }
}
