//! The validated machine description and its builder.

use crate::device::DeviceSpec;
use crate::error::TopologyError;
use crate::ids::{DeviceId, LinkId, NodeId, PackageId};
use crate::link::{HtWidth, Link, LinkKind};
use crate::node::NodeSpec;

/// The paper's three-way locality classification (§II-A): *local* resources
/// sit on the same die, *neighbour* resources on the other die of the same
/// package, and everything else is *remote* at some hop distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Locality {
    /// Same NUMA node.
    Local,
    /// Different die, same physical package.
    Neighbour,
    /// Different package, `hops` coherent links away.
    Remote(u32),
}

impl Locality {
    /// Hop count implied by the classification (0 for local; neighbour
    /// counts as one on-package hop).
    pub fn hops(self) -> u32 {
        match self {
            Locality::Local => 0,
            Locality::Neighbour => 1,
            Locality::Remote(h) => h,
        }
    }
}

numa_par::json_struct! {
    /// A validated, immutable NUMA host description.
    ///
    /// Invariants enforced at build time:
    /// * at least one node; all ids dense;
    /// * links reference existing, distinct nodes, no duplicates;
    /// * the coherent fabric is connected;
    /// * per-node HT port budgets hold (when a budget is configured);
    /// * devices attach to existing nodes that expose an I/O hub.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Topology {
        name: String,
        nodes: Vec<NodeSpec>,
        num_packages: usize,
        links: Vec<Link>,
        devices: Vec<DeviceSpec>,
        /// Per node, its (peer, link id) pairs sorted by peer.
        adjacency: Adjacency,
    }
}

/// Coherent-fabric adjacency in compressed rows: node `n`'s (peer, link
/// id) pairs, sorted by peer, are `pairs[start[n]..start[n + 1]]`. Two
/// allocations whatever the host's size. Its JSON and `Debug` text are
/// the list of rows, as one `Vec` per node printed.
#[derive(Clone, PartialEq)]
struct Adjacency {
    start: Vec<u32>,
    pairs: Vec<(NodeId, LinkId)>,
}

impl Adjacency {
    fn row(&self, n: usize) -> &[(NodeId, LinkId)] {
        &self.pairs[self.start[n] as usize..self.start[n + 1] as usize]
    }

    fn rows(&self) -> impl Iterator<Item = &[(NodeId, LinkId)]> {
        (0..self.start.len() - 1).map(|n| self.row(n))
    }
}

impl std::fmt::Debug for Adjacency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.rows()).finish()
    }
}

impl numa_par::json::ToJson for Adjacency {
    fn write_json(&self, w: &mut numa_par::json::Writer<'_>) {
        self.rows().collect::<Vec<_>>().write_json(w);
    }
}

impl numa_par::json::FromJson for Adjacency {
    fn from_json(v: &numa_par::json::Value) -> Result<Self, numa_par::json::Error> {
        let rows = Vec::<Vec<(NodeId, LinkId)>>::from_json(v)?;
        let mut start = Vec::with_capacity(rows.len() + 1);
        start.push(0);
        for row in &rows {
            start.push(start[start.len() - 1] + row.len() as u32);
        }
        Ok(Adjacency {
            start,
            pairs: rows.concat(),
        })
    }
}

impl Topology {
    /// Start building a topology.
    pub fn builder(name: impl Into<String>) -> TopologyBuilder {
        TopologyBuilder::new(name)
    }

    /// Human-readable name of the machine (e.g. `"fig1a"`, `"dl585-g7"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of NUMA nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of physical packages.
    pub fn num_packages(&self) -> usize {
        self.num_packages
    }

    /// Iterator over all node ids in order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::new)
    }

    /// Spec of one node. Panics on out-of-range id (ids come from this
    /// topology, so that is a logic error).
    pub fn node(&self, n: NodeId) -> &NodeSpec {
        &self.nodes[n.index()]
    }

    /// All undirected links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Link by id.
    pub fn link(&self, l: LinkId) -> &Link {
        &self.links[l.index()]
    }

    /// All devices.
    pub fn devices(&self) -> &[DeviceSpec] {
        &self.devices
    }

    /// Device by id.
    pub fn device(&self, d: DeviceId) -> &DeviceSpec {
        &self.devices[d.index()]
    }

    /// Devices attached to a given node.
    pub fn devices_at(&self, n: NodeId) -> impl Iterator<Item = (DeviceId, &DeviceSpec)> {
        self.devices
            .iter()
            .enumerate()
            .filter(move |(_, d)| d.attached_to == n)
            .map(|(i, d)| (DeviceId::new(i), d))
    }

    /// Neighbours of `n` in the coherent fabric, ordered by peer id.
    pub fn neighbours(&self, n: NodeId) -> &[(NodeId, LinkId)] {
        self.adjacency.row(n.index())
    }

    /// The link between `a` and `b`, if one exists.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.neighbours(a)
            .iter()
            .find(|(peer, _)| *peer == b)
            .map(|(_, l)| *l)
    }

    /// Total cores in the host.
    pub fn total_cores(&self) -> u32 {
        self.nodes.iter().map(|n| n.cores).sum()
    }

    /// Total installed DRAM in MiB.
    pub fn total_dram_mib(&self) -> u64 {
        self.nodes.iter().map(|n| n.dram_mib).sum()
    }

    /// Locality of `b` as seen from `a` (paper §II-A).
    pub fn locality(&self, a: NodeId, b: NodeId) -> Locality {
        self.locality_with(a, b, || self.hop_distance(a, b))
    }

    /// [`Self::locality`] with the hop distance from `a` to `b` supplied
    /// by `hops`, which runs only for a remote pair: a caller classifying
    /// a whole row takes the distances from one
    /// [`Self::hop_distances_into`].
    pub fn locality_with(&self, a: NodeId, b: NodeId, hops: impl FnOnce() -> u32) -> Locality {
        if a == b {
            return Locality::Local;
        }
        if self.nodes[a.index()].package == self.nodes[b.index()].package {
            return Locality::Neighbour;
        }
        Locality::Remote(hops())
    }

    /// Minimum number of coherent links between two nodes (BFS).
    pub fn hop_distance(&self, a: NodeId, b: NodeId) -> u32 {
        if a == b {
            return 0;
        }
        let mut dist = vec![u32::MAX; self.nodes.len()];
        self.hop_distances_into(a, &mut dist);
        assert!(
            dist[b.index()] != u32::MAX,
            "validated topology is connected"
        );
        dist[b.index()]
    }

    /// Fill `dist[n]` with the hop distance from `a` to every node `n`
    /// (`u32::MAX` for a node `a` cannot reach): one BFS for callers that
    /// need a whole row. It runs level by level over `dist` itself, so it
    /// needs no queue and allocates nothing.
    pub fn hop_distances_into(&self, a: NodeId, dist: &mut [u32]) {
        assert_eq!(dist.len(), self.nodes.len(), "one distance per node");
        dist.fill(u32::MAX);
        dist[a.index()] = 0;
        // Level by level: every node at distance `d` relaxes its peers
        // to `d + 1`; a validated topology is connected, so `n - 1`
        // levels reach every node.
        for d in 0..self.nodes.len() as u32 {
            let mut grew = false;
            for cur in 0..dist.len() {
                if dist[cur] != d {
                    continue;
                }
                for &(peer, _) in self.adjacency.row(cur) {
                    if dist[peer.index()] == u32::MAX {
                        dist[peer.index()] = d + 1;
                        grew = true;
                    }
                }
            }
            if !grew {
                break;
            }
        }
    }

    /// All nodes of a package, ordered.
    pub fn package_nodes(&self, p: PackageId) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&n| self.nodes[n.index()].package == p)
            .collect()
    }

    /// The other die(s) in `n`'s package (its "neighbour" nodes).
    pub fn neighbour_nodes(&self, n: NodeId) -> Vec<NodeId> {
        let p = self.nodes[n.index()].package;
        self.package_nodes(p)
            .into_iter()
            .filter(|&m| m != n)
            .collect()
    }

    /// Nodes that host an I/O hub.
    pub fn io_hub_nodes(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&n| self.nodes[n.index()].has_io_hub)
            .collect()
    }

    /// The OS home node (kernel buffers, shared libraries), if marked.
    pub fn os_home_node(&self) -> Option<NodeId> {
        self.node_ids().find(|&n| self.nodes[n.index()].os_home)
    }
}

/// Builder for [`Topology`] with validation on [`TopologyBuilder::build`].
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    name: String,
    nodes: Vec<NodeSpec>,
    num_packages: usize,
    links: Vec<Link>,
    devices: Vec<DeviceSpec>,
    ht_port_budget: Option<usize>,
}

impl TopologyBuilder {
    /// New empty builder.
    pub fn new(name: impl Into<String>) -> Self {
        Self::with_capacity(name.into(), 0, 0, 0)
    }

    /// New empty builder with room for `nodes`, `links` and `devices`.
    pub(crate) fn with_capacity(name: String, nodes: usize, links: usize, devices: usize) -> Self {
        TopologyBuilder {
            name,
            nodes: Vec::with_capacity(nodes),
            num_packages: 0,
            links: Vec::with_capacity(links),
            devices: Vec::with_capacity(devices),
            ht_port_budget: None,
        }
    }

    /// Append a node; returns its id. Package ids are tracked automatically.
    pub fn node(&mut self, spec: NodeSpec) -> NodeId {
        self.num_packages = self.num_packages.max(spec.package.index() + 1);
        self.nodes.push(spec);
        NodeId::new(self.nodes.len() - 1)
    }

    /// Append `count` Magny-Cours dies, two per package starting at the
    /// current package count. Returns the ids added.
    pub fn magny_cours_dies(&mut self, count: usize) -> Vec<NodeId> {
        let base_pkg = self.num_packages;
        (0..count)
            .map(|i| {
                let pkg = PackageId::new(base_pkg + i / 2);
                self.node(NodeSpec::magny_cours(pkg))
            })
            .collect()
    }

    /// Add a coherent link.
    pub fn link(&mut self, a: NodeId, b: NodeId, width: HtWidth) -> LinkId {
        self.links.push(Link::coherent(a, b, width));
        LinkId::new(self.links.len() - 1)
    }

    /// Add several coherent links at once: `(a, b, width)`.
    pub fn links(&mut self, specs: &[(u16, u16, HtWidth)]) -> &mut Self {
        for &(a, b, w) in specs {
            self.link(NodeId(a), NodeId(b), w);
        }
        self
    }

    /// Attach a device; marks the node as hosting an I/O hub.
    pub fn device(&mut self, spec: DeviceSpec) -> DeviceId {
        if let Some(node) = self.nodes.get_mut(spec.attached_to.index()) {
            node.has_io_hub = true;
        }
        self.devices.push(spec);
        DeviceId::new(self.devices.len() - 1)
    }

    /// Enforce a per-node HT port budget at build time (G34 allows 4; an
    /// I/O hub consumes one of them).
    pub fn ht_port_budget(&mut self, budget: usize) -> &mut Self {
        self.ht_port_budget = Some(budget);
        self
    }

    /// Validate and freeze.
    pub fn build(self) -> Result<Topology, TopologyError> {
        if self.nodes.is_empty() {
            return Err(TopologyError::Empty);
        }
        let n = self.nodes.len();

        for (i, node) in self.nodes.iter().enumerate() {
            if node.package.index() >= self.num_packages {
                return Err(TopologyError::PackageOutOfRange {
                    node: NodeId::new(i),
                });
            }
        }

        // Adjacency in compressed rows: count each node's links, then
        // place each link in both endpoints' rows. The first pass stops at
        // the first link with a bad endpoint; the second places the links
        // before it, checking for duplicates in link order, so the error
        // reported is the first in link order, as a per-link check finds.
        let mut start = vec![0u32; n + 1];
        let mut bad = None;
        for (i, link) in self.links.iter().enumerate() {
            let lid = LinkId::new(i);
            if let Some(&node) = [link.a, link.b].iter().find(|v| v.index() >= n) {
                bad = Some(TopologyError::LinkEndpointOutOfRange { link: lid, node });
            } else if link.a == link.b {
                bad = Some(TopologyError::SelfLink {
                    link: lid,
                    node: link.a,
                });
            }
            if bad.is_some() {
                break;
            }
            start[link.a.index() + 1] += 1;
            start[link.b.index() + 1] += 1;
        }
        for v in 0..n {
            start[v + 1] += start[v];
        }
        let placed = start[n] as usize / 2;
        // `fill[v]` is where node v's next pair goes; it ends at the start
        // of v + 1's row.
        let mut fill = start.clone();
        let mut pairs = vec![(NodeId(0), LinkId(0)); 2 * placed];
        for (i, link) in self.links[..placed].iter().enumerate() {
            let row_a = start[link.a.index()] as usize..fill[link.a.index()] as usize;
            if pairs[row_a].iter().any(|(p, _)| *p == link.b) {
                return Err(TopologyError::DuplicateLink {
                    a: link.a,
                    b: link.b,
                });
            }
            for (v, peer) in [(link.a, link.b), (link.b, link.a)] {
                pairs[fill[v.index()] as usize] = (peer, LinkId::new(i));
                fill[v.index()] += 1;
            }
        }
        if let Some(e) = bad {
            return Err(e);
        }
        let mut adjacency = Adjacency { start, pairs };
        for v in 0..n {
            let row = adjacency.start[v] as usize..adjacency.start[v + 1] as usize;
            // Peers are distinct, so an unstable sort orders rows as a
            // stable one would, without a buffer.
            adjacency.pairs[row].sort_unstable_by_key(|(peer, _)| *peer);
        }

        if let Some(budget) = self.ht_port_budget {
            for (i, node) in self.nodes.iter().enumerate() {
                let used = adjacency.row(i).len() + usize::from(node.has_io_hub);
                if used > budget {
                    return Err(TopologyError::PortBudgetExceeded {
                        node: NodeId::new(i),
                        used,
                        budget,
                    });
                }
            }
        }

        for (i, dev) in self.devices.iter().enumerate() {
            if dev.attached_to.index() >= n {
                return Err(TopologyError::DeviceNodeOutOfRange {
                    device: DeviceId::new(i),
                    node: dev.attached_to,
                });
            }
        }

        // Connectivity over the coherent fabric (single-node hosts pass):
        // union the endpoints of every coherent link; a node is reachable
        // from node 0 iff it shares node 0's root.
        if n > 1 {
            let mut root: Vec<u32> = (0..n as u32).collect();
            for link in self.links.iter().filter(|l| l.kind == LinkKind::Coherent) {
                let (a, b) = (
                    find_root(&mut root, link.a.index()),
                    find_root(&mut root, link.b.index()),
                );
                root[a.max(b)] = a.min(b) as u32;
            }
            let home = find_root(&mut root, 0);
            if let Some(v) = (1..n).find(|&v| find_root(&mut root, v) != home) {
                return Err(TopologyError::Disconnected {
                    unreachable: NodeId::new(v),
                });
            }
        }

        Ok(Topology {
            name: self.name,
            nodes: self.nodes,
            num_packages: self.num_packages,
            links: self.links,
            devices: self.devices,
            adjacency,
        })
    }
}

/// The root of `v`'s set in a union-find forest, halving the path.
fn find_root(root: &mut [u32], mut v: usize) -> usize {
    while root[v] as usize != v {
        root[v] = root[root[v] as usize];
        v = root[v] as usize;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;

    fn square() -> Topology {
        // 4 nodes in 2 packages, ring.
        let mut b = Topology::builder("square");
        let ids = b.magny_cours_dies(4);
        b.link(ids[0], ids[1], HtWidth::W16);
        b.link(ids[2], ids[3], HtWidth::W16);
        b.link(ids[0], ids[2], HtWidth::W8);
        b.link(ids[1], ids[3], HtWidth::W8);
        b.build().unwrap()
    }

    #[test]
    fn builder_assigns_packages_pairwise() {
        let t = square();
        assert_eq!(t.num_nodes(), 4);
        assert_eq!(t.num_packages(), 2);
        assert_eq!(t.node(NodeId(0)).package, PackageId(0));
        assert_eq!(t.node(NodeId(1)).package, PackageId(0));
        assert_eq!(t.node(NodeId(2)).package, PackageId(1));
        assert_eq!(t.node(NodeId(3)).package, PackageId(1));
    }

    #[test]
    fn locality_classification() {
        let t = square();
        assert_eq!(t.locality(NodeId(0), NodeId(0)), Locality::Local);
        assert_eq!(t.locality(NodeId(0), NodeId(1)), Locality::Neighbour);
        assert_eq!(t.locality(NodeId(0), NodeId(2)), Locality::Remote(1));
        assert_eq!(t.locality(NodeId(0), NodeId(3)), Locality::Remote(2));
        assert_eq!(t.locality(NodeId(0), NodeId(3)).hops(), 2);
    }

    #[test]
    fn hop_distance_is_symmetric_here() {
        let t = square();
        for a in t.node_ids() {
            for b in t.node_ids() {
                assert_eq!(t.hop_distance(a, b), t.hop_distance(b, a));
            }
        }
    }

    #[test]
    fn neighbours_are_sorted() {
        let t = square();
        let peers: Vec<NodeId> = t.neighbours(NodeId(0)).iter().map(|(p, _)| *p).collect();
        assert_eq!(peers, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn link_between_finds_edges() {
        let t = square();
        assert!(t.link_between(NodeId(0), NodeId(1)).is_some());
        assert!(t.link_between(NodeId(0), NodeId(3)).is_none());
    }

    #[test]
    fn empty_topology_rejected() {
        assert_eq!(
            Topology::builder("x").build().unwrap_err(),
            TopologyError::Empty
        );
    }

    #[test]
    fn self_link_rejected() {
        let mut b = Topology::builder("x");
        let n0 = b.node(NodeSpec::magny_cours(PackageId(0)));
        b.link(n0, n0, HtWidth::W8);
        assert!(matches!(
            b.build().unwrap_err(),
            TopologyError::SelfLink { .. }
        ));
    }

    #[test]
    fn duplicate_link_rejected() {
        let mut b = Topology::builder("x");
        let ids = b.magny_cours_dies(2);
        b.link(ids[0], ids[1], HtWidth::W8);
        b.link(ids[1], ids[0], HtWidth::W16);
        assert!(matches!(
            b.build().unwrap_err(),
            TopologyError::DuplicateLink { .. }
        ));
    }

    #[test]
    fn disconnected_rejected() {
        let mut b = Topology::builder("x");
        let ids = b.magny_cours_dies(4);
        b.link(ids[0], ids[1], HtWidth::W8);
        // nodes 2,3 dangling
        let err = b.build().unwrap_err();
        assert!(matches!(err, TopologyError::Disconnected { .. }), "{err:?}");
    }

    #[test]
    fn link_errors_name_the_first_bad_link_in_link_order() {
        let build = |links: &[(u16, u16)]| {
            let mut b = Topology::builder("x");
            b.magny_cours_dies(4);
            for &(a, c) in links {
                b.link(NodeId(a), NodeId(c), HtWidth::W8);
            }
            b.build().unwrap_err()
        };
        assert_eq!(
            build(&[(0, 1), (2, 3), (1, 0), (0, 9)]),
            TopologyError::DuplicateLink {
                a: NodeId(0),
                b: NodeId(1)
            }
        );
        assert_eq!(
            build(&[(0, 1), (3, 3), (1, 0)]),
            TopologyError::SelfLink {
                link: LinkId(1),
                node: NodeId(3)
            }
        );
        assert_eq!(
            build(&[(0, 1), (2, 3)]),
            TopologyError::Disconnected {
                unreachable: NodeId(2)
            }
        );
    }

    #[test]
    fn out_of_range_link_rejected() {
        let mut b = Topology::builder("x");
        b.magny_cours_dies(2);
        b.link(NodeId(0), NodeId(9), HtWidth::W8);
        assert!(matches!(
            b.build().unwrap_err(),
            TopologyError::LinkEndpointOutOfRange { .. }
        ));
    }

    #[test]
    fn device_marks_io_hub_and_lists() {
        let mut b = Topology::builder("x");
        let ids = b.magny_cours_dies(2);
        b.link(ids[0], ids[1], HtWidth::W16);
        b.device(DeviceSpec::nic(ids[1]));
        b.device(DeviceSpec::ssd(ids[1]));
        let t = b.build().unwrap();
        assert_eq!(t.io_hub_nodes(), vec![ids[1]]);
        assert_eq!(t.devices_at(ids[1]).count(), 2);
        assert_eq!(t.devices_at(ids[0]).count(), 0);
    }

    #[test]
    fn device_on_missing_node_rejected() {
        let mut b = Topology::builder("x");
        let ids = b.magny_cours_dies(2);
        b.link(ids[0], ids[1], HtWidth::W16);
        b.device(DeviceSpec::nic(NodeId(5)));
        assert!(matches!(
            b.build().unwrap_err(),
            TopologyError::DeviceNodeOutOfRange { .. }
        ));
    }

    #[test]
    fn port_budget_enforced() {
        let mut b = Topology::builder("x");
        let ids = b.magny_cours_dies(6);
        // node 0 linked to all 5 others: degree 5 > budget 4
        for &other in &ids[1..] {
            b.link(ids[0], other, HtWidth::W8);
        }
        b.ht_port_budget(4);
        assert!(matches!(
            b.build().unwrap_err(),
            TopologyError::PortBudgetExceeded {
                used: 5,
                budget: 4,
                ..
            }
        ));
    }

    #[test]
    fn totals_aggregate() {
        let t = square();
        assert_eq!(t.total_cores(), 16);
        assert_eq!(t.total_dram_mib(), 4 * 4096);
    }

    #[test]
    fn neighbour_nodes_excludes_self() {
        let t = square();
        assert_eq!(t.neighbour_nodes(NodeId(2)), vec![NodeId(3)]);
    }

    #[test]
    fn os_home_found() {
        let mut b = Topology::builder("x");
        let n0 = b.node(NodeSpec::magny_cours(PackageId(0)).with_os_home());
        let n1 = b.node(NodeSpec::magny_cours(PackageId(0)));
        b.link(n0, n1, HtWidth::W16);
        let t = b.build().unwrap();
        assert_eq!(t.os_home_node(), Some(n0));
    }

    #[test]
    fn json_round_trip() {
        let t = square();
        let json = numa_par::json::to_string(&t);
        let back: Topology = numa_par::json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn single_node_host_is_valid() {
        let mut b = Topology::builder("uma");
        b.node(NodeSpec::magny_cours(PackageId(0)));
        let t = b.build().unwrap();
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.locality(NodeId(0), NodeId(0)), Locality::Local);
    }
}
