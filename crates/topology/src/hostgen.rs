//! Parameterized topology generation: [`HostSpec`] + [`TopoGen`].
//!
//! The presets in [`crate::presets`] are individually interesting machines,
//! but a fleet needs *families* of hosts: 2/4/8-socket boxes, sub-NUMA-style
//! die splits, different interconnect wirings and device attach points.
//! [`TopoGen`] turns a declarative [`HostSpec`] into a validated
//! [`Topology`] (plus an auto-derived BFS [`RouteTable`]), and
//! [`TopoGen::sample`] draws a random-but-valid spec from a seed so fleets
//! of heterogeneous hosts stay bit-reproducible.
//!
//! Generation is deliberately order-stable: for a given spec the nodes,
//! links and devices are emitted in one canonical order, so two builds of
//! the same spec produce `PartialEq`-identical topologies, and the four
//! Table I presets regenerate bit-identically to their original hand-built
//! definitions (pinned by golden tests in `presets`).

use crate::device::DeviceSpec;
use crate::error::TopologyError;
use crate::ids::{NodeId, PackageId};
use crate::link::HtWidth;
use crate::node::NodeSpec;
use crate::routing::RouteTable;
use crate::topology::{Topology, TopologyBuilder};
use numa_par::rng::SplitMix64;

/// Inter-socket wiring family. Intra-socket dies are always fully meshed
/// (for two dies per socket that is the single die-to-die link of a
/// Magny-Cours package).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Wiring {
    /// Every socket pair directly linked (Intel QPI style). One link per
    /// die index, so multi-die sockets get parallel links.
    FullMesh,
    /// Sockets on a single ring in Gray-code order, one link per die index
    /// between ring neighbours. For 4 sockets x 2 dies this reproduces the
    /// DL585-style wiring of [`crate::presets::amd_4s8n`].
    SocketRing,
    /// Two rails of `sockets/2` chained sockets plus end rungs — the sparse
    /// 8-socket ladder of [`crate::presets::amd_8s8n`]. Requires an even
    /// socket count of at least 4.
    Ladder,
    /// Blade style: each socket is a fully-meshed board, boards chained in
    /// a ring with one narrow link per board pair
    /// ([`crate::presets::blade32`]).
    BoardRing,
}

impl Wiring {
    /// All wiring families, for seeded sampling.
    pub const ALL: [Wiring; 4] = [
        Wiring::FullMesh,
        Wiring::SocketRing,
        Wiring::Ladder,
        Wiring::BoardRing,
    ];

    /// Short lowercase label (CLI / report friendly).
    pub fn label(self) -> &'static str {
        match self {
            Wiring::FullMesh => "full-mesh",
            Wiring::SocketRing => "socket-ring",
            Wiring::Ladder => "ladder",
            Wiring::BoardRing => "board-ring",
        }
    }

    /// Whether this wiring can produce a valid (duplicate-free, connected)
    /// interconnect for `sockets`.
    pub fn supports(self, sockets: u16) -> bool {
        match self {
            Wiring::FullMesh => sockets >= 1,
            // A 2-socket "ring" degenerates to a duplicate pair.
            Wiring::SocketRing => sockets >= 3,
            Wiring::Ladder => sockets >= 4 && sockets.is_multiple_of(2),
            Wiring::BoardRing => sockets >= 2,
        }
    }
}

/// Declarative description of one host for [`TopoGen`].
///
/// Everything structural lives here; performance numbers stay in
/// `numa-fabric`. `page_kib` is generation-level metadata (it informs
/// fleet-level memory-policy choices) and is *not* serialized into the
/// generated [`Topology`], so topology hashes stay stable.
#[derive(Debug, Clone, PartialEq)]
pub struct HostSpec {
    /// Topology name (e.g. `"host-03"`).
    pub name: String,
    /// Socket (package) count — typically 2, 4 or 8.
    pub sockets: u16,
    /// NUMA nodes per socket: 1 for single-die sockets, 2 for Magny-Cours
    /// style dual-die packages, 4 for sub-NUMA-cluster splits or blade
    /// boards.
    pub nodes_per_socket: u16,
    /// Cores per NUMA node.
    pub cores_per_node: u32,
    /// DRAM behind each node's controller, MiB.
    pub dram_mib_per_node: u64,
    /// Last-level cache override in bytes (`None` keeps the Magny-Cours
    /// 5 MiB default).
    pub llc_bytes: Option<u64>,
    /// Width of intra-socket (die-to-die) links.
    pub intra_width: HtWidth,
    /// Width of inter-socket links.
    pub inter_width: HtWidth,
    /// Inter-socket wiring family.
    pub wiring: Wiring,
    /// Node carrying the I/O hub and all devices (`None` = no devices).
    pub io_node: Option<u16>,
    /// NICs attached to `io_node`.
    pub nics: u16,
    /// SSDs attached to `io_node`.
    pub ssds: u16,
    /// OS home node (kernel buffers + shared libraries), if marked.
    pub os_home: Option<u16>,
    /// Per-node HT port budget to enforce at build time (`None` = no
    /// budget, as for the Table I comparison machines).
    pub ht_port_budget: Option<usize>,
    /// Default page size in KiB (4 for base pages, 2048 for huge pages).
    /// Generation metadata only — never serialized into the topology.
    pub page_kib: u32,
}

impl HostSpec {
    /// A plain 4-socket, 2-die Magny-Cours style host on a socket ring —
    /// the structural shape of the paper's testbed, without devices.
    pub fn new(name: impl Into<String>) -> Self {
        HostSpec {
            name: name.into(),
            sockets: 4,
            nodes_per_socket: 2,
            cores_per_node: 4,
            dram_mib_per_node: 4096,
            llc_bytes: None,
            intra_width: HtWidth::W16,
            inter_width: HtWidth::W8,
            wiring: Wiring::SocketRing,
            io_node: None,
            nics: 0,
            ssds: 0,
            os_home: None,
            ht_port_budget: None,
            page_kib: 4,
        }
    }

    /// Total NUMA node count.
    pub fn num_nodes(&self) -> u16 {
        self.sockets * self.nodes_per_socket
    }
}

/// Builder-style topology generator over a [`HostSpec`].
///
/// ```
/// use numa_topology::hostgen::TopoGen;
///
/// let (topo, routes) = TopoGen::new("demo")
///     .sockets(4)
///     .nodes_per_socket(2)
///     .io_node(7)
///     .nics(1)
///     .build_routed()
///     .unwrap();
/// assert_eq!(topo.num_nodes(), 8);
/// assert_eq!(routes.num_nodes(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct TopoGen {
    spec: HostSpec,
}

impl TopoGen {
    /// Start from the default [`HostSpec`].
    pub fn new(name: impl Into<String>) -> Self {
        TopoGen {
            spec: HostSpec::new(name),
        }
    }

    /// Wrap an existing spec.
    pub fn from_spec(spec: HostSpec) -> Self {
        TopoGen { spec }
    }

    /// Draw a random-but-valid spec from a seed (splitmix64). The same
    /// `(name, seed)` pair always yields the same spec, hence the same
    /// topology bit-for-bit.
    pub fn sample(name: impl Into<String>, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x9E37_79B9_7F4A_7C15);
        let mut next = move || rng.next_u64();
        let sockets = [2u16, 4, 8][(next() % 3) as usize];
        let nodes_per_socket = [1u16, 2, 4][(next() % 3) as usize];
        let wiring = {
            let mut choices = Wiring::ALL.into_iter().filter(|w| w.supports(sockets));
            let pick = next() % choices.clone().count() as u64;
            choices.nth(pick as usize).expect("pick < count")
        };
        let n = sockets * nodes_per_socket;
        let io_node = (next() % u64::from(n)) as u16;
        let mut spec = HostSpec::new(name);
        spec.sockets = sockets;
        spec.nodes_per_socket = nodes_per_socket;
        spec.wiring = wiring;
        spec.cores_per_node = [4u32, 8][(next() % 2) as usize];
        spec.dram_mib_per_node = [4096u64, 8192][(next() % 2) as usize];
        spec.llc_bytes = [None, Some(8 << 20), Some(16 << 20)][(next() % 3) as usize];
        spec.inter_width = [HtWidth::W8, HtWidth::W16][(next() % 2) as usize];
        spec.io_node = Some(io_node);
        spec.nics = 1;
        spec.ssds = (next() % 3) as u16;
        spec.os_home = Some(0);
        spec.page_kib = [4u32, 2048][(next() % 2) as usize];
        TopoGen { spec }
    }

    /// The spec being built.
    pub fn spec(&self) -> &HostSpec {
        &self.spec
    }

    /// Set the socket count.
    #[must_use]
    pub fn sockets(mut self, sockets: u16) -> Self {
        self.spec.sockets = sockets;
        self
    }

    /// Set nodes (dies) per socket.
    #[must_use]
    pub fn nodes_per_socket(mut self, n: u16) -> Self {
        self.spec.nodes_per_socket = n;
        self
    }

    /// Set cores per node.
    #[must_use]
    pub fn cores_per_node(mut self, cores: u32) -> Self {
        self.spec.cores_per_node = cores;
        self
    }

    /// Set per-node DRAM in MiB.
    #[must_use]
    pub fn dram_mib_per_node(mut self, mib: u64) -> Self {
        self.spec.dram_mib_per_node = mib;
        self
    }

    /// Override the per-node LLC size in bytes.
    #[must_use]
    pub fn llc_bytes(mut self, bytes: u64) -> Self {
        self.spec.llc_bytes = Some(bytes);
        self
    }

    /// Set the intra-socket link width.
    #[must_use]
    pub fn intra_width(mut self, w: HtWidth) -> Self {
        self.spec.intra_width = w;
        self
    }

    /// Set the inter-socket link width.
    #[must_use]
    pub fn inter_width(mut self, w: HtWidth) -> Self {
        self.spec.inter_width = w;
        self
    }

    /// Choose the inter-socket wiring family.
    #[must_use]
    pub fn wiring(mut self, w: Wiring) -> Self {
        self.spec.wiring = w;
        self
    }

    /// Attach the I/O hub (and any devices) to this node.
    #[must_use]
    pub fn io_node(mut self, node: u16) -> Self {
        self.spec.io_node = Some(node);
        self
    }

    /// Number of NICs on the I/O node.
    #[must_use]
    pub fn nics(mut self, n: u16) -> Self {
        self.spec.nics = n;
        self
    }

    /// Number of SSDs on the I/O node.
    #[must_use]
    pub fn ssds(mut self, n: u16) -> Self {
        self.spec.ssds = n;
        self
    }

    /// Mark the OS home node.
    #[must_use]
    pub fn os_home(mut self, node: u16) -> Self {
        self.spec.os_home = Some(node);
        self
    }

    /// Enforce a per-node HT port budget at build time.
    #[must_use]
    pub fn ht_port_budget(mut self, budget: usize) -> Self {
        self.spec.ht_port_budget = Some(budget);
        self
    }

    /// Set the default page size in KiB (generation metadata only).
    #[must_use]
    pub fn page_kib(mut self, kib: u32) -> Self {
        self.spec.page_kib = kib;
        self
    }

    /// Generate and validate the topology.
    pub fn build(&self) -> Result<Topology, TopologyError> {
        build_from_spec(&self.spec)
    }

    /// Generate the topology plus its BFS-default [`RouteTable`].
    pub fn build_routed(&self) -> Result<(Topology, RouteTable), TopologyError> {
        let topo = self.build()?;
        let routes = RouteTable::bfs(&topo);
        Ok((topo, routes))
    }
}

fn invalid(reason: impl Into<String>) -> TopologyError {
    TopologyError::InvalidSpec {
        reason: reason.into(),
    }
}

fn build_from_spec(spec: &HostSpec) -> Result<Topology, TopologyError> {
    if spec.sockets == 0 || spec.nodes_per_socket == 0 {
        return Err(invalid("sockets and nodes_per_socket must both be nonzero"));
    }
    if !spec.wiring.supports(spec.sockets) {
        return Err(invalid(format!(
            "{} wiring does not support {} sockets",
            spec.wiring.label(),
            spec.sockets
        )));
    }
    let n = spec.num_nodes();
    for (what, node) in [("io_node", spec.io_node), ("os_home", spec.os_home)] {
        if let Some(id) = node {
            if id >= n {
                return Err(invalid(format!(
                    "{what} {id} out of range (host has {n} nodes)"
                )));
            }
        }
    }
    if spec.io_node.is_none() && spec.nics + spec.ssds > 0 {
        return Err(invalid("devices requested but no io_node set"));
    }

    let s = spec.sockets as usize;
    let k = spec.nodes_per_socket as usize;
    // Room for every node, link and device, so no list grows: the
    // intra-socket meshes plus, per die index, a link per socket pair
    // (full mesh) or at most one per socket (the other wirings).
    let inter_pairs = match spec.wiring {
        Wiring::FullMesh => s * (s - 1) / 2,
        _ => s,
    };
    let mut b = TopologyBuilder::with_capacity(
        spec.name.clone(),
        s * k,
        s * k * (k - 1) / 2 + inter_pairs * k,
        usize::from(spec.nics + spec.ssds),
    );

    // Nodes: socket-major, die-minor — node id = socket * k + die.
    for socket in 0..s {
        for die in 0..k {
            let id = socket * k + die;
            let mut node = NodeSpec::magny_cours(PackageId::new(socket))
                .with_cores(spec.cores_per_node)
                .with_dram_mib(spec.dram_mib_per_node);
            if let Some(llc) = spec.llc_bytes {
                node.llc_bytes = llc;
            }
            if spec.os_home == Some(id as u16) {
                node = node.with_os_home();
            }
            b.node(node);
        }
    }

    // Intra-socket: full mesh among each socket's dies, socket-major.
    // (For two dies per socket this is the single Magny-Cours die link.)
    for socket in 0..s {
        let base = socket * k;
        for i in 0..k {
            for j in (i + 1)..k {
                b.link(
                    NodeId::new(base + i),
                    NodeId::new(base + j),
                    spec.intra_width,
                );
            }
        }
    }

    // Inter-socket links, per wiring family. Each socket pair (a, b) gets
    // one link per die index d: (a*k + d, b*k + d) — except BoardRing,
    // which chains boards with a single narrow link.
    let die_links = |b: &mut TopologyBuilder, (sa, sb): (usize, usize)| {
        for d in 0..k {
            b.link(
                NodeId::new(sa * k + d),
                NodeId::new(sb * k + d),
                spec.inter_width,
            );
        }
    };
    match spec.wiring {
        Wiring::FullMesh => {
            for a in 0..s {
                for c in (a + 1)..s {
                    die_links(&mut b, (a, c));
                }
            }
        }
        Wiring::SocketRing => {
            for pair in ring_pairs(s) {
                die_links(&mut b, pair);
            }
        }
        Wiring::Ladder => {
            let half = s / 2;
            for rail in 0..2 {
                let base = rail * half;
                for i in 0..(half - 1) {
                    die_links(&mut b, (base + i, base + i + 1));
                }
            }
            die_links(&mut b, (0, half));
            die_links(&mut b, (half - 1, s - 1));
        }
        Wiring::BoardRing => {
            // One narrow link per board pair, staggered onto die 1 of the
            // next board (die 0 when boards are single-die). Two
            // single-die boards have one pair: the wrap-around link would
            // repeat it.
            let entry = 1.min(k - 1);
            let links = if s == 2 && k == 1 { 1 } else { s };
            for board in 0..links {
                let next = (board + 1) % s;
                b.link(
                    NodeId::new(board * k),
                    NodeId::new(next * k + entry),
                    spec.inter_width,
                );
            }
        }
    }

    if let Some(io) = spec.io_node {
        for _ in 0..spec.nics {
            b.device(DeviceSpec::nic(NodeId(io)));
        }
        for _ in 0..spec.ssds {
            b.device(DeviceSpec::ssd(NodeId(io)));
        }
    }
    if let Some(budget) = spec.ht_port_budget {
        b.ht_port_budget(budget);
    }
    b.build()
}

/// Ring order over sockets. Power-of-two socket counts use reflected
/// Gray-code order (`i ^ (i >> 1)`), which is what real multi-socket boards
/// wire and what reproduces the amd-4s8n preset; other counts fall back to
/// identity order. Edges come normalized (`a < c`) and in ascending order
/// for a canonical emission order: every pair is tested in that order for
/// ring adjacency, so no list is built.
fn ring_pairs(s: usize) -> impl Iterator<Item = (usize, usize)> {
    let position = move |x: usize| {
        if !s.is_power_of_two() {
            return x;
        }
        // The inverse of the Gray code: xor of every right shift of x.
        let (mut pos, mut shift) = (x, x >> 1);
        while shift != 0 {
            pos ^= shift;
            shift >>= 1;
        }
        pos
    };
    (0..s)
        .flat_map(move |a| ((a + 1)..s).map(move |c| (a, c)))
        .filter(move |&(a, c)| {
            let (pa, pc) = (position(a), position(c));
            (pa + 1) % s == pc || (pc + 1) % s == pa
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_builds_dl585_shape() {
        let t = TopoGen::new("shape").build().unwrap();
        assert_eq!(t.num_nodes(), 8);
        assert_eq!(t.num_packages(), 4);
        // SocketRing over 4x2: each node has 1 intra + 2 inter links.
        for n in t.node_ids() {
            assert_eq!(t.neighbours(n).len(), 3, "{n:?}");
        }
    }

    #[test]
    fn sample_is_reproducible() {
        for seed in 0..16 {
            let a = TopoGen::sample("h", seed).build().unwrap();
            let b = TopoGen::sample("h", seed).build().unwrap();
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn every_sampled_spec_builds() {
        for seed in 0..4096 {
            let gen = TopoGen::sample("h", seed);
            if let Err(e) = gen.build() {
                panic!("seed {seed}: {:?} fails: {e}", gen.spec());
            }
        }
    }

    #[test]
    fn two_single_die_boards_share_one_link() {
        // Regression: the wrap-around link repeated N0-N1 as a DuplicateLink.
        let t = TopoGen::new("b2")
            .sockets(2)
            .nodes_per_socket(1)
            .wiring(Wiring::BoardRing)
            .build()
            .unwrap();
        assert_eq!(t.links().len(), 1);
    }

    #[test]
    fn sample_specs_vary() {
        let specs: Vec<HostSpec> = (0..32)
            .map(|s| TopoGen::sample("h", s).spec().clone())
            .collect();
        assert!(specs.iter().any(|s| s.sockets != specs[0].sockets));
        assert!(specs.iter().any(|s| s.wiring != specs[0].wiring));
    }

    #[test]
    fn devices_attach_to_io_node() {
        let t = TopoGen::new("dev")
            .io_node(7)
            .nics(1)
            .ssds(2)
            .build()
            .unwrap();
        assert_eq!(t.devices().len(), 3);
        assert_eq!(t.io_hub_nodes(), vec![NodeId(7)]);
    }

    #[test]
    fn os_home_is_marked() {
        let t = TopoGen::new("home").os_home(0).build().unwrap();
        assert_eq!(t.os_home_node(), Some(NodeId(0)));
    }

    #[test]
    fn llc_override_applies() {
        let t = TopoGen::new("llc").llc_bytes(16 << 20).build().unwrap();
        assert_eq!(t.node(NodeId(0)).llc_bytes, 16 << 20);
    }

    #[test]
    fn invalid_specs_are_typed_errors() {
        let e = TopoGen::new("x").sockets(0).build().unwrap_err();
        assert!(matches!(e, TopologyError::InvalidSpec { .. }), "{e:?}");
        let e = TopoGen::new("x")
            .sockets(2)
            .wiring(Wiring::Ladder)
            .build()
            .unwrap_err();
        assert!(e.to_string().contains("ladder"), "{e}");
        let e = TopoGen::new("x").io_node(99).build().unwrap_err();
        assert!(e.to_string().contains("io_node"), "{e}");
        let mut spec = HostSpec::new("x");
        spec.nics = 1;
        let e = TopoGen::from_spec(spec).build().unwrap_err();
        assert!(e.to_string().contains("no io_node"), "{e}");
    }

    #[test]
    fn gray_ring_matches_dl585_wiring() {
        assert_eq!(
            ring_pairs(4).collect::<Vec<_>>(),
            vec![(0, 1), (0, 2), (1, 3), (2, 3)]
        );
    }

    /// The ring as first written: normalized consecutive pairs of the
    /// ring order, sorted.
    fn ring_pairs_reference(s: usize) -> Vec<(usize, usize)> {
        let order: Vec<usize> = if s.is_power_of_two() {
            (0..s).map(|i| i ^ (i >> 1)).collect()
        } else {
            (0..s).collect()
        };
        let mut pairs: Vec<(usize, usize)> = (0..s)
            .map(|i| {
                let (a, b) = (order[i], order[(i + 1) % s]);
                (a.min(b), a.max(b))
            })
            .collect();
        pairs.sort_unstable();
        pairs
    }

    #[test]
    fn ring_pairs_match_the_sorted_ring_order() {
        for s in 3..=64 {
            assert_eq!(
                ring_pairs(s).collect::<Vec<_>>(),
                ring_pairs_reference(s),
                "{s} sockets"
            );
        }
    }

    #[test]
    fn ladder_reduces_to_square_on_four_sockets() {
        let t = TopoGen::new("sq")
            .sockets(4)
            .nodes_per_socket(1)
            .wiring(Wiring::Ladder)
            .build()
            .unwrap();
        assert_eq!(t.links().len(), 4);
    }

    #[test]
    fn page_kib_is_metadata_only() {
        let a = TopoGen::new("p").page_kib(4).build().unwrap();
        let b = TopoGen::new("p").page_kib(2048).build().unwrap();
        // Page size informs fleet policy, not the structural graph.
        assert_eq!(a, b);
    }
}
