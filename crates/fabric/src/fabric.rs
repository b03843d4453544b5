//! The [`Fabric`]: topology + routes + directed capacities.

use crate::traffic::TrafficClass;
use numa_topology::{DirectedEdge, HtWidth, Locality, NodeId, RouteTable, Topology};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One capacity change on a fabric resource: the lowered form of a fault
/// or a what-if upgrade. Apply it in place with [`Fabric::apply`], or to a
/// copy with [`Fabric::with`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CapChange {
    /// One directed edge's DMA capacity becomes `gbps`.
    Edge {
        /// The directed link.
        edge: DirectedEdge,
        /// Its new DMA capacity, Gbit/s.
        gbps: f64,
    },
    /// One node's local copy ceiling becomes `gbps` — the knob an IRQ
    /// storm turns (§IV-C: interrupt handling steals memory-controller
    /// bandwidth on the device node).
    NodeCopy {
        /// The node.
        node: NodeId,
        /// Its new copy ceiling, Gbit/s.
        gbps: f64,
    },
    /// One node's protocol-CPU budget retains `factor` (see
    /// [`Fabric::node_cpu_derate`]).
    NodeCpu {
        /// The node.
        node: NodeId,
        /// Remaining fraction, in `(0, 1]`.
        factor: f64,
    },
    /// One device's PCIe port retains `factor` in both directions (see
    /// [`Fabric::device_derate`]).
    Device {
        /// Index into [`Topology::devices`].
        device: u16,
        /// Remaining fraction, in `(0, 1]`.
        factor: f64,
    },
}

/// Why a [`CapChange`] cannot apply to a fabric.
#[derive(Debug, Clone, PartialEq)]
pub enum FabricError {
    /// The directed edge is not a link of the topology.
    UnknownLink(DirectedEdge),
    /// The node is outside the machine.
    NodeOutOfRange {
        /// The offending node.
        node: NodeId,
        /// Number of nodes present.
        nodes: usize,
    },
    /// The device index is outside [`Topology::devices`].
    UnknownDevice(u16),
    /// A capacity that is not a positive finite number of Gbit/s.
    BadCapacity(f64),
    /// A derate factor outside `(0, 1]`.
    BadFactor(f64),
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricError::UnknownLink(e) => write!(f, "no link {e:?}"),
            FabricError::NodeOutOfRange { node, nodes } => {
                write!(f, "node {node:?} out of range on a {nodes}-node machine")
            }
            FabricError::UnknownDevice(d) => write!(f, "device {d} out of range"),
            FabricError::BadCapacity(g) => write!(f, "capacity {g} Gbit/s must be positive"),
            FabricError::BadFactor(x) => write!(f, "derate factor {x} must be in (0, 1]"),
        }
    }
}

impl std::error::Error for FabricError {}

/// How PIO (CPU load/store) bandwidth between node pairs is modelled.
///
/// For the calibrated testbed we carry the full measured-style matrix —
/// the paper itself demonstrates (§IV-A) that no simple structural rule
/// reproduces STREAM results, so a characterization table *is* the model.
/// For generic machines a locality-based fallback gives sane shapes.
#[derive(Debug, Clone, PartialEq)]
pub enum PioModel {
    /// Full `n x n` matrix in Gbit/s, `matrix[cpu][mem]`.
    Matrix(Vec<Vec<f64>>),
    /// Derive from [`Locality`]: local / neighbour / remote-by-hops.
    ByLocality {
        /// Same-node copy bandwidth.
        local: f64,
        /// Local bandwidth of the OS home node (usually slightly higher:
        /// resident libraries and buffers — §IV-A).
        os_home_local: f64,
        /// Other die, same package.
        neighbour: f64,
        /// One coherent hop.
        hop1: f64,
        /// Two coherent hops.
        hop2: f64,
        /// Three or more hops.
        hop3plus: f64,
    },
}

/// Performance model of one machine's interconnect.
///
/// The topology, the routing table and the PIO model are immutable after
/// [`FabricBuilder::build`] and shared behind [`Arc`]: a clone shares them
/// and copies only the DMA capacity and derate tables, so a what-if view
/// ([`Self::with`], or a clone plus [`Self::apply`]) is cheap.
///
/// A view also carries the record of the changes that lowered a
/// resource ([`Self::faults`]); two fabrics with equal capacities but
/// different records are not equal.
#[derive(Debug, Clone, PartialEq)]
pub struct Fabric {
    topo: Arc<Topology>,
    routes: Arc<RouteTable>,
    /// Effective DMA capacity (Gbit/s) of every directed link: link `l`
    /// carries `a -> b` at `2l` and `b -> a` at `2l + 1` (see
    /// `dma_slot`). Calibrated edges hold their calibration, the rest
    /// their width's default, so equal tables mean equal capacities.
    dma_caps: Vec<f64>,
    /// Per-node local bulk-copy ceiling (memory controller + on-die
    /// bandwidth for a 4-thread streaming copy), Gbit/s.
    node_copy_cap: Vec<f64>,
    /// Per-extra-hop DMA efficiency decay for *uncalibrated* machines:
    /// path bandwidth is additionally scaled by `(1 - decay)^(hops - 1)`.
    /// Coherency probes, buffer credits and store-and-forward overheads
    /// grow with distance even when every link is identical; calibrated
    /// fabrics encode this in their edge caps instead (decay 0).
    dma_hop_decay: f64,
    /// Per-device PCIe port derate in `(0, 1]` — the what-if counterpart
    /// of a `device_stall` fault. Keys index [`Topology::devices`].
    /// Devices not listed run at full capacity.
    device_derate: BTreeMap<u16, f64>,
    /// Per-node protocol-CPU derate in `(0, 1]` — the what-if counterpart
    /// of the CPU share an IRQ storm steals. Nodes not listed keep their
    /// full budget.
    node_cpu_derate: BTreeMap<NodeId, f64>,
    /// Every change [`Self::apply`] applied that lowered its resource, in
    /// order. Empty on a healthy or upgraded fabric.
    faults: Vec<CapChange>,
    /// PIO model (no what-if changes it, so clones share it too).
    pio: Arc<PioModel>,
}

/// The resource one input of [`Fabric::dma_path_bandwidth`] reads.
#[derive(Debug, Clone, Copy)]
enum PathInput {
    /// A node's local copy ceiling.
    Copy(NodeId),
    /// A route edge's DMA capacity.
    Edge(DirectedEdge),
}

impl Fabric {
    /// Start building a fabric over a topology and routing table.
    pub fn builder(topo: Topology, routes: RouteTable) -> FabricBuilder {
        FabricBuilder::new(topo, routes)
    }

    /// The machine structure.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The routing table.
    pub fn routes(&self) -> &RouteTable {
        &self.routes
    }

    /// Number of NUMA nodes (convenience).
    pub fn num_nodes(&self) -> usize {
        self.topo.num_nodes()
    }

    /// Capacity of one directed edge for a traffic class, Gbit/s.
    ///
    /// Panics if the edge is not a link of the topology.
    pub fn edge_capacity(&self, e: DirectedEdge, class: TrafficClass) -> f64 {
        self.edge_cap(e, class)
            .unwrap_or_else(|| panic!("no link {:?}", e))
    }

    /// Non-panicking [`Self::edge_capacity`]: `None` when the edge is not
    /// a link of the topology. Fault layers use this to validate
    /// user-supplied fault plans instead of crashing on phantom links.
    ///
    /// PIO traffic rides the same wires; per-edge PIO limits are folded
    /// into the PIO model rather than per-edge caps, so the edge itself
    /// only constrains PIO by its DMA ceiling: both classes read the same
    /// capacity.
    pub fn edge_cap(&self, e: DirectedEdge, _class: TrafficClass) -> Option<f64> {
        Some(self.dma_caps[dma_slot(&self.topo, e)?])
    }

    /// Local copy ceiling of one node (both buffers on `n`), Gbit/s.
    pub fn node_copy_cap(&self, n: NodeId) -> f64 {
        self.node_copy_cap[n.index()]
    }

    /// Bulk DMA-class path bandwidth from memory on `src` to memory on
    /// `dst`, following the firmware route: the minimum of the directed
    /// edge capacities and both endpoints' local copy ceilings.
    ///
    /// This is the quantity the paper's `memcpy` methodology measures when
    /// the copier is pinned to the device node (Fig. 9), and the ceiling a
    /// real DMA engine at either endpoint experiences.
    pub fn dma_path_bandwidth(&self, src: NodeId, dst: NodeId) -> f64 {
        let mut min = f64::INFINITY;
        self.visit_dma_path_inputs(src, dst, |_, gbps| min = min.min(gbps));
        min
    }

    /// Visit the inputs [`Self::dma_path_bandwidth`] is the minimum of,
    /// each with the resource it reads: both endpoints' copy ceilings,
    /// then (off the diagonal) every route edge's DMA capacity scaled by
    /// the hop decay. Scaling each edge gives the same minimum, bit for
    /// bit, as scaling the smallest: rounding a product is monotone.
    fn visit_dma_path_inputs(
        &self,
        src: NodeId,
        dst: NodeId,
        mut visit: impl FnMut(PathInput, f64),
    ) {
        visit(PathInput::Copy(src), self.node_copy_cap(src));
        visit(PathInput::Copy(dst), self.node_copy_cap(dst));
        if src == dst {
            return;
        }
        let route = self.routes.route(src, dst);
        let hop_scale = (1.0 - self.dma_hop_decay).powi(route.hops().saturating_sub(1) as i32);
        for e in route.edges() {
            visit(
                PathInput::Edge(e),
                self.edge_capacity(e, TrafficClass::Dma) * hop_scale,
            );
        }
    }

    /// Whether a change recorded in [`Self::faults`] lowered the
    /// `src -> dst` DMA path: some input of [`Self::dma_path_bandwidth`]
    /// that a recorded change lowered (a route edge, or a copy ceiling
    /// other than `ignore`'s) sits below every input none lowered, so the
    /// path's minimum is below what it was before those changes. A
    /// lowered resource that stays above the path's bottleneck leaves the
    /// path as it was, and derates are no input of it. `ignore`'s copy
    /// ceiling counts as untouched: the modeler passes the target, whose
    /// ceiling all of its probe paths share.
    pub fn fault_lowers_path(&self, src: NodeId, dst: NodeId, ignore: NodeId) -> bool {
        if self.faults.is_empty() {
            return false;
        }
        let recorded = |input: PathInput| {
            self.faults.iter().any(|change| match (*change, input) {
                (CapChange::Edge { edge, .. }, PathInput::Edge(e)) => edge == e,
                (CapChange::NodeCopy { node, .. }, PathInput::Copy(n)) => node == n && n != ignore,
                _ => false,
            })
        };
        let (mut lowered, mut untouched) = (f64::INFINITY, f64::INFINITY);
        self.visit_dma_path_inputs(src, dst, |input, gbps| {
            let min = if recorded(input) {
                &mut lowered
            } else {
                &mut untouched
            };
            *min = min.min(gbps);
        });
        lowered < untouched
    }

    /// The full `n x n` DMA path-bandwidth matrix (`[src][dst]`).
    pub fn dma_matrix(&self) -> Vec<Vec<f64>> {
        let n = self.num_nodes();
        (0..n)
            .map(|s| {
                (0..n)
                    .map(|d| self.dma_path_bandwidth(NodeId::new(s), NodeId::new(d)))
                    .collect()
            })
            .collect()
    }

    /// PIO (STREAM-style) bandwidth for threads on `cpu` accessing arrays
    /// on `mem`, Gbit/s (aggregate over a node's worth of threads).
    pub fn pio_bandwidth(&self, cpu: NodeId, mem: NodeId) -> f64 {
        match &*self.pio {
            PioModel::Matrix(m) => m[cpu.index()][mem.index()],
            PioModel::ByLocality {
                local,
                os_home_local,
                neighbour,
                hop1,
                hop2,
                hop3plus,
            } => match self.topo.locality(cpu, mem) {
                Locality::Local => {
                    if self.topo.node(cpu).os_home {
                        *os_home_local
                    } else {
                        *local
                    }
                }
                Locality::Neighbour => *neighbour,
                Locality::Remote(1) => *hop1,
                Locality::Remote(2) => *hop2,
                Locality::Remote(_) => *hop3plus,
            },
        }
    }

    /// The full `n x n` PIO matrix (`[cpu][mem]`), i.e. the shape of the
    /// paper's Figure 3.
    pub fn pio_matrix(&self) -> Vec<Vec<f64>> {
        let n = self.num_nodes();
        (0..n)
            .map(|c| {
                (0..n)
                    .map(|m| self.pio_bandwidth(NodeId::new(c), NodeId::new(m)))
                    .collect()
            })
            .collect()
    }

    /// Remaining capacity fraction of one device's PCIe port, in `(0, 1]`.
    /// `1.0` unless a [`CapChange::Device`] (the static view of a
    /// `device_stall` fault) touched the device. Device harnesses
    /// multiply their lowered port capacities by this, which keeps the
    /// static what-if path and dynamic injection numerically identical.
    pub fn device_derate(&self, device: u16) -> f64 {
        self.device_derate.get(&device).copied().unwrap_or(1.0)
    }

    /// Remaining fraction of one node's protocol-CPU budget, in `(0, 1]`.
    /// `1.0` unless a [`CapChange::NodeCpu`] (the CPU share of an IRQ
    /// storm) touched the node. Harnesses that lower a CPU budget (TCP)
    /// multiply it by this, as they do with [`Self::device_derate`].
    pub fn node_cpu_derate(&self, node: NodeId) -> f64 {
        self.node_cpu_derate.get(&node).copied().unwrap_or(1.0)
    }

    /// Apply one capacity change in place. Edge and copy capacities are
    /// overwritten; derates compose multiplicatively. An invalid change
    /// is a typed error and leaves the fabric untouched. A change that
    /// lowers its resource (an edge or copy capacity below the current
    /// one, a derate below 1) is also recorded in [`Self::faults`]; one
    /// that raises it or leaves it as it was (an upgrade, a degrade by
    /// 1.0, a storm of intensity 0) records nothing.
    pub fn apply(&mut self, change: CapChange) -> Result<(), FabricError> {
        let positive = |gbps: f64| {
            if gbps > 0.0 && gbps.is_finite() {
                Ok(gbps)
            } else {
                Err(FabricError::BadCapacity(gbps))
            }
        };
        let fraction = |x: f64| {
            if x > 0.0 && x <= 1.0 {
                Ok(x)
            } else {
                Err(FabricError::BadFactor(x))
            }
        };
        let lowers = match change {
            CapChange::Edge { edge, gbps } => {
                if self.topo.link_between(edge.from, edge.to).is_none() {
                    return Err(FabricError::UnknownLink(edge));
                }
                let gbps = positive(gbps)?;
                let slot = &mut self.dma_caps[dma_slot(&self.topo, edge).expect("checked above")];
                let lowers = gbps < *slot;
                *slot = gbps;
                lowers
            }
            CapChange::NodeCopy { node, gbps } => {
                self.check_node(node)?;
                let gbps = positive(gbps)?;
                let lowers = gbps < self.node_copy_cap[node.index()];
                self.node_copy_cap[node.index()] = gbps;
                lowers
            }
            CapChange::NodeCpu { node, factor } => {
                self.check_node(node)?;
                let factor = fraction(factor)?;
                *self.node_cpu_derate.entry(node).or_insert(1.0) *= factor;
                factor < 1.0
            }
            CapChange::Device { device, factor } => {
                if device as usize >= self.topo.devices().len() {
                    return Err(FabricError::UnknownDevice(device));
                }
                let factor = fraction(factor)?;
                *self.device_derate.entry(device).or_insert(1.0) *= factor;
                factor < 1.0
            }
        };
        if lowers {
            self.faults.push(change);
        }
        Ok(())
    }

    /// The changes that lowered a resource of this fabric, in the order
    /// [`Self::apply`] applied them (a fault view's faults, or a derate
    /// made with [`Self::with`]). A later change that raises the same
    /// resource again does not remove its entry. Capacities alone cannot
    /// say what changed; [`Self::fault_lowers_path`] reads this record.
    pub fn faults(&self) -> &[CapChange] {
        &self.faults
    }

    fn check_node(&self, node: NodeId) -> Result<(), FabricError> {
        let nodes = self.num_nodes();
        if node.index() < nodes {
            Ok(())
        } else {
            Err(FabricError::NodeOutOfRange { node, nodes })
        }
    }

    /// What-if query: a copy of this fabric with one change applied —
    /// e.g. "what if firmware retrained the 3->7 link to full width?"
    /// Feed the result back through the modeler and diff the models to
    /// see which nodes change class.
    pub fn with(&self, change: CapChange) -> Result<Fabric, FabricError> {
        let mut f = self.clone();
        f.apply(change)?;
        Ok(f)
    }

    /// Per-class path bandwidth; dispatches to DMA min-cut or PIO model.
    pub fn path_bandwidth(&self, src: NodeId, dst: NodeId, class: TrafficClass) -> f64 {
        match class {
            TrafficClass::Dma => self.dma_path_bandwidth(src, dst),
            TrafficClass::Pio => self.pio_bandwidth(src, dst),
        }
    }
}

/// The [`Fabric::dma_caps`] index of directed edge `e`, or `None` when
/// `e` is not a link of `topo`.
fn dma_slot(topo: &Topology, e: DirectedEdge) -> Option<usize> {
    let link = topo.link_between(e.from, e.to)?;
    Some(2 * link.index() + usize::from(topo.link(link).a != e.from))
}

/// Builder for [`Fabric`].
#[derive(Debug, Clone)]
pub struct FabricBuilder {
    topo: Topology,
    routes: RouteTable,
    /// Calibrated edges in the order they were set; a later setting of
    /// an edge wins.
    dma_caps: Vec<(DirectedEdge, f64)>,
    dma_default_w16: f64,
    dma_default_w8: f64,
    node_copy_cap: Vec<f64>,
    dma_hop_decay: f64,
    pio: PioModel,
}

impl FabricBuilder {
    /// Defaults: width-scaled DMA capacities, 50 Gbps local copies, and a
    /// generic locality-based PIO model.
    pub fn new(topo: Topology, routes: RouteTable) -> Self {
        let n = topo.num_nodes();
        FabricBuilder {
            topo,
            routes,
            dma_caps: Vec::new(),
            dma_default_w16: 51.2,
            dma_default_w8: 44.0,
            node_copy_cap: vec![50.0; n],
            dma_hop_decay: 0.0,
            pio: PioModel::ByLocality {
                local: 28.0,
                os_home_local: 31.0,
                neighbour: 24.8,
                hop1: 21.5,
                hop2: 19.8,
                hop3plus: 18.6,
            },
        }
    }

    /// Calibrate one directed edge's DMA capacity.
    pub fn dma_cap(mut self, from: u16, to: u16, gbps: f64) -> Self {
        self.dma_caps
            .push((DirectedEdge::new(NodeId(from), NodeId(to)), gbps));
        self
    }

    /// Set the default DMA capacities by link width.
    pub fn dma_defaults(mut self, w16: f64, w8: f64) -> Self {
        self.dma_default_w16 = w16;
        self.dma_default_w8 = w8;
        self
    }

    /// Set every node's local copy ceiling.
    pub fn node_copy_caps(mut self, gbps: f64) -> Self {
        self.node_copy_cap = vec![gbps; self.topo.num_nodes()];
        self
    }

    /// Set one node's local copy ceiling.
    pub fn node_copy_cap(mut self, n: u16, gbps: f64) -> Self {
        self.node_copy_cap[n as usize] = gbps;
        self
    }

    /// Set the per-extra-hop DMA decay (see [`Fabric`] docs). Must be in
    /// `[0, 1)`. Intended for uncalibrated machines only.
    pub fn dma_hop_decay(mut self, decay: f64) -> Self {
        assert!((0.0..1.0).contains(&decay), "decay must be in [0, 1)");
        self.dma_hop_decay = decay;
        self
    }

    /// Install a PIO model.
    pub fn pio(mut self, pio: PioModel) -> Self {
        self.pio = pio;
        self
    }

    /// Freeze. Validates that calibrated edges exist and that a PIO matrix,
    /// if provided, is `n x n`.
    pub fn build(self) -> Fabric {
        let mut dma_caps: Vec<f64> = (self.topo.links().iter())
            .flat_map(|l| {
                let cap = match l.width {
                    HtWidth::W16 => self.dma_default_w16,
                    HtWidth::W8 => self.dma_default_w8,
                };
                [cap, cap]
            })
            .collect();
        for &(e, gbps) in &self.dma_caps {
            let slot = dma_slot(&self.topo, e).unwrap_or_else(|| {
                panic!(
                    "calibrated edge {e:?} is not a link of {}",
                    self.topo.name()
                )
            });
            dma_caps[slot] = gbps;
        }
        if let PioModel::Matrix(m) = &self.pio {
            let n = self.topo.num_nodes();
            assert_eq!(m.len(), n, "PIO matrix row count");
            for row in m {
                assert_eq!(row.len(), n, "PIO matrix column count");
            }
        }
        Fabric {
            topo: Arc::new(self.topo),
            routes: Arc::new(self.routes),
            dma_caps,
            node_copy_cap: self.node_copy_cap,
            dma_hop_decay: self.dma_hop_decay,
            device_derate: BTreeMap::new(),
            node_cpu_derate: BTreeMap::new(),
            faults: Vec::new(),
            pio: Arc::new(self.pio),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_topology::{presets, NodeSpec, PackageId};

    fn tiny() -> (Topology, RouteTable) {
        let mut b = Topology::builder("tiny");
        let n0 = b.node(NodeSpec::magny_cours(PackageId(0)).with_os_home());
        let n1 = b.node(NodeSpec::magny_cours(PackageId(0)));
        let n2 = b.node(NodeSpec::magny_cours(PackageId(1)));
        b.link(n0, n1, HtWidth::W16);
        b.link(n1, n2, HtWidth::W8);
        let t = b.build().unwrap();
        let r = RouteTable::bfs(&t);
        (t, r)
    }

    #[test]
    fn default_edge_caps_follow_width() {
        let (t, r) = tiny();
        let f = Fabric::builder(t, r).build();
        assert_eq!(
            f.edge_capacity(DirectedEdge::new(NodeId(0), NodeId(1)), TrafficClass::Dma),
            51.2
        );
        assert_eq!(
            f.edge_capacity(DirectedEdge::new(NodeId(1), NodeId(2)), TrafficClass::Dma),
            44.0
        );
    }

    #[test]
    fn calibrated_edge_overrides_default_directionally() {
        let (t, r) = tiny();
        let f = Fabric::builder(t, r).dma_cap(1, 2, 20.0).build();
        assert_eq!(
            f.edge_capacity(DirectedEdge::new(NodeId(1), NodeId(2)), TrafficClass::Dma),
            20.0
        );
        // Opposite direction keeps the default.
        assert_eq!(
            f.edge_capacity(DirectedEdge::new(NodeId(2), NodeId(1)), TrafficClass::Dma),
            44.0
        );
    }

    #[test]
    fn dma_path_is_min_cut_with_endpoint_caps() {
        let (t, r) = tiny();
        let f = Fabric::builder(t, r)
            .node_copy_caps(53.5)
            .dma_cap(0, 1, 30.0)
            .dma_cap(1, 2, 25.0)
            .build();
        assert_eq!(f.dma_path_bandwidth(NodeId(0), NodeId(2)), 25.0);
        assert_eq!(f.dma_path_bandwidth(NodeId(0), NodeId(1)), 30.0);
        // Local path: endpoint ceiling only.
        assert_eq!(f.dma_path_bandwidth(NodeId(1), NodeId(1)), 53.5);
    }

    #[test]
    fn endpoint_cap_binds_when_links_are_fat() {
        let (t, r) = tiny();
        let f = Fabric::builder(t, r).node_copy_cap(2, 10.0).build();
        assert_eq!(f.dma_path_bandwidth(NodeId(0), NodeId(2)), 10.0);
        assert_eq!(f.dma_path_bandwidth(NodeId(2), NodeId(0)), 10.0);
    }

    #[test]
    fn pio_by_locality_uses_os_home_bonus() {
        let (t, r) = tiny();
        let f = Fabric::builder(t, r).build();
        assert_eq!(f.pio_bandwidth(NodeId(0), NodeId(0)), 31.0); // os home
        assert_eq!(f.pio_bandwidth(NodeId(1), NodeId(1)), 28.0);
        assert_eq!(f.pio_bandwidth(NodeId(0), NodeId(1)), 24.8); // neighbour
        assert_eq!(f.pio_bandwidth(NodeId(0), NodeId(2)), 19.8); // 2 hops
        assert_eq!(f.pio_bandwidth(NodeId(1), NodeId(2)), 21.5); // 1 hop
    }

    #[test]
    fn pio_matrix_shape() {
        let (t, r) = tiny();
        let f = Fabric::builder(t, r).build();
        let m = f.pio_matrix();
        assert_eq!(m.len(), 3);
        assert_eq!(m[0].len(), 3);
        assert_eq!(m[0][2], 19.8);
    }

    #[test]
    #[should_panic(expected = "not a link")]
    fn calibrating_phantom_edge_panics() {
        let (t, r) = tiny();
        let _ = Fabric::builder(t, r).dma_cap(0, 2, 10.0).build();
    }

    #[test]
    #[should_panic(expected = "PIO matrix row count")]
    fn wrong_matrix_shape_panics() {
        let (t, r) = tiny();
        let _ = Fabric::builder(t, r)
            .pio(PioModel::Matrix(vec![vec![1.0; 3]; 2]))
            .build();
    }

    #[test]
    fn dma_matrix_is_square_and_positive() {
        let t = presets::dl585_testbed();
        let r = presets::dl585_routes(&t);
        let f = Fabric::builder(t, r).build();
        let m = f.dma_matrix();
        assert_eq!(m.len(), 8);
        for row in &m {
            for &v in row {
                assert!(v > 0.0);
            }
        }
    }

    #[test]
    fn path_bandwidth_dispatches_by_class() {
        let (t, r) = tiny();
        let f = Fabric::builder(t, r).build();
        assert_eq!(
            f.path_bandwidth(NodeId(1), NodeId(2), TrafficClass::Pio),
            21.5
        );
        assert_eq!(
            f.path_bandwidth(NodeId(1), NodeId(2), TrafficClass::Dma),
            44.0
        );
    }

    #[test]
    fn hop_decay_tiers_uncalibrated_paths() {
        // A 4-node line: without decay every remote path min-cuts to the
        // same 44.0; with 10% per extra hop the tiers appear.
        use numa_topology::{NodeSpec, PackageId};
        let mut b = Topology::builder("line4");
        let ids: Vec<NodeId> = (0..4)
            .map(|i| b.node(NodeSpec::magny_cours(PackageId(i))))
            .collect();
        for w in ids.windows(2) {
            b.link(w[0], w[1], HtWidth::W8);
        }
        let t = b.build().unwrap();
        let r = RouteTable::bfs(&t);
        let flat = Fabric::builder(t.clone(), r.clone()).build();
        assert_eq!(
            flat.dma_path_bandwidth(NodeId(0), NodeId(1)),
            flat.dma_path_bandwidth(NodeId(0), NodeId(3))
        );
        let tiered = Fabric::builder(t, r).dma_hop_decay(0.1).build();
        let h1 = tiered.dma_path_bandwidth(NodeId(0), NodeId(1));
        let h2 = tiered.dma_path_bandwidth(NodeId(0), NodeId(2));
        let h3 = tiered.dma_path_bandwidth(NodeId(0), NodeId(3));
        assert_eq!(h1, 44.0, "single hop pays no decay");
        assert!((h2 - 44.0 * 0.9).abs() < 1e-9);
        assert!((h3 - 44.0 * 0.81).abs() < 1e-9);
        // Local paths are untouched.
        assert_eq!(tiered.dma_path_bandwidth(NodeId(2), NodeId(2)), 50.0);
    }

    #[test]
    #[should_panic(expected = "decay must be in")]
    fn full_decay_rejected() {
        let (t, r) = tiny();
        let _ = Fabric::builder(t, r).dma_hop_decay(1.0);
    }

    #[test]
    fn what_if_edge_override_is_isolated() {
        let (t, r) = tiny();
        let f = Fabric::builder(t, r).dma_cap(1, 2, 20.0).build();
        let edge = DirectedEdge::new(NodeId(1), NodeId(2));
        let upgraded = f.with(CapChange::Edge { edge, gbps: 40.0 }).unwrap();
        assert_eq!(upgraded.dma_path_bandwidth(NodeId(1), NodeId(2)), 40.0);
        // Original untouched; reverse direction untouched.
        assert_eq!(f.dma_path_bandwidth(NodeId(1), NodeId(2)), 20.0);
        assert_eq!(upgraded.dma_path_bandwidth(NodeId(2), NodeId(1)), 44.0);
    }

    #[test]
    fn what_if_rejects_phantom_edges() {
        let (t, r) = tiny();
        let f = Fabric::builder(t, r).build();
        let e = DirectedEdge::new(NodeId(0), NodeId(2));
        let err = f
            .with(CapChange::Edge {
                edge: e,
                gbps: 10.0,
            })
            .unwrap_err();
        assert_eq!(err, FabricError::UnknownLink(e));
        assert!(err.to_string().contains("no link"), "{err}");
    }

    #[test]
    fn edge_cap_is_none_for_phantom_links() {
        let (t, r) = tiny();
        let f = Fabric::builder(t, r).dma_cap(1, 2, 20.0).build();
        assert_eq!(
            f.edge_cap(DirectedEdge::new(NodeId(1), NodeId(2)), TrafficClass::Dma),
            Some(20.0)
        );
        assert_eq!(
            f.edge_cap(DirectedEdge::new(NodeId(0), NodeId(2)), TrafficClass::Dma),
            None
        );
    }

    #[test]
    fn what_if_node_copy_override_is_isolated() {
        let (t, r) = tiny();
        let f = Fabric::builder(t, r).node_copy_caps(53.5).build();
        let derated = f
            .with(CapChange::NodeCopy {
                node: NodeId(1),
                gbps: 26.75,
            })
            .unwrap();
        assert_eq!(derated.node_copy_cap(NodeId(1)), 26.75);
        assert_eq!(derated.dma_path_bandwidth(NodeId(0), NodeId(1)), 26.75);
        assert_eq!(f.node_copy_cap(NodeId(1)), 53.5, "original untouched");
        assert_eq!(derated.node_copy_cap(NodeId(0)), 53.5);
    }

    #[test]
    fn node_copy_override_rejects_bad_node() {
        let (t, r) = tiny();
        let f = Fabric::builder(t, r).build();
        let err = f
            .with(CapChange::NodeCopy {
                node: NodeId(9),
                gbps: 10.0,
            })
            .unwrap_err();
        assert_eq!(
            err,
            FabricError::NodeOutOfRange {
                node: NodeId(9),
                nodes: 3
            }
        );
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    fn tiny_with_device() -> Fabric {
        use numa_topology::{DeviceSpec, NodeSpec, PackageId};
        let mut b = Topology::builder("tiny-dev");
        let n0 = b.node(NodeSpec::magny_cours(PackageId(0)).with_os_home());
        let n1 = b.node(NodeSpec::magny_cours(PackageId(0)));
        b.link(n0, n1, HtWidth::W16);
        b.device(DeviceSpec::nic(n1));
        let t = b.build().unwrap();
        let r = RouteTable::bfs(&t);
        Fabric::builder(t, r).build()
    }

    #[test]
    fn device_derate_defaults_to_unity_and_composes() {
        let f = tiny_with_device();
        assert_eq!(f.device_derate(0), 1.0);
        let half = CapChange::Device {
            device: 0,
            factor: 0.5,
        };
        let d = f.with(half).unwrap();
        assert_eq!(d.device_derate(0), 0.5);
        assert_eq!(f.device_derate(0), 1.0, "original untouched");
        let dd = d.with(half).unwrap();
        assert!(
            (dd.device_derate(0) - 0.25).abs() < 1e-12,
            "derates compose"
        );
        // Paths and edges are untouched: the stall lives on the device
        // port, not in the interconnect.
        assert_eq!(
            d.dma_path_bandwidth(NodeId(0), NodeId(1)),
            f.dma_path_bandwidth(NodeId(0), NodeId(1))
        );
    }

    #[test]
    fn device_derate_rejects_phantom_device() {
        let f = tiny_with_device();
        let err = f
            .with(CapChange::Device {
                device: 9,
                factor: 0.5,
            })
            .unwrap_err();
        assert_eq!(err, FabricError::UnknownDevice(9));
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn device_derate_rejects_bad_factor() {
        let f = tiny_with_device();
        let err = f
            .with(CapChange::Device {
                device: 0,
                factor: 0.0,
            })
            .unwrap_err();
        assert_eq!(err, FabricError::BadFactor(0.0));
        assert!(err.to_string().contains("must be in (0, 1]"), "{err}");
    }

    #[test]
    fn invalid_changes_leave_the_fabric_untouched() {
        let mut f = tiny_with_device();
        let before = f.clone();
        let e = DirectedEdge::new(NodeId(0), NodeId(1));
        for (change, err) in [
            (
                CapChange::Edge { edge: e, gbps: 0.0 },
                FabricError::BadCapacity(0.0),
            ),
            (
                CapChange::NodeCopy {
                    node: NodeId(0),
                    gbps: f64::INFINITY,
                },
                FabricError::BadCapacity(f64::INFINITY),
            ),
            (
                CapChange::NodeCpu {
                    node: NodeId(1),
                    factor: 1.5,
                },
                FabricError::BadFactor(1.5),
            ),
            (
                CapChange::Device {
                    device: 0,
                    factor: -0.5,
                },
                FabricError::BadFactor(-0.5),
            ),
        ] {
            assert_eq!(f.apply(change).unwrap_err(), err);
            assert_eq!(f, before, "{change:?} left a trace");
        }
    }

    #[test]
    fn node_cpu_derate_defaults_to_unity_and_composes() {
        let mut f = tiny_with_device();
        assert_eq!(f.node_cpu_derate(NodeId(1)), 1.0);
        f.apply(CapChange::NodeCpu {
            node: NodeId(1),
            factor: 0.5,
        })
        .unwrap();
        f.apply(CapChange::NodeCpu {
            node: NodeId(1),
            factor: 0.5,
        })
        .unwrap();
        assert_eq!(f.node_cpu_derate(NodeId(1)), 0.25);
        assert_eq!(f.node_cpu_derate(NodeId(0)), 1.0, "other nodes untouched");
    }

    #[test]
    fn only_lowering_changes_are_recorded() {
        let mut f = tiny_with_device();
        let e = DirectedEdge::new(NodeId(0), NodeId(1));
        let cap = f.edge_capacity(e, TrafficClass::Dma);
        let copy = f.node_copy_cap(NodeId(1));
        // An upgrade, or a change that leaves its resource as it was,
        // records nothing.
        for unchanged in [
            CapChange::Edge {
                edge: e,
                gbps: cap * 2.0,
            },
            CapChange::Edge {
                edge: e,
                gbps: cap * 2.0,
            },
            CapChange::NodeCopy {
                node: NodeId(1),
                gbps: copy,
            },
            CapChange::NodeCpu {
                node: NodeId(1),
                factor: 1.0,
            },
            CapChange::Device {
                device: 0,
                factor: 1.0,
            },
        ] {
            f.apply(unchanged).unwrap();
        }
        assert!(f.faults().is_empty(), "{:?}", f.faults());
        let lowered = [
            CapChange::Edge {
                edge: e,
                gbps: cap * 0.25,
            },
            CapChange::NodeCopy {
                node: NodeId(1),
                gbps: copy * 0.5,
            },
            CapChange::NodeCpu {
                node: NodeId(1),
                factor: 0.5,
            },
            CapChange::Device {
                device: 0,
                factor: 0.5,
            },
        ];
        for change in lowered {
            f.apply(change).unwrap();
        }
        assert_eq!(f.faults(), lowered);
        // `with` records like `apply`, on the copy only.
        let derated = f.with(lowered[3]).unwrap();
        assert_eq!(derated.faults()[..4], lowered);
        assert_eq!(derated.faults().len(), 5);
        assert_eq!(f.faults().len(), 4);
        // An invalid change is an error and leaves no record.
        let bad = CapChange::Device {
            device: 9,
            factor: 0.5,
        };
        assert_eq!(f.apply(bad).unwrap_err(), FabricError::UnknownDevice(9));
        assert_eq!(f.faults(), lowered);
        // The record is part of the fabric's identity.
        let mut other = tiny_with_device();
        for change in [lowered[1], lowered[0], lowered[2], lowered[3]] {
            other.apply(change).unwrap();
        }
        assert_eq!(other.dma_matrix(), f.dma_matrix());
        assert_ne!(other, f);
    }

    #[test]
    fn fault_lowers_path_iff_the_path_bandwidth_fell() {
        // One or two lowering changes on a three-node chain, with and
        // without hop decay: a path is lowered exactly when its bandwidth
        // fell below the healthy value.
        type Lowering = Box<dyn Fn(&Fabric, f64) -> CapChange>;
        let edge = |from: u16, to: u16| -> Lowering {
            let edge = DirectedEdge::new(NodeId(from), NodeId(to));
            Box::new(move |f: &Fabric, x| CapChange::Edge {
                edge,
                gbps: f.edge_capacity(edge, TrafficClass::Dma) * x,
            })
        };
        let copy = |n: u16| -> Lowering {
            let node = NodeId(n);
            Box::new(move |f: &Fabric, x| CapChange::NodeCopy {
                node,
                gbps: f.node_copy_cap(node) * x,
            })
        };
        let mut lowerings = vec![
            edge(0, 1),
            edge(1, 0),
            edge(1, 2),
            edge(2, 1),
            copy(0),
            copy(1),
            copy(2),
        ];
        lowerings.push(Box::new(|_, factor| CapChange::NodeCpu {
            node: NodeId(0),
            factor,
        }));
        let factors = [0.99, 0.9, 0.6, 0.3];
        let (t, r) = tiny();
        for decay in [0.0, 0.06] {
            let healthy = Fabric::builder(t.clone(), r.clone())
                .dma_hop_decay(decay)
                .build();
            let mut seen = [0usize; 2];
            for first in &lowerings {
                for x in factors {
                    let mut once = healthy.clone();
                    once.apply(first(&once, x)).unwrap();
                    let twice = lowerings.iter().flat_map(|second| {
                        factors.map(|y| {
                            let mut f = once.clone();
                            f.apply(second(&f, y)).unwrap();
                            f
                        })
                    });
                    for f in std::iter::once(once.clone()).chain(twice) {
                        for (src, dst) in (0..3).flat_map(|s| (0..3).map(move |d| (s, d))) {
                            let (src, dst) = (NodeId(src), NodeId(dst));
                            let fell = f.dma_path_bandwidth(src, dst)
                                < healthy.dma_path_bandwidth(src, dst);
                            assert_eq!(
                                f.fault_lowers_path(src, dst, NodeId(9)),
                                fell,
                                "{:?} {src:?}->{dst:?} decay {decay}",
                                f.faults()
                            );
                            seen[usize::from(fell)] += 1;
                        }
                    }
                }
            }
            assert!(seen[0] > 0 && seen[1] > 0, "{seen:?}");
        }
        // A lowered edge that ties the path's bottleneck leaves the path
        // as it was.
        let f = Fabric::builder(t, r).build();
        let e01 = DirectedEdge::new(NodeId(0), NodeId(1));
        let floor = f.node_copy_cap(NodeId(0)).min(f.node_copy_cap(NodeId(1)));
        let tied = f
            .with(CapChange::Edge {
                edge: e01,
                gbps: floor,
            })
            .unwrap();
        assert_eq!(tied.faults().len(), 1, "the edge was lowered");
        assert!(!tied.fault_lowers_path(NodeId(0), NodeId(1), NodeId(9)));
        // `ignore`'s copy ceiling counts as untouched.
        let f = f.with(copy(0)(&f, 0.3)).unwrap();
        assert!(f.fault_lowers_path(NodeId(1), NodeId(0), NodeId(9)));
        assert!(!f.fault_lowers_path(NodeId(1), NodeId(0), NodeId(0)));
    }

    #[test]
    fn clones_share_topology_and_routes() {
        let f = tiny_with_device();
        let g = f
            .with(CapChange::NodeCopy {
                node: NodeId(0),
                gbps: 10.0,
            })
            .unwrap();
        assert!(std::ptr::eq(f.topology(), g.topology()));
        assert!(std::ptr::eq(f.routes(), g.routes()));
    }
}
