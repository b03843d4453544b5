//! Canned machine descriptions.
//!
//! * The four candidate 4P Magny-Cours topologies of the paper's Figure 1
//!   ([`fig1a`] – [`fig1d`]). The exact interconnect of such a host is
//!   implementation specific — the whole reason the paper gives four
//!   diagrams for one CPU model — so these are *plausible* variants that
//!   satisfy the G34 port budget, not silicon ground truth.
//! * [`dl585_testbed`]: the HP ProLiant DL585 G7 host of Table II, with the
//!   interconnect wiring and firmware routes our fabric calibration targets,
//!   one ConnectX-3 NIC and two LSI Nytro SSDs on node 7, and node 0 marked
//!   as the OS home.
//! * The Table I comparison machines: [`intel_4s4n`], [`amd_4s8n`],
//!   [`amd_8s8n`], [`blade32`].

use crate::device::DeviceSpec;
use crate::hostgen::{TopoGen, Wiring};
use crate::ids::{NodeId, PackageId};
use crate::link::HtWidth;
use crate::node::NodeSpec;
use crate::routing::RouteTable;
use crate::topology::{Topology, TopologyBuilder};

/// G34 port budget: four HT ports per die, one consumed by an I/O hub where
/// present (§II-A).
pub const G34_PORT_BUDGET: usize = 4;

fn four_p_base(name: &str) -> (TopologyBuilder, Vec<NodeId>) {
    let mut b = Topology::builder(name);
    let ids = b.magny_cours_dies(8);
    // Intra-package (die-to-die) links are full width.
    for p in 0..4 {
        b.link(ids[2 * p], ids[2 * p + 1], HtWidth::W16);
    }
    (b, ids)
}

/// Figure 1(a): a hub-like variant. Node 7 links directly to the even die
/// of every other package and node 6 to the odd dies, so from node 7 the
/// localities are exactly those quoted in §II-A: neighbour 6, one hop to
/// {0,2,4}, two hops to {1,3,5}.
pub fn fig1a() -> Topology {
    let (mut b, _) = four_p_base("fig1a");
    b.links(&[
        (7, 0, HtWidth::W8),
        (7, 2, HtWidth::W8),
        (7, 4, HtWidth::W8),
        (6, 1, HtWidth::W8),
        (6, 3, HtWidth::W8),
        (6, 5, HtWidth::W8),
    ]);
    b.ht_port_budget(G34_PORT_BUDGET);
    b.build().expect("fig1a is valid")
}

/// Figure 1(b): two parallel package rings (even dies ring, odd dies ring).
pub fn fig1b() -> Topology {
    let (mut b, _) = four_p_base("fig1b");
    b.links(&[
        (0, 2, HtWidth::W8),
        (2, 4, HtWidth::W8),
        (4, 6, HtWidth::W8),
        (6, 0, HtWidth::W8),
        (1, 3, HtWidth::W8),
        (3, 5, HtWidth::W8),
        (5, 7, HtWidth::W8),
        (7, 1, HtWidth::W8),
    ]);
    b.ht_port_budget(G34_PORT_BUDGET);
    b.build().expect("fig1b is valid")
}

/// Figure 1(c): a ladder with two cross braces.
pub fn fig1c() -> Topology {
    let (mut b, _) = four_p_base("fig1c");
    b.links(&[
        (0, 2, HtWidth::W8),
        (2, 4, HtWidth::W8),
        (4, 6, HtWidth::W8),
        (1, 3, HtWidth::W8),
        (3, 5, HtWidth::W8),
        (5, 7, HtWidth::W8),
        (0, 3, HtWidth::W8),
        (4, 7, HtWidth::W8),
    ]);
    b.ht_port_budget(G34_PORT_BUDGET);
    b.build().expect("fig1c is valid")
}

/// Figure 1(d): the variant reported by Dumitru et al. \[3\] — long diagonals
/// pairing opposite packages.
pub fn fig1d() -> Topology {
    let (mut b, _) = four_p_base("fig1d");
    b.links(&[
        (0, 3, HtWidth::W8),
        (1, 2, HtWidth::W8),
        (4, 7, HtWidth::W8),
        (5, 6, HtWidth::W8),
        (0, 4, HtWidth::W8),
        (1, 5, HtWidth::W8),
        (2, 6, HtWidth::W8),
        (3, 7, HtWidth::W8),
    ]);
    b.ht_port_budget(G34_PORT_BUDGET);
    b.build().expect("fig1d is valid")
}

/// All four Figure 1 candidates, for sweeps.
pub fn fig1_variants() -> Vec<Topology> {
    vec![fig1a(), fig1b(), fig1c(), fig1d()]
}

/// The characterized testbed: HP ProLiant DL585 G7 (Table II).
///
/// 4 × Opteron 6136 packages = 8 nodes × 4 cores, 32 GiB RAM, one
/// dual-port 40 GbE ConnectX-3 and two LSI Nytro WarpDrive SSDs all attached
/// to node 7's I/O hub (Fig. 2), node 0 homing the OS image.
///
/// The interconnect wiring here is the structure our `numa-fabric`
/// calibration targets. It is *a* valid G34 wiring whose directed
/// bottlenecks reproduce the measured class structure of Tables IV/V; the
/// paper itself demonstrates that the real wiring cannot be inferred from
/// measurements (§IV-A).
pub fn dl585_testbed() -> Topology {
    dl585_shape("dl585-g7", NodeId(7))
}

/// The DL585 wiring with its NIC on node 7 and both SSDs on `ssd_node`,
/// built in one pass: node 0 is the OS home (kernel buffers and shared
/// libraries; the paper observes only ~1.5 GiB of its 4 GiB free at
/// idle), so its spec carries the flag from the start.
fn dl585_shape(name: &str, ssd_node: NodeId) -> Topology {
    let mut b = TopologyBuilder::with_capacity(name.to_string(), 8, 12, 3);
    for die in 0..8 {
        let spec = NodeSpec::magny_cours(PackageId::new(die / 2));
        b.node(if die == 0 { spec.with_os_home() } else { spec });
    }
    for p in 0..4 {
        b.link(NodeId(2 * p), NodeId(2 * p + 1), HtWidth::W16);
    }
    b.links(&[
        (0, 2, HtWidth::W8),
        (1, 3, HtWidth::W8),
        (0, 4, HtWidth::W8),
        (1, 5, HtWidth::W8),
        (2, 6, HtWidth::W8),
        (3, 7, HtWidth::W8),
        (4, 6, HtWidth::W8),
        (5, 7, HtWidth::W8),
    ]);
    b.device(DeviceSpec::nic(NodeId(7)));
    b.device(DeviceSpec::ssd(ssd_node));
    b.device(DeviceSpec::ssd(ssd_node));
    b.ht_port_budget(G34_PORT_BUDGET);
    b.build().unwrap_or_else(|e| panic!("{name} is valid: {e}"))
}

/// A split-I/O variant of the testbed: the NIC stays on node 7 but both
/// SSDs hang off node 3's I/O hub. No such machine was measured in the
/// paper; it exercises the methodology's claim of generality ("can also be
/// generalized to other nodes in the host", §V-B) — every device node is
/// characterized as its own target with its own class structure.
pub fn dl585_split_io() -> Topology {
    dl585_shape("dl585-split-io", NodeId(3))
}

/// The firmware routing table of the testbed: BFS defaults plus the
/// to-node-7 overrides that steer DMA-bound traffic along the measured
/// bottleneck links. Firmware routing on real HT systems is exactly this
/// kind of hand-set table, and it is one of the mechanisms that breaks
/// hop-distance models.
pub fn dl585_routes(topo: &Topology) -> RouteTable {
    let n = |i: u16| NodeId(i);
    RouteTable::with_overrides(
        topo,
        &[
            vec![n(0), n(4), n(6), n(7)],
            vec![n(1), n(5), n(7)],
            vec![n(2), n(6), n(7)],
            vec![n(4), n(6), n(7)],
        ],
    )
    .expect("dl585 overrides are valid")
}

/// Table I row 1: an Intel 4-socket, 4-node host with a full QPI mesh.
/// NUMA factor ~1.5.
pub fn intel_4s4n() -> Topology {
    TopoGen::new("intel-4s4n")
        .sockets(4)
        .nodes_per_socket(1)
        .cores_per_node(8)
        .dram_mib_per_node(8192)
        .wiring(Wiring::FullMesh)
        .inter_width(HtWidth::W16)
        .build()
        .expect("intel mesh is valid")
}

/// Table I row 2: AMD 4-socket / 8-node — structurally the DL585 wiring
/// without devices. NUMA factor ~2.7.
pub fn amd_4s8n() -> Topology {
    TopoGen::new("amd-4s8n")
        .sockets(4)
        .nodes_per_socket(2)
        .wiring(Wiring::SocketRing)
        .ht_port_budget(G34_PORT_BUDGET)
        .build()
        .expect("amd_4s8n is valid")
}

/// Table I row 3: AMD 8-socket / 8-node — one die per socket, sparser
/// 2x4 ladder interconnect (two rails plus end rungs), hence longer
/// average paths. NUMA factor ~2.8.
pub fn amd_8s8n() -> Topology {
    TopoGen::new("amd-8s8n")
        .sockets(8)
        .nodes_per_socket(1)
        .wiring(Wiring::Ladder)
        .build()
        .expect("amd_8s8n is valid")
}

/// Table I row 4: a 32-node blade system — eight 4-node boards, full mesh
/// on a board, boards chained in a ring. NUMA factor ~5.5.
pub fn blade32() -> Topology {
    TopoGen::new("blade32")
        .sockets(8)
        .nodes_per_socket(4)
        .wiring(Wiring::BoardRing)
        .build()
        .expect("blade32 is valid")
}

/// Table II metadata, for reports and the `fig2_testbed` binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestbedInfo {
    /// Motherboard model.
    pub motherboard: &'static str,
    /// Chipset.
    pub chipset: &'static str,
    /// CPU model string.
    pub cpu_model: &'static str,
    /// Cores / NUMA nodes.
    pub cores_nodes: &'static str,
    /// Installed memory.
    pub memory: &'static str,
    /// LLC size.
    pub llc: &'static str,
    /// I/O bus.
    pub io_bus: &'static str,
    /// Linux kernel version.
    pub kernel: &'static str,
    /// SSD model.
    pub ssd: &'static str,
    /// NIC model.
    pub nic: &'static str,
    /// NIC driver.
    pub nic_driver: &'static str,
}

/// Table II, verbatim.
pub fn table_ii() -> TestbedInfo {
    TestbedInfo {
        motherboard: "HP ProLiant DL585 Gen 7",
        chipset: "AMD SR5690/SP5100",
        cpu_model: "AMD Opteron 6136 Magny-Cours @ 2.4GHz",
        cores_nodes: "32/8",
        memory: "32GB",
        llc: "5MBytes",
        io_bus: "PCI Express Gen 2 x8 lanes",
        kernel: "2.6.32-279.19.1.el6.x86_64",
        ssd: "LSI Nytro WarpDrive WLP4-200 Card",
        nic: "ConnectX-3 EN Dual Port 40 Gigabit Ethernet Adapter",
        nic_driver: "MLNX_OFED_LINUX-1.5.3",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::PackageId;
    use crate::node::NodeSpec;
    use crate::topology::Locality;

    /// Golden: the Table I presets are now emitted by `TopoGen`, and must
    /// stay bit-identical to their original hand-built definitions —
    /// `numa-fabric`'s latency calibration and every serialized topology
    /// hash depend on the exact node/link emission order.
    mod golden {
        use super::*;

        fn handbuilt_intel_4s4n() -> Topology {
            let mut b = Topology::builder("intel-4s4n");
            let ids: Vec<NodeId> = (0..4)
                .map(|i| {
                    b.node(
                        NodeSpec::magny_cours(PackageId(i))
                            .with_cores(8)
                            .with_dram_mib(8192),
                    )
                })
                .collect();
            for i in 0..4 {
                for j in (i + 1)..4 {
                    b.link(ids[i], ids[j], HtWidth::W16);
                }
            }
            b.build().unwrap()
        }

        fn handbuilt_amd_4s8n() -> Topology {
            let mut b = Topology::builder("amd-4s8n");
            let ids = b.magny_cours_dies(8);
            for p in 0..4 {
                b.link(ids[2 * p], ids[2 * p + 1], HtWidth::W16);
            }
            b.links(&[
                (0, 2, HtWidth::W8),
                (1, 3, HtWidth::W8),
                (0, 4, HtWidth::W8),
                (1, 5, HtWidth::W8),
                (2, 6, HtWidth::W8),
                (3, 7, HtWidth::W8),
                (4, 6, HtWidth::W8),
                (5, 7, HtWidth::W8),
            ]);
            b.ht_port_budget(G34_PORT_BUDGET);
            b.build().unwrap()
        }

        fn handbuilt_amd_8s8n() -> Topology {
            let mut b = Topology::builder("amd-8s8n");
            let ids: Vec<NodeId> = (0..8)
                .map(|i| b.node(NodeSpec::magny_cours(PackageId(i))))
                .collect();
            b.link(ids[0], ids[1], HtWidth::W8);
            b.link(ids[1], ids[2], HtWidth::W8);
            b.link(ids[2], ids[3], HtWidth::W8);
            b.link(ids[4], ids[5], HtWidth::W8);
            b.link(ids[5], ids[6], HtWidth::W8);
            b.link(ids[6], ids[7], HtWidth::W8);
            b.link(ids[0], ids[4], HtWidth::W8);
            b.link(ids[3], ids[7], HtWidth::W8);
            b.build().unwrap()
        }

        fn handbuilt_blade32() -> Topology {
            let mut b = Topology::builder("blade32");
            let ids: Vec<NodeId> = (0..32)
                .map(|i| b.node(NodeSpec::magny_cours(PackageId(i / 4))))
                .collect();
            for board in 0..8 {
                let base = board * 4;
                for i in 0..4 {
                    for j in (i + 1)..4 {
                        b.link(ids[base + i], ids[base + j], HtWidth::W16);
                    }
                }
            }
            for board in 0..8 {
                let next = (board + 1) % 8;
                b.link(ids[board * 4], ids[next * 4 + 1], HtWidth::W8);
            }
            b.build().unwrap()
        }

        #[test]
        fn generated_presets_match_handbuilt_bit_for_bit() {
            for (generated, golden) in [
                (intel_4s4n(), handbuilt_intel_4s4n()),
                (amd_4s8n(), handbuilt_amd_4s8n()),
                (amd_8s8n(), handbuilt_amd_8s8n()),
                (blade32(), handbuilt_blade32()),
            ] {
                assert_eq!(generated, golden, "{} drifted", golden.name());
                // Serialized form (what topology hashes are computed over)
                // must agree too, not just PartialEq.
                assert_eq!(
                    numa_par::json::to_string(&generated),
                    numa_par::json::to_string(&golden),
                    "{} JSON drifted",
                    golden.name()
                );
            }
        }

        #[test]
        fn generated_amd_4s8n_matches_dl585_wiring() {
            // amd-4s8n is "the DL585 wiring without devices": same links.
            let dl = dl585_testbed();
            let gen = amd_4s8n();
            assert_eq!(gen.links(), dl.links());
        }
    }

    #[test]
    fn fig1a_matches_quoted_localities() {
        let t = fig1a();
        // "node 7 is local to itself, a neighbor to node 6, remote to nodes
        //  {0,2,4} with one hop, and to {1,3,5} with two hops"
        assert_eq!(t.locality(NodeId(7), NodeId(7)), Locality::Local);
        assert_eq!(t.locality(NodeId(7), NodeId(6)), Locality::Neighbour);
        for i in [0u16, 2, 4] {
            assert_eq!(t.locality(NodeId(7), NodeId(i)), Locality::Remote(1));
        }
        for i in [1u16, 3, 5] {
            assert_eq!(t.locality(NodeId(7), NodeId(i)), Locality::Remote(2));
        }
    }

    #[test]
    fn all_fig1_variants_are_valid_and_distinct() {
        let variants = fig1_variants();
        assert_eq!(variants.len(), 4);
        for t in &variants {
            assert_eq!(t.num_nodes(), 8);
            assert_eq!(t.num_packages(), 4);
        }
        // Distinct hop matrices (they are genuinely different wirings).
        let mats: Vec<_> = variants.iter().map(crate::distance::hop_matrix).collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(mats[i], mats[j], "variants {i} and {j} coincide");
            }
        }
    }

    #[test]
    fn dl585_matches_table_ii_shape() {
        let t = dl585_testbed();
        assert_eq!(t.num_nodes(), 8);
        assert_eq!(t.total_cores(), 32);
        assert_eq!(t.total_dram_mib(), 32 * 1024);
        assert_eq!(t.devices().len(), 3); // 1 NIC + 2 SSDs
        assert_eq!(t.io_hub_nodes(), vec![NodeId(7)]);
        assert_eq!(t.os_home_node(), Some(NodeId(0)));
        for d in t.devices() {
            assert_eq!(d.attached_to, NodeId(7));
        }
    }

    #[test]
    fn dl585_respects_port_budget_including_io_hub() {
        let t = dl585_testbed();
        for n in t.node_ids() {
            let used = t.neighbours(n).len() + usize::from(t.node(n).has_io_hub);
            assert!(used <= G34_PORT_BUDGET, "{n:?} uses {used}");
        }
    }

    #[test]
    fn dl585_routes_apply_overrides() {
        let t = dl585_testbed();
        let rt = dl585_routes(&t);
        assert_eq!(
            rt.route(NodeId(0), NodeId(7)).nodes(),
            &[NodeId(0), NodeId(4), NodeId(6), NodeId(7)]
        );
        assert_eq!(
            rt.route(NodeId(2), NodeId(7)).nodes(),
            &[NodeId(2), NodeId(6), NodeId(7)]
        );
        // BFS default in the reverse direction => asymmetric routing.
        assert!(rt.is_asymmetric());
    }

    #[test]
    fn dl585_from7_routes_are_bfs_defaults() {
        let t = dl585_testbed();
        let rt = dl585_routes(&t);
        assert_eq!(
            rt.route(NodeId(7), NodeId(4)).nodes(),
            &[NodeId(7), NodeId(5), NodeId(4)]
        );
        assert_eq!(
            rt.route(NodeId(7), NodeId(0)).nodes(),
            &[NodeId(7), NodeId(3), NodeId(1), NodeId(0)]
        );
        assert_eq!(
            rt.route(NodeId(7), NodeId(2)).nodes(),
            &[NodeId(7), NodeId(3), NodeId(2)]
        );
    }

    #[test]
    fn split_io_variant_has_two_hub_nodes() {
        let t = dl585_split_io();
        assert_eq!(t.io_hub_nodes(), vec![NodeId(3), NodeId(7)]);
        assert_eq!(t.devices_at(NodeId(3)).count(), 2);
        assert_eq!(t.devices_at(NodeId(7)).count(), 1);
        // Port budgets still hold with the second hub.
        for n in t.node_ids() {
            let used = t.neighbours(n).len() + usize::from(t.node(n).has_io_hub);
            assert!(used <= G34_PORT_BUDGET, "{n:?} uses {used}");
        }
    }

    #[test]
    fn table_i_machines_have_expected_sizes() {
        assert_eq!(intel_4s4n().num_nodes(), 4);
        assert_eq!(amd_4s8n().num_nodes(), 8);
        assert_eq!(amd_8s8n().num_nodes(), 8);
        assert_eq!(blade32().num_nodes(), 32);
        assert_eq!(amd_8s8n().num_packages(), 8);
        assert_eq!(blade32().num_packages(), 8);
    }

    #[test]
    fn intel_mesh_is_all_one_hop() {
        let t = intel_4s4n();
        for a in t.node_ids() {
            for b in t.node_ids() {
                if a != b {
                    assert_eq!(t.hop_distance(a, b), 1);
                }
            }
        }
    }

    #[test]
    fn blade32_has_long_paths() {
        let t = blade32();
        let max_hops = (0..32)
            .flat_map(|a| (0..32).map(move |b| (a, b)))
            .map(|(a, b)| t.hop_distance(NodeId(a), NodeId(b)))
            .max()
            .unwrap();
        assert!(
            max_hops >= 4,
            "blade should have distant boards, got {max_hops}"
        );
    }

    #[test]
    fn table_ii_strings() {
        let info = table_ii();
        assert!(info.cpu_model.contains("6136"));
        assert!(info.kernel.starts_with("2.6.32"));
    }
}
