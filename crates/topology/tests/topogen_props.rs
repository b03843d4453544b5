//! Seeded property tests over `TopoGen`-generated topologies: every
//! sampled spec must build a connected, fully routable host with valid
//! device attachments, and the same seed must reproduce it bit-for-bit.
//! Each property runs `CASES` cases; case `c` samples the host seed
//! `SplitMix64::new(c).next_u64()`.

use numa_par::rng::{fnv1a64, SplitMix64, FNV1A64_INIT};
use numa_topology::hostgen::{TopoGen, Wiring};
use numa_topology::{presets, HtWidth, NodeId, RouteTable, Topology};

const CASES: u64 = 128;

fn host_seed(case: u64) -> u64 {
    SplitMix64::new(case).next_u64()
}

#[test]
fn sampled_specs_build_connected_hosts() {
    for case in 0..CASES {
        let seed = host_seed(case);
        let gen = TopoGen::sample("prop-host", seed);
        let topo = gen.build().unwrap_or_else(|e| {
            panic!("case {case}: seed {seed} spec {:?} failed: {e}", gen.spec())
        });
        let spec = gen.spec();
        assert_eq!(topo.num_nodes() as u16, spec.num_nodes(), "case {case}");
        assert_eq!(topo.num_packages() as u16, spec.sockets, "case {case}");
        // Builder validation already proved connectivity; hop_distance
        // would panic on a disconnected pair, so walking all pairs is a
        // direct connectivity check. Each source's one-BFS row must agree
        // with the pairwise distances.
        let mut row = vec![0; topo.num_nodes()];
        for a in topo.node_ids() {
            topo.hop_distances_into(a, &mut row);
            for b in topo.node_ids() {
                let d = topo.hop_distance(a, b);
                assert!(
                    u64::from(d) < topo.num_nodes() as u64,
                    "case {case}: {a:?} {b:?}"
                );
                assert_eq!(row[b.index()], d, "case {case}: row of {a:?} at {b:?}");
            }
        }
    }
}

#[test]
fn sampled_hosts_are_fully_routable() {
    for case in 0..CASES {
        let (topo, routes) = TopoGen::sample("prop-host", host_seed(case))
            .build_routed()
            .unwrap();
        assert_eq!(routes.num_nodes(), topo.num_nodes(), "case {case}");
        for a in topo.node_ids() {
            for b in topo.node_ids() {
                let r = routes.route(a, b);
                assert_eq!(r.src(), a, "case {case}");
                assert_eq!(r.dst(), b, "case {case}");
                assert_eq!(r.is_local(), a == b, "case {case}");
                // Every hop of the route is a real link.
                for e in r.edges() {
                    assert!(
                        topo.link_between(e.from, e.to).is_some(),
                        "case {case}: {e:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn sampled_devices_attach_to_real_hub_nodes() {
    for case in 0..CASES {
        let gen = TopoGen::sample("prop-host", host_seed(case));
        let topo = gen.build().unwrap();
        let spec = gen.spec();
        assert_eq!(
            topo.devices().len() as u16,
            spec.nics + spec.ssds,
            "case {case}"
        );
        for d in topo.devices() {
            assert!(d.attached_to.index() < topo.num_nodes(), "case {case}");
            assert!(topo.node(d.attached_to).has_io_hub, "case {case}");
            assert_eq!(
                Some(d.attached_to.index() as u16),
                spec.io_node,
                "case {case}"
            );
        }
    }
}

#[test]
fn same_seed_is_bit_identical() {
    for case in 0..CASES {
        let seed = host_seed(case);
        let a = TopoGen::sample("prop-host", seed).build().unwrap();
        let b = TopoGen::sample("prop-host", seed).build().unwrap();
        assert_eq!(&a, &b, "case {case}");
        // The serialized form (what topology hashes key on) agrees too.
        assert_eq!(
            numa_par::json::to_string(&a),
            numa_par::json::to_string(&b),
            "case {case}"
        );
    }
}

#[test]
fn explicit_specs_cover_every_wiring_family() {
    for (wiring, sockets, k) in [
        (Wiring::FullMesh, 2, 2),
        (Wiring::SocketRing, 4, 2),
        (Wiring::Ladder, 8, 1),
        (Wiring::BoardRing, 8, 4),
    ] {
        let topo = TopoGen::new(format!("w-{}", wiring.label()))
            .sockets(sockets)
            .nodes_per_socket(k)
            .wiring(wiring)
            .inter_width(HtWidth::W8)
            .build()
            .unwrap();
        let routes = RouteTable::bfs(&topo);
        assert_eq!(routes.num_nodes(), usize::from(sockets * k));
    }
}

/// Fold every route of `routes` into `h`: the table size, then per ordered
/// pair the path length and each node id, little-endian.
fn fold_routes(mut h: u64, routes: &RouteTable) -> u64 {
    let n = routes.num_nodes();
    h = fnv1a64(h, &(n as u64).to_le_bytes());
    for a in 0..n {
        for b in 0..n {
            let nodes = routes.route(NodeId::new(a), NodeId::new(b)).nodes();
            h = fnv1a64(h, &(nodes.len() as u64).to_le_bytes());
            for node in nodes {
                h = fnv1a64(h, &node.0.to_le_bytes());
            }
        }
    }
    h
}

/// Route anchor: the DL585 firmware table (BFS plus overrides), the BFS
/// tables of the four Table I presets and the tables of `TopoGen::sample`
/// hosts for seeds 0..512, every path folded into one digest. Any change
/// to the BFS visiting order, the tie-break or the override path moves it.
#[test]
fn route_digest_is_pinned() {
    let dl585 = presets::dl585_testbed();
    let mut h = fold_routes(FNV1A64_INIT, &presets::dl585_routes(&dl585));
    for topo in [
        presets::intel_4s4n(),
        presets::amd_4s8n(),
        presets::amd_8s8n(),
        presets::blade32(),
    ] {
        h = fold_routes(h, &RouteTable::bfs(&topo));
    }
    for seed in 0..512 {
        let (_, routes) = TopoGen::sample("gen", seed).build_routed().unwrap();
        h = fold_routes(h, &routes);
    }
    assert_eq!(h, 0x53a8_3f07_2803_8386, "route digest");
}

/// Fold a topology's JSON text and its `Debug` and `{:#?}` text into `h`.
fn fold_text(h: u64, topo: &Topology) -> u64 {
    let h = fnv1a64(h, numa_par::json::to_string(topo).as_bytes());
    let h = fnv1a64(h, format!("{topo:?}").as_bytes());
    fnv1a64(h, format!("{topo:#?}").as_bytes())
}

/// Host-build anchor: the text of the two DL585 presets, then for
/// `TopoGen::sample("gen", s)`, s in 0..256, every route of the host's
/// table and the topology's text, folded into one digest. A change to how
/// a host is built (node, link or device order, adjacency, routes) must
/// keep every byte a caller can read.
#[test]
fn sampled_host_routes_and_text_digest_is_pinned() {
    let mut h = fold_text(FNV1A64_INIT, &presets::dl585_testbed());
    h = fold_text(h, &presets::dl585_split_io());
    for seed in 0..256 {
        let (topo, routes) = TopoGen::sample("gen", seed).build_routed().unwrap();
        h = fold_routes(h, &routes);
        h = fold_text(h, &topo);
    }
    assert_eq!(h, 0xd72b_ae97_8927_7643, "sampled host digest");
}
