//! Seeded property tests over randomly generated connected topologies:
//! each property runs `CASES` cases, case `c` drawing its topology from
//! `SplitMix64::new(c)`.

use numa_par::rng::SplitMix64;
use numa_topology::{distance, HtWidth, NodeId, NodeSpec, PackageId, Route, RouteTable, Topology};

const CASES: u64 = 64;

/// A random connected topology of 2–11 nodes: a random spanning tree plus
/// a random subset of extra edges.
fn arb_topology(case: u64) -> Topology {
    let mut rng = SplitMix64::new(case);
    let n = 2 + rng.below(10) as usize;
    let mut b = Topology::builder(format!("prop-{n}-{case}"));
    let ids: Vec<NodeId> = (0..n)
        .map(|i| b.node(NodeSpec::magny_cours(PackageId::new(i / 2))))
        .collect();
    // Spanning tree: attach node i to a random earlier node.
    for i in 1..n {
        let parent = rng.below(i as u64) as usize;
        b.link(ids[i], ids[parent], HtWidth::W8);
    }
    // Extra edges (skip duplicates).
    let extras = rng.below(n as u64) as usize;
    let pairs: Vec<(usize, usize)> = (1..n).map(|i| (i, rng.below(i as u64) as usize)).collect();
    let mut t = b.clone();
    for &(i, j) in pairs.iter().take(extras) {
        let mut trial = t.clone();
        trial.link(ids[i], ids[j], HtWidth::W16);
        if trial.clone().build().is_ok() {
            t = trial;
        }
    }
    t.build().expect("spanning tree guarantees connectivity")
}

#[test]
fn hop_distance_is_a_metric() {
    for case in 0..CASES {
        let topo = arb_topology(case);
        let n = topo.num_nodes();
        for a in topo.node_ids() {
            assert_eq!(topo.hop_distance(a, a), 0, "case {case}");
        }
        for a in topo.node_ids() {
            for b in topo.node_ids() {
                let d = topo.hop_distance(a, b);
                assert_eq!(d, topo.hop_distance(b, a), "case {case}: {a:?} {b:?}");
                if a != b {
                    assert!(d >= 1, "case {case}: {a:?} {b:?}");
                    assert!((d as usize) < n, "case {case}: {a:?} {b:?}");
                }
                // triangle inequality through any intermediate node
                for c in topo.node_ids() {
                    assert!(
                        d <= topo.hop_distance(a, c) + topo.hop_distance(c, b),
                        "case {case}: {a:?} {b:?} via {c:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn bfs_routes_are_valid_shortest_walks() {
    for case in 0..CASES {
        let topo = arb_topology(case);
        let rt = RouteTable::bfs(&topo);
        for a in topo.node_ids() {
            for b in topo.node_ids() {
                let r: Route = rt.route(a, b);
                assert_eq!(r.src(), a, "case {case}");
                assert_eq!(r.dst(), b, "case {case}");
                assert_eq!(
                    r.hops() as u32,
                    topo.hop_distance(a, b),
                    "case {case}: {a:?} {b:?}"
                );
                for e in r.edges() {
                    assert!(
                        topo.link_between(e.from, e.to).is_some(),
                        "case {case}: route edge {e:?} not a link"
                    );
                }
            }
        }
    }
}

#[test]
fn slit_matrix_is_consistent_with_hops() {
    for case in 0..CASES {
        let topo = arb_topology(case);
        let hops = distance::hop_matrix(&topo);
        let slit = distance::slit_matrix(&topo);
        for i in 0..topo.num_nodes() {
            assert_eq!(slit[i][i], distance::SLIT_LOCAL, "case {case}");
            for j in 0..topo.num_nodes() {
                if i != j {
                    assert!(slit[i][j] > distance::SLIT_LOCAL, "case {case}: {i} {j}");
                    assert_eq!(
                        slit[i][j],
                        distance::SLIT_LOCAL + 6 * hops[i][j],
                        "case {case}: {i} {j}"
                    );
                }
            }
        }
    }
}

#[test]
fn locality_agrees_with_packages() {
    use numa_topology::Locality;
    for case in 0..CASES {
        let topo = arb_topology(case);
        for a in topo.node_ids() {
            for b in topo.node_ids() {
                match topo.locality(a, b) {
                    Locality::Local => assert_eq!(a, b, "case {case}"),
                    Locality::Neighbour => {
                        assert_ne!(a, b, "case {case}");
                        assert_eq!(
                            topo.node(a).package,
                            topo.node(b).package,
                            "case {case}: {a:?} {b:?}"
                        );
                    }
                    Locality::Remote(h) => {
                        assert_ne!(
                            topo.node(a).package,
                            topo.node(b).package,
                            "case {case}: {a:?} {b:?}"
                        );
                        assert_eq!(h, topo.hop_distance(a, b), "case {case}: {a:?} {b:?}");
                    }
                }
            }
        }
    }
}

#[test]
fn json_round_trips() {
    for case in 0..CASES {
        let topo = arb_topology(case);
        let json = numa_par::json::to_string(&topo);
        let back: Topology = numa_par::json::from_str(&json).unwrap();
        assert_eq!(back, topo, "case {case}");
    }
}

#[test]
fn edge_load_covers_every_reachable_pair() {
    for case in 0..CASES {
        let topo = arb_topology(case);
        let load = RouteTable::bfs(&topo).edge_load();
        let total: usize = load.values().sum();
        let expected: usize = (0..topo.num_nodes())
            .flat_map(|a| (0..topo.num_nodes()).map(move |b| (a, b)))
            .map(|(a, b)| topo.hop_distance(NodeId::new(a), NodeId::new(b)) as usize)
            .sum();
        assert_eq!(total, expected, "case {case}");
    }
}
