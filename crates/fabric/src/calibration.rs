//! Calibrated constants for the DL585 G7 testbed and the Table I machines.
//!
//! **Calibration policy** (DESIGN.md §5): the *mechanisms* — firmware
//! routing, min-cut path bandwidth, max-min sharing — are structural; the
//! *constants* below are fitted so the mechanisms reproduce the paper's
//! published measurements. Every number cites where it comes from.
//!
//! The [`paper`] submodule carries the published target values verbatim so
//! tests and the experiment bins can compare against them.

use crate::fabric::{Fabric, PioModel};
use crate::latency::LatencyModel;
use numa_topology::{presets, Locality, NodeId, Topology};

/// DMA capacities of the *calibrated* directed edges, Gbit/s.
///
/// Derivation: Tables IV/V give the per-node `memcpy` bandwidths of the
/// proposed methodology. With the DL585 wiring and firmware routes of
/// `numa_topology::presets`, each node's value is the min-cut of its route
/// to/from node 7; the caps below are chosen so those min-cuts equal the
/// published per-node numbers:
///
/// * write direction (into node 7, Table IV): 0→42.9, 1→44.6, 2→27.3,
///   3→26.0, 4→46.5, 5→45.0, 6→46.5, local 53.5;
/// * read direction (out of node 7, Table V): 0→39.9, 1→40.2, 2→46.9,
///   3→50.3, 4→27.9, 5→40.9, 6→47.1, local 53.5.
///
/// The narrow 3→7 / 2→6 request channels and the narrow 5→4 response
/// channel are the "number of request and response buffers, and link width
/// configuration" asymmetries the paper attributes to the AMD platform
/// (§IV-A citing HT 3.0 spec \[20\] and the BKDG \[26\]).
pub const DL585_DMA_EDGE_CAPS: &[(u16, u16, f64)] = &[
    // toward node 7 (device-write direction)
    (0, 4, 42.9),
    (4, 6, 46.9),
    (6, 7, 46.5),
    (1, 5, 44.6),
    (5, 7, 45.0),
    (2, 6, 27.3),
    (3, 7, 26.0),
    // away from node 7 (device-read direction)
    (7, 6, 47.1),
    (7, 5, 40.9),
    (7, 3, 50.3),
    (3, 1, 40.2),
    (1, 0, 39.9),
    (3, 2, 46.9),
    (5, 4, 27.9),
];

/// Local 4-thread streaming-copy ceiling per node, Gbit/s. Table IV quotes
/// 55.9 for the local write case and Table V 51.2 for the local read case —
/// the same physical operation observed twice; we sit between the two and
/// let run-to-run jitter produce the spread.
pub const DL585_NODE_COPY_CAP: f64 = 53.5;

/// Default DMA capacity of uncalibrated full-width links, Gbit/s.
pub const DL585_DMA_DEFAULT_W16: f64 = 51.2;
/// Default DMA capacity of uncalibrated half-width links, Gbit/s.
pub const DL585_DMA_DEFAULT_W8: f64 = 44.0;

/// PIO (STREAM) locality baseline, Gbit/s: local best, neighbour second —
/// the regularity §IV-A reports before documenting its exceptions.
const PIO_LOCAL: f64 = 28.0;
const PIO_OS_HOME_LOCAL: f64 = 31.0;
const PIO_NEIGHBOUR: f64 = 24.8;
const PIO_HOP1: f64 = 21.5;
const PIO_HOP2: f64 = 19.8;
const PIO_HOP3: f64 = 18.6;

/// Calibrated PIO entries `(cpu, mem, gbps)` overriding the locality base.
///
/// Anchors from the paper:
/// * (7,4) = 21.34 and (4,7) = 18.45 — the asymmetric pair quoted in §IV-A;
/// * row 7 gives Figure 4(a) "CPU centric": nodes {0,1} outperform {2,3}
///   by ~56% (the paper quotes 43%–88% in §IV-B2);
/// * column 7 gives Figure 4(b) "memory centric": nodes {2,3} beat node 4
///   (18.45) but trail {0,1} — see EXPERIMENTS.md for the documented
///   tension between the paper's §IV-A and §IV-B2 claims here.
pub const DL585_PIO_OVERRIDES: &[(u16, u16, f64)] = &[
    // row 7: CPU on node 7 (Fig. 4a)
    (7, 0, 23.5),
    (7, 1, 23.0),
    (7, 2, 15.5),
    (7, 3, 14.4),
    (7, 4, 21.34),
    (7, 5, 21.8),
    (7, 6, 24.8),
    // column 7: memory on node 7 (Fig. 4b)
    (0, 7, 20.5),
    (1, 7, 20.2),
    (2, 7, 19.0),
    (3, 7, 18.8),
    (4, 7, 18.45),
    (5, 7, 21.0),
    (6, 7, 24.2),
];

/// Build the full 8x8 PIO matrix: locality base, deterministic +-2% texture
/// (real Fig. 3 shows small asymmetries everywhere), then the calibrated
/// overrides.
#[allow(clippy::needless_range_loop)] // row/column indices read clearer here
pub fn dl585_pio_matrix(topo: &Topology) -> Vec<Vec<f64>> {
    let n = topo.num_nodes();
    let mut m = vec![vec![0.0; n]; n];
    // One BFS per CPU node gives its whole row of hop distances.
    let mut hops = vec![0; n];
    for c in 0..n {
        topo.hop_distances_into(NodeId::new(c), &mut hops);
        for mem in 0..n {
            let (cpu, node) = (NodeId::new(c), NodeId::new(mem));
            let base = match topo.locality_with(cpu, node, || hops[mem]) {
                Locality::Local => {
                    if topo.node(cpu).os_home {
                        PIO_OS_HOME_LOCAL
                    } else {
                        PIO_LOCAL
                    }
                }
                Locality::Neighbour => PIO_NEIGHBOUR,
                Locality::Remote(1) => PIO_HOP1,
                Locality::Remote(2) => PIO_HOP2,
                Locality::Remote(_) => PIO_HOP3,
            };
            // Deterministic texture: +-2% wobble, asymmetric by design.
            let wobble = (((c * 3 + mem * 5) % 3) as f64 - 1.0) * 0.02;
            m[c][mem] = if c == mem {
                base
            } else {
                base * (1.0 + wobble)
            };
        }
    }
    for &(c, mem, v) in DL585_PIO_OVERRIDES {
        m[c as usize][mem as usize] = v;
    }
    m
}

/// The calibrated testbed fabric: DL585 topology + firmware routes + the
/// constants above.
pub fn dl585_fabric() -> Fabric {
    let topo = presets::dl585_testbed();
    let routes = presets::dl585_routes(&topo);
    let pio = PioModel::Matrix(dl585_pio_matrix(&topo));
    let mut b = Fabric::builder(topo, routes)
        .dma_defaults(DL585_DMA_DEFAULT_W16, DL585_DMA_DEFAULT_W8)
        .node_copy_caps(DL585_NODE_COPY_CAP)
        .pio(pio);
    for &(from, to, cap) in DL585_DMA_EDGE_CAPS {
        b = b.dma_cap(from, to, cap);
    }
    b.build()
}

/// The split-I/O variant (NIC on node 7, SSDs on node 3) with the same
/// link calibration — used to exercise multi-hub characterization.
pub fn dl585_split_io_fabric() -> Fabric {
    let topo = presets::dl585_split_io();
    let routes = presets::dl585_routes(&topo);
    let pio = PioModel::Matrix(dl585_pio_matrix(&topo));
    let mut b = Fabric::builder(topo, routes)
        .dma_defaults(DL585_DMA_DEFAULT_W16, DL585_DMA_DEFAULT_W8)
        .node_copy_caps(DL585_NODE_COPY_CAP)
        .pio(pio);
    for &(from, to, cap) in DL585_DMA_EDGE_CAPS {
        b = b.dma_cap(from, to, cap);
    }
    b.build()
}

/// A generic (uncalibrated) fabric for any topology: width-scaled link
/// capacities and a locality-based PIO model. Used to show the methodology
/// generalizes beyond the testbed (§V-B "generalized to other nodes ... and
/// other NUMA systems").
pub fn generic_fabric(topo: Topology) -> Fabric {
    let routes = numa_topology::RouteTable::bfs(&topo);
    // 6% per extra hop: enough to tier distant boards on big machines
    // without inventing the testbed's directional asymmetries.
    Fabric::builder(topo, routes).dma_hop_decay(0.06).build()
}

/// The Table I machine roster: `(topology, latency model, published factor)`.
///
/// Local latency is normalized to 100 ns; per-hop latencies are calibrated
/// per machine (the table mixes interconnect generations, so a shared
/// constant would be wrong *and* the paper only reports the ratios).
pub fn table1_machines() -> Vec<(Topology, LatencyModel, f64)> {
    vec![
        (
            presets::intel_4s4n(),
            LatencyModel::per_hop(100.0, 50.0),
            1.5,
        ),
        (
            presets::amd_4s8n(),
            // neighbour 150 ns; remote hops at ~103.6 ns each land the 2.7
            // average over the hypercube's 2/3/1 mix of 1/2/3-hop remotes:
            // (150 + 2*(100+k) + 3*(100+2k) + (100+3k)) / 7 = 270 => k = 1140/11.
            LatencyModel {
                local_ns: 100.0,
                neighbour_ns: Some(150.0),
                per_hop_ns: 1140.0 / 11.0,
                deep_hop_extra_ns: 0.0,
                deep_after: u32::MAX,
            },
            2.7,
        ),
        (
            presets::amd_8s8n(),
            LatencyModel::per_hop(100.0, 78.75),
            2.8,
        ),
        (
            presets::blade32(),
            LatencyModel::calibrate_to_factor(&presets::blade32(), 100.0, 5.5),
            5.5,
        ),
    ]
}

/// Published numbers from the paper, for tests and experiment bins.
pub mod paper {
    /// Table IV per-class *node sets* for the device-write model.
    pub const WRITE_CLASSES: [&[u16]; 3] = [&[6, 7], &[0, 1, 4, 5], &[2, 3]];
    /// Table IV memcpy class averages (Gbit/s).
    pub const WRITE_MEMCPY_AVG: [f64; 3] = [51.2, 44.5, 26.6];
    /// Table IV TCP-sender class averages.
    pub const WRITE_TCP_AVG: [f64; 3] = [20.3, 20.4, 16.2];
    /// Table IV RDMA_WRITE class averages.
    pub const WRITE_RDMA_AVG: [f64; 3] = [23.3, 23.2, 17.1];
    /// Table IV SSD-write class averages.
    pub const WRITE_SSD_AVG: [f64; 3] = [28.8, 28.5, 18.0];

    /// Table V per-class node sets for the device-read model.
    pub const READ_CLASSES: [&[u16]; 4] = [&[6, 7], &[2, 3], &[0, 1, 5], &[4]];
    /// Table V memcpy class averages.
    pub const READ_MEMCPY_AVG: [f64; 4] = [49.1, 48.6, 40.4, 27.9];
    /// Table V TCP-receiver class averages.
    pub const READ_TCP_AVG: [f64; 4] = [21.2, 20.0, 20.6, 14.4];
    /// Table V RDMA_READ class averages.
    pub const READ_RDMA_AVG: [f64; 4] = [22.0, 22.0, 18.3, 16.1];
    /// Table V SSD-read class averages.
    pub const READ_SSD_AVG: [f64; 4] = [34.7, 33.1, 30.1, 18.5];

    /// §IV-A STREAM anchor: CPU 7 on memory 4 (Gbit/s).
    pub const STREAM_CPU7_MEM4: f64 = 21.34;
    /// §IV-A STREAM anchor: CPU 4 on memory 7 (Gbit/s).
    pub const STREAM_CPU4_MEM7: f64 = 18.45;

    /// §V-B Eq. 1 worked example: the class-2 RDMA_READ bandwidth (node 2).
    pub const EQ1_CLASS2_BW: f64 = 21.998;
    /// §V-B Eq. 1 worked example: the class-3 RDMA_READ bandwidth (node 0).
    pub const EQ1_CLASS3_BW: f64 = 18.036;
    /// Predicted aggregate.
    pub const EQ1_PREDICTED: f64 = 20.017;
    /// Measured aggregate.
    pub const EQ1_MEASURED: f64 = 19.415;
    /// Relative error the paper reports (3.1%).
    pub const EQ1_REL_ERROR: f64 = 0.031;

    /// Table I rows: (label, NUMA factor).
    pub const TABLE1: [(&str, f64); 4] = [
        ("Intel 4 sockets/4 nodes", 1.5),
        ("AMD 4 sockets/8 nodes", 2.7),
        ("AMD 8 sockets/8 nodes", 2.8),
        ("HP blade system 32 nodes", 5.5),
    ];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::numa_factor;

    /// The per-node memcpy targets implied by Tables IV/V (see the
    /// DL585_DMA_EDGE_CAPS docs).
    const WRITE_TARGET: [f64; 8] = [42.9, 44.6, 27.3, 26.0, 46.5, 45.0, 46.5, 53.5];
    const READ_TARGET: [f64; 8] = [39.9, 40.2, 46.9, 50.3, 27.9, 40.9, 47.1, 53.5];

    /// The testbed as it was first built: the wiring built once, then
    /// rebuilt node by node to mark node 0 as the OS home, and the PIO
    /// matrix classified pair by pair with `Topology::locality`.
    #[allow(clippy::needless_range_loop)] // as in dl585_pio_matrix
    fn two_pass_dl585_fabric() -> Fabric {
        use numa_topology::{DeviceSpec, HtWidth};
        let mut b = Topology::builder("dl585-g7");
        let ids = b.magny_cours_dies(8);
        for p in 0..4 {
            b.link(ids[2 * p], ids[2 * p + 1], HtWidth::W16);
        }
        for (a, c) in [
            (0, 2),
            (1, 3),
            (0, 4),
            (1, 5),
            (2, 6),
            (3, 7),
            (4, 6),
            (5, 7),
        ] {
            b.link(NodeId(a), NodeId(c), HtWidth::W8);
        }
        b.device(DeviceSpec::nic(NodeId(7)));
        b.device(DeviceSpec::ssd(NodeId(7)));
        b.device(DeviceSpec::ssd(NodeId(7)));
        b.ht_port_budget(presets::G34_PORT_BUDGET);
        let first = b.build().unwrap();
        let mut r = Topology::builder(first.name().to_string());
        for n in first.node_ids() {
            let mut spec = first.node(n).clone();
            spec.os_home = n == NodeId(0);
            r.node(spec);
        }
        for l in first.links() {
            r.link(l.a, l.b, l.width);
        }
        for d in first.devices() {
            r.device(*d);
        }
        let topo = r.build().unwrap();
        let n = topo.num_nodes();
        let mut m = vec![vec![0.0; n]; n];
        for c in 0..n {
            for mem in 0..n {
                let base = match topo.locality(NodeId::new(c), NodeId::new(mem)) {
                    Locality::Local if topo.node(NodeId::new(c)).os_home => PIO_OS_HOME_LOCAL,
                    Locality::Local => PIO_LOCAL,
                    Locality::Neighbour => PIO_NEIGHBOUR,
                    Locality::Remote(1) => PIO_HOP1,
                    Locality::Remote(2) => PIO_HOP2,
                    Locality::Remote(_) => PIO_HOP3,
                };
                let wobble = (((c * 3 + mem * 5) % 3) as f64 - 1.0) * 0.02;
                m[c][mem] = if c == mem {
                    base
                } else {
                    base * (1.0 + wobble)
                };
            }
        }
        for &(c, mem, v) in DL585_PIO_OVERRIDES {
            m[c as usize][mem as usize] = v;
        }
        let routes = presets::dl585_routes(&topo);
        let mut b = Fabric::builder(topo, routes)
            .dma_defaults(DL585_DMA_DEFAULT_W16, DL585_DMA_DEFAULT_W8)
            .node_copy_caps(DL585_NODE_COPY_CAP)
            .pio(PioModel::Matrix(m));
        for &(from, to, cap) in DL585_DMA_EDGE_CAPS {
            b = b.dma_cap(from, to, cap);
        }
        b.build()
    }

    #[test]
    fn one_pass_testbed_equals_the_two_pass_construction() {
        assert_eq!(dl585_fabric(), two_pass_dl585_fabric());
    }

    #[test]
    fn write_direction_min_cuts_hit_targets() {
        let f = dl585_fabric();
        for i in 0..8 {
            let bw = f.dma_path_bandwidth(NodeId(i), NodeId(7));
            assert!(
                (bw - WRITE_TARGET[i as usize]).abs() < 1e-9,
                "node {i}: {bw} vs {}",
                WRITE_TARGET[i as usize]
            );
        }
    }

    #[test]
    fn read_direction_min_cuts_hit_targets() {
        let f = dl585_fabric();
        for i in 0..8 {
            let bw = f.dma_path_bandwidth(NodeId(7), NodeId(i));
            assert!(
                (bw - READ_TARGET[i as usize]).abs() < 1e-9,
                "node {i}: {bw} vs {}",
                READ_TARGET[i as usize]
            );
        }
    }

    #[test]
    fn class_averages_match_paper_within_3_percent() {
        let f = dl585_fabric();
        for (class_nodes, &target) in paper::WRITE_CLASSES.iter().zip(&paper::WRITE_MEMCPY_AVG) {
            let avg: f64 = class_nodes
                .iter()
                .map(|&n| f.dma_path_bandwidth(NodeId(n), NodeId(7)))
                .sum::<f64>()
                / class_nodes.len() as f64;
            assert!(
                (avg - target).abs() / target < 0.03,
                "write class {class_nodes:?}: {avg} vs {target}"
            );
        }
        for (class_nodes, &target) in paper::READ_CLASSES.iter().zip(&paper::READ_MEMCPY_AVG) {
            let avg: f64 = class_nodes
                .iter()
                .map(|&n| f.dma_path_bandwidth(NodeId(7), NodeId(n)))
                .sum::<f64>()
                / class_nodes.len() as f64;
            assert!(
                (avg - target).abs() / target < 0.03,
                "read class {class_nodes:?}: {avg} vs {target}"
            );
        }
    }

    #[test]
    fn read_and_write_orderings_differ() {
        // The directional asymmetry: {2,3} are bottom-class for writes but
        // near-top for reads; node 4 is mid for writes but bottom for reads.
        let f = dl585_fabric();
        let w3 = f.dma_path_bandwidth(NodeId(3), NodeId(7));
        let r3 = f.dma_path_bandwidth(NodeId(7), NodeId(3));
        assert!(r3 > 1.5 * w3);
        let w4 = f.dma_path_bandwidth(NodeId(4), NodeId(7));
        let r4 = f.dma_path_bandwidth(NodeId(7), NodeId(4));
        assert!(w4 > 1.5 * r4);
    }

    #[test]
    fn stream_anchors_match() {
        let f = dl585_fabric();
        assert_eq!(
            f.pio_bandwidth(NodeId(7), NodeId(4)),
            paper::STREAM_CPU7_MEM4
        );
        assert_eq!(
            f.pio_bandwidth(NodeId(4), NodeId(7)),
            paper::STREAM_CPU4_MEM7
        );
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn stream_matrix_shows_quoted_inequalities() {
        let f = dl585_fabric();
        let m = f.pio_matrix();
        // CPU 7 on node 4 beats CPU 7 on nodes 2,3 (§IV-A).
        assert!(m[7][4] > m[7][2]);
        assert!(m[7][4] > m[7][3]);
        // CPU 4 on node 7 loses to CPUs 2,3 on node 7 (§IV-A).
        assert!(m[4][7] < m[2][7]);
        assert!(m[4][7] < m[3][7]);
        // Node 0 local beats other locals (OS home advantage).
        for i in 1..8 {
            assert!(m[0][0] > m[i][i], "node {i}");
        }
        // Local best and neighbour second best in every row.
        for c in 0..8usize {
            let nb = c ^ 1; // package pairs are (2k, 2k+1)
            for mem in 0..8 {
                if mem != c {
                    assert!(m[c][c] > m[c][mem], "row {c} local not best");
                }
                if mem != c && mem != nb {
                    assert!(m[c][nb] > m[c][mem], "row {c} neighbour not second");
                }
            }
        }
    }

    #[test]
    fn cpu_centric_row7_ratio_in_quoted_band() {
        let f = dl585_fabric();
        let m = f.pio_matrix();
        let avg01 = (m[7][0] + m[7][1]) / 2.0;
        let avg23 = (m[7][2] + m[7][3]) / 2.0;
        let ratio = avg01 / avg23;
        assert!((1.43..=1.88).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn pio_matrix_is_asymmetric() {
        let f = dl585_fabric();
        let m = f.pio_matrix();
        let asym = (0..8)
            .flat_map(|i| (0..8).map(move |j| (i, j)))
            .filter(|&(i, j)| i < j && (m[i][j] - m[j][i]).abs() > 1e-9)
            .count();
        assert!(asym >= 8, "only {asym} asymmetric pairs");
    }

    #[test]
    fn table1_factors_reproduce() {
        for (topo, model, target) in table1_machines() {
            let f = numa_factor(&topo, &model);
            assert!(
                (f - target).abs() / target < 0.02,
                "{}: {f} vs {target}",
                topo.name()
            );
        }
    }

    #[test]
    fn generic_fabric_builds_for_all_presets() {
        for topo in presets::fig1_variants() {
            let f = generic_fabric(topo);
            let m = f.dma_matrix();
            for row in &m {
                for &v in row {
                    assert!(v > 0.0 && v <= 55.0);
                }
            }
        }
    }
}
