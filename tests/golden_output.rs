//! Golden-output tests: the user-facing text renderers are part of the
//! tool's interface; these pin their exact shapes (deterministic inputs,
//! exact string match) so format regressions are caught loudly.

use numio::core::{render_model, IoModeler, SimPlatform, TransferMode};
use numio::memsys::{MemPolicy, MemoryState};
use numio::topology::{distance, presets, render, NodeId};

#[test]
fn hop_matrix_rendering_is_pinned() {
    let topo = presets::intel_4s4n();
    let s = render::render_matrix("from", "to", &distance::hop_matrix(&topo));
    let expected = concat!(
        " from\\to       0       1       2       3\n",
        "       0       0       1       1       1\n",
        "       1       1       0       1       1\n",
        "       2       1       1       0       1\n",
        "       3       1       1       1       0\n",
    );
    assert_eq!(s, expected);
}

#[test]
fn localities_line_is_pinned() {
    let topo = presets::dl585_testbed();
    let s = render::render_localities(&topo, NodeId(7));
    assert_eq!(
        s,
        "from N7: N0:Remote(3) N1:Remote(2) N2:Remote(2) N3:Remote(1) \
         N4:Remote(2) N5:Remote(1) N6:Neighbour N7:Local"
    );
}

#[test]
fn numactl_hardware_listing_is_pinned() {
    let topo = presets::dl585_testbed();
    let mem = MemoryState::dl585_idle(&topo);
    let s = mem.render_hardware();
    assert!(s.starts_with("available: 8 nodes (0-7)\n"));
    assert!(s.contains("node 0 size: 4096 MB   node 0 free: 1440 MB\n"));
    assert!(s.contains("node 7 size: 4096 MB   node 7 free: 4000 MB\n"));
    assert_eq!(s.lines().count(), 9);
}

#[test]
fn model_report_shape_is_pinned() {
    let platform = SimPlatform::dl585().noiseless();
    let model = IoModeler::new()
        .reps(1)
        .characterize(&platform, NodeId(7), TransferMode::Write);
    let s = render_model(&model);
    // Noiseless single-rep probes give exact calibration values.
    assert!(
        s.contains("I/O performance model: target node 7 (device write), platform sim:dl585-g7")
    );
    assert!(s.contains("node 3:  26.00  (min 26.00, max 26.00, n=1)"));
    assert!(s.contains("class 1: nodes {6, 7}  range 46.5 – 53.5  avg 50.0"));
    assert!(s.contains("class 3: nodes {2, 3}  range 26.0 – 27.3  avg 26.6"));
    assert!(s.contains("probe reduction: test 3 representative nodes instead of 8 (62% saved)"));
}

#[test]
fn dot_rendering_is_structurally_pinned() {
    let topo = presets::fig1a();
    let s = render::render_dot(&topo);
    assert!(s.starts_with("graph \"fig1a\" {"));
    assert!(s.contains("layout=circo;"));
    // 8 nodes, 10 links, bold intra-package edges.
    assert_eq!(s.matches("shape=circle").count(), 8);
    assert_eq!(s.matches(" -- ").count(), 10);
    assert_eq!(s.matches("style=bold").count(), 4);
    assert!(s.trim_end().ends_with('}'));
}

#[test]
fn allocation_spill_report_is_pinned() {
    let topo = presets::dl585_testbed();
    let mut mem = MemoryState::new(&topo);
    // Fill node 5 and spill; the numastat counters render predictably.
    mem.allocate(NodeId(5), &MemPolicy::bind(5), 4000).unwrap();
    mem.allocate(NodeId(5), &MemPolicy::LocalPreferred, 100)
        .unwrap();
    let s = mem.stats().render();
    let hit_line = s.lines().find(|l| l.starts_with("numa_hit")).unwrap();
    let miss_line = s.lines().find(|l| l.starts_with("numa_miss")).unwrap();
    // 4000 hit on node 5 (column 6 of the counters).
    assert!(
        hit_line.split_whitespace().nth(6).unwrap() == "4000",
        "{hit_line}"
    );
    // 100 missed onto node 1 (nearest with space).
    assert!(
        miss_line.split_whitespace().nth(2).unwrap() == "100",
        "{miss_line}"
    );
}

#[test]
fn summary_range_avg_cell_is_pinned() {
    let s = numio::engine::Summary::from(&[26.0, 27.3]);
    assert_eq!(s.range_avg(), "26.0 – 27.3 / 26.6");
}
