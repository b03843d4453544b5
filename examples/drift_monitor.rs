//! Model lifecycle: characterize, persist, revalidate cheaply, detect
//! drift after a hardware event.
//!
//! Persisted performance models go stale — firmware updates, BIOS changes,
//! or a re-seated card shift the class structure. This example shows the
//! intended workflow of the `iomodel` tool's JSON models and `diff`
//! command: probe representatives, diff against the stored model, and only
//! re-characterize when membership moved.
//!
//! ```sh
//! cargo run --example drift_monitor
//! ```

use numio::core::diff_models;
use numio::fabric::calibration::{
    dl585_pio_matrix, DL585_DMA_DEFAULT_W16, DL585_DMA_DEFAULT_W8, DL585_DMA_EDGE_CAPS,
    DL585_NODE_COPY_CAP,
};
use numio::fabric::PioModel;
use numio::prelude::*;
use numio::topology::presets;

/// The host after a "firmware event": the 6->7 request channel lost 40%.
fn degraded_fabric() -> Fabric {
    let topo = presets::dl585_testbed();
    let routes = presets::dl585_routes(&topo);
    let mut b = Fabric::builder(topo, routes)
        .dma_defaults(DL585_DMA_DEFAULT_W16, DL585_DMA_DEFAULT_W8)
        .node_copy_caps(DL585_NODE_COPY_CAP)
        .pio(PioModel::Matrix(
            dl585_pio_matrix(&presets::dl585_testbed()),
        ));
    for &(f, t, cap) in DL585_DMA_EDGE_CAPS {
        let cap = if (f, t) == (6, 7) { cap * 0.6 } else { cap };
        b = b.dma_cap(f, t, cap);
    }
    b.build()
}

fn main() {
    // Day 0: characterize and persist.
    let healthy = SimPlatform::dl585();
    let modeler = IoModeler::new();
    let stored = modeler.characterize(&healthy, NodeId(7), TransferMode::Write);
    let json = stored.to_json();
    println!(
        "day 0: stored write model ({} classes, {} bytes of JSON)\n",
        stored.classes().len(),
        json.len()
    );

    // Day N: re-probe the same host; drift is within noise.
    let mut noisy = SimPlatform::dl585();
    noisy.seed = 0xDA7E;
    let recheck = modeler.characterize(&noisy, NodeId(7), TransferMode::Write);
    let d = diff_models(&stored, &recheck).expect("same target/mode");
    println!(
        "day N (same hardware):  max drift {:.1}%, moves: {} -> {}",
        d.max_rel_delta * 100.0,
        d.moved.len(),
        if d.is_stable(0.05) {
            "model still valid, keep using it"
        } else {
            "re-characterize"
        }
    );

    // Day N+1: the firmware event.
    let degraded = SimPlatform::new(degraded_fabric());
    let after = modeler.characterize(&degraded, NodeId(7), TransferMode::Write);
    let d = diff_models(&stored, &after).expect("same target/mode");
    println!("\nday N+1 (degraded 6->7 link):\n{}", d.render());
    assert!(!d.is_stable(0.05));
    println!("verdict: DRIFTED — schedulers must stop trusting the stored classes.");
}
