//! The complete real-host workflow in one binary: discover the machine
//! from sysfs (or a fabricated snapshot when the host is UMA), run the
//! methodology's probes with real memcpy, classify, and report — i.e. what
//! the paper's `iomodel` tool does on first contact with unknown hardware.
//!
//! ```sh
//! cargo run --release --example discover_and_probe
//! ```

use numio::core::{render_model, HostPlatform, Platform};
use numio::prelude::*;
use numio::topology::sysfs;
use std::path::Path;

fn main() {
    // Step 1: discovery. Prefer the real /sys; fall back to a canned
    // 2-package snapshot so the example always demonstrates the pipeline.
    let root = Path::new("/sys/devices/system/node");
    let discovered = match sysfs::discover_from_root(root, &[]) {
        Ok(d) if d.topology.num_nodes() > 1 => {
            println!(
                "discovered {} NUMA nodes from {root:?}",
                d.topology.num_nodes()
            );
            d
        }
        other => {
            if let Ok(d) = other {
                println!(
                    "this host exposes {} node(s) — using a fabricated 4-node \
                     snapshot to demonstrate the pipeline",
                    d.topology.num_nodes()
                );
            } else {
                println!("no sysfs here — using a fabricated 4-node snapshot");
            }
            let slit = ["10 16 22 22", "16 10 22 22", "22 22 10 16", "22 22 16 10"];
            let mut snap = sysfs::SysfsSnapshot::new();
            for (i, row) in slit.iter().enumerate() {
                snap = snap
                    .with(&format!("node{i}/cpulist"), "0-3")
                    .with(&format!("node{i}/meminfo"), "MemTotal: 4194304 kB")
                    .with(&format!("node{i}/distance"), row);
            }
            sysfs::discover(&snap).expect("snapshot is well formed")
        }
    };
    if discovered.slit_was_flat {
        println!("(flat SLIT: firmware hides the structure — exactly why the paper probes)");
    }
    let topo = discovered.topology;
    let n = topo.num_nodes();

    // Step 2: probe with real memcpy (Algorithm 1's inner loop), treating
    // the highest node as the hypothetical device site.
    let platform = HostPlatform::new(n);
    let target = NodeId::new(n - 1);
    println!(
        "\nprobing target node {target} with {} real copy threads per probe...",
        platform.cores_per_node(target)
    );
    let modeler = IoModeler {
        reps: 5,
        bytes_per_thread: 16 << 20,
        threads: Some(platform.cores_per_node(target)),
        ..IoModeler::new()
    };
    for mode in TransferMode::ALL {
        let model = modeler.characterize_with_topo(&platform, &topo, target, mode);
        println!("{}", render_model(&model));
    }
    println!(
        "without NUMA pinning all probes hit the same memory, so classes\n\
         collapse — run each probe under `numactl --cpunodebind/--membind`\n\
         (see `iomodel emit-script`) to recover the real structure."
    );
}
