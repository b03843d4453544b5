//! Run the methodology's probes with *real* memcpy on the machine
//! executing this example.
//!
//! Without NUMA pinning (see DESIGN.md §7) every pretend-node measures the
//! same physical memory, so on a laptop you should see one tight class —
//! the point is that the exact Algorithm 1 code path runs end-to-end on
//! real hardware. On a real NUMA host, wrap with
//! `numactl --cpunodebind=K --membind=I` per probe to reproduce the paper.
//!
//! ```sh
//! cargo run --release --example host_probe
//! ```

use numio::core::{render_model, HostPlatform, Platform};
use numio::memsys::RealStream;
use numio::prelude::*;
use numio::topology::presets;

fn main() {
    let platform = HostPlatform::new(4);
    let topo = presets::intel_4s4n();
    println!(
        "probing {} with {} threads/node, real memcpy...\n",
        platform.label(),
        platform.cores_per_node(NodeId(0))
    );

    let modeler = IoModeler {
        reps: 10,
        bytes_per_thread: 32 << 20, // 32 MiB per thread per rep
        threads: Some(platform.cores_per_node(NodeId(0))),
        ..IoModeler::new()
    };
    let model = modeler.characterize_with_topo(&platform, &topo, NodeId(0), TransferMode::Write);
    println!("{}", render_model(&model));

    let spread = model
        .per_node
        .iter()
        .map(|s| s.rel_spread())
        .fold(0.0_f64, f64::max);
    println!(
        "largest per-node run spread: {:.1}% — this is real measurement noise,\n\
         not simulation.",
        spread * 100.0
    );

    // The classic STREAM report, also for real (the paper's §III-B1 sizing
    // rule: arrays at least 4x the LLC).
    let stream = RealStream {
        reps: 5,
        ..RealStream::default()
    };
    println!(
        "\nreal STREAM, {} elements x {} threads (defeats a 5 MiB LLC: {}):",
        stream.elems,
        stream.threads,
        stream.defeats_cache(5 << 20)
    );
    for r in stream.run_all() {
        println!(
            "  {:<12} best of {}: {:>7.2} Gbit/s",
            format!("{:?}", r.op),
            r.samples.len(),
            r.max_gbps
        );
    }
}
