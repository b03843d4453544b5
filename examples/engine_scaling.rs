//! How the engine's cost per flow scales with the flow count.
//!
//! Runs the open-loop spec of the `open_loop_poisson` benchmark workload
//! (20 Mbit DMA flows from all eight DL585 nodes into node 7's device,
//! Poisson arrivals at 2000 flows/s) at 1k, 4k, 16k and 64k flows and
//! prints the median wall time of `Simulation::run` per flow, with jitter
//! off and with 5% jitter refreshed every 10 ms. The offered load
//! (40 Gbit/s) stays below the 46.5 Gbit/s edge into node 7, so the live
//! set stays bounded and a linear-time engine shows a flat column. The
//! jitter column is not flat yet: each tick redraws a multiplier for
//! every flow of the run, arrived or not.
//!
//! ```sh
//! cargo run --release --example engine_scaling
//! ```

use numio::engine::{JitterCfg, Workload};
use numio::prelude::*;
use std::time::Instant;

fn main() {
    let platform = SimPlatform::dl585();
    let fabric = platform.fabric();
    let templates: Vec<FlowSpec> = (0..8)
        .map(|i| {
            FlowSpec::dma(NodeId(i), NodeId(7))
                .gbits(0.02)
                .device_dst()
                .label(format!("N{i}->dev"))
        })
        .collect();
    let jitter = JitterCfg {
        amplitude: 0.05,
        refresh_s: 0.01,
        ..JitterCfg::none()
    };
    println!(
        "{:>7} {:>6} {:>12} {:>10} {:>14} {:>12}",
        "flows", "runs", "median(ms)", "us/flow", "jitter(ms)", "jitter us/fl"
    );
    for n in [1_000usize, 4_000, 16_000, 64_000] {
        // About 64k simulated flows per row, at least five runs.
        let runs = (64_000 / n).max(5);
        let median = |cfg: JitterCfg| {
            let mut secs: Vec<f64> = (0..runs as u64)
                .map(|seed| {
                    let w = Workload::poisson(templates.clone(), n, 2000.0, 42 + seed);
                    let t0 = Instant::now();
                    let report = Simulation::new(fabric)
                        .jitter(cfg)
                        .workload(w)
                        .run()
                        .expect("run");
                    assert_eq!(report.flows.len(), n);
                    t0.elapsed().as_secs_f64()
                })
                .collect();
            secs.sort_by(f64::total_cmp);
            secs[runs / 2]
        };
        let (off, on) = (median(JitterCfg::none()), median(jitter));
        println!(
            "{n:>7} {runs:>6} {:>12.3} {:>10.3} {:>14.3} {:>12.3}",
            off * 1e3,
            off * 1e6 / n as f64,
            on * 1e3,
            on * 1e6 / n as f64
        );
    }
}
