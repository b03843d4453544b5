//! Open-loop workloads and flow completion times through the engine's
//! `Simulation`.
//!
//! The paper's 400 GB batch runs measure *aggregate* bandwidth; latency
//! questions ("what does the p99 transfer time look like under Poisson
//! arrivals?") need an open-loop workload, where flows arrive on their
//! own clock instead of all at t=0. The event-calendar engine makes both
//! the same one-liner — and seeded workloads replay bit-identically, so
//! every number below is reproducible.
//!
//! ```sh
//! cargo run --example open_loop_workloads
//! ```

use numio::engine::Workload;
use numio::prelude::*;

fn main() {
    let platform = SimPlatform::dl585();
    let fabric = platform.fabric();

    // Two transfer templates into the I/O node: a near writer (node 6,
    // one hop) and a far writer (node 2, the starved route of Table IV).
    let templates = vec![
        FlowSpec::dma(NodeId(6), NodeId(7)).gbits(4.0).label("near"),
        FlowSpec::dma(NodeId(2), NodeId(7)).gbits(4.0).label("far"),
    ];

    // Closed loop: all 400 flows at t=0, the paper's batch regime.
    let batch = Simulation::new(fabric)
        .workload(Workload::batch(
            (0..400).map(|i| templates[i % 2].clone()).collect(),
        ))
        .run()
        .expect("batch admitted");
    println!("closed loop (batch):");
    println!("  {}", batch.fct_stats().render());
    println!(
        "  aggregate {:.1} Gbit/s over {:.1}s\n",
        batch.aggregate_gbps, batch.makespan_s
    );

    // Open loop: the same 400 transfers as a seeded Poisson process at
    // 40 flows/s. Arrival gaps come from a deterministic splitmix64
    // stream — same seed, same calendar, same FCT vector.
    let report = Simulation::new(fabric)
        .workload(Workload::poisson(templates, 400, 40.0, 42))
        .run()
        .expect("workload admitted");
    println!("open loop (poisson, 40 flows/s, seed 42):");
    println!("  {}", report.fct_stats().render());
    for (label, stats) in FctStats::by_label(&report.flows) {
        println!("  [{label}] {}", stats.render());
    }
    println!("  fct digest: {:016x}", report.fct_digest());

    // The digest is the reproducibility anchor: a second run is the
    // same bits, not just statistically similar.
    let again = Simulation::new(fabric)
        .workload(Workload::poisson(
            vec![
                FlowSpec::dma(NodeId(6), NodeId(7)).gbits(4.0).label("near"),
                FlowSpec::dma(NodeId(2), NodeId(7)).gbits(4.0).label("far"),
            ],
            400,
            40.0,
            42,
        ))
        .run()
        .expect("workload admitted");
    assert_eq!(
        report.fct_digest(),
        again.fct_digest(),
        "seeded runs replay exactly"
    );
    println!("\nsame seed, same bits — the run above is fully reproducible.");
}
