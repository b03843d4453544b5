//! Why hop distance fails: enumerate the candidate Figure 1 topologies and
//! show that none of their hop-distance orderings is consistent with the
//! measured STREAM bandwidth matrix (§IV-A).
//!
//! ```sh
//! cargo run --example topology_explorer
//! ```

use numio::core::rank_correlation;
use numio::fabric::calibration::dl585_fabric;
use numio::memsys::StreamBench;
use numio::prelude::*;
use numio::topology::{distance, presets, render};

fn main() {
    println!("== Candidate 4P Magny-Cours topologies (Figure 1) ==\n");
    for topo in presets::fig1_variants() {
        println!("--- {} ---", topo.name());
        println!("{}", render::render_localities(&topo, NodeId(7)));
        println!(
            "{}",
            render::render_matrix("from", "to", &distance::hop_matrix(&topo))
        );
    }

    // Measure the STREAM matrix on the calibrated testbed...
    let fabric = dl585_fabric();
    let stream = StreamBench::paper().matrix(&fabric);
    println!("== Measured STREAM matrix (Fig. 3) ==");
    println!("{}", render::render_bw_matrix("cpu", "mem", &stream));

    // ...and try to explain it with each candidate's hop distances: if hop
    // distance governed bandwidth, row 7 of the matrix would anti-correlate
    // strongly with row 7 of the hop matrix (more hops => less bandwidth).
    println!("== Can any candidate topology explain the measurements? ==");
    let bw_row7: Vec<f64> = stream[7].clone();
    let mut best: Option<(String, f64)> = None;
    for topo in presets::fig1_variants() {
        let hops_row7: Vec<f64> = distance::hop_matrix(&topo)[7]
            .iter()
            .map(|&h| h as f64)
            .collect();
        let corr = rank_correlation(&hops_row7, &bw_row7);
        println!(
            "  {}: rank corr(hops, bandwidth) = {corr:+.2}  (perfect hop model would be -1.00)",
            topo.name()
        );
        if best.as_ref().is_none_or(|(_, b)| corr < *b) {
            best = Some((topo.name().to_string(), corr));
        }
    }
    let (name, corr) = best.unwrap();
    println!(
        "\nEven the best candidate ({name}, {corr:+.2}) explains the ordering poorly —\n\
         node 3 is one hop from node 7 yet measures *slowest*, and node 0 at\n\
         three hops measures near-best. This is the paper's §IV-A conclusion:\n\
         \"it is inappropriate to simply use the physical distance to determine\n\
         the NUMA cost for memory bandwidth performance modeling.\""
    );

    // The asymmetry that defeats any symmetric metric:
    let fwd = stream[7][4];
    let rev = stream[4][7];
    println!(
        "\nAsymmetry check: CPU7->MEM4 = {fwd:.2} Gbps but CPU4->MEM7 = {rev:.2} Gbps\n\
         (paper: 21.34 vs 18.45)."
    );
}
