//! Table I: NUMA factor of different server configurations.

use crate::Experiment;
use numa_fabric::calibration::{paper, table1_machines};
use numa_fabric::numa_factor;
use std::fmt::Write as _;

/// Regenerate Table I.
pub fn run() -> Experiment {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "{:<28} {:>10} {:>10} {:>8}",
        "Server type", "modelled", "paper", "error"
    );
    for ((topo, model, _), (label, published)) in table1_machines().into_iter().zip(paper::TABLE1) {
        let f = numa_factor(&topo, &model);
        let _ = writeln!(
            text,
            "{label:<28} {f:>10.2} {published:>10.1} {:>7.1}%",
            (f - published).abs() / published * 100.0
        );
    }
    let _ = writeln!(
        text,
        "\nlatency model: local = 100 ns, per-machine hop latencies calibrated\n\
         (see numa-fabric/src/calibration.rs); the factor is the mean remote\n\
         access latency over the local latency, as defined in §I."
    );
    Experiment {
        id: "table1",
        title: "NUMA factor of different server configurations",
        text,
        data: None,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn factors_within_two_percent() {
        let e = super::run();
        for line in e.text.lines().skip(1).take(4) {
            let err: f64 = line
                .split_whitespace()
                .last()
                .unwrap()
                .trim_end_matches('%')
                .parse()
                .unwrap();
            assert!(err < 2.0, "{line}");
        }
    }
}
