//! The fleet acceptance gate: `compare` runs all three placement
//! policies on a seeded 8-host heterogeneous fleet and must be
//! bit-identical across same-seed runs and land on pinned FCT digests —
//! the workspace-level pin behind `iomodel fleet compare --check`.

use numio::fleet::{ClusterScheduler, Fleet, FleetReport, StreamSpec, POLICY_NAMES};

const HOSTS: usize = 8;
const STREAMS: usize = 64;
const SEED: u64 = 42;
/// FCT digest per policy, in `POLICY_NAMES` order (class-ranked,
/// bandwidth-aware, adaptive).
const DIGESTS: [&str; 3] = ["6b8d519fd0e25294", "b0b4fb0c8d554848", "5f587eda061bc0a8"];

fn compare_once() -> Vec<FleetReport> {
    // Regenerate the fleet from scratch each run: the gate covers the
    // full pipeline (sampling, calibration, characterization, episode),
    // not just the scheduler.
    let fleet = Fleet::generate(HOSTS, SEED).expect("fleet generation");
    ClusterScheduler::new(&fleet)
        .compare(&StreamSpec::workload(STREAMS, SEED))
        .expect("policy comparison")
}

#[test]
fn eight_host_compare_is_bit_identical_across_runs() {
    let a = compare_once();
    let b = compare_once();
    assert_eq!(a, b);
    // PartialEq on floats is necessary but not sufficient for the wire
    // digest contract; pin the digests bitwise and the Debug text, whose
    // floats are shortest round-trip (distinct bits, distinct text).
    for (ra, rb) in a.iter().zip(&b) {
        assert_eq!(ra.digest, rb.digest, "{}", ra.policy);
        assert_eq!(ra.aggregate_gbps.to_bits(), rb.aggregate_gbps.to_bits());
        assert_eq!(format!("{ra:?}"), format!("{rb:?}"));
    }
    let digests: Vec<String> = a.iter().map(|r| format!("{:016x}", r.digest)).collect();
    assert_eq!(digests, DIGESTS);
}

#[test]
fn compare_reports_all_policies_with_sane_metrics() {
    let reports = compare_once();
    let names: Vec<&str> = reports.iter().map(|r| r.policy.as_str()).collect();
    assert_eq!(names, POLICY_NAMES);
    for r in &reports {
        assert_eq!(r.hosts, HOSTS);
        assert_eq!(r.streams, STREAMS);
        assert_eq!(
            r.per_host_streams.iter().sum::<usize>(),
            STREAMS,
            "{}",
            r.policy
        );
        assert!(r.aggregate_gbps > 0.0, "{}", r.policy);
        assert!(
            r.jain_fairness > 0.0 && r.jain_fairness <= 1.0 + 1e-12,
            "{}",
            r.policy
        );
        assert!(r.p99_slowdown >= 1.0, "{}", r.policy);
        // The render line carries the three headline metrics.
        let line = r.render();
        assert!(line.contains(&r.policy), "{line}");
        assert!(line.contains("jain"), "{line}");
        assert!(line.contains("p99 slowdown"), "{line}");
    }
}

#[test]
fn different_seeds_differ() {
    // Guard against a degenerate generator: another seed must change the
    // fleet enough to move at least one policy's digest.
    let a = compare_once();
    let fleet = Fleet::generate(HOSTS, SEED + 1).expect("fleet generation");
    let b = ClusterScheduler::new(&fleet)
        .compare(&StreamSpec::workload(STREAMS, SEED + 1))
        .expect("policy comparison");
    assert!(a.iter().zip(&b).any(|(ra, rb)| ra.digest != rb.digest));
}
