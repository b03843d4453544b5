//! Seeded property tests: allocation state machine and STREAM invariants.
//! Each property runs `CASES` cases, case `c` drawing its inputs from
//! `SplitMix64::new(c)`.

use numa_fabric::calibration::dl585_fabric;
use numa_memsys::{MemPolicy, MemoryState, StreamBench, StreamOp};
use numa_par::rng::SplitMix64;
use numa_topology::{presets, NodeId};

const CASES: u64 = 128;

#[derive(Debug, Clone)]
enum Op {
    Alloc {
        task: u16,
        policy: MemPolicy,
        mib: u64,
    },
    FreeOldest,
}

/// 1–39 operations, half allocations under a random policy and half
/// frees of the oldest live allocation.
fn arb_ops(case: u64) -> Vec<Op> {
    let mut rng = SplitMix64::new(case);
    let n = 1 + rng.below(39);
    (0..n)
        .map(|_| {
            if rng.below(2) == 1 {
                return Op::FreeOldest;
            }
            let task = rng.below(8) as u16;
            let target = NodeId(rng.below(8) as u16);
            let policy = match rng.below(4) {
                0 => MemPolicy::LocalPreferred,
                1 => MemPolicy::Bind(target),
                2 => MemPolicy::Preferred(target),
                _ => MemPolicy::interleave_all(8),
            };
            Op::Alloc {
                task,
                policy,
                mib: 1 + rng.below(1999),
            }
        })
        .collect()
}

#[test]
fn allocation_state_machine_conserves_memory() {
    let topo = presets::dl585_testbed();
    for case in 0..CASES {
        let mut mem = MemoryState::new(&topo);
        let initial_free: u64 = (0..8).map(|i| mem.free_mib(NodeId(i))).sum();
        let mut live: Vec<Vec<(NodeId, u64)>> = Vec::new();

        for op in arb_ops(case) {
            match op {
                Op::Alloc { task, policy, mib } => {
                    if let Ok(placement) = mem.allocate(NodeId(task), &policy, mib) {
                        // The placement sums to exactly the request.
                        let placed: u64 = placement.iter().map(|&(_, m)| m).sum();
                        assert_eq!(placed, mib, "case {case}");
                        // Bind placements land only on the bound node.
                        if let MemPolicy::Bind(n) = policy {
                            assert!(placement.iter().all(|&(m, _)| m == n), "case {case}");
                        }
                        live.push(placement);
                    }
                }
                Op::FreeOldest => {
                    if !live.is_empty() {
                        let placement = live.remove(0);
                        mem.free(&placement);
                    }
                }
            }
            // Free memory never exceeds totals and never goes negative
            // (u64 underflow would wrap loudly).
            for i in 0..8u16 {
                assert!(
                    mem.free_mib(NodeId(i)) <= mem.total_mib(NodeId(i)),
                    "case {case}: node {i}"
                );
            }
        }
        // Conservation: free + live == initial free.
        let live_total: u64 = live.iter().flatten().map(|&(_, m)| m).sum();
        let free_total: u64 = (0..8).map(|i| mem.free_mib(NodeId(i))).sum();
        assert_eq!(free_total + live_total, initial_free, "case {case}");
    }
}

#[test]
fn numastat_hits_and_misses_account_for_every_page() {
    let topo = presets::dl585_testbed();
    for case in 0..CASES {
        let mut mem = MemoryState::new(&topo);
        let mut allocated: u64 = 0;
        for op in arb_ops(case) {
            if let Op::Alloc { task, policy, mib } = op {
                if mem.allocate(NodeId(task), &policy, mib).is_ok() {
                    allocated += mib;
                }
            }
        }
        let stats = mem.stats();
        assert_eq!(
            stats.total_hits() + stats.total_misses(),
            allocated,
            "case {case}"
        );
        // Misses and foreigns pair up globally.
        let foreign: u64 = (0..8).map(|i| stats.node(NodeId(i)).numa_foreign).sum();
        assert_eq!(stats.total_misses(), foreign, "case {case}");
    }
}

#[test]
fn stream_max_never_exceeds_the_ideal() {
    let fabric = dl585_fabric();
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let (cpu, mem) = (NodeId(rng.below(8) as u16), NodeId(rng.below(8) as u16));
        let reps = 1 + rng.below(49) as u32;
        let noise = rng.range_f64(0.0, 0.2);
        let bench = StreamBench {
            reps,
            noise,
            ..StreamBench::paper()
        };
        let r = bench.run(&fabric, cpu, mem);
        let ideal = fabric.pio_bandwidth(cpu, mem);
        assert!(
            r.max_gbps <= ideal + 1e-9,
            "case {case}: {} > {ideal}",
            r.max_gbps
        );
        assert!(
            r.summary.min >= ideal * (1.0 - noise) - 1e-9,
            "case {case}: {}",
            r.summary.min
        );
        assert!(r.cache_valid, "case {case}");
    }
}

#[test]
fn stream_kernels_stay_within_seven_percent() {
    let fabric = dl585_fabric();
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let (cpu, mem) = (NodeId(rng.below(8) as u16), NodeId(rng.below(8) as u16));
        let values: Vec<f64> = StreamOp::ALL
            .iter()
            .map(|&op| {
                StreamBench {
                    op,
                    noise: 0.0,
                    ..StreamBench::paper()
                }
                .run(&fabric, cpu, mem)
                .max_gbps
            })
            .collect();
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(0.0_f64, f64::max);
        assert!(max / min < 1.07, "case {case}: {values:?}");
    }
}
