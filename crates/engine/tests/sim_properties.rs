//! Seeded property tests for the flow simulator over the calibrated fabric:
//! each property runs `CASES` cases, case `c` drawing from
//! `SplitMix64::new(c)`.

use numa_engine::{FlowSpec, Simulation};
use numa_fabric::calibration::dl585_fabric;
use numa_fabric::Fabric;
use numa_par::rng::SplitMix64;
use numa_topology::NodeId;

const CASES: u64 = 64;

/// 1–9 flows between random nodes of 8, each 1–200 Gbit.
fn arb_flows(case: u64) -> Vec<(u16, u16, f64)> {
    let mut rng = SplitMix64::new(case);
    let n = 1 + rng.below(9);
    (0..n)
        .map(|_| {
            (
                rng.below(8) as u16,
                rng.below(8) as u16,
                rng.range_f64(1.0, 200.0),
            )
        })
        .collect()
}

fn build<'a>(fabric: &'a Fabric, flows: &[(u16, u16, f64)]) -> Simulation<'a> {
    let mut sim = Simulation::new(fabric);
    for &(s, d, v) in flows {
        sim.add_flow(FlowSpec::dma(NodeId(s), NodeId(d)).gbits(v));
    }
    sim
}

#[test]
fn all_flows_finish_and_totals_add_up() {
    let fabric = dl585_fabric();
    for case in 0..CASES {
        let flows = arb_flows(case);
        let report = build(&fabric, &flows).run().unwrap();
        assert_eq!(report.flows.len(), flows.len(), "case {case}");
        let expect_total: f64 = flows.iter().map(|f| f.2).sum();
        assert!(
            (report.total_gbit - expect_total).abs() < 1e-9,
            "case {case}"
        );
        for (fr, &(_, _, v)) in report.flows.iter().zip(&flows) {
            assert!(fr.finish_s > 0.0, "case {case}");
            assert!((fr.volume_gbit - v).abs() < 1e-9, "case {case}");
            assert!(fr.finish_s <= report.makespan_s + 1e-9, "case {case}");
        }
    }
}

#[test]
fn no_flow_beats_its_uncontended_path() {
    let fabric = dl585_fabric();
    for case in 0..CASES {
        let flows = arb_flows(case);
        let report = build(&fabric, &flows).run().unwrap();
        for (fr, &(s, d, _)) in report.flows.iter().zip(&flows) {
            let solo = fabric.dma_path_bandwidth(NodeId(s), NodeId(d));
            assert!(
                fr.mean_gbps <= solo + 1e-6,
                "case {case}: flow {s}->{d}: {} > {solo}",
                fr.mean_gbps
            );
        }
    }
}

#[test]
fn contention_never_helps_the_makespan() {
    // Running any single flow alone is at least as fast as inside the
    // full mix.
    let fabric = dl585_fabric();
    for case in 0..CASES {
        let flows = arb_flows(case);
        let full = build(&fabric, &flows).run().unwrap();
        let solo = build(&fabric, &flows[..1]).run().unwrap();
        assert!(
            solo.flows[0].finish_s <= full.flows[0].finish_s + 1e-9,
            "case {case}"
        );
    }
}

#[test]
fn simulation_is_deterministic() {
    let fabric = dl585_fabric();
    for case in 0..CASES {
        let flows = arb_flows(case);
        let a = build(&fabric, &flows).run().unwrap();
        let b = build(&fabric, &flows).run().unwrap();
        assert_eq!(a, b, "case {case}");
    }
}

#[test]
fn steady_rates_are_feasible_per_flow() {
    let fabric = dl585_fabric();
    for case in 0..CASES {
        let flows = arb_flows(case);
        let rates = build(&fabric, &flows).steady_rates().unwrap();
        for (&rate, &(s, d, _)) in rates.iter().zip(&flows) {
            let solo = fabric.dma_path_bandwidth(NodeId(s), NodeId(d));
            assert!(
                rate <= solo + 1e-6,
                "case {case}: flow {s}->{d}: {rate} > {solo}"
            );
            assert!(rate >= 0.0, "case {case}: flow {s}->{d}: {rate}");
        }
    }
}

#[test]
fn equal_twin_flows_tie() {
    let fabric = dl585_fabric();
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let (s, d, v) = (
            rng.below(8) as u16,
            rng.below(8) as u16,
            rng.range_f64(1.0, 100.0),
        );
        let report = build(&fabric, &[(s, d, v), (s, d, v)]).run().unwrap();
        assert!(
            (report.flows[0].finish_s - report.flows[1].finish_s).abs() < 1e-9,
            "case {case}"
        );
        assert!(
            (report.flows[0].mean_gbps - report.flows[1].mean_gbps).abs() < 1e-9,
            "case {case}"
        );
    }
}

// ---- Open-loop golden digests ----------------------------------------
//
// The event loop and the allocator may be reorganized for speed, but a
// seeded open-loop scenario must keep every flow's FCT bit for bit. Each
// constant below is the `fct_digest` the scenario produced before the
// loop tracked only live flows.

use numa_engine::{FlowId, JitterCfg, ResourceKey, SimError, Workload};
use numa_fabric::TrafficClass;
use numa_topology::DirectedEdge;

/// Templates into node 7 from three remote sources plus a local copy,
/// two of them weighted, so contention and weighted shares both show up.
fn open_loop_templates(gbit: f64) -> Vec<FlowSpec> {
    vec![
        FlowSpec::dma(NodeId(6), NodeId(7)).gbits(gbit).weight(2.0),
        FlowSpec::dma(NodeId(4), NodeId(7)).gbits(gbit * 1.5),
        FlowSpec::dma(NodeId(3), NodeId(7))
            .gbits(gbit * 0.5)
            .weight(0.5),
        FlowSpec::dma(NodeId(7), NodeId(7)).gbits(gbit),
    ]
}

/// Run `workload` with contention jitter (unless `jitter_seed` is 0) and
/// a `(throttle_at, cap, heal_at)` pair of capacity events on the 6->7
/// edge; the digest must not depend on observation.
fn open_loop_digest(
    fabric: &Fabric,
    workload: Workload,
    jitter_seed: u64,
    fault: (f64, f64, f64),
) -> u64 {
    let (throttle_at, cap, heal_at) = fault;
    let build = || {
        let mut sim = Simulation::new(fabric).workload(workload.clone());
        if jitter_seed != 0 {
            sim = sim.jitter(JitterCfg::contention(jitter_seed));
        }
        let e = DirectedEdge::new(NodeId(6), NodeId(7));
        let full = fabric.edge_capacity(e, TrafficClass::Dma);
        let h = sim.register(ResourceKey::Edge(e), full);
        sim.schedule_capacity(h, throttle_at, cap);
        sim.schedule_capacity(h, heal_at, full);
        sim
    };
    let plain = build().run().unwrap();
    assert_eq!(plain.flows.len(), workload.count());
    let observed = build().observe(numa_obs::Obs::new()).run().unwrap();
    assert_eq!(plain, observed);
    plain.fct_digest()
}

#[test]
fn poisson_with_jitter_and_throttle_pins_its_digest() {
    let fabric = dl585_fabric();
    // ~2.4 s of arrivals at 100 flows/s: two jitter refreshes land
    // mid-run, and the edge runs at a fifth of its capacity for 0.8 s,
    // so the live set grows from one or two flows to about ten.
    let w = Workload::poisson(open_loop_templates(0.15), 240, 100.0, 42);
    assert_eq!(
        open_loop_digest(&fabric, w, 7, (0.6, 9.3, 1.4)),
        1737700702530291293
    );
}

#[test]
fn dense_poisson_with_a_stalled_edge_pins_its_digest() {
    let fabric = dl585_fabric();
    // 8000 flows/s of 2 Mbit: the 6->7 edge goes dark for 10 ms, its
    // users stall until the heal, and about fifty flows are live at the
    // peak.
    let w = Workload::poisson(open_loop_templates(0.002), 600, 8000.0, 43);
    assert_eq!(
        open_loop_digest(&fabric, w, 0, (0.02, 0.0, 0.03)),
        5654037589402327931
    );
}

#[test]
fn bounded_pareto_with_jitter_and_throttle_pins_its_digest() {
    let fabric = dl585_fabric();
    // Heavy-tailed gaps over ~1.3 s, with one jitter refresh mid-run.
    let w = Workload::bounded_pareto(open_loop_templates(0.06), 300, 1.2, 0.001, 0.2, 11);
    assert_eq!(
        open_loop_digest(&fabric, w, 3, (0.5, 20.0, 2.0)),
        16350290052390018620
    );
}

#[test]
fn open_loop_dead_resource_starves_the_lowest_index_stuck_flow() {
    let fabric = dl585_fabric();
    let mut sim = Simulation::new(&fabric);
    let dead = sim.register(ResourceKey::Custom(9), 0.0);
    let live = FlowSpec::dma(NodeId(6), NodeId(7)).gbits(0.02);
    let stuck = FlowSpec::dma(NodeId(4), NodeId(7)).gbits(0.02).charge(dead);
    // Flows 2, 5, 8, ... charge the dead port; the others all finish
    // before the calendar drains.
    let sim = sim.workload(Workload::poisson(
        vec![live.clone(), live, stuck],
        30,
        2000.0,
        5,
    ));
    assert_eq!(
        sim.run().unwrap_err(),
        SimError::Starved { flow: FlowId(2) }
    );
}
