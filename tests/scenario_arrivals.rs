//! Simulation determinism and compatibility guarantees.
//!
//! The event-calendar engine promises two things at once: seeded
//! open-loop workloads replay **bit-identically** (same event order,
//! same FCT vector, same observability stream — regardless of the
//! worker-thread count), and a closed-loop batch given through
//! [`Simulation::flows`](numio::engine::Simulation::flows) or a batch
//! [`Workload`] reproduces the `add_flow` output bit-for-bit.

use numa_par::rng::{fnv1a64, FNV1A64_INIT};
use numio::core::SimPlatform;
use numio::engine::{FlowSpec, ResourceKey, SimReport, Simulation, Workload};
use numio::fabric::TrafficClass;
use numio::topology::{DirectedEdge, NodeId};

/// A mixed-template open-loop workload with enough flows to exercise
/// overlapping arrivals, completions and regime changes.
fn poisson_workload() -> Workload {
    let templates = vec![
        FlowSpec::dma(NodeId(6), NodeId(7)).gbits(2.0).label("near"),
        FlowSpec::dma(NodeId(4), NodeId(7)).gbits(1.0).label("far"),
    ];
    Workload::poisson(templates, 200, 50.0, 42)
}

#[test]
fn same_seed_poisson_is_bit_identical() {
    let platform = SimPlatform::dl585();
    let run = || {
        let obs = numio::obs::Obs::new();
        let report = Simulation::new(platform.fabric())
            .workload(poisson_workload())
            .observe(obs.clone())
            .run()
            .unwrap();
        (report, obs.jsonl(), obs.prometheus())
    };
    let (a, jsonl_a, prom_a) = run();
    let (b, jsonl_b, prom_b) = run();
    assert_eq!(a.flows.len(), 200);
    assert_eq!(
        a.fct_digest(),
        b.fct_digest(),
        "FCT digest must replay exactly"
    );
    for (x, y) in a.flows.iter().zip(&b.flows) {
        assert_eq!(x.start_s.to_bits(), y.start_s.to_bits());
        assert_eq!(x.finish_s.to_bits(), y.finish_s.to_bits());
        assert_eq!(x.fct_s.to_bits(), y.fct_s.to_bits());
    }
    assert_eq!(a, b, "whole report must be bit-identical");
    // The observed event stream pins the *event order*, not just the
    // final numbers; the metric snapshot pins the series values.
    assert_eq!(
        jsonl_a, jsonl_b,
        "event stream must replay in the same order"
    );
    assert_eq!(prom_a, prom_b);
    // Open-loop runs genuinely stagger starts (this is not a batch).
    assert!(a.flows.iter().any(|f| f.start_s > 0.0));
    assert!(a.fct.mean_slowdown >= 1.0 - 1e-9, "{}", a.fct.mean_slowdown);
}

#[test]
fn worker_thread_count_does_not_change_the_fct_stream() {
    let platform = SimPlatform::dl585();
    let digest = || {
        Simulation::new(platform.fabric())
            .workload(poisson_workload())
            .run()
            .unwrap()
            .fct_digest()
    };
    std::env::set_var("NUMIO_PAR_THREADS", "1");
    let serial = digest();
    std::env::set_var("NUMIO_PAR_THREADS", "8");
    let wide = digest();
    std::env::remove_var("NUMIO_PAR_THREADS");
    let default = digest();
    assert_eq!(serial, wide, "thread count leaked into the FCT stream");
    assert_eq!(serial, default);
}

#[test]
fn bounded_pareto_arrivals_are_seed_deterministic() {
    let platform = SimPlatform::dl585();
    let run = || {
        let template = FlowSpec::dma(NodeId(6), NodeId(7)).gbits(1.0);
        Simulation::new(platform.fabric())
            .workload(Workload::bounded_pareto(
                vec![template],
                100,
                1.5,
                1e-3,
                0.5,
                7,
            ))
            .run()
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.fct_digest(), b.fct_digest());
    let stats = a.fct_stats();
    assert_eq!(stats.count, 100);
    assert!(stats.p50_s <= stats.p90_s && stats.p90_s <= stats.p99_s);
    assert!(stats.p99_s <= stats.p999_s);
    assert!(stats.mean_slowdown >= 1.0 - 1e-9, "{}", stats.mean_slowdown);
}

/// Acceptance anchor: a closed-loop batch through the builder is the
/// same computation as flow-by-flow `add_flow` — same floats, not just
/// close ones.
#[test]
fn closed_loop_batch_matches_legacy_simulation_bitwise() {
    let platform = SimPlatform::dl585();
    let specs = vec![
        FlowSpec::dma(NodeId(4), NodeId(7)).gbits(93.0).label("a"),
        FlowSpec::dma(NodeId(6), NodeId(7)).gbits(139.5).label("b"),
        FlowSpec::dma(NodeId(2), NodeId(5)).gbits(10.0).label("c"),
    ];
    let mut sim = Simulation::new(platform.fabric());
    for s in &specs {
        sim.add_flow(s.clone());
    }
    let legacy = sim.run().unwrap();
    let via_flows = Simulation::new(platform.fabric())
        .flows(specs.clone())
        .run()
        .unwrap();
    let via_batch = Simulation::new(platform.fabric())
        .workload(Workload::batch(specs))
        .run()
        .unwrap();
    assert_eq!(legacy, via_flows);
    assert_eq!(legacy, via_batch);
    assert_eq!(legacy.fct_digest(), via_batch.fct_digest());
}

/// Order-sensitive FNV-1a digest over every field of a report: each
/// flow's id, label, volume, start, finish, FCT, mean rate and slowdown,
/// then the run totals. `fct_digest` hashes FCTs only, so it would miss a
/// changed slowdown bound or a lost label.
fn report_digest(report: &SimReport) -> u64 {
    let bits = |h: u64, x: f64| fnv1a64(h, &x.to_bits().to_le_bytes());
    let mut h = FNV1A64_INIT;
    for f in &report.flows {
        h = fnv1a64(h, &f.id.0.to_le_bytes());
        h = fnv1a64(h, &(f.label.len() as u64).to_le_bytes());
        h = fnv1a64(h, f.label.as_bytes());
        for x in [
            f.volume_gbit,
            f.start_s,
            f.finish_s,
            f.fct_s,
            f.mean_gbps,
            f.slowdown,
        ] {
            h = bits(h, x);
        }
    }
    [
        report.makespan_s,
        report.aggregate_gbps,
        report.total_gbit,
        report.fct.p50_s,
        report.fct.p99_s,
        report.fct.mean_slowdown,
    ]
    .into_iter()
    .fold(h, bits)
}

/// The engine's open-loop anchor: 2000 seeded Poisson flows at 2000/s
/// into the DL585 fabric land on one fixed FCT digest and one fixed
/// full-report digest. A refactor of the event loop or the max-min
/// solver that moves a single completion time, rate or slowdown moves
/// these literals.
#[test]
fn poisson_2k_fct_digest_is_pinned() {
    let platform = SimPlatform::dl585();
    let workload = Workload::parse("poisson:n=2000,rate=2000,seed=42").unwrap();
    let report = Simulation::new(platform.fabric())
        .workload(workload)
        .run()
        .unwrap();
    assert_eq!(report.flows.len(), 2_000);
    assert_eq!(format!("{:016x}", report.fct_digest()), "b49190345191d944");
    assert_eq!(
        format!("{:016x}", report_digest(&report)),
        "de5b2e1f66f08f48"
    );
}

/// The same spec at 10k flows. It offers 2000 Gbit/s to a 46.5 Gbit/s
/// edge, so the live set grows with the flow count and the solve is
/// quadratic by design; the workspace builds the engine and the solver
/// optimized even in the dev profile so this runs in seconds.
#[test]
fn poisson_10k_fct_digest_is_pinned() {
    let platform = SimPlatform::dl585();
    let workload = Workload::parse("poisson:n=10000,rate=2000,seed=42").unwrap();
    let report = Simulation::new(platform.fabric())
        .workload(workload)
        .run()
        .unwrap();
    assert_eq!(report.flows.len(), 10_000);
    assert_eq!(format!("{:016x}", report.fct_digest()), "61ef087aad8d7541");
}

/// Bursty bounded-Pareto arrivals from four templates (two weighted, one
/// local copy) with the 6->7 edge throttled to a fifth of its capacity
/// and healed: every report field stays pinned.
#[test]
fn throttled_pareto_report_digest_is_pinned() {
    let platform = SimPlatform::dl585();
    let fabric = platform.fabric();
    let templates = vec![
        FlowSpec::dma(NodeId(6), NodeId(7))
            .gbits(0.05)
            .weight(2.0)
            .label("near"),
        FlowSpec::dma(NodeId(4), NodeId(7))
            .gbits(0.075)
            .label("far"),
        FlowSpec::dma(NodeId(3), NodeId(7))
            .gbits(0.025)
            .weight(0.5)
            .label("slow"),
        FlowSpec::pio(NodeId(7), NodeId(7))
            .gbits(0.05)
            .label("local"),
    ];
    let workload = Workload::bounded_pareto(templates, 1500, 1.2, 1e-4, 0.05, 7);
    let mut sim = Simulation::new(fabric).workload(workload);
    let e = DirectedEdge::new(NodeId(6), NodeId(7));
    let full = fabric.edge_capacity(e, TrafficClass::Dma);
    let h = sim.register(ResourceKey::Edge(e), full);
    sim.schedule_capacity_as(h, 0.3, full / 5.0, "fault_injected");
    sim.schedule_capacity_as(h, 0.9, full, "fault_healed");
    let report = sim.run().unwrap();
    assert_eq!(report.flows.len(), 1500);
    assert_eq!(
        format!("{:016x}", report_digest(&report)),
        "d143fbcfd5184200"
    );
}

/// The `open_loop_poisson` benchmark's eight `N{i}->dev` templates, then
/// templates that each differ from one of them in one thing lowering
/// reads: the volume and label only (same shape), the ceiling, the class
/// (PIO), the copy charges (weighted, into host memory), a custom port
/// (extra handles), and a local copy. A seeded Poisson run on the DL585.
fn benchmark_shaped(fabric: &numio::fabric::Fabric) -> Simulation<'_> {
    let mut sim = Simulation::new(fabric);
    let port = sim.register(ResourceKey::Custom(0), 6.0);
    let dev = |i: u16| FlowSpec::dma(NodeId(i), NodeId(7)).gbits(0.02).device_dst();
    let mut templates: Vec<FlowSpec> = (0..8).map(|i| dev(i).label(format!("N{i}->dev"))).collect();
    templates.extend([
        dev(0).gbits(0.04).label("N0 bulk"),
        dev(1).ceiling(4.0).label("N1 capped"),
        FlowSpec::pio(NodeId(4), NodeId(7))
            .gbits(0.01)
            .device_dst()
            .label("N4 pio"),
        FlowSpec::dma(NodeId(5), NodeId(7))
            .gbits(0.03)
            .weight(2.0)
            .label("N5 weighted"),
        dev(6).gbits(0.01).charge(port).label("N6 port"),
        FlowSpec::dma(NodeId(2), NodeId(2))
            .gbits(0.02)
            .label("local"),
    ]);
    sim.workload(Workload::poisson(templates, 1400, 2000.0, 42))
}

/// Every `FlowResult` field and run total (through `report_digest`) and
/// every `bottlenecks()` row of the benchmark-shaped run fold into one
/// pinned FNV-1a digest. Lowering shortcuts (one lowering per distinct
/// flow shape, shared labels) must leave it bit-identical.
#[test]
fn benchmark_shaped_run_digest_is_pinned() {
    let platform = SimPlatform::dl585();
    let fabric = platform.fabric();
    let report = benchmark_shaped(fabric).run().unwrap();
    assert_eq!(report.flows.len(), 1400);
    let bits = |h: u64, x: f64| fnv1a64(h, &x.to_bits().to_le_bytes());
    let mut h = report_digest(&report);
    let rows = benchmark_shaped(fabric).bottlenecks().unwrap();
    assert!(
        rows.iter()
            .any(|r| r.0 == ResourceKey::Custom(0) && r.1 > 0.0),
        "{rows:?}"
    );
    for (key, used, cap, util) in rows {
        h = fnv1a64(h, format!("{key:?}").as_bytes());
        h = [used, cap, util].into_iter().fold(h, bits);
    }
    assert_eq!(format!("{h:016x}"), "e19c7b6161fb6fee");
}
