//! Observability: the engine's obs events and the steady-state view make
//! contention dynamics inspectable through the fio lowering, end to end —
//! and the `numa-obs` exporters turn deterministic runs into byte-stable
//! artifacts.

use numio::core::SimPlatform;
use numio::fio::{build_sim, JobSpec};
use numio::iodev::NicOp;
use numio::topology::NodeId;

#[test]
fn trace_shows_fair_sharing_then_recovery() {
    // Two RDMA_READ jobs against the shared adapter: a class-2 stream
    // (node 2, small volume) and a class-4 stream (node 4, large volume).
    // The run must show (a) the mixture-limited port splitting rates
    // *equally* while both run (max-min fairness — neither class level is
    // reachable under contention), then (b) the survivor recovering to its
    // own class level (16.1) once the port frees up.
    let platform = SimPlatform::dl585();
    let jobs = [
        JobSpec::nic(NicOp::RdmaRead, NodeId(2)).size_gbytes(10.0),
        JobSpec::nic(NicOp::RdmaRead, NodeId(4)).size_gbytes(20.0),
    ];
    let (sim, flow_job) = build_sim(platform.fabric(), &jobs).unwrap();
    assert_eq!(flow_job, vec![0, 1]);
    let obs = numio::obs::Obs::new();
    let report = sim.observe(obs.clone()).run().unwrap();

    let (fast, slow) = (&report.flows[0], &report.flows[1]);
    assert!(fast.finish_s < slow.finish_s);

    // (a): fair split of the mixed-class engine (~18.5 Gbps / 2 each),
    // well below both class levels. The steady-state allocation is the
    // first round's; the fast stream holds it for its whole run.
    let early = build_sim(platform.fabric(), &jobs)
        .unwrap()
        .0
        .steady_rates()
        .unwrap();
    let (early_fast, early_slow) = (early[0], early[1]);
    assert!(
        (early_fast - early_slow).abs() < 1e-9,
        "max-min splits equally"
    );
    assert!(early_fast < 10.0, "mixture throttles: {early_fast}");
    assert!(
        (fast.mean_gbps - early_fast).abs() < 1e-9,
        "{} vs {early_fast}",
        fast.mean_gbps
    );

    // (b): after the fast stream leaves, the slow one recovers to its own
    // class level (16.1): its remaining volume over its remaining time.
    let left = slow.volume_gbit - early_slow * fast.finish_s;
    let late_slow = left / (slow.finish_s - fast.finish_s);
    assert!(late_slow > early_slow * 1.5, "{early_slow} -> {late_slow}");
    assert!((late_slow - 16.1).abs() < 0.2, "{late_slow}");

    // The event stream is consistent with the report: two allocation
    // regimes, the first at t=0, nothing after the makespan.
    let events = obs.events();
    assert_eq!(events.iter().filter(|e| e.name == "alloc_round").count(), 2);
    for e in &events {
        assert!(e.time_s <= report.makespan_s + 1e-9);
    }
    assert_eq!(events[0].name, "alloc_round");
    assert_eq!(events[0].time_s, 0.0);
}

#[test]
fn observed_fio_run_matches_unobserved_aggregates() {
    let platform = SimPlatform::dl585();
    let jobs = [
        JobSpec::ssd(true, NodeId(6)).numjobs(2).size_gbytes(5.0),
        JobSpec::nic(NicOp::TcpSend, NodeId(5))
            .numjobs(4)
            .size_gbytes(5.0),
    ];
    let (sim_a, _) = build_sim(platform.fabric(), &jobs).unwrap();
    let (sim_b, _) = build_sim(platform.fabric(), &jobs).unwrap();
    let plain = sim_a.run().unwrap();
    let obs = numio::obs::Obs::new();
    let observed = sim_b.observe(obs.clone()).run().unwrap();
    assert_eq!(plain, observed);
    assert!(obs.events().iter().any(|e| e.name == "alloc_round"));
}

// ---- numa-obs exporter golden tests -----------------------------------

/// JSONL exporter golden: an observed two-flow engine run produces this
/// exact byte stream (simulation timestamps, insertion-ordered fields).
#[test]
fn jsonl_export_golden() {
    use numio::engine::{FlowSpec, Simulation};
    let platform = SimPlatform::dl585();
    let obs = numio::obs::Obs::new();
    // Both flows cross the shared 46.5 Gbps edge 6->7: max-min splits it
    // 23.25 each, flow "a" (93 Gbit) finishes at t=4, then "b" runs alone
    // at 46.5 and its remaining 46.5 Gbit take one more second.
    Simulation::new(platform.fabric())
        .observe(obs.clone())
        .flows([
            FlowSpec::dma(NodeId(4), NodeId(7)).gbits(93.0).label("a"),
            FlowSpec::dma(NodeId(6), NodeId(7)).gbits(139.5).label("b"),
        ])
        .run()
        .unwrap();
    assert_eq!(
        obs.jsonl(),
        "{\"t\":0,\"ev\":\"alloc_round\",\"component\":\"engine\",\"flows\":2}\n\
         {\"t\":4,\"ev\":\"flow_finished\",\"flow\":0,\"label\":\"a\"}\n\
         {\"t\":4,\"ev\":\"alloc_round\",\"component\":\"engine\",\"flows\":1}\n\
         {\"t\":5,\"ev\":\"flow_finished\",\"flow\":1,\"label\":\"b\"}\n"
    );
}

/// Prometheus exporter golden: series sorted by name then labels, exact
/// text format.
#[test]
fn prometheus_export_golden() {
    use numio::engine::{FlowSpec, Simulation};
    let platform = SimPlatform::dl585();
    let obs = numio::obs::Obs::new();
    Simulation::new(platform.fabric())
        .observe(obs.clone())
        .flows([
            FlowSpec::dma(NodeId(4), NodeId(7)).gbits(93.0),
            FlowSpec::dma(NodeId(6), NodeId(7)).gbits(139.5),
        ])
        .run()
        .unwrap();
    assert_eq!(
        obs.prometheus(),
        "\
# TYPE numio_alloc_rounds_total counter
numio_alloc_rounds_total{component=\"engine\"} 2
# TYPE numio_fct_seconds histogram
numio_fct_seconds_bucket{component=\"engine\",le=\"0.001\"} 0
numio_fct_seconds_bucket{component=\"engine\",le=\"0.01\"} 0
numio_fct_seconds_bucket{component=\"engine\",le=\"0.05\"} 0
numio_fct_seconds_bucket{component=\"engine\",le=\"0.1\"} 0
numio_fct_seconds_bucket{component=\"engine\",le=\"0.25\"} 0
numio_fct_seconds_bucket{component=\"engine\",le=\"0.5\"} 0
numio_fct_seconds_bucket{component=\"engine\",le=\"1\"} 0
numio_fct_seconds_bucket{component=\"engine\",le=\"2.5\"} 0
numio_fct_seconds_bucket{component=\"engine\",le=\"5\"} 2
numio_fct_seconds_bucket{component=\"engine\",le=\"10\"} 2
numio_fct_seconds_bucket{component=\"engine\",le=\"30\"} 2
numio_fct_seconds_bucket{component=\"engine\",le=\"+Inf\"} 2
numio_fct_seconds_sum{component=\"engine\"} 9
numio_fct_seconds_count{component=\"engine\"} 2
# TYPE numio_flow_completions_total counter
numio_flow_completions_total{component=\"engine\"} 2
"
    );
}

/// A seeded scheduler run through the CLI writes byte-identical trace and
/// metrics artifacts on every invocation.
#[test]
fn seeded_cli_sched_exports_are_byte_identical() {
    let args: Vec<String> = ["sched", "--tasks", "5", "--seed", "11"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let go = || {
        let obs = numio::obs::Obs::new();
        numio_cli::dispatch(&args, &obs).unwrap();
        (obs.jsonl(), obs.prometheus())
    };
    let (trace_a, prom_a) = go();
    let (trace_b, prom_b) = go();
    assert!(!trace_a.is_empty());
    assert_eq!(trace_a, trace_b, "seeded trace must be byte-identical");
    assert_eq!(prom_a, prom_b, "seeded metrics must be byte-identical");
    // The three series the observability layer promises for sched runs.
    assert!(prom_a.contains("numio_alloc_rounds_total{component=\"sched\"}"));
    assert!(prom_a.contains("numio_flow_completions_total{component=\"sched\"}"));
    assert!(prom_a.contains("numio_episode_latency_seconds_bucket{"));
    assert!(trace_a.contains("\"ev\":\"episode_finished\""));
}

/// The modeler's observed path feeds per-rep samples into per-node
/// histograms whose counts reconcile with the probe counters.
#[test]
fn modeler_probe_series_reconcile() {
    use numio::core::{IoModeler, TransferMode};
    let platform = SimPlatform::dl585();
    let obs = numio::obs::Obs::new();
    let reps = 4u32;
    IoModeler::new().reps(reps).characterize_observed(
        &platform,
        platform.fabric().topology(),
        NodeId(7),
        TransferMode::Read,
        &obs,
    );
    let prom = obs.prometheus();
    for node in 0..8 {
        assert!(
            prom.contains(&format!(
                "numio_probes_total{{backend=\"sim\",node=\"N{node}\"}} {reps}"
            )),
            "node {node} missing: {prom}"
        );
        assert!(prom.contains(&format!(
            "numio_probe_gbps_count{{mode=\"read\",node=\"N{node}\"}} {reps}"
        )));
    }
}
