//! Pins the umbrella crate's public surface: every subsystem is reachable
//! through `numio::` paths, with the key types at their documented homes.
//! A compile failure here means a semver break for downstream users.

use numio::core::{
    classify, diff_models, predict_aggregate, rank_correlation, relative_error, ClassifyParams,
    HostPlatform, IoModeler, IoPerfModel, MemCostModel, PerfClass, Placement, Platform,
    ScheduleAdvisor, SimPlatform, StreamAdvisor, TransferMode, WorkloadMix,
};
use numio::engine::{FlowSpec, JitterCfg, SimReport, Simulation, Summary};
use numio::fabric::{numa_factor, solve_max_min, Fabric, LatencyModel, TrafficClass};
use numio::fio::{parse_jobfile, run_jobs, steady_job_rates, JobSpec, NetTestParams, Workload};
use numio::iodev::{IoEngine, NicModel, NicOp, RateMap, SsdModel, TwoHostPath};
use numio::memsys::{
    numademo_all, LatencyBench, MemPolicy, MemoryState, RealStream, StreamBench, StreamOp,
};
use numio::sched::{policy::LocalOnly, trace as sched_trace, Scheduler};
use numio::topology::{
    presets, sysfs, DeviceKind, HtWidth, Locality, NodeId, RouteTable, Topology,
};

#[test]
fn every_layer_composes_through_the_facade() {
    // topology
    let topo: Topology = presets::dl585_testbed();
    assert_eq!(topo.locality(NodeId(6), NodeId(7)), Locality::Neighbour);
    let _routes: RouteTable = presets::dl585_routes(&topo);
    assert_eq!(topo.devices()[0].kind, DeviceKind::Nic);
    assert_eq!(HtWidth::W8.bits(), 8);
    assert!(sysfs::parse_cpulist("0-3").unwrap().len() == 4);

    // fabric
    let fabric: Fabric = numio::fabric::calibration::dl585_fabric();
    assert!(fabric.dma_path_bandwidth(NodeId(3), NodeId(7)) < 30.0);
    let lat = LatencyModel::per_hop(100.0, 50.0);
    assert!(numa_factor(&presets::intel_4s4n(), &lat) > 1.0);
    let rates = solve_max_min(&numio::fabric::MaxMinProblem {
        capacities: vec![10.0],
        flows: vec![numio::fabric::FlowSpec::shared(vec![0])],
    });
    assert_eq!(rates, vec![10.0]);
    assert_eq!(TrafficClass::ALL.len(), 2);

    // engine
    let mut sim = Simulation::new(&fabric).jitter(JitterCfg::none());
    sim.add_flow(FlowSpec::dma(NodeId(6), NodeId(7)).gbits(4.65));
    let report: SimReport = sim.run().unwrap();
    assert!((report.makespan_s - 0.1).abs() < 1e-9);
    assert_eq!(Summary::from(&[1.0, 3.0]).mean, 2.0);

    // memsys
    let mut mem = MemoryState::new(&topo);
    mem.allocate(NodeId(1), &MemPolicy::bind(1), 10).unwrap();
    assert!(
        StreamBench::paper()
            .run(&fabric, NodeId(7), NodeId(4))
            .max_gbps
            > 20.0
    );
    assert_eq!(StreamOp::ALL.len(), 4);
    assert_eq!(numademo_all(&fabric, NodeId(0), NodeId(7)).len(), 21);
    assert!(LatencyBench::paper().measured_numa_factor(&topo) > 2.0);
    assert!(
        RealStream {
            elems: 1024,
            threads: 1,
            reps: 1
        }
        .run(StreamOp::Copy)
        .max_gbps
            > 0.0
    );

    // iodev
    let nic = NicModel::paper();
    assert_eq!(nic.port_cap(NicOp::RdmaRead), 22.0);
    assert!(SsdModel::paper().port_cap(false) > 30.0);
    assert_eq!(IoEngine::paper(), IoEngine::Libaio { iodepth: 16 });
    assert_eq!(RateMap::monotone(vec![(1.0, 2.0)]).eval(5.0), 2.0);
    assert!(TwoHostPath::paper().window_cap_gbps() > 1000.0);

    // fio
    let jobs = parse_jobfile("[j]\nioengine=rdma\nverb=write\ncpunodebind=6\nsize=2g\n").unwrap();
    let fr = run_jobs(&fabric, &[jobs[0].1.clone()]).unwrap();
    assert!((fr.aggregate_gbps - 23.3).abs() < 0.1);
    assert_eq!(
        steady_job_rates(&fabric, &[jobs[0].1.clone()])
            .unwrap()
            .len(),
        1
    );
    let _w: Workload = jobs[0].1.workload.clone();
    assert_eq!(NetTestParams::paper().io_block_kib, 128);
    let _j: JobSpec = JobSpec::ssd(true, NodeId(0));

    // core (the contribution)
    let platform = SimPlatform::dl585();
    let model: IoPerfModel =
        IoModeler::new()
            .reps(3)
            .characterize(&platform, NodeId(7), TransferMode::Write);
    let _c: &PerfClass = &model.classes()[0];
    let p = predict_aggregate(&[(20.0, 1.0)]);
    assert_eq!(p, 20.0);
    assert!(relative_error(20.0, 19.0) > 0.05);
    let mix = WorkloadMix::new().from_node(NodeId(2), 1);
    assert!(numio::core::predict_for_mix(&model, &mix) > 20.0);
    let advisor = ScheduleAdvisor::new();
    let placement: Placement = advisor.place(&model, 3);
    assert_eq!(placement.assignments.len(), 3);
    assert!(diff_models(&model, &model).unwrap().is_stable(0.01));
    let _cb = StreamAdvisor::new(MemCostModel::from_stream(&platform));
    assert!(rank_correlation(&[1.0, 2.0], &[2.0, 4.0]) > 0.99);
    let means = model.means();
    let classes = classify(
        platform.fabric().topology(),
        NodeId(7),
        &means,
        ClassifyParams::default(),
    );
    assert_eq!(classes.len(), model.classes().len());
    assert!(HostPlatform::new(2).num_nodes() == 2);

    // sched
    let tasks = sched_trace::burst(2, sched_trace::MixProfile::Serve, 1);
    let ep = Scheduler::new(&platform)
        .run(tasks, LocalOnly::new())
        .unwrap();
    assert_eq!(ep.outcomes.len(), 2);
}
