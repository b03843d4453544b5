//! Byte and bit pins of `run_jobs` outputs: for each job set on the DL585
//! and on two sampled hosts, one FNV-1a digest over the rendered report,
//! every job's `describe`, every stream label, and the f64 bits of every
//! per-stream rate, job aggregate and makespan. The job sets cover NIC
//! runs of one job and of every op, SSD runs of both engines in buffered
//! and direct modes, mixed NIC+SSD runs (one jittered), interleaved and
//! bound buffers, and weighted jobs. A digest moves when any of those
//! bytes does, so a rewrite of the lowering or the report must keep them.

use numa_fabric::calibration::dl585_fabric;
use numa_fabric::Fabric;
use numa_fio::memsys::MemPolicy;
use numa_fio::{run_jobs, FioReport, JobSpec, Workload};
use numa_iodev::{IoEngine, NicOp};
use numa_par::rng::{fnv1a64, FNV1A64_INIT};
use numa_topology::hostgen::TopoGen;
use numa_topology::NodeId;

fn nic(op: NicOp, node: u16, streams: u32) -> JobSpec {
    JobSpec::nic(op, NodeId(node))
        .numjobs(streams)
        .size_gbytes(4.0)
}

fn ssd(write: bool, engine: IoEngine, direct: bool, node: u16, streams: u32) -> JobSpec {
    JobSpec {
        workload: Workload::Ssd {
            write,
            engine,
            direct,
        },
        ..JobSpec::ssd(write, NodeId(node))
    }
    .numjobs(streams)
    .size_gbytes(2.0)
}

/// The pinned job sets, by name. Nodes stay below 8, so every set runs
/// on every host here.
fn job_sets() -> Vec<(&'static str, Vec<JobSpec>)> {
    let aio = IoEngine::paper();
    vec![
        ("nic_one_job", vec![nic(NicOp::RdmaWrite, 1, 4)]),
        (
            "nic_every_op",
            vec![
                nic(NicOp::TcpSend, 0, 2),
                nic(NicOp::TcpRecv, 3, 3),
                nic(NicOp::RdmaWrite, 7, 2),
                nic(NicOp::RdmaRead, 5, 1),
                nic(NicOp::SendRecv, 2, 1),
                nic(NicOp::TcpSend, 7, 1),
            ],
        ),
        (
            "ssd_sync",
            vec![
                ssd(true, IoEngine::Sync, false, 1, 2),
                ssd(false, IoEngine::Sync, true, 6, 1),
            ],
        ),
        (
            "ssd_libaio",
            vec![
                ssd(false, aio, false, 4, 2),
                ssd(true, aio, true, 7, 3),
                ssd(true, IoEngine::Libaio { iodepth: 4 }, true, 2, 1),
            ],
        ),
        (
            "mixed_nic_ssd",
            vec![
                nic(NicOp::TcpSend, 6, 2),
                ssd(true, aio, true, 3, 2),
                nic(NicOp::RdmaRead, 0, 2),
                ssd(false, aio, true, 5, 1),
            ],
        ),
        (
            "mixed_jittered",
            vec![
                nic(NicOp::RdmaWrite, 2, 2).jitter(numa_engine::JitterCfg::contention(11)),
                ssd(false, IoEngine::Sync, true, 4, 2),
            ],
        ),
        (
            "buffer_policies",
            vec![
                nic(NicOp::RdmaWrite, 0, 2)
                    .mem_policy(MemPolicy::Interleave(vec![NodeId(3), NodeId(1)])),
                nic(NicOp::TcpRecv, 5, 1).mem_policy(MemPolicy::bind(6)),
                nic(NicOp::TcpSend, 1, 2).mem_policy(MemPolicy::Preferred(NodeId(4))),
                ssd(true, aio, true, 2, 1).mem_policy(MemPolicy::interleave_all(8)),
            ],
        ),
        (
            "weighted",
            vec![
                nic(NicOp::RdmaWrite, 1, 2).weight(3.0),
                nic(NicOp::RdmaWrite, 4, 2),
                nic(NicOp::TcpSend, 3, 1).weight(0.5),
                ssd(false, aio, true, 6, 2).weight(2.0),
            ],
        ),
    ]
}

/// FNV-1a over everything a caller reads from a report: the rendered
/// text, each job's describe, aggregate and makespan bits, each stream's
/// label and mean-rate bits, then the run's aggregate and makespan bits.
fn report_digest(r: &FioReport) -> u64 {
    let mut h = fnv1a64(FNV1A64_INIT, r.render().as_bytes());
    for j in &r.jobs {
        h = fnv1a64(h, j.describe.as_bytes());
        h = fnv1a64(h, &j.aggregate_gbps.to_bits().to_le_bytes());
        h = fnv1a64(h, &j.makespan_s.to_bits().to_le_bytes());
        for rate in &j.per_stream_gbps {
            h = fnv1a64(h, &rate.to_bits().to_le_bytes());
        }
    }
    for f in &r.sim.flows {
        h = fnv1a64(h, f.label.as_bytes());
        h = fnv1a64(h, &f.mean_gbps.to_bits().to_le_bytes());
    }
    h = fnv1a64(h, &r.aggregate_gbps.to_bits().to_le_bytes());
    fnv1a64(h, &r.makespan_s.to_bits().to_le_bytes())
}

/// A sampled 8-node host with one NIC and two SSDs on its I/O node.
fn sampled(seed: u64) -> Fabric {
    let gen = TopoGen::sample("gen", seed);
    assert_eq!(
        (gen.spec().num_nodes(), gen.spec().ssds),
        (8, 2),
        "seed {seed}"
    );
    let (topo, routes) = gen.build_routed().expect("sampled host builds");
    Fabric::builder(topo, routes).dma_hop_decay(0.06).build()
}

fn check(fabric: &Fabric, host: &str, pins: &[(&str, u64)]) {
    let sets = job_sets();
    assert_eq!(sets.len(), pins.len(), "{host}: one pin per job set");
    let mut moved = Vec::new();
    for ((name, jobs), &(pin_name, pin)) in sets.iter().zip(pins) {
        assert_eq!(*name, pin_name, "{host}: pins follow the job sets");
        let report = run_jobs(fabric, jobs).unwrap_or_else(|e| panic!("{host} {name}: {e}"));
        let got = report_digest(&report);
        if got != pin {
            moved.push(format!("{name}: {got:#018x}"));
        }
    }
    assert!(moved.is_empty(), "{host}: digests moved: {moved:#?}");
}

#[test]
fn dl585_reports_are_pinned() {
    check(
        &dl585_fabric(),
        "dl585",
        &[
            ("nic_one_job", 0x2965_8542_656d_7858),
            ("nic_every_op", 0x58a7_5c26_0226_4e14),
            ("ssd_sync", 0x0078_14ee_7931_401d),
            ("ssd_libaio", 0x51c2_1552_5825_bf31),
            ("mixed_nic_ssd", 0x8e6d_3118_92be_565f),
            ("mixed_jittered", 0x49f7_629b_b487_8055),
            ("buffer_policies", 0xc3d6_4788_55ed_7aec),
            ("weighted", 0x4c7d_7f8f_5215_6d36),
        ],
    );
}

#[test]
fn sampled_full_mesh_host_reports_are_pinned() {
    check(
        &sampled(2),
        "sampled seed 2",
        &[
            ("nic_one_job", 0x4c88_251b_576a_48c8),
            ("nic_every_op", 0x58a7_5c26_0226_4e14),
            ("ssd_sync", 0x121b_7dde_e8bd_b4e4),
            ("ssd_libaio", 0x24fb_7954_32d7_20f0),
            ("mixed_nic_ssd", 0x7830_513b_3e08_7802),
            ("mixed_jittered", 0xfd58_6493_eef2_c35a),
            ("buffer_policies", 0x4e3c_e5cb_fc10_21bb),
            ("weighted", 0x5eb7_9c9e_9ec3_0a50),
        ],
    );
}

#[test]
fn sampled_board_ring_host_reports_are_pinned() {
    check(
        &sampled(31),
        "sampled seed 31",
        &[
            ("nic_one_job", 0x4c88_251b_576a_48c8),
            ("nic_every_op", 0x58a7_5c26_0226_4e14),
            ("ssd_sync", 0x42b1_6a40_c4b7_f3f5),
            ("ssd_libaio", 0xe864_bb2e_4464_5a2a),
            ("mixed_nic_ssd", 0x727f_d904_3137_0959),
            ("mixed_jittered", 0xfd58_6493_eef2_c35a),
            ("buffer_policies", 0x4e3c_e5cb_fc10_21bb),
            ("weighted", 0x5eb7_9c9e_9ec3_0a50),
        ],
    );
}

/// The labels are part of the output contract (obs events and traces
/// carry them): spell one report's out in full.
#[test]
fn stream_labels_and_describes_read_as_pinned() {
    let report = run_jobs(&dl585_fabric(), &job_sets()[6].1).expect("run");
    let labels: Vec<&str> = report.sim.flows.iter().map(|f| &*f.label).collect();
    let interleave = "RdmaWrite numjobs=2 cpunode=0 mem=--interleave=3,1 size=4G bs=128K";
    let recv = "TcpRecv numjobs=1 cpunode=5 mem=--membind=6 size=4G bs=128K";
    let send = "TcpSend numjobs=2 cpunode=1 mem=--preferred=4 size=4G bs=128K";
    let ssd = "SsdWrite(Libaio { iodepth: 16 },direct) numjobs=1 cpunode=2 \
               mem=--interleave=0,1,2,3,4,5,6,7 size=2G bs=128K";
    assert_eq!(
        labels,
        [
            format!("job0.0 {interleave}"),
            format!("job0.1 {interleave}"),
            format!("job1.0 {recv}"),
            format!("job2.0 {send}"),
            format!("job2.1 {send}"),
            format!("job3.0 {ssd}"),
        ]
    );
    let describes: Vec<&str> = report.jobs.iter().map(|j| j.describe.as_str()).collect();
    assert_eq!(describes, [interleave, recv, send, ssd]);
}
