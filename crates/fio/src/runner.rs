//! Lower fio jobs onto the flow simulator and report aggregates.

use crate::job::{JobSpec, Workload};
use numa_engine::{FlowSpec, JitterCfg, ResourceKey, SimError, SimReport, Simulation};
use numa_fabric::Fabric;
use numa_iodev::{NicModel, NicOp, SsdModel};
use numa_topology::NodeId;
use std::fmt::Write as _;

/// Most streams one outside submission may run: a fio job set (see
/// [`check_streams`]), a fleet episode or a `place` request. Each stream
/// is a flow, so the bound keeps one request from allocating without
/// limit.
pub const MAX_STREAMS: usize = 4096;

/// Every failure of this crate: lowering and running jobs, parsing job
/// files, and [`memsys`](crate::memsys) allocations and measurements.
#[derive(Debug, Clone, PartialEq)]
pub enum FioError {
    /// Empty job list.
    NoJobs,
    /// A NIC job was submitted but the host has no NIC.
    NoNic,
    /// An SSD job was submitted but the host has no SSDs.
    NoSsd,
    /// Job `job` binds its CPU or its buffers to a node the fabric does
    /// not have.
    UnknownNode {
        /// Index of the offending job in the submission.
        job: usize,
        /// The out-of-range node.
        node: NodeId,
    },
    /// Job `job` interleaves its buffers over an empty node list.
    EmptyInterleave {
        /// Index of the offending job in the submission.
        job: usize,
    },
    /// Job `job` moves a size that is not a positive, finite number of
    /// gigabytes.
    BadSize {
        /// Index of the offending job in the submission.
        job: usize,
        /// The rejected size.
        gbytes: f64,
    },
    /// Job `job` runs no streams (`streams` is 0), or its streams take
    /// the submission's total to `streams`, above [`MAX_STREAMS`].
    StreamCount {
        /// Index of the offending job in the submission.
        job: usize,
        /// The job's count if 0, else the running total it reached.
        streams: u64,
    },
    /// The underlying simulation failed.
    Sim(SimError),
    /// A job file did not parse ([`parse_jobfile`](crate::parse_jobfile)).
    JobFile {
        /// 1-based line number (0 for file-level errors).
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A `Bind` policy targeted a node without enough free memory
    /// ([`MemoryState`](crate::memsys::MemoryState)).
    BindNodeFull {
        /// The bound node.
        node: NodeId,
        /// Free MiB at failure time.
        free_mib: u64,
        /// Requested MiB.
        requested_mib: u64,
    },
    /// The whole simulated host is out of memory.
    HostFull {
        /// Requested MiB.
        requested_mib: u64,
    },
    /// The OS refused to spawn a real-measurement worker thread
    /// ([`RealStream`](crate::memsys::RealStream),
    /// [`CopyProbe`](crate::memsys::CopyProbe)).
    SpawnFailed {
        /// Index of the worker that failed to start.
        thread: usize,
        /// The OS error, in `std::io::Error` words.
        reason: String,
    },
    /// A real-measurement configuration cannot produce a meaningful
    /// sample.
    InvalidConfig {
        /// What is wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for FioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FioError::NoJobs => write!(f, "no jobs"),
            FioError::NoNic => write!(f, "host has no NIC"),
            FioError::NoSsd => write!(f, "host has no SSDs"),
            FioError::UnknownNode { job, node } => {
                write!(
                    f,
                    "job {job} names node {node}, which the host does not have"
                )
            }
            FioError::EmptyInterleave { job } => {
                write!(f, "job {job} interleaves its buffers over no nodes")
            }
            FioError::BadSize { job, gbytes } => {
                write!(
                    f,
                    "job {job} has size {gbytes} GB; it must be positive and finite"
                )
            }
            FioError::StreamCount { job, streams: 0 } => write!(f, "job {job} runs no streams"),
            FioError::StreamCount { job, streams } => write!(
                f,
                "job {job} brings the submission to {streams} streams; at most {MAX_STREAMS} may run"
            ),
            FioError::Sim(e) => write!(f, "simulation failed: {e}"),
            FioError::JobFile { line, message } => write!(f, "job file line {line}: {message}"),
            FioError::BindNodeFull {
                node,
                free_mib,
                requested_mib,
            } => write!(
                f,
                "bind target {node:?} has {free_mib} MiB free, {requested_mib} requested"
            ),
            FioError::HostFull { requested_mib } => {
                write!(f, "host cannot satisfy {requested_mib} MiB")
            }
            FioError::SpawnFailed { thread, reason } => {
                write!(f, "could not spawn measurement worker {thread}: {reason}")
            }
            FioError::InvalidConfig { reason } => {
                write!(f, "invalid measurement config: {reason}")
            }
        }
    }
}

impl std::error::Error for FioError {}

/// Aggregate results of one job (all its streams).
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// fio-style description line.
    pub describe: String,
    /// Sum of stream volumes / slowest stream finish, Gbit/s — fio's
    /// aggregate bandwidth for the job group.
    pub aggregate_gbps: f64,
    /// Mean rate of each stream.
    pub per_stream_gbps: Vec<f64>,
    /// Slowest stream finish, seconds.
    pub makespan_s: f64,
}

/// Results of a whole submission.
#[derive(Debug, Clone, PartialEq)]
pub struct FioReport {
    /// Total volume across jobs divided by overall makespan.
    pub aggregate_gbps: f64,
    /// Overall makespan, seconds.
    pub makespan_s: f64,
    /// Per-job aggregates, in submission order.
    pub jobs: Vec<JobReport>,
    /// Raw simulator output.
    pub sim: SimReport,
}

/// Lower a job set onto a configured [`Simulation`]; returns the sim and
/// the owning job index of each flow. Shared by [`run_jobs`] (transfer to
/// completion) and [`steady_job_rates`] (instantaneous allocation, used by
/// the `numa-sched` online scheduler).
pub fn build_sim<'f>(
    fabric: &'f Fabric,
    jobs: &[JobSpec],
) -> Result<(Simulation<'f>, Vec<usize>), FioError> {
    build_sim_with(
        fabric,
        jobs,
        NicModel::for_fabric(fabric),
        SsdModel::for_fabric(fabric),
    )
}

/// [`build_sim`] with explicit device models — lets experiments ablate
/// device parameters (IRQ derating, mixed-class penalties, card counts)
/// without rebuilding the fabric.
pub fn build_sim_with<'f>(
    fabric: &'f Fabric,
    jobs: &[JobSpec],
    nic: Option<NicModel>,
    ssd: Option<SsdModel>,
) -> Result<(Simulation<'f>, Vec<usize>), FioError> {
    if jobs.is_empty() {
        return Err(FioError::NoJobs);
    }
    for (job, spec) in jobs.iter().enumerate() {
        if spec.size_gbytes <= 0.0 || !spec.size_gbytes.is_finite() {
            return Err(FioError::BadSize {
                job,
                gbytes: spec.size_gbytes,
            });
        }
        if matches!(&spec.mem_policy, crate::memsys::MemPolicy::Interleave(n) if n.is_empty()) {
            return Err(FioError::EmptyInterleave { job });
        }
        for node in [spec.bind, spec.buffer_node()] {
            if node.index() >= fabric.num_nodes() {
                return Err(FioError::UnknownNode { job, node });
            }
        }
    }

    // Combined jitter: first non-disabled config wins.
    let jitter = jobs
        .iter()
        .map(|j| j.jitter)
        .find(|j| !j.is_none())
        .unwrap_or(JitterCfg::none());
    let mut sim = Simulation::new(fabric).jitter(jitter);

    // Run-level noise on device-side capacities (protocol engines, class
    // ceilings, card channels): real runs land anywhere inside the ranges
    // of Tables IV/V, and with heavy contention the few-percent class gaps
    // can invert ("sometimes the performance of node 5 appears to be the
    // best" — §IV-B1).
    let mut run_rng = numa_par::rng::SplitMix64::new(jitter.seed ^ 0xD1CE_F10E);
    let mut wobble = |cap: f64| -> f64 {
        if jitter.is_none() {
            cap
        } else {
            cap * (1.0 + run_rng.range_f64_inclusive(-jitter.amplitude, jitter.amplitude))
        }
    };

    // ---- Pass 1: per-stream class levels, for port mixtures and budgets.
    // Every table below has a fixed order (NIC ops in `NicOp::ALL` order,
    // everything else first-seen), so `wobble` draws in the same order on
    // every call.
    let mut nic_levels: [Vec<f64>; NicOp::ALL.len()] = Default::default();
    let mut ssd_levels: Vec<(bool, Vec<f64>)> = Vec::new();
    let mut cpu_budget: Vec<(NodeId, f64)> = Vec::new();
    for job in jobs {
        match &job.workload {
            Workload::Nic(op) => {
                let nic = nic.as_ref().ok_or(FioError::NoNic)?;
                let level = nic.node_ceiling(*op, fabric, job.buffer_node());
                nic_levels[op_tag(*op) as usize]
                    .extend(std::iter::repeat_n(level, job.numjobs as usize));
                if op.cpu_bound() {
                    let budget = nic.cpu_budget(*op, job.bind);
                    let b = entry(&mut cpu_budget, job.bind, || budget);
                    *b = b.min(budget);
                }
            }
            Workload::Ssd {
                write,
                engine,
                direct,
            } => {
                let ssd = ssd.as_ref().ok_or(FioError::NoSsd)?;
                let level =
                    ssd.node_ceiling_with(*write, fabric, job.buffer_node(), *engine, *direct);
                entry(&mut ssd_levels, *write, Vec::new)
                    .extend(std::iter::repeat_n(level, job.numjobs as usize));
            }
        }
    }

    // ---- Pass 2: register shared resources.
    let mut custom_id = 0u32;
    let mut fresh_custom = || {
        custom_id += 1;
        ResourceKey::Custom(custom_id - 1)
    };

    // Per-op NIC protocol engine capacity (class mixture, Eq. 1 semantics).
    let mut nic_engine_res = [None; NicOp::ALL.len()];
    // Physical PCIe direction capacity shared by all ops moving that way.
    // Lowered at `base * derate` so a static `device_stall` what-if view
    // (`Fabric::device_derate`) produces exactly the capacity the dynamic
    // injector's `base * factor` event would.
    let mut nic_wire_res: [Option<numa_engine::ResourceHandle>; 2] = [None; 2];
    if let Some(nic) = &nic {
        let nic_dev = fabric
            .topology()
            .devices()
            .iter()
            .position(|d| d.kind == numa_topology::DeviceKind::Nic)
            .unwrap_or(0) as u16;
        for op in NicOp::ALL {
            let levels = &nic_levels[op_tag(op) as usize];
            if levels.is_empty() {
                continue;
            }
            let cap = wobble(nic.shared_port_cap(op, levels));
            nic_engine_res[op_tag(op) as usize] = Some(sim.register(fresh_custom(), cap));
            let dir = op.to_device();
            nic_wire_res[dir as usize].get_or_insert_with(|| {
                sim.register(
                    ResourceKey::DevicePort {
                        dev: numa_topology::DeviceId(nic_dev),
                        to_device: dir,
                    },
                    nic.pcie.effective_gbps() * fabric.device_derate(nic_dev),
                )
            });
        }
    }

    // SSD cards: one resource per (card, direction), capacity = the
    // direction's best per-card rate shaped by the class mixture. Each
    // card is a real `DevicePort` (the dl585 cards are topology devices 1
    // and 2), so `device_stall` faults reach it on both paths: statically
    // through the fabric derate folded in here, dynamically through the
    // injector throttling the registered port.
    let mut ssd_card_res = Vec::new();
    if let Some(ssd) = &ssd {
        for (write, levels) in ssd_levels {
            let mixture = levels.iter().sum::<f64>() / levels.len() as f64;
            let per_card = ssd.port_cap(write).min(mixture) / ssd.cards as f64;
            for card in 0..ssd.cards {
                let dev = ssd.device_id(card);
                let h = sim.register(
                    ResourceKey::DevicePort {
                        dev: numa_topology::DeviceId(dev),
                        to_device: write,
                    },
                    wobble(per_card) * fabric.device_derate(dev),
                );
                ssd_card_res.push(((write, card), h));
            }
        }
    }

    // Per-(op, node) class ceilings so one node's streams cannot exceed
    // their class level in aggregate.
    let mut class_res = Vec::new();

    // TCP CPU budgets, lowered at `base * derate` so a static IRQ-storm
    // what-if view (`Fabric::node_cpu_derate`) matches the dynamic
    // injector's `base * factor` event.
    let mut cpu_res = Vec::new();
    for (node, budget) in cpu_budget {
        if budget.is_finite() {
            let h = sim.register(
                ResourceKey::NodeCpu(node),
                budget * fabric.node_cpu_derate(node),
            );
            cpu_res.push((node, h));
        }
    }

    // ---- Pass 3: emit flows.
    let mut flow_job: Vec<usize> = Vec::new();
    let mut ssd_rr: u32 = 0;
    // Each stream's label is written into one reused buffer, so the
    // shared label is the only allocation per stream.
    let mut label = String::new();
    for (ji, job) in jobs.iter().enumerate() {
        let buffer = job.buffer_node();
        let describe = job.describe();
        for s in 0..job.numjobs {
            label.clear();
            let _ = write!(label, "job{ji}.{s} {describe}");
            let spec = match &job.workload {
                Workload::Nic(op) => {
                    let nic = nic.as_ref().ok_or(FioError::NoNic)?;
                    let (src, dst) = if op.to_device() {
                        (buffer, nic.node)
                    } else {
                        (nic.node, buffer)
                    };
                    let level = nic.node_ceiling(*op, fabric, buffer);
                    let ceiling = if op.cpu_bound() {
                        nic.tcp_per_stream_gbps.min(level)
                    } else {
                        level
                    };
                    let mut f = FlowSpec::dma(src, dst)
                        .gbytes(job.size_gbytes)
                        .ceiling(ceiling)
                        .label(label.as_str())
                        .charge(nic_engine_res[op_tag(*op) as usize].expect("op seen in pass 1"))
                        .charge(nic_wire_res[op.to_device() as usize].expect("op seen in pass 1"));
                    // The NIC endpoint is a device buffer: its DMA engine
                    // reads/writes host memory only on the *buffer* node.
                    f = if op.to_device() {
                        f.device_dst()
                    } else {
                        f.device_src()
                    };
                    let class_handle = *entry(&mut class_res, (op_tag(*op), buffer), || {
                        sim.register(fresh_custom(), wobble(level))
                    });
                    f = f.charge(class_handle);
                    if op.cpu_bound() {
                        if let Some(h) = lookup(&cpu_res, job.bind) {
                            f = f.charge(h);
                        }
                    }
                    f
                }
                Workload::Ssd {
                    write,
                    engine,
                    direct,
                } => {
                    let ssd = ssd.as_ref().ok_or(FioError::NoSsd)?;
                    let (src, dst) = if *write {
                        (buffer, ssd.node)
                    } else {
                        (ssd.node, buffer)
                    };
                    let level = ssd.node_ceiling_with(*write, fabric, buffer, *engine, *direct);
                    let card = ssd_rr % ssd.cards;
                    ssd_rr += 1;
                    let class_handle = *entry(&mut class_res, (ssd_tag(*write), buffer), || {
                        sim.register(fresh_custom(), wobble(level))
                    });
                    let f = FlowSpec::dma(src, dst)
                        .gbytes(job.size_gbytes)
                        .ceiling(level / ssd.cards as f64)
                        .label(label.as_str())
                        .charge(lookup(&ssd_card_res, (*write, card)).expect("seen in pass 1"))
                        .charge(class_handle);
                    if *write {
                        f.device_dst()
                    } else {
                        f.device_src()
                    }
                }
            };
            sim.add_flow(spec.weight(job.weight));
            flow_job.push(ji);
        }
    }
    Ok((sim, flow_job))
}

impl FioReport {
    /// fio-style textual report: one line per job plus the group total.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, j) in self.jobs.iter().enumerate() {
            let _ = writeln!(
                out,
                "job{i}: {}\n  agg {:.2} Gbit/s over {:.1}s ({} streams: {})",
                j.describe,
                j.aggregate_gbps,
                j.makespan_s,
                j.per_stream_gbps.len(),
                j.per_stream_gbps
                    .iter()
                    .map(|r| format!("{r:.2}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
        let _ = writeln!(
            out,
            "ALL: {:.2} Gbit/s over {:.1}s",
            self.aggregate_gbps, self.makespan_s
        );
        out
    }
}

/// Check that every job runs a stream and all of them at most
/// [`MAX_STREAMS`]. [`run_jobs`] and [`run_jobs_scenario`] check their
/// outside counts; [`steady_job_rates`] leaves the scheduler's unbounded.
pub fn check_streams(jobs: &[JobSpec]) -> Result<(), FioError> {
    let mut streams = 0u64;
    for (job, spec) in jobs.iter().enumerate() {
        if spec.numjobs == 0 {
            return Err(FioError::StreamCount { job, streams: 0 });
        }
        streams += u64::from(spec.numjobs);
        if streams > MAX_STREAMS as u64 {
            return Err(FioError::StreamCount { job, streams });
        }
    }
    Ok(())
}

/// Run a set of jobs concurrently to completion (the paper's multi-user
/// scenarios submit several pinned jobs at once).
pub fn run_jobs(fabric: &Fabric, jobs: &[JobSpec]) -> Result<FioReport, FioError> {
    run_jobs_with(
        fabric,
        jobs,
        NicModel::for_fabric(fabric),
        SsdModel::for_fabric(fabric),
    )
}

/// [`run_jobs`] with explicit device models (ablation hook).
pub fn run_jobs_with(
    fabric: &Fabric,
    jobs: &[JobSpec],
    nic: Option<NicModel>,
    ssd: Option<SsdModel>,
) -> Result<FioReport, FioError> {
    check_streams(jobs)?;
    let (sim, flow_job) = build_sim_with(fabric, jobs, nic, ssd)?;
    let report = sim.run().map_err(FioError::Sim)?;
    Ok(assemble_report(jobs, report, &flow_job))
}

/// [`run_jobs`] with an observability handle attached to the
/// [`Simulation`]. Engine-level events (allocation rounds,
/// flow completions) carry each flow's `job<i>.<stream> <describe>` label,
/// so the stream is already tagged with job metadata; on top of that, each
/// job's aggregate is emitted as a `job_finished` event at its makespan.
pub fn run_jobs_scenario(
    fabric: &Fabric,
    jobs: &[JobSpec],
    obs: &numa_obs::Obs,
) -> Result<FioReport, FioError> {
    check_streams(jobs)?;
    let (sim, flow_job) = build_sim(fabric, jobs)?;
    let report = sim.observe(obs.clone()).run().map_err(FioError::Sim)?;
    let out = assemble_report(jobs, report, &flow_job);
    for (ji, j) in out.jobs.iter().enumerate() {
        obs.counter("numio_jobs_completed_total", &[("component", "fio")])
            .inc();
        obs.event(
            "job_finished",
            j.makespan_s,
            &[
                ("job", numa_obs::Value::from(ji)),
                ("describe", j.describe.as_str().into()),
                ("aggregate_gbps", numa_obs::Value::from(j.aggregate_gbps)),
                ("streams", numa_obs::Value::from(j.per_stream_gbps.len())),
            ],
        );
    }
    Ok(out)
}

/// Fold raw simulator output into per-job aggregates. Public so harnesses
/// that need the [`Simulation`] between [`build_sim`] and `run` (e.g. to
/// arm a fault injector) can still produce a standard [`FioReport`].
pub fn assemble_report(jobs: &[JobSpec], report: SimReport, flow_job: &[usize]) -> FioReport {
    let mut job_reports = Vec::with_capacity(jobs.len());
    for (ji, job) in jobs.iter().enumerate() {
        let streams: Vec<&numa_engine::FlowResult> = report
            .flows
            .iter()
            .zip(flow_job)
            .filter(|(_, &owner)| owner == ji)
            .map(|(f, _)| f)
            .collect();
        let volume: f64 = streams.iter().map(|f| f.volume_gbit).sum();
        let makespan = streams.iter().map(|f| f.finish_s).fold(0.0, f64::max);
        // A stream's label is `job<i>.<s> <describe>`: reuse its describe.
        let describe = streams.first().and_then(|f| f.label.split_once(' '));
        job_reports.push(JobReport {
            describe: describe.map_or_else(|| job.describe(), |(_, d)| d.to_string()),
            aggregate_gbps: if makespan > 0.0 {
                volume / makespan
            } else {
                0.0
            },
            per_stream_gbps: streams.iter().map(|f| f.mean_gbps).collect(),
            makespan_s: makespan,
        });
    }

    FioReport {
        aggregate_gbps: report.aggregate_gbps,
        makespan_s: report.makespan_s,
        jobs: job_reports,
        sim: report,
    }
}

/// Instantaneous max-min aggregate rate of each job with every stream
/// active — what an online scheduler observes right after (re)placement.
pub fn steady_job_rates(fabric: &Fabric, jobs: &[JobSpec]) -> Result<Vec<f64>, FioError> {
    let (sim, flow_job) = build_sim(fabric, jobs)?;
    let rates = sim.steady_rates().map_err(FioError::Sim)?;
    let mut per_job = vec![0.0; jobs.len()];
    for (rate, &ji) in rates.iter().zip(&flow_job) {
        per_job[ji] += rate;
    }
    Ok(per_job)
}

/// The value of `key` in a small first-seen-order table, inserted as
/// `init()` when absent.
fn entry<K: PartialEq, V>(table: &mut Vec<(K, V)>, key: K, init: impl FnOnce() -> V) -> &mut V {
    let i = table
        .iter()
        .position(|(k, _)| *k == key)
        .unwrap_or_else(|| {
            table.push((key, init()));
            table.len() - 1
        });
    &mut table[i].1
}

/// The value of `key` in a small first-seen-order table.
fn lookup<K: PartialEq, V: Copy>(table: &[(K, V)], key: K) -> Option<V> {
    table.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
}

/// Distinct tag per NIC op (its `NicOp::ALL` index) for class-resource
/// keying.
fn op_tag(op: NicOp) -> u8 {
    match op {
        NicOp::TcpSend => 0,
        NicOp::TcpRecv => 1,
        NicOp::RdmaWrite => 2,
        NicOp::RdmaRead => 3,
        NicOp::SendRecv => 4,
    }
}

/// Distinct tag per SSD direction (offset past NIC ops).
fn ssd_tag(write: bool) -> u8 {
    if write {
        10
    } else {
        11
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_fabric::calibration::{dl585_fabric, paper};
    use numa_iodev::IoEngine;

    fn fabric() -> Fabric {
        dl585_fabric()
    }

    #[test]
    fn empty_submission_rejected() {
        assert_eq!(run_jobs(&fabric(), &[]).unwrap_err(), FioError::NoJobs);
    }

    #[test]
    fn single_tcp_stream_is_cpu_capped() {
        let f = fabric();
        let job = JobSpec::nic(NicOp::TcpSend, NodeId(5)).size_gbytes(7.0);
        let r = run_jobs(&f, &[job]).unwrap();
        assert!(
            (r.aggregate_gbps - 5.6).abs() < 1e-6,
            "{}",
            r.aggregate_gbps
        );
    }

    #[test]
    fn four_tcp_streams_reach_class_level() {
        let f = fabric();
        for (node, want) in [(6u16, 20.9), (5, 20.5), (2, 16.3)] {
            let job = JobSpec::nic(NicOp::TcpSend, NodeId(node))
                .numjobs(4)
                .size_gbytes(10.0);
            let r = run_jobs(&f, &[job]).unwrap();
            assert!(
                (r.aggregate_gbps - want).abs() < 0.1,
                "node {node}: {} vs {want}",
                r.aggregate_gbps
            );
        }
    }

    #[test]
    fn node7_send_is_irq_penalized_below_node6() {
        let f = fabric();
        let at = |node: u16| {
            let job = JobSpec::nic(NicOp::TcpSend, NodeId(node))
                .numjobs(4)
                .size_gbytes(10.0);
            run_jobs(&f, &[job]).unwrap().aggregate_gbps
        };
        let n7 = at(7);
        let n6 = at(6);
        assert!((n7 - 19.6).abs() < 0.1, "{n7}");
        assert!(n6 > n7 + 1.0, "neighbour beats local: {n6} vs {n7}");
    }

    #[test]
    fn rdma_write_single_stream_hits_class_level() {
        let f = fabric();
        for (node, want) in [(7u16, 23.3), (4, 23.3), (3, 17.05)] {
            let job = JobSpec::nic(NicOp::RdmaWrite, NodeId(node)).size_gbytes(10.0);
            let r = run_jobs(&f, &[job]).unwrap();
            assert!(
                (r.aggregate_gbps - want).abs() < 0.1,
                "node {node}: {} vs {want}",
                r.aggregate_gbps
            );
        }
    }

    #[test]
    fn rdma_read_class_levels() {
        let f = fabric();
        for (node, want) in [
            (2u16, paper::EQ1_CLASS2_BW),
            (0, paper::EQ1_CLASS3_BW),
            (4, 16.1),
        ] {
            let job = JobSpec::nic(NicOp::RdmaRead, NodeId(node))
                .numjobs(2)
                .size_gbytes(10.0);
            let r = run_jobs(&f, &[job]).unwrap();
            assert!(
                (r.aggregate_gbps - want).abs() < 0.05,
                "node {node}: {} vs {want}",
                r.aggregate_gbps
            );
        }
    }

    #[test]
    fn eq1_mixed_class_run_matches_measured_value() {
        // The paper's validation: 2 RDMA_READ procs on node 2 + 2 on node
        // 0 measure 19.415 Gbps aggregate.
        let f = fabric();
        let jobs = [
            JobSpec::nic(NicOp::RdmaRead, NodeId(2))
                .numjobs(2)
                .size_gbytes(50.0),
            JobSpec::nic(NicOp::RdmaRead, NodeId(0))
                .numjobs(2)
                .size_gbytes(50.0),
        ];
        let r = run_jobs(&f, &jobs).unwrap();
        let err = (r.aggregate_gbps - paper::EQ1_MEASURED).abs() / paper::EQ1_MEASURED;
        assert!(
            err < 0.02,
            "{} vs {}",
            r.aggregate_gbps,
            paper::EQ1_MEASURED
        );
    }

    #[test]
    fn ssd_write_two_procs_reach_table_iv() {
        let f = fabric();
        for (node, want) in [(7u16, 29.1), (0, 28.1), (3, 17.9)] {
            let job = JobSpec::ssd(true, NodeId(node))
                .numjobs(2)
                .size_gbytes(20.0);
            let r = run_jobs(&f, &[job]).unwrap();
            assert!(
                (r.aggregate_gbps - want).abs() < 0.15,
                "node {node}: {} vs {want}",
                r.aggregate_gbps
            );
        }
    }

    #[test]
    fn ssd_single_proc_drives_one_card_only() {
        let f = fabric();
        let two = run_jobs(
            &f,
            &[JobSpec::ssd(false, NodeId(6)).numjobs(2).size_gbytes(20.0)],
        )
        .unwrap()
        .aggregate_gbps;
        let one = run_jobs(
            &f,
            &[JobSpec::ssd(false, NodeId(6)).numjobs(1).size_gbytes(20.0)],
        )
        .unwrap()
        .aggregate_gbps;
        assert!((one - two / 2.0).abs() < 0.1, "one={one} two={two}");
    }

    #[test]
    fn sync_buffered_ssd_is_slower() {
        let f = fabric();
        let fast = JobSpec::ssd(false, NodeId(6)).numjobs(2).size_gbytes(10.0);
        let mut slow = fast.clone();
        slow.workload = Workload::Ssd {
            write: false,
            engine: IoEngine::Sync,
            direct: false,
        };
        let rf = run_jobs(&f, &[fast]).unwrap().aggregate_gbps;
        let rs = run_jobs(&f, &[slow]).unwrap().aggregate_gbps;
        assert!(rs < 0.3 * rf, "sync+buffered {rs} vs libaio+direct {rf}");
    }

    #[test]
    fn per_job_reports_split_streams() {
        let f = fabric();
        let jobs = [
            JobSpec::nic(NicOp::RdmaWrite, NodeId(6))
                .numjobs(2)
                .size_gbytes(5.0),
            JobSpec::nic(NicOp::RdmaWrite, NodeId(3))
                .numjobs(1)
                .size_gbytes(5.0),
        ];
        let r = run_jobs(&f, &jobs).unwrap();
        assert_eq!(r.jobs.len(), 2);
        assert_eq!(r.jobs[0].per_stream_gbps.len(), 2);
        assert_eq!(r.jobs[1].per_stream_gbps.len(), 1);
        assert!(r.jobs[0].aggregate_gbps > r.jobs[1].aggregate_gbps);
    }

    #[test]
    fn observed_run_matches_plain_and_tags_jobs() {
        let f = fabric();
        let jobs = [
            JobSpec::nic(NicOp::RdmaWrite, NodeId(6))
                .numjobs(2)
                .size_gbytes(5.0),
            JobSpec::nic(NicOp::RdmaWrite, NodeId(3))
                .numjobs(1)
                .size_gbytes(5.0),
        ];
        let plain = run_jobs(&f, &jobs).unwrap();
        let obs = numa_obs::Obs::new();
        let observed = run_jobs_scenario(&f, &jobs, &obs).unwrap();
        assert_eq!(plain, observed);
        assert_eq!(
            obs.counter("numio_jobs_completed_total", &[("component", "fio")])
                .get(),
            2
        );
        let jsonl = obs.jsonl();
        // Engine flow completions carry the job-tagged flow label...
        assert!(jsonl.contains("\"label\":\"job0.0 RdmaWrite"), "{jsonl}");
        // ...and job-level aggregates ride along as events.
        assert!(jsonl.contains("\"ev\":\"job_finished\""), "{jsonl}");
    }

    #[test]
    fn fio_report_renders_jobs_and_total() {
        let f = fabric();
        let jobs = [JobSpec::nic(NicOp::RdmaWrite, NodeId(6))
            .numjobs(2)
            .size_gbytes(5.0)];
        let s = run_jobs(&f, &jobs).unwrap().render();
        assert!(s.contains("job0: RdmaWrite"));
        assert!(s.contains("2 streams"));
        assert!(s.contains("ALL: 23.30 Gbit/s"));
    }

    #[test]
    fn missing_devices_are_reported() {
        use numa_fabric::calibration::generic_fabric;
        let bare = generic_fabric(numa_topology::presets::fig1a());
        let err = run_jobs(&bare, &[JobSpec::nic(NicOp::TcpSend, NodeId(0))]).unwrap_err();
        assert_eq!(err, FioError::NoNic);
        let err = run_jobs(&bare, &[JobSpec::ssd(true, NodeId(0))]).unwrap_err();
        assert_eq!(err, FioError::NoSsd);
    }

    #[test]
    fn empty_interleave_list_is_a_typed_error() {
        let f = fabric();
        let ok = JobSpec::nic(NicOp::TcpSend, NodeId(7));
        let empty = JobSpec::ssd(true, NodeId(3))
            .mem_policy(crate::memsys::MemPolicy::Interleave(Vec::new()));
        let want = FioError::EmptyInterleave { job: 1 };
        assert_eq!(
            run_jobs(&f, &[ok.clone(), empty.clone()]).unwrap_err(),
            want
        );
        assert_eq!(steady_job_rates(&f, &[ok, empty]).unwrap_err(), want);
    }

    #[test]
    fn non_positive_or_nan_size_is_a_typed_error() {
        let f = fabric();
        for gbytes in [0.0, -2.0, f64::NAN] {
            let job = JobSpec::nic(NicOp::RdmaWrite, NodeId(3)).size_gbytes(gbytes);
            match run_jobs(&f, &[job]).unwrap_err() {
                FioError::BadSize { job: 0, gbytes: g } => assert!(g.total_cmp(&gbytes).is_eq()),
                other => panic!("size {gbytes}: {other:?}"),
            }
        }
    }

    #[test]
    fn stream_count_outside_the_bound_is_a_typed_error() {
        let f = fabric();
        let nic = |n| JobSpec::nic(NicOp::RdmaRead, NodeId(2)).numjobs(n);
        let count = |job, streams| Err(FioError::StreamCount { job, streams });
        // Rejected before one flow is lowered: u32::MAX streams would
        // otherwise allocate without limit.
        let err = run_jobs(&f, &[nic(2), nic(u32::MAX)]).map(|_| ());
        assert_eq!(err, count(1, u64::from(u32::MAX) + 2));
        let msg = err.unwrap_err().to_string();
        assert!(
            msg.ends_with("4294967297 streams; at most 4096 may run"),
            "{msg}"
        );
        let (max, obs) = (MAX_STREAMS as u32, numa_obs::Obs::new());
        let over = [nic(max - 1), nic(2)];
        let err = run_jobs_scenario(&f, &over, &obs).map(|_| ());
        assert_eq!(err, count(1, MAX_STREAMS as u64 + 1));
        // The scheduler builds its own job sets; its path is not bounded.
        assert_eq!(steady_job_rates(&f, &over).unwrap().len(), 2);
        let zero = JobSpec {
            numjobs: 0,
            ..nic(1)
        };
        let err = run_jobs(&f, &[nic(1), zero]).unwrap_err();
        assert_eq!(err.to_string(), "job 1 runs no streams");
        assert_eq!(check_streams(&[nic(max - 1), nic(1)]), Ok(()));
    }

    #[test]
    fn job_on_a_node_outside_the_fabric_is_a_typed_error() {
        let f = fabric();
        let unknown = |job, node| FioError::UnknownNode {
            job,
            node: NodeId(node),
        };
        let nic = [JobSpec::nic(NicOp::RdmaWrite, NodeId(9))];
        assert_eq!(run_jobs(&f, &nic).unwrap_err(), unknown(0, 9));
        assert_eq!(steady_job_rates(&f, &nic).unwrap_err(), unknown(0, 9));
        // The CPU node is valid; the buffers are not.
        let ssd =
            JobSpec::ssd(true, NodeId(3)).mem_policy(crate::memsys::MemPolicy::Bind(NodeId(8)));
        let jobs = [JobSpec::nic(NicOp::TcpSend, NodeId(7)), ssd];
        assert_eq!(run_jobs(&f, &jobs).unwrap_err(), unknown(1, 8));
        assert_eq!(steady_job_rates(&f, &jobs).unwrap_err(), unknown(1, 8));
        assert!(unknown(1, 8).to_string().contains("node 8"));
    }

    #[test]
    fn jobfile_naming_a_missing_device_is_a_typed_error() {
        // Regression for the pass-3 `nic/ssd.as_ref().unwrap()` sites:
        // a parsed jobfile whose jobs need devices the fabric does not
        // host must surface `FioError::{NoNic,NoSsd}` end to end, never
        // panic while emitting flows.
        use numa_fabric::calibration::generic_fabric;
        let bare = generic_fabric(numa_topology::presets::fig1a());
        let jobs = |text: &str| -> Vec<JobSpec> {
            crate::jobfile::parse(text)
                .unwrap()
                .into_iter()
                .map(|(_, job)| job)
                .collect()
        };
        let nic_jobs = jobs("[net]\nioengine=rdma\nverb=write\ncpunodebind=0\nsize=1g\n");
        assert_eq!(run_jobs(&bare, &nic_jobs).unwrap_err(), FioError::NoNic);
        let ssd_jobs = jobs("[disk]\nioengine=libaio\nrw=write\ncpunodebind=0\nsize=1g\n");
        assert_eq!(run_jobs(&bare, &ssd_jobs).unwrap_err(), FioError::NoSsd);
    }

    #[test]
    fn remote_buffers_change_the_class() {
        // Pin CPU to node 6 but buffers to node 3: the DMA path (and hence
        // the class) follows the buffers — the paper's central point that
        // data location, not thread location, drives DMA cost.
        use crate::memsys::MemPolicy;
        let f = fabric();
        let job = JobSpec::nic(NicOp::RdmaWrite, NodeId(6))
            .mem_policy(MemPolicy::bind(3))
            .size_gbytes(10.0);
        let r = run_jobs(&f, &[job]).unwrap();
        assert!(
            (r.aggregate_gbps - 17.05).abs() < 0.1,
            "{}",
            r.aggregate_gbps
        );
    }

    #[test]
    fn jittered_mixed_runs_are_deterministic() {
        // Three NIC ops and both SSD directions: the run-level wobble is
        // drawn per op and per direction, so it must not follow a hasher's
        // order.
        let f = fabric();
        let jitter = JitterCfg::measurement(9);
        let jobs = [
            JobSpec::nic(NicOp::TcpSend, NodeId(6)).numjobs(2),
            JobSpec::nic(NicOp::RdmaRead, NodeId(2)).numjobs(2),
            JobSpec::nic(NicOp::RdmaWrite, NodeId(3)),
            JobSpec::ssd(true, NodeId(0)).numjobs(2),
            JobSpec::ssd(false, NodeId(5)).numjobs(2),
        ]
        .map(|j| j.size_gbytes(5.0).jitter(jitter));
        let first = run_jobs(&f, &jobs).unwrap();
        for _ in 0..49 {
            assert_eq!(run_jobs(&f, &jobs).unwrap(), first);
        }
        assert_eq!(first.jobs[1].describe, jobs[1].describe());
    }
}
