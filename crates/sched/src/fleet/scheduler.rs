//! The cluster scheduler: place streams across hosts and nodes, run each
//! host's round through the engine, and fold flow-completion records into
//! a per-policy report.

use super::{Fleet, FleetPolicy, StreamSpec, POLICY_NAMES};
use crate::error::SchedError;
use crate::policy::ActiveView;
use crate::task::TaskId;
use numa_engine::{fct_digest, FctStats, FlowResult, FlowSpec, Simulation};
use numa_obs::nearest_rank;

/// What one policy achieved on one episode.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Policy name.
    pub policy: String,
    /// Hosts in the fleet.
    pub hosts: usize,
    /// Streams placed.
    pub streams: usize,
    /// Scheduling rounds the episode ran in.
    pub rounds: usize,
    /// Total volume moved, Gbit.
    pub total_gbit: f64,
    /// Fleet-aggregate bandwidth: total volume over summed round makespans
    /// (rounds are sequential; hosts within a round run in parallel).
    pub aggregate_gbps: f64,
    /// Jain fairness index over per-stream mean rates, in `(0, 1]`.
    pub jain_fairness: f64,
    /// p99 of per-stream slowdowns.
    pub p99_slowdown: f64,
    /// Merged flow-completion statistics across the fleet.
    pub fct: FctStats,
    /// Streams per host, host order.
    pub per_host_streams: Vec<usize>,
    /// FNV digest over the per-stream FCTs in stream order — the
    /// bit-reproducibility anchor for `--check` gates.
    pub digest: u64,
}

impl FleetReport {
    /// One-line summary for CLI output.
    pub fn render(&self) -> String {
        format!(
            "{:<16} {:>8.2} Gbps  jain {:.4}  p99 slowdown {:.3}  ({} streams / {} hosts)",
            self.policy,
            self.aggregate_gbps,
            self.jain_fairness,
            self.p99_slowdown,
            self.streams,
            self.hosts
        )
    }
}

/// Runs placement episodes over a [`Fleet`].
///
/// An episode proceeds in rounds: the policy places the round's streams one
/// at a time (seeing the queue occupancy build up), every host then runs
/// its queued streams as one engine scenario, and the resulting
/// flow-completion records are fed back to the policy before the next
/// round — that feedback loop is what the adaptive policy learns from.
#[derive(Debug, Clone)]
pub struct ClusterScheduler<'f> {
    fleet: &'f Fleet,
    rounds: usize,
}

impl<'f> ClusterScheduler<'f> {
    /// A scheduler over `fleet` with the default 4 rounds.
    pub fn new(fleet: &'f Fleet) -> Self {
        ClusterScheduler { fleet, rounds: 4 }
    }

    /// Set the round count (at least 1).
    #[must_use]
    pub fn rounds(mut self, rounds: usize) -> Self {
        self.rounds = rounds.max(1);
        self
    }

    /// Run one episode of `streams` under `policy`.
    pub fn run(
        &self,
        streams: &[StreamSpec],
        policy: &mut FleetPolicy,
    ) -> Result<FleetReport, SchedError> {
        if streams.is_empty() {
            return Err(SchedError::NoStreams);
        }
        let n_hosts = self.fleet.len();
        let mut per_host_streams = vec![0usize; n_hosts];
        // Per-stream results, indexed by position in `streams`.
        let mut results: Vec<Option<FlowResult>> = vec![None; streams.len()];
        let mut makespan_s = 0.0f64;

        let per_round = streams.len().div_ceil(self.rounds);
        let rounds_run = streams.len().div_ceil(per_round);
        for round in 0..rounds_run {
            let batch = round * per_round..streams.len().min((round + 1) * per_round);
            // This round's queue per host, which is also the load the
            // policy sees: one device-bound single-stream view per placed
            // stream, `id` its position in `streams`.
            let mut queues: Vec<Vec<ActiveView>> = vec![Vec::new(); n_hosts];
            for pos in batch {
                let p = policy.place(self.fleet, &queues);
                per_host_streams[p.host] += 1;
                let (id, node) = (TaskId(pos as u32), p.node);
                queues[p.host].push(ActiveView {
                    id,
                    node,
                    streams: 1,
                    to_device: true,
                });
            }
            let mut round_makespan = 0.0f64;
            for (host_id, queue) in queues.iter().enumerate() {
                if queue.is_empty() {
                    continue;
                }
                let host = self.fleet.host(host_id);
                let io = host.io_node();
                let report = Simulation::new(host.fabric())
                    .flows(queue.iter().map(|a| {
                        let s = &streams[a.id.index()];
                        FlowSpec::dma(a.node, io)
                            .gbytes(s.gbytes)
                            .label(format!("s{}", s.id))
                    }))
                    .run()
                    .map_err(|error| SchedError::Sim {
                        host: host_id,
                        error,
                    })?;
                round_makespan = round_makespan.max(report.makespan_s);
                // Flows come back in submission order.
                for (a, flow) in queue.iter().zip(report.flows) {
                    policy.observe(host_id, flow.slowdown);
                    results[a.id.index()] = Some(flow);
                }
            }
            makespan_s += round_makespan;
        }

        let flows: Vec<FlowResult> = results
            .into_iter()
            .map(|r| r.expect("every stream ran"))
            .collect();
        let total_gbit: f64 = flows.iter().map(|f| f.volume_gbit).sum();
        let rates: Vec<f64> = flows.iter().map(|f| f.mean_gbps).collect();
        let mut slowdowns: Vec<f64> = flows.iter().map(|f| f.slowdown).collect();
        slowdowns.sort_by(f64::total_cmp);
        Ok(FleetReport {
            policy: policy.name().to_string(),
            hosts: n_hosts,
            streams: streams.len(),
            rounds: rounds_run,
            total_gbit,
            aggregate_gbps: if makespan_s > 0.0 {
                total_gbit / makespan_s
            } else {
                0.0
            },
            jain_fairness: jain(&rates),
            p99_slowdown: nearest_rank(&slowdowns, 0.99),
            fct: FctStats::from_flows(&flows),
            per_host_streams,
            digest: fct_digest(&flows),
        })
    }

    /// Run the canonical three-policy comparison over one seeded workload.
    pub fn compare(&self, streams: &[StreamSpec]) -> Result<Vec<FleetReport>, SchedError> {
        POLICY_NAMES
            .iter()
            .map(|name| self.run(streams, &mut FleetPolicy::by_name(name, self.fleet.len())?))
            .collect()
    }
}

/// Jain's fairness index: `(Σx)² / (n·Σx²)`, 1.0 when all rates equal.
pub fn jain(rates: &[f64]) -> f64 {
    if rates.is_empty() {
        return 0.0;
    }
    let sum: f64 = rates.iter().sum();
    let sq: f64 = rates.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 0.0;
    }
    sum * sum / (rates.len() as f64 * sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet() -> Fleet {
        Fleet::generate(3, 42).unwrap()
    }

    #[test]
    fn episode_covers_every_stream() {
        let fleet = fleet();
        let streams = StreamSpec::workload(24, 5);
        let mut policy = FleetPolicy::ClassRanked;
        let report = ClusterScheduler::new(&fleet)
            .rounds(3)
            .run(&streams, &mut policy)
            .unwrap();
        assert_eq!(report.streams, 24);
        assert_eq!(report.rounds, 3);
        assert_eq!(report.per_host_streams.iter().sum::<usize>(), 24);
        assert_eq!(report.fct.count, 24);
        assert!(report.aggregate_gbps > 0.0);
        assert!(report.total_gbit > 0.0);
        assert!((0.0..=1.0 + 1e-12).contains(&report.jain_fairness));
        assert!(report.p99_slowdown >= 1.0);
    }

    #[test]
    fn episodes_are_bit_reproducible() {
        let fleet = fleet();
        let streams = StreamSpec::workload(16, 9);
        let sched = ClusterScheduler::new(&fleet);
        for name in POLICY_NAMES {
            let mut p1 = FleetPolicy::by_name(name, fleet.len()).unwrap();
            let mut p2 = p1.clone();
            let a = sched.run(&streams, &mut p1).unwrap();
            let b = sched.run(&streams, &mut p2).unwrap();
            assert_eq!(a, b, "{name} not reproducible");
            assert_eq!(a.digest, b.digest);
        }
    }

    #[test]
    fn compare_runs_all_three_policies() {
        let fleet = fleet();
        let streams = StreamSpec::workload(12, 3);
        let reports = ClusterScheduler::new(&fleet).compare(&streams).unwrap();
        assert_eq!(reports.len(), 3);
        let names: Vec<&str> = reports.iter().map(|r| r.policy.as_str()).collect();
        assert_eq!(names, POLICY_NAMES.to_vec());
        // Policies genuinely differ on this workload: at least two
        // distinct digests.
        let distinct: std::collections::HashSet<u64> = reports.iter().map(|r| r.digest).collect();
        assert!(distinct.len() >= 2, "all policies placed identically");
    }

    #[test]
    fn empty_streams_rejected() {
        let fleet = fleet();
        let mut policy = FleetPolicy::by_name("adaptive", fleet.len()).unwrap();
        let e = ClusterScheduler::new(&fleet)
            .run(&[], &mut policy)
            .unwrap_err();
        assert_eq!(e, SchedError::NoStreams);
    }

    #[test]
    fn jain_index_behaves() {
        assert_eq!(jain(&[]), 0.0);
        assert_eq!(jain(&[0.0, 0.0]), 0.0);
        assert!((jain(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        let skewed = jain(&[10.0, 1.0, 1.0]);
        assert!(skewed < 0.6, "{skewed}");
    }

    #[test]
    fn report_renders_metrics() {
        let fleet = fleet();
        let streams = StreamSpec::workload(8, 1);
        let reports = ClusterScheduler::new(&fleet).compare(&streams).unwrap();
        let line = reports[0].render();
        assert!(line.contains("class-ranked"));
        assert!(line.contains("jain"));
        assert!(line.contains("8 streams / 3 hosts"));
    }
}
