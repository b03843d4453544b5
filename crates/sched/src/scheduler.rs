//! The online scheduling episode simulator.

use crate::error::SchedError;
use crate::fallback::RetryPolicy;
use crate::metrics::EpisodeReport;
use crate::policy::{ActiveView, Policy, SchedContext};
use crate::task::{IoTask, TaskId, TaskOutcome};
use numa_fabric::Fabric;
use numa_fio::{steady_job_rates, JobSpec, Workload};
use numa_topology::NodeId;
use numio_core::{Platform, SimPlatform};

/// Maximum processed events per episode.
pub const MAX_EVENTS: usize = 200_000;

#[derive(Debug, Clone)]
struct Active {
    id: TaskId,
    task: IoTask,
    node: NodeId,
    remaining_gbit: f64,
    migrations: u32,
    paused_until: f64,
}

impl Active {
    fn job(&self) -> JobSpec {
        let base = match &self.task.workload {
            Workload::Nic(op) => JobSpec::nic(*op, self.node),
            Workload::Ssd { write, .. } => JobSpec {
                workload: self.task.workload.clone(),
                ..JobSpec::ssd(*write, self.node)
            },
        };
        base.numjobs(self.task.streams)
            .size_gbytes(1.0)
            .weight(self.task.weight)
    }

    fn view(&self) -> ActiveView {
        let (id, node, streams) = (self.id, self.node, self.task.streams);
        ActiveView {
            id,
            node,
            streams,
            to_device: self.task.to_device(),
        }
    }
}

/// Episode driver: replays a task trace against a platform under a policy.
#[derive(Debug, Clone)]
pub struct Scheduler<'a> {
    fabric: &'a Fabric,
    /// Migration cost: the task is paused this long while its buffers are
    /// re-registered on the new node.
    pub migration_pause_s: f64,
    /// Retry policy for transient allocation-round failures.
    pub retry: RetryPolicy,
    /// Observability handle attached via [`Scheduler::observe`].
    obs: Option<numa_obs::Obs>,
}

impl<'a> Scheduler<'a> {
    /// New scheduler with a 250 ms migration pause (re-pinning buffers and
    /// re-establishing DMA registrations is not free) and the default
    /// allocation [`RetryPolicy`].
    pub fn new(platform: &'a SimPlatform) -> Self {
        Self::for_fabric(platform.fabric())
    }

    /// New scheduler directly over a fabric (same defaults as [`new`]).
    ///
    /// [`new`]: Scheduler::new
    pub fn for_fabric(fabric: &'a Fabric) -> Self {
        Scheduler {
            fabric,
            migration_pause_s: 0.25,
            retry: RetryPolicy::default(),
            obs: None,
        }
    }

    /// New scheduler over any measurement backend. Episodes are fluid
    /// simulations against the fabric's max-min allocator, so a backend
    /// that carries no fabric (a real host, a replay fixture) yields a
    /// typed [`SchedError::NoFabric`] instead of a panic.
    pub fn for_backend<P: Platform>(platform: &'a P) -> Result<Self, SchedError> {
        let fabric = platform.fabric().ok_or_else(|| SchedError::NoFabric {
            label: platform.label(),
        })?;
        Ok(Self::for_fabric(fabric))
    }

    /// Attach an observability handle. Subsequent [`run`] calls emit
    /// structured events (placements, migrations, completions) and metrics
    /// (allocation-round counters, per-policy latency histograms) into
    /// `obs`. Timestamps are simulation time, so the emitted stream is
    /// deterministic for a deterministic trace.
    ///
    /// [`run`]: Scheduler::run
    #[must_use]
    pub fn observe(mut self, obs: numa_obs::Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Run one episode (observed when a handle was attached via
    /// [`Scheduler::observe`]).
    pub fn run<P: Policy>(
        &self,
        mut tasks: Vec<IoTask>,
        mut policy: P,
    ) -> Result<EpisodeReport, SchedError> {
        let obs = self.obs.as_ref();
        if tasks.is_empty() {
            return Err(SchedError::NoTasks);
        }
        let _episode_span = obs.map(|o| o.span("sched.episode"));
        tasks.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s));
        let fabric = self.fabric;
        let total_gbit: f64 = tasks.iter().map(|t| t.volume_gbytes * 8.0).sum();

        let mut pending: std::collections::VecDeque<(TaskId, IoTask)> = tasks
            .into_iter()
            .enumerate()
            .map(|(i, t)| (TaskId(i as u32), t))
            .collect();
        let mut active: Vec<Active> = Vec::new();
        let mut outcomes: Vec<TaskOutcome> = Vec::new();
        let mut migrations_total = 0u32;
        let mut t = 0.0_f64;
        let mut next_epoch = policy.epoch_s().unwrap_or(f64::INFINITY);

        for _event in 0..MAX_EVENTS {
            if pending.is_empty() && active.is_empty() {
                break;
            }
            // Rates for running (unpaused) tasks.
            let runnable: Vec<usize> = (0..active.len())
                .filter(|&i| active[i].paused_until <= t)
                .collect();
            let rates: Vec<f64> = if runnable.is_empty() {
                Vec::new()
            } else {
                let jobs: Vec<JobSpec> = runnable.iter().map(|&i| active[i].job()).collect();
                let alloc_span = obs.map(|o| o.span("sched.alloc_round"));
                // Allocation can fail transiently when the machine degrades
                // under the episode; back off deterministically, then give
                // up with a typed error instead of panicking.
                let mut attempt = 0u32;
                let r = loop {
                    match steady_job_rates(fabric, &jobs) {
                        Ok(r) => break r,
                        Err(e) => {
                            attempt += 1;
                            emit(
                                obs,
                                Some("numio_sched_retries_total"),
                                "alloc_retry",
                                t,
                                || {
                                    vec![
                                        ("attempt", attempt.into()),
                                        ("error", e.to_string().into()),
                                    ]
                                },
                            );
                            if attempt >= self.retry.max_attempts {
                                return Err(SchedError::AllocFailed {
                                    attempts: attempt,
                                    last_error: e.to_string(),
                                });
                            }
                            t += self.retry.backoff_s(attempt - 1);
                        }
                    }
                };
                drop(alloc_span);
                emit(
                    obs,
                    Some("numio_alloc_rounds_total"),
                    "alloc_round",
                    t,
                    || {
                        vec![
                            ("component", "sched".into()),
                            ("tasks", runnable.len().into()),
                        ]
                    },
                );
                r
            };

            // Next event time.
            let next_arrival = pending
                .front()
                .map_or(f64::INFINITY, |(_, task)| task.arrival_s);
            let mut next_completion = f64::INFINITY;
            for (k, &i) in runnable.iter().enumerate() {
                if rates[k] > 1e-12 {
                    next_completion = next_completion.min(t + active[i].remaining_gbit / rates[k]);
                }
            }
            let next_unpause = active
                .iter()
                .filter(|a| a.paused_until > t)
                .map(|a| a.paused_until)
                .fold(f64::INFINITY, f64::min);
            let epoch_time = if active.is_empty() {
                f64::INFINITY
            } else {
                next_epoch
            };
            let t_next = next_arrival
                .min(next_completion)
                .min(next_unpause)
                .min(epoch_time);
            if t_next.is_infinite() {
                let stuck = active.first().map(|a| a.id).unwrap_or(TaskId(0));
                return Err(SchedError::Starved { task: stuck });
            }
            let dt = (t_next - t).max(0.0);

            // Integrate progress.
            for (k, &i) in runnable.iter().enumerate() {
                active[i].remaining_gbit -= rates[k] * dt;
            }
            t = t_next;

            // Completions first (frees capacity before placement).
            let mut i = 0;
            while i < active.len() {
                if active[i].remaining_gbit <= 1e-9 {
                    let done = active.swap_remove(i);
                    let latency_s = t - done.task.arrival_s;
                    if let Some(o) = obs {
                        let buckets = numa_obs::buckets::LATENCY_SECONDS;
                        let labels = [("policy", policy.name())];
                        o.histogram("numio_episode_latency_seconds", &labels, buckets)
                            .observe(latency_s);
                    }
                    emit(
                        obs,
                        Some("numio_flow_completions_total"),
                        "task_finished",
                        t,
                        || {
                            let (task, node) = (done.id.0.into(), done.node.to_string().into());
                            vec![
                                ("task", task),
                                ("node", node),
                                ("latency_s", latency_s.into()),
                            ]
                        },
                    );
                    outcomes.push(TaskOutcome {
                        id: done.id,
                        node: done.node,
                        arrival_s: done.task.arrival_s,
                        finish_s: t,
                        volume_gbit: done.task.volume_gbytes * 8.0,
                        migrations: done.migrations,
                        deadline_s: done.task.deadline_s,
                    });
                } else {
                    i += 1;
                }
            }

            // Arrivals at this instant.
            while pending
                .front()
                .is_some_and(|(_, task)| task.arrival_s <= t + 1e-12)
            {
                let (id, task) = pending.pop_front().unwrap();
                let views: Vec<ActiveView> = active.iter().map(Active::view).collect();
                let ctx = SchedContext {
                    fabric,
                    active: &views,
                };
                let node = policy.place(&task, &ctx);
                emit(obs, None, "task_placed", t, || {
                    let (node, policy) = (node.to_string().into(), policy.name().into());
                    vec![("task", id.0.into()), ("node", node), ("policy", policy)]
                });
                let (remaining_gbit, paused_until) = (task.volume_gbytes * 8.0, t);
                active.push(Active {
                    id,
                    task,
                    node,
                    remaining_gbit,
                    migrations: 0,
                    paused_until,
                });
            }

            // Epoch rebalancing.
            if t + 1e-12 >= next_epoch {
                if let Some(period) = policy.epoch_s() {
                    let views: Vec<ActiveView> = active.iter().map(Active::view).collect();
                    let ctx = SchedContext {
                        fabric,
                        active: &views,
                    };
                    for (tid, new_node) in policy.rebalance(&ctx) {
                        if let Some(a) = active.iter_mut().find(|a| a.id == tid) {
                            if a.node != new_node {
                                let from = a.node;
                                a.node = new_node;
                                a.migrations += 1;
                                a.paused_until = t + self.migration_pause_s;
                                migrations_total += 1;
                                emit(
                                    obs,
                                    Some("numio_migrations_total"),
                                    "task_migrated",
                                    t,
                                    || {
                                        let from = from.to_string().into();
                                        let to = new_node.to_string().into();
                                        vec![("task", tid.0.into()), ("from", from), ("to", to)]
                                    },
                                );
                            }
                        }
                    }
                    next_epoch += period;
                }
            }
        }
        if !(pending.is_empty() && active.is_empty()) {
            return Err(SchedError::EventLimit);
        }

        outcomes.sort_by_key(|o| o.id);
        emit(obs, None, "episode_finished", t, || {
            vec![
                ("policy", policy.name().into()),
                ("tasks", outcomes.len().into()),
                ("makespan_s", t.into()),
                ("migrations", migrations_total.into()),
            ]
        });
        Ok(EpisodeReport {
            policy: policy.name().to_string(),
            outcomes,
            makespan_s: t,
            total_gbit,
            migrations: migrations_total,
        })
    }
}

/// When an observability handle is attached: bump `counter` (labelled
/// `component="sched"`) if one is given, then emit `event` at simulation
/// time `t`. `fields` is only built when observed.
fn emit(
    obs: Option<&numa_obs::Obs>,
    counter: Option<&str>,
    event: &str,
    t: f64,
    fields: impl FnOnce() -> Vec<(&'static str, numa_obs::Value)>,
) {
    if let Some(o) = obs {
        if let Some(name) = counter {
            o.counter(name, &[("component", "sched")]).inc();
        }
        o.event(event, t, &fields());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{LocalOnly, ModelDrivenMigrating, SpreadAll};
    use crate::trace::{burst, poisson, MixProfile};
    use crate::ClassRanked;

    fn platform() -> SimPlatform {
        SimPlatform::dl585()
    }

    #[test]
    fn empty_trace_rejected() {
        let p = platform();
        let err = Scheduler::new(&p)
            .run(vec![], LocalOnly::new())
            .unwrap_err();
        assert_eq!(err, SchedError::NoTasks);
    }

    #[test]
    fn single_task_completes_at_its_class_rate() {
        use numa_iodev::NicOp;
        let p = platform();
        let tasks = vec![IoTask::new(0.0, Workload::Nic(NicOp::RdmaWrite), 2, 23.3)]; // 8 s at 23.3
        let report = Scheduler::new(&p).run(tasks, LocalOnly::new()).unwrap();
        assert_eq!(report.outcomes.len(), 1);
        assert!(
            (report.makespan_s - 8.0).abs() < 0.05,
            "{}",
            report.makespan_s
        );
        assert_eq!(report.migrations, 0);
    }

    #[test]
    fn all_tasks_complete_under_every_policy() {
        let p = platform();
        let tasks = poisson(10, 1.0, MixProfile::Uniform, 99);
        for report in [
            Scheduler::new(&p)
                .run(tasks.clone(), LocalOnly::new())
                .unwrap(),
            Scheduler::new(&p)
                .run(tasks.clone(), SpreadAll::new())
                .unwrap(),
            Scheduler::new(&p)
                .run(tasks.clone(), ClassRanked::model_driven(&p).unwrap())
                .unwrap(),
        ] {
            assert_eq!(report.outcomes.len(), 10, "{}", report.policy);
            for o in &report.outcomes {
                assert!(o.finish_s >= o.arrival_s);
                assert!(o.latency_s() > 0.0);
            }
        }
    }

    #[test]
    fn model_driven_beats_local_only_on_bursts_on_average() {
        // model-driven / LocalOnly mean latency over 32 burst seeds: the
        // measured mean ratio is 0.959, ranging 0.90-1.02 per seed, so the
        // model wins on average but not on every burst.
        let p = platform();
        let ratios: Vec<f64> = (0..32)
            .map(|seed| {
                let tasks = burst(10, MixProfile::Ingest, seed);
                let naive = Scheduler::new(&p)
                    .run(tasks.clone(), LocalOnly::new())
                    .unwrap();
                let policy = ClassRanked::model_driven(&p).unwrap();
                let smart = Scheduler::new(&p).run(tasks, policy).unwrap();
                smart.mean_latency_s() / naive.mean_latency_s()
            })
            .collect();
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!(mean < 1.0, "mean ratio {mean}, per seed {ratios:?}");
    }

    #[test]
    fn migrating_policy_migrates_and_still_finishes() {
        let p = platform();
        // Staggered arrivals onto an initially empty machine create the
        // imbalance the migrator corrects.
        let tasks = poisson(12, 0.5, MixProfile::Ingest, 21);
        let policy = ModelDrivenMigrating::new(ClassRanked::model_driven(&p).unwrap(), 1.0, 2);
        let report = Scheduler::new(&p).run(tasks, policy).unwrap();
        assert_eq!(report.outcomes.len(), 12);
        // Migration accounting is consistent.
        let per_task: u32 = report.outcomes.iter().map(|o| o.migrations).sum();
        assert_eq!(per_task, report.migrations);
    }

    #[test]
    fn observed_episode_matches_plain_and_emits_series() {
        let p = platform();
        let tasks = poisson(6, 1.0, MixProfile::Uniform, 7);
        let plain = Scheduler::new(&p)
            .run(tasks.clone(), SpreadAll::new())
            .unwrap();
        let obs = numa_obs::Obs::new();
        let observed = Scheduler::new(&p)
            .observe(obs.clone())
            .run(tasks, SpreadAll::new())
            .unwrap();
        assert_eq!(plain, observed);
        assert_eq!(
            obs.counter("numio_flow_completions_total", &[("component", "sched")])
                .get(),
            6
        );
        assert!(
            obs.counter("numio_alloc_rounds_total", &[("component", "sched")])
                .get()
                >= 6
        );
        let prom = obs.prometheus();
        assert!(
            prom.contains("numio_episode_latency_seconds_count{policy=\"spread-all\"} 6"),
            "{prom}"
        );
        let jsonl = obs.jsonl();
        assert!(jsonl.contains("\"ev\":\"task_placed\""), "{jsonl}");
        assert!(jsonl.contains("\"ev\":\"task_finished\""), "{jsonl}");
        assert!(jsonl.contains("\"ev\":\"episode_finished\""), "{jsonl}");
    }

    #[test]
    fn observed_migrations_emit_events() {
        let p = platform();
        let tasks = poisson(12, 0.5, MixProfile::Ingest, 21);
        let policy = ModelDrivenMigrating::new(ClassRanked::model_driven(&p).unwrap(), 1.0, 2);
        let obs = numa_obs::Obs::new();
        let report = Scheduler::new(&p)
            .observe(obs.clone())
            .run(tasks, policy)
            .unwrap();
        assert_eq!(
            obs.counter("numio_migrations_total", &[("component", "sched")])
                .get(),
            u64::from(report.migrations)
        );
        if report.migrations > 0 {
            assert!(obs.jsonl().contains("\"ev\":\"task_migrated\""));
        }
    }

    #[test]
    fn episodes_are_deterministic() {
        let p = platform();
        let tasks = poisson(8, 1.0, MixProfile::Serve, 3);
        let a = Scheduler::new(&p)
            .run(tasks.clone(), SpreadAll::new())
            .unwrap();
        let b = Scheduler::new(&p).run(tasks, SpreadAll::new()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn premium_weights_reduce_deadline_misses_and_latency() {
        // Weighted max-min cannot *guarantee* SLAs under arbitrary load;
        // the claim is counterfactual: the same trace with weights
        // stripped misses at least as many deadlines, and every premium
        // task finishes no later with its weight than without.
        let p = platform();
        let tasks = crate::trace::premium_burst(9, crate::trace::MixProfile::Ingest, 2);
        let stripped: Vec<IoTask> = tasks
            .iter()
            .cloned()
            .map(|mut t| {
                t.weight = 1.0;
                t
            })
            .collect();
        let weighted = Scheduler::new(&p)
            .run(tasks.clone(), ClassRanked::model_driven(&p).unwrap())
            .unwrap();
        let unweighted = Scheduler::new(&p)
            .run(stripped, ClassRanked::model_driven(&p).unwrap())
            .unwrap();
        assert!(
            weighted.deadline_misses() <= unweighted.deadline_misses(),
            "weights must not increase misses: {} vs {}",
            weighted.deadline_misses(),
            unweighted.deadline_misses()
        );
        // Premium tasks individually finish no later when weighted.
        let mut helped = 0;
        for (i, t) in tasks.iter().enumerate() {
            if t.deadline_s.is_some() {
                let with = weighted.outcomes[i].latency_s();
                let without = unweighted.outcomes[i].latency_s();
                assert!(with <= without + 1e-6, "task {i}: {with} vs {without}");
                if with < without - 1e-6 {
                    helped += 1;
                }
            }
        }
        assert!(
            helped >= 1,
            "weights should speed up at least one premium task"
        );
    }

    /// A platform whose topology carries no devices at all: every NIC job
    /// lowering fails with `FioError::NoNic`, exercising the retry path.
    fn deviceless_platform() -> SimPlatform {
        use numa_topology::{HtWidth, NodeSpec, PackageId, RouteTable, Topology};
        let mut b = Topology::builder("no-nic");
        let n0 = b.node(NodeSpec::magny_cours(PackageId(0)).with_os_home());
        let n1 = b.node(NodeSpec::magny_cours(PackageId(0)));
        b.link(n0, n1, HtWidth::W16);
        let t = b.build().unwrap();
        let r = RouteTable::bfs(&t);
        let f = numa_fabric::Fabric::builder(t, r)
            .dma_defaults(46.5, 27.0)
            .node_copy_caps(53.5)
            .build();
        SimPlatform::new(f)
    }

    #[test]
    fn alloc_failure_retries_then_returns_typed_error() {
        use numa_iodev::NicOp;
        let p = deviceless_platform();
        let tasks = vec![IoTask::new(0.0, Workload::Nic(NicOp::RdmaWrite), 1, 1.0)];
        let obs = numa_obs::Obs::new();
        let err = Scheduler::new(&p)
            .observe(obs.clone())
            .run(tasks, LocalOnly::new())
            .unwrap_err();
        match &err {
            SchedError::AllocFailed {
                attempts,
                last_error,
            } => {
                assert_eq!(*attempts, 3, "default policy makes three attempts");
                assert!(last_error.contains("NIC"), "{last_error}");
            }
            other => panic!("expected AllocFailed, got {other:?}"),
        }
        assert!(err
            .to_string()
            .contains("allocation failed after 3 attempts"));
        assert_eq!(
            obs.counter("numio_sched_retries_total", &[("component", "sched")])
                .get(),
            3
        );
        assert!(obs.jsonl().contains("\"ev\":\"alloc_retry\""));
    }

    #[test]
    fn retry_policy_is_tunable_and_deterministic() {
        use crate::error::SchedError;
        use crate::fallback::RetryPolicy;
        use numa_iodev::NicOp;
        let p = deviceless_platform();
        let tasks = vec![IoTask::new(0.0, Workload::Nic(NicOp::RdmaWrite), 1, 1.0)];
        let mut s = Scheduler::new(&p);
        s.retry = RetryPolicy::new(1, 0.0);
        let a = s.run(tasks.clone(), LocalOnly::new()).unwrap_err();
        let b = s.run(tasks, LocalOnly::new()).unwrap_err();
        assert_eq!(a, b, "identical inputs fail identically");
        assert!(matches!(a, SchedError::AllocFailed { attempts: 1, .. }));
    }

    #[test]
    fn backend_constructors_match_and_fail_typed() {
        use numa_iodev::NicOp;
        let p = platform();
        let tasks = vec![IoTask::new(0.0, Workload::Nic(NicOp::RdmaWrite), 2, 23.3)];
        let via_new = Scheduler::new(&p)
            .run(tasks.clone(), LocalOnly::new())
            .unwrap();
        let via_fabric = Scheduler::for_fabric(p.fabric())
            .run(tasks.clone(), LocalOnly::new())
            .unwrap();
        let via_backend = Scheduler::for_backend(&p)
            .unwrap()
            .run(tasks, LocalOnly::new())
            .unwrap();
        assert_eq!(via_new, via_fabric);
        assert_eq!(via_new, via_backend);
        // A fabric-less backend is a typed error, not a panic.
        let host = numio_core::HostPlatform::with_shape(8, 4);
        let err = Scheduler::for_backend(&host).unwrap_err();
        assert_eq!(
            err,
            SchedError::NoFabric {
                label: "host:8-nodes".to_string()
            }
        );
        assert!(
            err.to_string().contains("no fabric to schedule over"),
            "{err}"
        );
    }

    #[test]
    fn arrivals_after_idle_gap_are_handled() {
        use numa_iodev::NicOp;
        let p = platform();
        let mk = |arrival: f64| IoTask::new(arrival, Workload::Nic(NicOp::RdmaWrite), 1, 5.0);
        // Second task arrives long after the first finished.
        let report = Scheduler::new(&p)
            .run(vec![mk(0.0), mk(100.0)], LocalOnly::new())
            .unwrap();
        assert_eq!(report.outcomes.len(), 2);
        assert!(report.makespan_s > 100.0);
        assert!(report.outcomes[1].latency_s() < 5.0);
    }
}
