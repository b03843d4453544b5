//! Schedulable I/O tasks.

use numa_fio::Workload;
use numa_topology::NodeId;

/// Identifier of a task within one episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

impl TaskId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One I/O task: a device workload of a given volume arriving at a given
/// time, to be bound to some NUMA node by the policy.
#[derive(Debug, Clone, PartialEq)]
pub struct IoTask {
    /// Arrival time, seconds from episode start.
    pub arrival_s: f64,
    /// What the task does (NIC op or SSD direction).
    pub workload: Workload,
    /// Parallel streams the task opens.
    pub streams: u32,
    /// Total volume across streams, GBytes.
    pub volume_gbytes: f64,
    /// QoS weight (weighted max-min share under contention); 1.0 = best
    /// effort.
    pub weight: f64,
    /// Optional completion deadline, seconds after arrival. Purely an SLA
    /// to account against — the scheduler does not preempt for it; weights
    /// are how premium tasks buy their share.
    pub deadline_s: Option<f64>,
}

impl IoTask {
    /// A best-effort task.
    pub fn new(arrival_s: f64, workload: Workload, streams: u32, volume_gbytes: f64) -> Self {
        IoTask {
            arrival_s,
            workload,
            streams,
            volume_gbytes,
            weight: 1.0,
            deadline_s: None,
        }
    }

    /// Mark as premium: boosted share plus an SLA deadline after arrival.
    pub fn premium(mut self, weight: f64, deadline_s: f64) -> Self {
        assert!(weight > 0.0 && deadline_s > 0.0);
        self.weight = weight;
        self.deadline_s = Some(deadline_s);
        self
    }

    /// Does this task move data *into* the device (Table IV direction)?
    pub fn to_device(&self) -> bool {
        match &self.workload {
            Workload::Nic(op) => op.to_device(),
            Workload::Ssd { write, .. } => *write,
        }
    }
}

/// Final accounting for one completed task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskOutcome {
    /// The task.
    pub id: TaskId,
    /// Node the task was bound to at completion.
    pub node: NodeId,
    /// Arrival time.
    pub arrival_s: f64,
    /// Completion time.
    pub finish_s: f64,
    /// Volume, gigabits.
    pub volume_gbit: f64,
    /// Times the task was migrated.
    pub migrations: u32,
    /// The task's SLA deadline (seconds after arrival), if any.
    pub deadline_s: Option<f64>,
}

impl TaskOutcome {
    /// Sojourn time (arrival to completion).
    pub fn latency_s(&self) -> f64 {
        self.finish_s - self.arrival_s
    }

    /// Mean achieved bandwidth over the sojourn.
    pub fn mean_gbps(&self) -> f64 {
        self.volume_gbit / self.latency_s().max(1e-12)
    }

    /// Did the task blow its SLA deadline? `false` when it had none.
    pub fn missed_deadline(&self) -> bool {
        self.deadline_s.is_some_and(|d| self.latency_s() > d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_iodev::NicOp;

    #[test]
    fn direction_classification() {
        let t = IoTask::new(0.0, Workload::Nic(NicOp::RdmaWrite), 2, 10.0);
        assert!(t.to_device());
        let r = IoTask {
            workload: Workload::Nic(NicOp::RdmaRead),
            ..t.clone()
        };
        assert!(!r.to_device());
        let s = IoTask {
            workload: Workload::Ssd {
                write: false,
                engine: numa_iodev::IoEngine::paper(),
                direct: true,
            },
            ..t
        };
        assert!(!s.to_device());
    }

    #[test]
    fn outcome_derived_metrics() {
        let mut o = TaskOutcome {
            id: TaskId(3),
            node: NodeId(6),
            arrival_s: 1.0,
            finish_s: 5.0,
            volume_gbit: 80.0,
            migrations: 1,
            deadline_s: None,
        };
        assert_eq!(o.latency_s(), 4.0);
        assert_eq!(o.mean_gbps(), 20.0);
        assert!(!o.missed_deadline());
        o.deadline_s = Some(3.0);
        assert!(o.missed_deadline());
        o.deadline_s = Some(4.5);
        assert!(!o.missed_deadline());
    }

    #[test]
    fn premium_builder_sets_weight_and_deadline() {
        let t = IoTask::new(0.0, Workload::Nic(NicOp::RdmaRead), 1, 5.0).premium(3.0, 8.0);
        assert_eq!(t.weight, 3.0);
        assert_eq!(t.deadline_s, Some(8.0));
    }
}
