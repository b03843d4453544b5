//! Graceful degradation under faults: allocation retry with deterministic
//! backoff, and placement that falls back through the model's performance
//! classes when the preferred nodes are saturated or administratively
//! banned (e.g. a node under an IRQ storm, §IV-B2).

use crate::error::SchedError;
use crate::policy::{ActiveView, Policy, SchedContext};
use crate::task::{IoTask, TaskId};
use numa_fabric::Fabric;
use numa_topology::NodeId;
use numio_core::{
    IoModeler, IoPerfModel, MemCostModel, Platform, ScheduleAdvisor, SimPlatform, StreamAdvisor,
    TransferMode,
};

/// Deterministic retry-with-backoff for transient allocation failures.
///
/// The scheduler's allocation round can fail when the machine degrades
/// under it (a device disappears, a job set becomes unlowerable). Rather
/// than panicking mid-episode, the episode pauses `backoff_s(attempt)`
/// simulated seconds between attempts and gives up with a typed
/// [`crate::SchedError::AllocFailed`] after `max_attempts` tries. The
/// backoff doubles per attempt, so the schedule is reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total allocation attempts before the episode aborts (>= 1).
    pub max_attempts: u32,
    /// Pause after the first failure, seconds; doubles each retry.
    pub base_backoff_s: f64,
}

impl RetryPolicy {
    /// New policy; `max_attempts >= 1`, `base_backoff_s >= 0` and finite.
    pub fn new(max_attempts: u32, base_backoff_s: f64) -> Self {
        assert!(max_attempts >= 1, "need at least one attempt");
        assert!(
            base_backoff_s >= 0.0 && base_backoff_s.is_finite(),
            "backoff must be a finite non-negative time"
        );
        RetryPolicy {
            max_attempts,
            base_backoff_s,
        }
    }

    /// Pause after failed attempt `attempt` (0-based): `base * 2^attempt`.
    pub fn backoff_s(&self, attempt: u32) -> f64 {
        self.base_backoff_s * f64::powi(2.0, attempt.min(62) as i32)
    }

    /// Total simulated time spent pausing if every attempt fails.
    pub fn total_backoff_s(&self) -> f64 {
        (0..self.max_attempts.saturating_sub(1))
            .map(|a| self.backoff_s(a))
            .sum()
    }
}

impl Default for RetryPolicy {
    /// Three attempts, 50 ms initial backoff.
    fn default() -> Self {
        RetryPolicy::new(3, 0.05)
    }
}

/// Class-ranked placement, the one rule behind every class-based policy:
/// scan the model's performance classes best-first and bind to the
/// least-loaded *open* node of the first class that has one; when a class
/// is saturated (every open node already carries
/// [`ClassRanked::spill_streams`] streams) spill to the next class instead
/// of piling on.
///
/// [`ClassRanked::from_models`] keeps the *full* ranking, so it still
/// produces a placement when faults ban or saturate the entire top tier —
/// graceful degradation rather than a panic. [`ClassRanked::model_driven`]
/// and [`ClassRanked::stream_greedy`] are one-class rankings with no spill
/// limit: the least-loaded node of a fixed pool.
#[derive(Debug, Clone)]
pub struct ClassRanked {
    name: &'static str,
    write_classes: Vec<Vec<NodeId>>,
    read_classes: Vec<Vec<NodeId>>,
    banned: Vec<NodeId>,
    /// Per-node stream load at which a class counts as saturated.
    pub spill_streams: u32,
}

impl ClassRanked {
    /// Build from explicit per-direction models (Table IV for writes,
    /// Table V for reads). Class order is the models' order: best first.
    pub fn from_models(write: &IoPerfModel, read: &IoPerfModel) -> Self {
        let ranked = |m: &IoPerfModel| -> Vec<Vec<NodeId>> {
            m.classes().iter().map(|c| c.nodes.clone()).collect()
        };
        ClassRanked {
            name: "class-fallback",
            write_classes: ranked(write),
            read_classes: ranked(read),
            banned: Vec::new(),
            spill_streams: 4,
        }
    }

    /// Characterize any backend's first I/O node in both directions and
    /// keep the rankings.
    pub fn from_platform<P: Platform>(platform: &P) -> Result<Self, SchedError> {
        let (write, read) = characterize_both(platform, first_io_node(platform)?, 10)?;
        Ok(Self::from_models(&write, &read))
    }

    /// Model-driven placement (the §V-B recommendation, automated): the
    /// least-loaded node within the per-direction equivalent top classes
    /// the [`ScheduleAdvisor`] keeps (sorted, device node last).
    pub fn model_driven<P: Platform>(platform: &P) -> Result<Self, SchedError> {
        let (write, read) = characterize_both(platform, first_io_node(platform)?, 10)?;
        let advisor = ScheduleAdvisor {
            equivalence_tolerance: 0.12,
            avoid_irq_node: true,
        };
        let (write, read) = (
            advisor.eligible_nodes(&write),
            advisor.eligible_nodes(&read),
        );
        Ok(Self::pool("model-driven", write, read))
    }

    /// The cbench baseline as a scheduler: the least-loaded node among the
    /// device node, its package neighbour and the STREAM cost model's top
    /// spread candidates. Direction-blind by construction — STREAM's copy
    /// has source and sink on one node (§IV-C), so the model cannot
    /// distinguish Table IV from Table V, and it inherits the §IV-B
    /// mis-rankings.
    pub fn stream_greedy(platform: &SimPlatform) -> Result<Self, SchedError> {
        let target = first_io_node(platform)?;
        let advisor = StreamAdvisor::new(MemCostModel::from_stream(platform));
        let mut pool = vec![target, NodeId(target.0 ^ 1)];
        pool.extend(advisor.spread_candidates(target, 3));
        Ok(Self::pool("stream-cbench", pool.clone(), pool))
    }

    /// A one-class ranking per direction with no spill limit.
    fn pool(name: &'static str, write: Vec<NodeId>, read: Vec<NodeId>) -> Self {
        let (write_classes, read_classes, banned) = (vec![write], vec![read], Vec::new());
        ClassRanked {
            name,
            write_classes,
            read_classes,
            banned,
            spill_streams: u32::MAX,
        }
    }

    /// Ban a node in both directions (a faulted or drained node). Banned
    /// nodes are skipped during the class scan and only used as a last
    /// resort when *no* other node exists.
    pub fn ban(mut self, node: NodeId) -> Self {
        if !self.banned.contains(&node) {
            self.banned.push(node);
        }
        self
    }

    /// Currently banned nodes.
    pub fn banned(&self) -> &[NodeId] {
        &self.banned
    }

    /// The ranked classes for one direction (tests, reports).
    pub fn ranking(&self, to_device: bool) -> &[Vec<NodeId>] {
        if to_device {
            &self.write_classes
        } else {
            &self.read_classes
        }
    }

    /// The node for one more task in direction `to_device`, given the load
    /// in `ctx`.
    pub(crate) fn pick(&self, to_device: bool, ctx: &SchedContext<'_>) -> NodeId {
        // Best-first class scan over open (unbanned) nodes.
        for class in self.ranking(to_device) {
            let best = class
                .iter()
                .copied()
                .filter(|n| !self.banned.contains(n))
                .min_by_key(|&n| (ctx.load(n), n));
            if let Some(n) = best {
                if ctx.load(n) < self.spill_streams {
                    return n;
                }
                // Class saturated: fall through to the next one.
            }
        }
        // Everything ranked is saturated or banned: least-loaded open node
        // anywhere, then least-loaded node at all. Never a panic.
        let all: Vec<NodeId> = ctx.fabric.topology().node_ids().collect();
        all.iter()
            .copied()
            .filter(|n| !self.banned.contains(n))
            .min_by_key(|&n| (ctx.load(n), n))
            .or_else(|| all.iter().copied().min_by_key(|&n| (ctx.load(n), n)))
            .unwrap_or(NodeId(0))
    }

    /// Place `n` copies of `task` one at a time on an otherwise idle
    /// `fabric`, each seeing the ones placed before it as load.
    pub fn place_n(&mut self, task: &IoTask, n: u32, fabric: &Fabric) -> Vec<NodeId> {
        let mut active: Vec<ActiveView> = Vec::with_capacity(n as usize);
        for i in 0..n {
            let node = self.place(
                task,
                &SchedContext {
                    fabric,
                    active: &active,
                },
            );
            let to_device = task.to_device();
            active.push(ActiveView {
                id: TaskId(i),
                node,
                streams: task.streams,
                to_device,
            });
        }
        active.into_iter().map(|a| a.node).collect()
    }
}

impl Policy for ClassRanked {
    fn name(&self) -> &'static str {
        self.name
    }

    fn place(&mut self, task: &IoTask, ctx: &SchedContext<'_>) -> NodeId {
        self.pick(task.to_device(), ctx)
    }
}

/// The first I/O node of a backend, or a typed error when it has none.
fn first_io_node<P: Platform>(platform: &P) -> Result<NodeId, SchedError> {
    let label = || SchedError::NoIoNode {
        label: platform.label(),
    };
    platform.io_nodes().first().copied().ok_or_else(label)
}

/// Characterize `target` in both directions: (write model, read model).
pub(crate) fn characterize_both<P: Platform>(
    platform: &P,
    target: NodeId,
    reps: u32,
) -> Result<(IoPerfModel, IoPerfModel), SchedError> {
    let modeler = IoModeler::new().reps(reps);
    Ok((
        modeler.try_characterize(platform, target, TransferMode::Write)?,
        modeler.try_characterize(platform, target, TransferMode::Read)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_fio::Workload;
    use numa_iodev::NicOp;
    use numio_core::SimPlatform;

    fn task(op: NicOp) -> IoTask {
        IoTask::new(0.0, Workload::Nic(op), 2, 10.0)
    }

    #[test]
    fn backoff_doubles_and_totals_deterministically() {
        let r = RetryPolicy::new(4, 0.05);
        assert!((r.backoff_s(0) - 0.05).abs() < 1e-12);
        assert!((r.backoff_s(1) - 0.10).abs() < 1e-12);
        assert!((r.backoff_s(2) - 0.20).abs() < 1e-12);
        assert!((r.total_backoff_s() - 0.35).abs() < 1e-12);
        assert_eq!(RetryPolicy::default(), RetryPolicy::new(3, 0.05));
    }

    #[test]
    fn top_class_first_then_spill_on_saturation() {
        let platform = SimPlatform::dl585();
        let fabric = platform.fabric();
        let mut p = ClassRanked::from_platform(&platform).unwrap();
        let top = p.ranking(true)[0].clone();
        // Empty machine: a top-class write node.
        let empty = SchedContext {
            fabric,
            active: &[],
        };
        let first = p.place(&task(NicOp::RdmaWrite), &empty);
        assert!(top.contains(&first), "{first:?} not in {top:?}");
        // Saturate the whole top class; the next placement spills to a
        // node of a lower class.
        let active: Vec<ActiveView> = top
            .iter()
            .enumerate()
            .map(|(i, &n)| ActiveView {
                id: TaskId(i as u32),
                node: n,
                streams: p.spill_streams,
                to_device: true,
            })
            .collect();
        let loaded = SchedContext {
            fabric,
            active: &active,
        };
        let spilled = p.place(&task(NicOp::RdmaWrite), &loaded);
        assert!(
            !top.contains(&spilled),
            "expected spill out of {top:?}, got {spilled:?}"
        );
    }

    #[test]
    fn banned_nodes_are_skipped_even_when_idle() {
        let platform = SimPlatform::dl585();
        let fabric = platform.fabric();
        let base = ClassRanked::from_platform(&platform).unwrap();
        let top = base.ranking(true)[0].clone();
        let mut p = base;
        for &n in &top {
            p = p.ban(n);
        }
        let ctx = SchedContext {
            fabric,
            active: &[],
        };
        let node = p.place(&task(NicOp::RdmaWrite), &ctx);
        assert!(!top.contains(&node), "banned class still chosen: {node:?}");
        assert!(!p.banned().contains(&node));
    }

    #[test]
    fn fully_banned_machine_still_places_somewhere() {
        let platform = SimPlatform::dl585();
        let fabric = platform.fabric();
        let mut p = ClassRanked::from_platform(&platform).unwrap();
        for i in 0..fabric.num_nodes() {
            p = p.ban(NodeId::new(i));
        }
        let ctx = SchedContext {
            fabric,
            active: &[],
        };
        // No panic; some node is returned as the forced last resort.
        let n = p.place(&task(NicOp::RdmaWrite), &ctx);
        assert!(n.index() < fabric.num_nodes());
    }

    #[test]
    fn episode_completes_under_class_fallback() {
        let platform = SimPlatform::dl585();
        let tasks = crate::trace::poisson(10, 1.0, crate::trace::MixProfile::Uniform, 17);
        let p = ClassRanked::from_platform(&platform).unwrap();
        let report = crate::Scheduler::new(&platform).run(tasks, p).unwrap();
        assert_eq!(report.outcomes.len(), 10);
        assert_eq!(report.policy, "class-fallback");
    }
}
