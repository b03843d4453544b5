//! Placement and migration policies.

use crate::fallback::ClassRanked;
use crate::task::{IoTask, TaskId};
use numa_fabric::Fabric;
use numa_topology::NodeId;

/// What a policy sees when deciding: the machine and the running tasks.
#[derive(Debug, Clone)]
pub struct SchedContext<'a> {
    /// The machine model.
    pub fabric: &'a Fabric,
    /// Currently running tasks.
    pub active: &'a [ActiveView],
}

impl SchedContext<'_> {
    /// The node carrying the I/O devices (first I/O hub).
    pub fn device_node(&self) -> NodeId {
        self.fabric
            .topology()
            .io_hub_nodes()
            .first()
            .copied()
            .unwrap_or(NodeId(0))
    }

    /// Total streams currently bound to `node`.
    pub fn load(&self, node: NodeId) -> u32 {
        self.active
            .iter()
            .filter(|a| a.node == node)
            .map(|a| a.streams)
            .sum()
    }
}

/// A running task, as visible to policies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActiveView {
    /// Task id.
    pub id: TaskId,
    /// Current binding.
    pub node: NodeId,
    /// Stream count.
    pub streams: u32,
    /// Direction (Table IV vs Table V).
    pub to_device: bool,
}

/// A placement/migration policy.
pub trait Policy {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Choose a binding node for an arriving task.
    fn place(&mut self, task: &IoTask, ctx: &SchedContext<'_>) -> NodeId;

    /// Rebalance period, if the policy migrates.
    fn epoch_s(&self) -> Option<f64> {
        None
    }

    /// Migration decisions at an epoch boundary: `(task, new node)`.
    fn rebalance(&mut self, _ctx: &SchedContext<'_>) -> Vec<(TaskId, NodeId)> {
        Vec::new()
    }
}

/// Baseline: bind every task to the device-local node (what naive
/// "maximize locality" reasoning produces; §V-B shows it collapses under
/// multi-user load).
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalOnly;

impl LocalOnly {
    /// New baseline policy.
    pub fn new() -> Self {
        LocalOnly
    }
}

impl Policy for LocalOnly {
    fn name(&self) -> &'static str {
        "local-only"
    }

    fn place(&mut self, _task: &IoTask, ctx: &SchedContext<'_>) -> NodeId {
        ctx.device_node()
    }
}

/// Distance-based placement: the least-loaded node among those at minimum
/// hop distance from the device, growing the radius as nodes fill up
/// (2 concurrent tasks per node). This encodes the hop-distance cost model
/// the paper debunks — it happily lands tasks on the starved one-hop
/// nodes.
#[derive(Debug, Clone, Copy, Default)]
pub struct HopGreedy;

impl HopGreedy {
    /// New distance-based policy.
    pub fn new() -> Self {
        HopGreedy
    }
}

impl Policy for HopGreedy {
    fn name(&self) -> &'static str {
        "hop-greedy"
    }

    fn place(&mut self, _task: &IoTask, ctx: &SchedContext<'_>) -> NodeId {
        let dev = ctx.device_node();
        let topo = ctx.fabric.topology();
        let mut best: Option<(u32, u32, NodeId)> = None;
        for n in topo.node_ids() {
            let hops = topo.hop_distance(n, dev);
            let load = ctx.load(n);
            // Penalize distance first; spill outward once a tier holds two
            // tasks' worth of streams.
            let key = (hops + load / 2, load, n);
            if best.is_none_or(|b| (b.0, b.1, b.2) > key) {
                best = Some(key);
            }
        }
        best.expect("topology has nodes").2
    }
}

/// Class-blind spreading: round-robin over every node, including the
/// starved classes.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpreadAll {
    next: usize,
}

impl SpreadAll {
    /// New round-robin policy.
    pub fn new() -> Self {
        SpreadAll { next: 0 }
    }
}

impl Policy for SpreadAll {
    fn name(&self) -> &'static str {
        "spread-all"
    }

    fn place(&mut self, _task: &IoTask, ctx: &SchedContext<'_>) -> NodeId {
        let n = ctx.fabric.num_nodes();
        let node = NodeId::new(self.next % n);
        self.next += 1;
        node
    }
}

/// Model-driven placement plus epoch rebalancing: when the load spread
/// inside a direction's top class (`ranking(dir)[0]`, the eligible set of
/// [`ClassRanked::model_driven`]) exceeds `imbalance`, move one task from
/// the hottest to the coolest node (paying the scheduler's migration cost).
#[derive(Debug, Clone)]
pub struct ModelDrivenMigrating {
    inner: ClassRanked,
    /// Rebalance period, seconds.
    pub epoch_s: f64,
    /// Stream-count spread that triggers a migration.
    pub imbalance: u32,
}

impl ModelDrivenMigrating {
    /// Wrap a class-ranked policy, normally [`ClassRanked::model_driven`].
    pub fn new(inner: ClassRanked, epoch_s: f64, imbalance: u32) -> Self {
        assert!(epoch_s > 0.0);
        assert!(imbalance >= 1);
        ModelDrivenMigrating {
            inner,
            epoch_s,
            imbalance,
        }
    }
}

impl Policy for ModelDrivenMigrating {
    fn name(&self) -> &'static str {
        "model-driven+migrate"
    }

    fn place(&mut self, task: &IoTask, ctx: &SchedContext<'_>) -> NodeId {
        self.inner.place(task, ctx)
    }

    fn epoch_s(&self) -> Option<f64> {
        Some(self.epoch_s)
    }

    fn rebalance(&mut self, ctx: &SchedContext<'_>) -> Vec<(TaskId, NodeId)> {
        let mut moves = Vec::new();
        for dir in [true, false] {
            let nodes = &self.inner.ranking(dir)[0];
            let hottest = nodes.iter().max_by_key(|&&n| ctx.load(n)).copied();
            let coolest = nodes.iter().min_by_key(|&&n| ctx.load(n)).copied();
            if let (Some(hot), Some(cool)) = (hottest, coolest) {
                if ctx.load(hot) >= ctx.load(cool) + self.imbalance {
                    // Move the smallest task of matching direction off the
                    // hot node.
                    if let Some(victim) = ctx
                        .active
                        .iter()
                        .filter(|a| a.node == hot && a.to_device == dir)
                        .min_by_key(|a| (a.streams, a.id))
                    {
                        moves.push((victim.id, cool));
                    }
                }
            }
        }
        moves
    }
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

    fn ctx_with<'a>(fabric: &'a Fabric, active: &'a [ActiveView]) -> SchedContext<'a> {
        SchedContext { fabric, active }
    }

    #[test]
    fn local_only_always_picks_device_node() {
        let fabric = numa_fabric::calibration::dl585_fabric();
        let mut p = LocalOnly::new();
        let ctx = ctx_with(&fabric, &[]);
        assert_eq!(p.place(&task(NicOp::TcpSend), &ctx), NodeId(7));
        assert!(p.epoch_s().is_none());
    }

    #[test]
    fn hop_greedy_starts_local_then_spills_to_one_hop() {
        let fabric = numa_fabric::calibration::dl585_fabric();
        let mut p = HopGreedy::new();
        let empty = ctx_with(&fabric, &[]);
        assert_eq!(p.place(&task(NicOp::RdmaWrite), &empty), NodeId(7));
        // Load node 7 with 4 streams: next placement moves one hop out —
        // to the *starved* node 3 (lowest id at distance 1), the
        // hop-metric mistake.
        let active = [ActiveView {
            id: TaskId(0),
            node: NodeId(7),
            streams: 4,
            to_device: true,
        }];
        let loaded = ctx_with(&fabric, &active);
        assert_eq!(p.place(&task(NicOp::RdmaWrite), &loaded), NodeId(3));
    }

    #[test]
    fn spread_all_round_robins() {
        let fabric = numa_fabric::calibration::dl585_fabric();
        let mut p = SpreadAll::new();
        let ctx = ctx_with(&fabric, &[]);
        let seq: Vec<NodeId> = (0..10)
            .map(|_| p.place(&task(NicOp::TcpRecv), &ctx))
            .collect();
        assert_eq!(seq[0], NodeId(0));
        assert_eq!(seq[7], NodeId(7));
        assert_eq!(seq[8], NodeId(0));
    }

    #[test]
    fn model_driven_respects_directions_and_load() {
        let platform = SimPlatform::dl585();
        let mut p = ClassRanked::model_driven(&platform).unwrap();
        assert_eq!(p.name(), "model-driven");
        let fabric = platform.fabric();
        let ctx = ctx_with(fabric, &[]);
        // Write direction avoids the starved {2,3}.
        let w = p.place(&task(NicOp::RdmaWrite), &ctx);
        assert!(![NodeId(2), NodeId(3)].contains(&w), "{w:?}");
        // Read direction avoids node 4.
        let r = p.place(&task(NicOp::RdmaRead), &ctx);
        assert_ne!(r, NodeId(4));
        // Least-loaded: loading the first choice shifts the next placement.
        let active = [ActiveView {
            id: TaskId(0),
            node: w,
            streams: 4,
            to_device: true,
        }];
        let loaded = ctx_with(fabric, &active);
        let w2 = p.place(&task(NicOp::RdmaWrite), &loaded);
        assert_ne!(w2, w);
    }

    #[test]
    fn stream_greedy_pool_misses_the_read_class2_nodes() {
        let platform = SimPlatform::dl585();
        let p = ClassRanked::stream_greedy(&platform).unwrap();
        assert_eq!(p.name(), "stream-cbench");
        // The baseline pool skips {2,3} (STREAM ranks them poorly for node
        // 7 data) although they are read-direction class 2. It is
        // direction-blind: one pool for both directions.
        let pool = &p.ranking(false)[0];
        assert_eq!(p.ranking(true), p.ranking(false));
        assert!(!pool.contains(&NodeId(2)), "{pool:?}");
        assert!(!pool.contains(&NodeId(3)), "{pool:?}");
        assert!(pool.contains(&NodeId(7)));
    }

    #[test]
    fn migrating_policy_moves_from_hot_to_cool() {
        let platform = SimPlatform::dl585();
        let inner = ClassRanked::model_driven(&platform).unwrap();
        let hot = inner.ranking(true)[0][0];
        let mut p = ModelDrivenMigrating::new(inner, 1.0, 2);
        assert_eq!(p.epoch_s(), Some(1.0));
        let active = [
            ActiveView {
                id: TaskId(0),
                node: hot,
                streams: 3,
                to_device: true,
            },
            ActiveView {
                id: TaskId(1),
                node: hot,
                streams: 1,
                to_device: true,
            },
        ];
        let fabric = platform.fabric();
        let ctx = ctx_with(fabric, &active);
        let moves = p.rebalance(&ctx);
        assert_eq!(moves.len(), 1);
        // Smallest task moves, to a different node.
        assert_eq!(moves[0].0, TaskId(1));
        assert_ne!(moves[0].1, hot);
    }

    #[test]
    fn migrating_policy_is_quiet_when_balanced() {
        let platform = SimPlatform::dl585();
        let inner = ClassRanked::model_driven(&platform).unwrap();
        let mut p = ModelDrivenMigrating::new(inner, 0.5, 2);
        let fabric = platform.fabric();
        let ctx = ctx_with(fabric, &[]);
        assert!(p.rebalance(&ctx).is_empty());
    }
}
