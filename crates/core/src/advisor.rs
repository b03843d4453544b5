//! Scheduler assistance (§V-B, third application).
//!
//! "In a multi-user environment, binding all I/O tasks to their local node
//! will lead to severe performance degradation due to the contention of
//! shared resource. With the knowledge of our performance model, the task
//! scheduler can distribute application processes to nodes in the same
//! class or the classes with the same performance."

use crate::model::IoPerfModel;
use numa_topology::NodeId;

/// A per-task node assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// One binding node per task.
    pub assignments: Vec<NodeId>,
}

impl Placement {
    /// How many tasks land on each node: `(node, count)` sorted by node.
    pub fn histogram(&self) -> Vec<(NodeId, u32)> {
        let mut h: Vec<(NodeId, u32)> = Vec::new();
        for &n in &self.assignments {
            match h.iter_mut().find(|(m, _)| *m == n) {
                Some((_, c)) => *c += 1,
                None => h.push((n, 1)),
            }
        }
        h.sort_by_key(|&(n, _)| n);
        h
    }

    /// Highest per-node task count — the contention proxy the advisor
    /// minimizes.
    pub fn max_load(&self) -> u32 {
        self.histogram().iter().map(|&(_, c)| c).max().unwrap_or(0)
    }
}

/// Model-driven placement advisor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleAdvisor {
    /// Classes whose average is within this fraction of the best class are
    /// treated as equivalent spreading targets (the paper's RDMA_WRITE
    /// example: classes 1 and 2 have "almost identical performance").
    pub equivalence_tolerance: f64,
    /// Prefer keeping tasks off the device-local node (it also services
    /// interrupts — §IV-B1) as long as other eligible nodes exist.
    pub avoid_irq_node: bool,
}

impl Default for ScheduleAdvisor {
    fn default() -> Self {
        ScheduleAdvisor {
            equivalence_tolerance: 0.06,
            avoid_irq_node: true,
        }
    }
}

impl ScheduleAdvisor {
    /// Default advisor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Nodes eligible for spreading: members of every class whose average
    /// bandwidth is within the tolerance of the best class's average.
    pub fn eligible_nodes(&self, model: &IoPerfModel) -> Vec<NodeId> {
        let best = model.classes()[0].avg_gbps;
        let mut nodes: Vec<NodeId> = model
            .classes()
            .iter()
            .filter(|c| c.avg_gbps >= best * (1.0 - self.equivalence_tolerance))
            .flat_map(|c| c.nodes.clone())
            .collect();
        nodes.sort();
        if self.avoid_irq_node && nodes.len() > 1 {
            // Move the device-local node to the back of the rotation.
            if let Some(pos) = nodes.iter().position(|&n| n == model.target) {
                let t = nodes.remove(pos);
                nodes.push(t);
            }
        }
        nodes
    }

    /// Spread `tasks` round-robin across the eligible nodes.
    pub fn place(&self, model: &IoPerfModel, tasks: usize) -> Placement {
        let nodes = self.eligible_nodes(model);
        assert!(!nodes.is_empty(), "model has no classes");
        Placement {
            assignments: (0..tasks).map(|i| nodes[i % nodes.len()]).collect(),
        }
    }

    /// The baseline the paper argues against: everything on the
    /// device-local node.
    pub fn naive_local(&self, model: &IoPerfModel, tasks: usize) -> Placement {
        Placement {
            assignments: vec![model.target; tasks],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TransferMode;
    use crate::modeler::IoModeler;
    use crate::platform::SimPlatform;

    fn write_model() -> IoPerfModel {
        IoModeler::new()
            .reps(5)
            .characterize(&SimPlatform::dl585(), NodeId(7), TransferMode::Write)
    }

    #[test]
    fn eligible_nodes_span_equivalent_classes() {
        let model = write_model();
        // Write model: class 1 {6,7} avg ~50, class 2 {0,1,4,5} avg ~44.7
        // (11% below) — with a 15% tolerance both are eligible; class 3
        // ({2,3}, ~47% below) never is.
        let adv = ScheduleAdvisor {
            equivalence_tolerance: 0.15,
            avoid_irq_node: true,
        };
        let nodes = adv.eligible_nodes(&model);
        assert!(nodes.contains(&NodeId(6)));
        assert!(nodes.contains(&NodeId(0)));
        assert!(!nodes.contains(&NodeId(2)));
        assert!(!nodes.contains(&NodeId(3)));
        // IRQ node rotated to the back.
        assert_eq!(*nodes.last().unwrap(), NodeId(7));
    }

    #[test]
    fn tight_tolerance_keeps_only_class1() {
        let model = write_model();
        let adv = ScheduleAdvisor {
            equivalence_tolerance: 0.01,
            avoid_irq_node: false,
        };
        let nodes = adv.eligible_nodes(&model);
        assert_eq!(nodes, vec![NodeId(6), NodeId(7)]);
    }

    #[test]
    fn place_spreads_and_naive_piles_up() {
        let model = write_model();
        let adv = ScheduleAdvisor {
            equivalence_tolerance: 0.15,
            avoid_irq_node: true,
        };
        let spread = adv.place(&model, 6);
        let naive = adv.naive_local(&model, 6);
        assert_eq!(spread.assignments.len(), 6);
        assert_eq!(naive.assignments, vec![NodeId(7); 6]);
        assert!(spread.max_load() <= 1, "{:?}", spread.histogram());
        assert_eq!(naive.max_load(), 6);
    }

    #[test]
    fn round_robin_wraps() {
        let model = write_model();
        let adv = ScheduleAdvisor {
            equivalence_tolerance: 0.01,
            avoid_irq_node: false,
        };
        let p = adv.place(&model, 5);
        // Two eligible nodes {6,7}: loads 3 and 2.
        let hist = p.histogram();
        assert_eq!(hist.iter().map(|&(_, c)| c).sum::<u32>(), 5);
        assert_eq!(p.max_load(), 3);
    }

    #[test]
    fn histogram_orders_by_node() {
        let p = Placement {
            assignments: vec![NodeId(5), NodeId(1), NodeId(5), NodeId(0)],
        };
        assert_eq!(
            p.histogram(),
            vec![(NodeId(0), 1), (NodeId(1), 1), (NodeId(5), 2)]
        );
        assert_eq!(p.max_load(), 2);
    }

    #[test]
    fn empty_placement_max_load_is_zero() {
        let p = Placement {
            assignments: vec![],
        };
        assert_eq!(p.max_load(), 0);
    }
}
