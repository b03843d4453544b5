//! Fleet placement rules: three host scores, one node rule. Scores
//! compare with `f64::total_cmp` and (host, node) pairs break ties by id,
//! so every rule is deterministic for a given fleet and stream sequence.

use super::{Fleet, Host};
use crate::error::SchedError;
use crate::fallback::ClassRanked;
use crate::policy::{ActiveView, SchedContext};
use numa_par::rng::SplitMix64;
use numa_topology::NodeId;

/// One stream to place: a device-bound transfer of `gbytes` from some node
/// (chosen by the policy) to the host's device node.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSpec {
    /// Stable stream id (placement order).
    pub id: usize,
    /// Transfer volume in GBytes.
    pub gbytes: f64,
}

impl StreamSpec {
    /// A seeded open workload: `n` streams with volumes spread over
    /// `[1, 9)` GB via splitmix64 — deterministic for a given seed.
    pub fn workload(n: usize, seed: u64) -> Vec<StreamSpec> {
        let mut rng = SplitMix64::new(seed ^ 0xA076_1D64_78BD_642F);
        (0..n)
            .map(|id| StreamSpec {
                id,
                gbytes: rng.range_f64(1.0, 9.0),
            })
            .collect()
    }
}

/// Where a stream landed: host and source node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Host id within the fleet.
    pub host: usize,
    /// Source node on that host.
    pub node: NodeId,
}

/// A fleet placement rule: how a stream's host is scored, resolved by
/// name ([`FleetPolicy::by_name`]). Every rule reads the round's per-host
/// queues as its load: one [`ActiveView`] per stream already placed this
/// round, read per node through [`SchedContext::load`].
#[derive(Debug, Clone, PartialEq)]
pub enum FleetPolicy {
    /// `class-ranked`: the host whose best write class has the most
    /// capacity per queued stream, then the node that
    /// [`ClassRanked`] (built from that host's profile, no spill limit)
    /// picks: the least-loaded node of the best write class.
    ClassRanked,
    /// `bandwidth-aware`: maximize modelled node Gbit/s over
    /// `1 + queued streams` across every (host, node) — rank by measured
    /// bandwidth, not by class or hop distance (arxiv 2003.03304).
    BandwidthAware,
    /// `adaptive`, MAO-style (arxiv 2411.01460): the bandwidth-aware score
    /// times a per-host weight, an EWMA of inverse observed slowdown, so
    /// hosts that disappoint their model drift down the ranking between
    /// rounds.
    Adaptive {
        /// Per-host multiplicative weight, host order.
        weights: Vec<f64>,
    },
}

/// EWMA smoothing factor for the adaptive rule's new observations.
const ADAPTIVE_ALPHA: f64 = 0.3;

impl FleetPolicy {
    /// Resolve a rule by its wire/CLI name (or alias) for a fleet of
    /// `hosts`.
    pub fn by_name(name: &str, hosts: usize) -> Result<Self, SchedError> {
        match name {
            "class-ranked" | "class_ranked" | "classranked" => Ok(FleetPolicy::ClassRanked),
            "bandwidth-aware" | "bandwidth_aware" | "bandwidth" => Ok(FleetPolicy::BandwidthAware),
            "adaptive" | "mao" => Ok(FleetPolicy::Adaptive {
                weights: vec![1.0; hosts],
            }),
            other => Err(SchedError::UnknownPolicy {
                name: other.to_string(),
            }),
        }
    }

    /// Stable policy name (reports, CLI, wire ops).
    pub fn name(&self) -> &'static str {
        match self {
            FleetPolicy::ClassRanked => "class-ranked",
            FleetPolicy::BandwidthAware => "bandwidth-aware",
            FleetPolicy::Adaptive { .. } => "adaptive",
        }
    }

    /// Place one stream given the fleet and this round's per-host queues.
    pub fn place(&self, fleet: &Fleet, queues: &[Vec<ActiveView>]) -> Placement {
        match self {
            FleetPolicy::ClassRanked => {
                let host = argmax(fleet.hosts().iter().map(|h| {
                    let best = &h.profile().write.classes()[0];
                    best.avg_gbps * best.nodes.len() as f64 / (1.0 + queues[h.id].len() as f64)
                }));
                let h = fleet.host(host);
                let mut rule = ClassRanked::from_models(&h.profile().write, &h.profile().read);
                rule.spill_streams = u32::MAX;
                Placement {
                    host,
                    node: rule.pick(true, &host_load(h, queues)),
                }
            }
            FleetPolicy::BandwidthAware => best_by_headroom(fleet, queues, |_| 1.0),
            FleetPolicy::Adaptive { weights } => best_by_headroom(fleet, queues, |h| weights[h]),
        }
    }

    /// Observe one completed flow's slowdown on `host`. Only the adaptive
    /// rule learns: a slowdown of 1.0 means the host delivered exactly what
    /// its model promised; larger means contention the model did not
    /// capture.
    pub fn observe(&mut self, host: usize, slowdown: f64) {
        if let FleetPolicy::Adaptive { weights } = self {
            let w = &mut weights[host];
            let reward = 1.0 / slowdown.max(1.0);
            *w = (1.0 - ADAPTIVE_ALPHA) * *w + ADAPTIVE_ALPHA * reward;
        }
    }
}

/// One host's load: its queue this round.
fn host_load<'a>(h: &'a Host, queues: &'a [Vec<ActiveView>]) -> SchedContext<'a> {
    SchedContext {
        fabric: h.fabric(),
        active: &queues[h.id],
    }
}

/// Maximize `host_weight * node_gbps / (1 + queued)` over every
/// (host, node): the first strict maximum in (host, node) id order.
fn best_by_headroom(
    fleet: &Fleet,
    queues: &[Vec<ActiveView>],
    host_weight: impl Fn(usize) -> f64,
) -> Placement {
    let mut best: Option<(f64, Placement)> = None;
    for h in fleet.hosts() {
        let (w, ctx, model) = (host_weight(h.id), host_load(h, queues), &h.profile().write);
        for node in (0..h.num_nodes()).map(NodeId::new) {
            let score = w * model.node_gbps(node) / (1.0 + f64::from(ctx.load(node)));
            if best.as_ref().is_none_or(|(s, _)| score > *s) {
                best = Some((score, Placement { host: h.id, node }));
            }
        }
    }
    best.expect("fleet has hosts").1
}

/// Deterministic argmax over an iterator of scores (first max wins).
fn argmax(scores: impl Iterator<Item = f64>) -> usize {
    scores
        .enumerate()
        .max_by(|(ia, a), (ib, b)| a.total_cmp(b).then(ib.cmp(ia)))
        .expect("non-empty")
        .0
}

/// The canonical policy names, comparison order.
pub const POLICY_NAMES: [&str; 3] = ["class-ranked", "bandwidth-aware", "adaptive"];

#[cfg(test)]
mod tests {
    use super::*;

    fn small_fleet() -> Fleet {
        Fleet::generate(3, 42).unwrap()
    }

    #[test]
    fn workload_is_seeded_and_bounded() {
        let a = StreamSpec::workload(32, 7);
        let b = StreamSpec::workload(32, 7);
        assert_eq!(a, b);
        assert!(a.iter().all(|s| (1.0..9.0).contains(&s.gbytes)));
        assert!(StreamSpec::workload(32, 8) != a);
    }

    /// Place `streams` under `policy` as one round; returns the queues.
    fn one_round(policy: &FleetPolicy, fleet: &Fleet, streams: u32) -> Vec<Vec<ActiveView>> {
        let mut queues = vec![Vec::new(); fleet.len()];
        for id in 0..streams {
            let p = policy.place(fleet, &queues);
            assert!(p.host < fleet.len());
            assert!(p.node.index() < fleet.host(p.host).num_nodes());
            let (id, node) = (crate::TaskId(id), p.node);
            queues[p.host].push(ActiveView {
                id,
                node,
                streams: 1,
                to_device: true,
            });
        }
        queues
    }

    #[test]
    fn policies_place_within_bounds() {
        let fleet = small_fleet();
        for name in POLICY_NAMES {
            one_round(
                &FleetPolicy::by_name(name, fleet.len()).unwrap(),
                &fleet,
                16,
            );
        }
    }

    #[test]
    fn load_spreads_under_all_policies() {
        // With per-stream headroom division, 32 streams cannot all pile
        // onto one node.
        let fleet = small_fleet();
        for name in POLICY_NAMES {
            let policy = FleetPolicy::by_name(name, fleet.len()).unwrap();
            let queues = one_round(&policy, &fleet, 32);
            let max_on_one_host = queues.iter().map(Vec::len).max().unwrap();
            assert!(max_on_one_host < 32, "{name} serialized everything");
        }
    }

    #[test]
    fn adaptive_downweights_slow_hosts() {
        let fleet = small_fleet();
        let mut a = FleetPolicy::by_name("adaptive", fleet.len()).unwrap();
        for _ in 0..10 {
            a.observe(0, 4.0);
            a.observe(1, 1.0);
        }
        let FleetPolicy::Adaptive { weights } = &a else {
            panic!("{a:?}")
        };
        assert!(weights[0] < weights[1]);
        assert!(weights[1] <= 1.0 + 1e-12);
    }

    #[test]
    fn policy_names_resolve() {
        for name in POLICY_NAMES {
            assert_eq!(FleetPolicy::by_name(name, 2).unwrap().name(), name);
        }
        assert_eq!(FleetPolicy::by_name("mao", 2).unwrap().name(), "adaptive");
        let e = FleetPolicy::by_name("nope", 2);
        assert!(matches!(e, Err(SchedError::UnknownPolicy { .. })));
    }
}
