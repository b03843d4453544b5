//! A single host is a fleet of one: over seeded fleets of 1-4 hosts, the
//! fleet rules reduce to the per-host rule they delegate to, and the
//! bandwidth-aware rule is exactly its brute-force argmax.

use numio::fio::Workload;
use numio::fleet::{Fleet, FleetPolicy, Placement, POLICY_NAMES};
use numio::iodev::NicOp;
use numio::sched::policy::{ActiveView, SchedContext};
use numio::sched::{ClassRanked, IoTask, Policy, TaskId};
use numio::topology::NodeId;

const SEEDS: [u64; 3] = [1, 42, 2013];
/// More streams than any generated host has nodes, so loads build up.
const STREAMS: u32 = 40;

/// Place one round of `STREAMS` streams under `policy`, handing each
/// placement and the queues it was chosen against to `check`.
fn place_round(
    fleet: &Fleet,
    policy: &FleetPolicy,
    mut check: impl FnMut(Placement, &[Vec<ActiveView>]),
) {
    let mut queues: Vec<Vec<ActiveView>> = vec![Vec::new(); fleet.len()];
    for id in 0..STREAMS {
        let p = policy.place(fleet, &queues);
        check(p, &queues);
        let (id, node) = (TaskId(id), p.node);
        queues[p.host].push(ActiveView {
            id,
            node,
            streams: 1,
            to_device: true,
        });
    }
}

fn fleets() -> impl Iterator<Item = (usize, u64, Fleet)> {
    (1..=4).flat_map(|n| SEEDS.map(|seed| (n, seed, Fleet::generate(n, seed).unwrap())))
}

#[test]
fn class_ranked_node_is_class_ranked_place_on_the_chosen_host() {
    let write = IoTask::new(0.0, Workload::Nic(NicOp::RdmaWrite), 1, 1.0);
    for (n, seed, fleet) in fleets() {
        place_round(&fleet, &FleetPolicy::ClassRanked, |p, queues| {
            let h = fleet.host(p.host);
            let mut rule = ClassRanked::from_models(&h.profile().write, &h.profile().read);
            rule.spill_streams = u32::MAX;
            let ctx = SchedContext {
                fabric: h.fabric(),
                active: &queues[p.host],
            };
            assert_eq!(p.node, rule.place(&write, &ctx), "{n} hosts, seed {seed}");
            assert_eq!(
                h.profile().write.class_of(p.node),
                0,
                "{n} hosts, seed {seed}"
            );
        });
    }
}

#[test]
fn bandwidth_aware_is_the_brute_force_argmax() {
    for (n, seed, fleet) in fleets() {
        place_round(&fleet, &FleetPolicy::BandwidthAware, |p, queues| {
            let mut best = (f64::NEG_INFINITY, usize::MAX, NodeId(0));
            for h in fleet.hosts() {
                for node in (0..h.num_nodes()).map(NodeId::new) {
                    let load = queues[h.id].iter().filter(|a| a.node == node).count();
                    let score = h.profile().write.node_gbps(node) / (1.0 + load as f64);
                    if score > best.0 {
                        best = (score, h.id, node);
                    }
                }
            }
            assert_eq!((p.host, p.node), (best.1, best.2), "{n} hosts, seed {seed}");
        });
    }
}

#[test]
fn a_one_host_fleet_always_picks_host_zero() {
    for seed in SEEDS {
        let fleet = Fleet::generate(1, seed).unwrap();
        for name in POLICY_NAMES {
            let policy = FleetPolicy::by_name(name, 1).unwrap();
            place_round(&fleet, &policy, |p, _| {
                assert_eq!(p.host, 0, "{name}, seed {seed}")
            });
        }
    }
}
