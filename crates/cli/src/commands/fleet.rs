//! `iomodel fleet <gen|place|compare>` — the fleet layer: seeded
//! heterogeneous host generation, per-host characterization profiles, and
//! the cluster-level placement policy bench.

use crate::opts::Opts;
use numa_sched::fleet::{
    check_bounds, ClusterScheduler, Fleet, FleetPolicy, FleetReport, StreamSpec, POLICY_NAMES,
};
use std::fmt::Write as _;

/// * `gen [--hosts N] [--seed N]` — generate a fleet and print each
///   host's sampled shape, capacity scale, and best I/O class.
/// * `place [--hosts N] [--streams N] [--policy P] [--rounds N] [--seed N]`
///   — run one placement episode under one policy.
/// * `compare [--hosts N] [--streams N] [--rounds N] [--seed N] [--check]`
///   — run all three policies on the same seeded workload; `--check`
///   reruns the comparison and fails unless every report is
///   bit-identical (the CI smoke gate).
pub(crate) fn cmd_fleet(args: &[String], obs: &numa_obs::Obs) -> Result<String, String> {
    let (action, rest) = match args.first() {
        Some(a) if !a.starts_with("--") => (a.as_str(), &args[1..]),
        _ => ("compare", args),
    };
    let opts = Opts::parse(rest)?;
    let hosts: usize = opts.num("hosts", 4)?;
    let seed: u64 = opts.num("seed", 42)?;
    // The serve layer's bounds: generation characterizes every host, so
    // they keep a typo'd `--hosts` or `--streams` from hanging the CLI.
    check_bounds(hosts, opts.num("streams", 32)?).map_err(|e| e.to_string())?;
    let fleet = Fleet::generate(hosts, seed).map_err(|e| e.to_string())?;
    match action {
        "gen" => render_gen(&fleet),
        "place" => {
            let policy = opts.get("policy").unwrap_or("class-ranked");
            let report = run_episode(&fleet, &opts, policy, obs)?;
            let mut out = render_header(&fleet);
            out.push_str(&report.render());
            out.push('\n');
            let _ = writeln!(
                out,
                "per-host streams: {:?}  fct digest: {:016x}",
                report.per_host_streams, report.digest
            );
            Ok(out)
        }
        "compare" => render_compare(&fleet, &opts, obs),
        other => Err(format!(
            "fleet: unknown action '{other}' (want gen|place|compare)"
        )),
    }
}

fn render_header(fleet: &Fleet) -> String {
    format!(
        "fleet (seed {}): {} hosts, {} NUMA nodes\n",
        fleet.seed(),
        fleet.len(),
        fleet.total_nodes()
    )
}

fn render_gen(fleet: &Fleet) -> Result<String, String> {
    let mut out = render_header(fleet);
    for h in fleet.hosts() {
        let best = &h.profile().write.classes()[0];
        let nodes: Vec<u16> = best.nodes.iter().map(|n| n.0).collect();
        let storage = match (&h.profile().storage_write, h.storage_headroom()) {
            (Some(sw), Some(headroom)) => format!(
                "  ssd x{} @ {:.1} Gbit/s (headroom {:.2})",
                h.spec.ssds,
                sw.classes()[0].avg_gbps,
                headroom
            ),
            _ => "  no ssd".to_string(),
        };
        let _ = writeln!(
            out,
            "host {:02}  {}s x{}  ({:2} nodes)  {:<11} io node {}  scale {:.3}  \
             best class {:?} @ {:.1} Gbit/s{storage}",
            h.id,
            h.spec.sockets,
            h.spec.nodes_per_socket,
            h.num_nodes(),
            h.spec.wiring.label(),
            h.io_node().0,
            h.scale,
            nodes,
            best.avg_gbps,
        );
    }
    Ok(out)
}

fn run_episode(
    fleet: &Fleet,
    opts: &Opts,
    policy: &str,
    obs: &numa_obs::Obs,
) -> Result<FleetReport, String> {
    let streams: usize = opts.num("streams", 32)?;
    let rounds: usize = opts.num("rounds", 4)?;
    let workload = StreamSpec::workload(streams, fleet.seed());
    let mut policy = FleetPolicy::by_name(policy, fleet.len()).map_err(|e| e.to_string())?;
    let report = ClusterScheduler::new(fleet)
        .rounds(rounds)
        .run(&workload, &mut policy)
        .map_err(|e| e.to_string())?;
    obs.event(
        "fleet_episode",
        0.0,
        &[
            ("policy", report.policy.as_str().into()),
            ("hosts", report.hosts.into()),
            ("streams", report.streams.into()),
            ("aggregate_gbps", report.aggregate_gbps.into()),
        ],
    );
    Ok(report)
}

fn render_compare(fleet: &Fleet, opts: &Opts, obs: &numa_obs::Obs) -> Result<String, String> {
    let run = || -> Result<Vec<FleetReport>, String> {
        POLICY_NAMES
            .iter()
            .map(|name| run_episode(fleet, opts, name, obs))
            .collect()
    };
    let reports = run()?;
    let mut out = render_header(fleet);
    for r in &reports {
        out.push_str(&r.render());
        out.push('\n');
    }
    let best = reports
        .iter()
        .max_by(|a, b| a.aggregate_gbps.total_cmp(&b.aggregate_gbps))
        .expect("three reports");
    let _ = writeln!(
        out,
        "best aggregate: {} ({:.2} Gbit/s)",
        best.policy, best.aggregate_gbps
    );
    if opts.flag("check") {
        let again = run()?;
        if again != reports {
            return Err("fleet compare is not deterministic across runs".into());
        }
        let digests: Vec<String> = reports
            .iter()
            .map(|r| format!("{:016x}", r.digest))
            .collect();
        let _ = writeln!(
            out,
            "fleet compare check OK: {} hosts, 3 policies, bit-identical reruns \
             (digests {})",
            fleet.len(),
            digests.join(" ")
        );
    }
    Ok(out)
}
