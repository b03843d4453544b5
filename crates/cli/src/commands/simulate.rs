//! `simulate`: run a generated workload through a
//! [`Simulation`](numa_engine::Simulation) and report FCT statistics.

use crate::backend;
use crate::opts::Opts;
use numa_engine::{Simulation, Workload};
use std::fmt::Write as _;

pub(crate) fn cmd_simulate(opts: &Opts, obs: &numa_obs::Obs) -> Result<String, String> {
    let spec = opts.get("workload").ok_or(
        "--workload <spec> required, e.g. poisson:n=1000,rate=200,seed=42 \
         | pareto:n=500,alpha=1.5 | batch:n=16",
    )?;
    let workload = Workload::parse(spec)?;
    let fabric = backend::fabric_for(opts)?;
    let run = || {
        Simulation::new(&fabric)
            .workload(workload.clone())
            .observe(obs.clone())
            .run()
            .map_err(|e| e.to_string())
    };
    let report = run()?;
    let digest = report.fct_digest();

    if opts.flag("check") {
        // The CI smoke gate: the same seeded workload must reproduce the
        // identical flow-completion-time vector, bit for bit.
        let again = run()?;
        if again.fct_digest() != digest {
            return Err(format!(
                "simulate check FAILED: fct digest {:016x} != {digest:016x}",
                again.fct_digest()
            ));
        }
        return Ok(format!(
            "simulate check OK: {} flows, fct digest {digest:016x} bit-identical across reruns\n",
            report.flows.len()
        ));
    }

    let stats = report.fct_stats();
    let mut out = String::new();
    let _ = writeln!(out, "workload {spec} on {}:", fabric.topology().name());
    let _ = writeln!(
        out,
        "  {} flows over {:.3}s, aggregate {:.2} Gbit/s",
        report.flows.len(),
        report.makespan_s,
        report.aggregate_gbps
    );
    let _ = writeln!(out, "  {}", stats.render());
    let _ = writeln!(out, "  fct digest: {digest:016x}");
    Ok(out)
}
