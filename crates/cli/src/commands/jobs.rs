//! Job execution: `run` (fio-style jobfile, optional fault plan) and
//! `sweep` (the paper's stream-count sweep).

use crate::backend;
use crate::opts::Opts;
use numa_fio::{sweep as fio_sweep, Workload};
use std::fmt::Write as _;

pub(crate) fn cmd_run(opts: &Opts, obs: &numa_obs::Obs) -> Result<String, String> {
    let path = opts.get("jobfile").ok_or("--jobfile <path> required")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let named = numa_fio::parse_jobfile(&text).map_err(|e| e.to_string())?;
    if named.is_empty() {
        return Err("job file defines no jobs".into());
    }
    let jobs: Vec<numa_fio::JobSpec> = named.iter().map(|(_, j)| j.clone()).collect();
    let fabric = backend::fabric_for(opts)?;
    let report = if let Some(plan_path) = opts.get("faults") {
        // Arm the fault plan between lowering and running, then fold the
        // raw simulator output into the standard per-job report.
        let plan = super::faults::load_fault_plan(plan_path)?;
        let (sim, flow_job) = numa_fio::build_sim(&fabric, &jobs).map_err(|e| e.to_string())?;
        let raw = sim
            .observe(obs.clone())
            .faults(plan)
            .run()
            .map_err(|e| e.to_string())?;
        numa_fio::assemble_report(&jobs, raw, &flow_job)
    } else {
        numa_fio::run_jobs_scenario(&fabric, &jobs, obs).map_err(|e| e.to_string())?
    };
    let mut out = String::new();
    for ((name, _), jr) in named.iter().zip(&report.jobs) {
        let _ = writeln!(
            out,
            "{name}: {} -> {:.2} Gbit/s aggregate ({} streams, {:.1}s)",
            jr.describe,
            jr.aggregate_gbps,
            jr.per_stream_gbps.len(),
            jr.makespan_s
        );
    }
    let _ = writeln!(
        out,
        "TOTAL: {:.2} Gbit/s over {:.1}s",
        report.aggregate_gbps, report.makespan_s
    );
    Ok(out)
}

pub(crate) fn cmd_sweep(opts: &Opts) -> Result<String, String> {
    let op = opts.nic_op()?;
    let size: f64 = opts.num("size", 4.0)?;
    let seed: u64 = opts.num("seed", 42)?;
    let streams: Vec<u32> = match opts.get("streams") {
        None => vec![1, 2, 4, 8, 16],
        Some(s) => s
            .split(',')
            .map(|x| {
                x.parse::<u32>()
                    .map_err(|_| format!("bad stream count '{x}'"))
            })
            .collect::<Result<_, _>>()?,
    };
    let fabric = backend::fabric_for(opts)?;
    let nodes = fio_sweep::paper_nodes();
    let points = fio_sweep::sweep(&fabric, &Workload::Nic(op), &nodes, &streams, size, seed)
        .map_err(|e| e.to_string())?;
    let mut out = format!("{op:?} aggregate bandwidth (Gbit/s):\n");
    out.push_str(&fio_sweep::render_table(&points, &nodes, &streams));
    Ok(out)
}
