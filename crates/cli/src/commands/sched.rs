//! `sched`: the episode scheduler compared across placement policies,
//! over whatever backend exposes a fabric.

use crate::backend;
use crate::opts::Opts;
use numa_sched::policy::{HopGreedy, LocalOnly, ModelDrivenMigrating, SpreadAll};
use numa_sched::{metrics, trace, ClassRanked, Scheduler};

pub(crate) fn cmd_sched(opts: &Opts, obs: &numa_obs::Obs) -> Result<String, String> {
    let tasks_n: usize = opts.num("tasks", 12)?;
    let gap: f64 = opts.num("gap", 1.0)?;
    let seed: u64 = opts.num("seed", 42)?;
    let mix = match opts.get("mix").unwrap_or("ingest") {
        "ingest" => trace::MixProfile::Ingest,
        "serve" => trace::MixProfile::Serve,
        "uniform" => trace::MixProfile::Uniform,
        other => return Err(format!("--mix must be ingest|serve|uniform, got '{other}'")),
    };
    let platform = backend::platform_for(opts)?;
    // Fabric-less backends fail here with a typed explanation before any
    // policy is characterized.
    let scheduler = Scheduler::for_backend(&platform)
        .map_err(|e| e.to_string())?
        .observe(obs.clone());
    let tasks = if opts.flag("premium") {
        trace::premium_burst(tasks_n, mix, seed)
    } else if opts.flag("burst") {
        trace::burst(tasks_n, mix, seed)
    } else {
        trace::poisson(tasks_n, gap, mix, seed)
    };
    let model_driven = ClassRanked::model_driven(&platform).map_err(|e| e.to_string())?;
    let reports = vec![
        scheduler
            .run(tasks.clone(), LocalOnly::new())
            .map_err(|e| e.to_string())?,
        scheduler
            .run(tasks.clone(), HopGreedy::new())
            .map_err(|e| e.to_string())?,
        scheduler
            .run(tasks.clone(), SpreadAll::new())
            .map_err(|e| e.to_string())?,
        scheduler
            .run(tasks.clone(), model_driven.clone())
            .map_err(|e| e.to_string())?,
        scheduler
            .run(tasks, ModelDrivenMigrating::new(model_driven, 2.0, 3))
            .map_err(|e| e.to_string())?,
    ];
    Ok(metrics::render_comparison(&reports))
}
