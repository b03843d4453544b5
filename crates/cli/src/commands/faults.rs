//! `iomodel faults <demo|validate|run>` — the fault-injection subsystem.

use crate::backend;
use crate::opts::Opts;

/// Parse a fault plan JSON file into a validated [`numa_faults::FaultPlan`].
pub(crate) fn load_fault_plan(path: &str) -> Result<numa_faults::FaultPlan, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    numa_faults::FaultPlan::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

/// * `demo [--seed N] [--check]` — run the canonical seeded scenario
///   (link throttle on the 6->7 hop plus an IRQ storm on node 7) against
///   the Table IV workload; `--check` asserts the run degrades and is
///   deterministic, printing one OK line (the CI smoke test).
/// * `validate --plan p.json` — parse and validate a plan file.
/// * `run --plan p.json [--seed N]` — run an explicit plan file against
///   the demo workload.
pub(crate) fn cmd_faults(args: &[String], obs: &numa_obs::Obs) -> Result<String, String> {
    let (action, rest) = match args.first() {
        Some(a) if !a.starts_with("--") => (a.as_str(), &args[1..]),
        _ => ("demo", args),
    };
    let opts = Opts::parse(rest)?;
    let fabric = backend::fabric_for(&opts)?;
    match action {
        "demo" => {
            let seed: u64 = opts.num("seed", 42)?;
            let report =
                numa_faults::run_demo(&fabric, seed, Some(obs)).map_err(|e| e.to_string())?;
            if opts.flag("check") {
                let again =
                    numa_faults::run_demo(&fabric, seed, None).map_err(|e| e.to_string())?;
                if again.render() != report.render() {
                    return Err("fault demo is not deterministic across runs".into());
                }
                if report.degradation() <= 0.0 {
                    return Err("fault demo produced no degradation".into());
                }
                Ok(format!(
                    "fault demo OK: seed {seed}, {:.1}% aggregate degradation, deterministic\n",
                    100.0 * report.degradation()
                ))
            } else {
                Ok(report.render())
            }
        }
        "validate" => {
            let path = opts.get("plan").ok_or("--plan <plan.json> required")?;
            let plan = load_fault_plan(path)?;
            Ok(format!(
                "{path}: OK ({} faults, seed {})\n",
                plan.faults.len(),
                plan.seed
            ))
        }
        "run" => {
            let path = opts.get("plan").ok_or("--plan <plan.json> required")?;
            let plan = load_fault_plan(path)?;
            let report =
                numa_faults::run_plan(&fabric, &plan, Some(obs)).map_err(|e| e.to_string())?;
            Ok(report.render())
        }
        other => Err(format!(
            "faults: unknown action '{other}' (want demo|validate|run)"
        )),
    }
}
