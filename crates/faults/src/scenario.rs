//! Canned baseline-vs-faulted comparison scenarios.
//!
//! The demo workload is the paper's Table IV shape: one bulk DMA write
//! stream from every node into the device on node 7, all concurrent. The
//! same flow set runs twice — once on the healthy machine, once with the
//! fault plan armed — and the report pairs the two so the degradation is
//! visible per flow.

use crate::apply::FaultError;
use crate::inject::FaultInjector;
use crate::plan::FaultPlan;
use numa_engine::{FlowSpec, SimReport, Simulation};
use numa_fabric::Fabric;
use numa_topology::NodeId;

/// Outcome of one scenario run: the same workload on the healthy and the
/// faulted machine.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// The plan that was applied.
    pub plan: FaultPlan,
    /// Run on the healthy fabric.
    pub baseline: SimReport,
    /// Run with the plan armed.
    pub faulted: SimReport,
}

impl ScenarioReport {
    /// Fraction of aggregate bandwidth lost to the faults, in `[0, 1)`
    /// for any plan that actually degrades something.
    pub fn degradation(&self) -> f64 {
        1.0 - self.faulted.aggregate_gbps / self.baseline.aggregate_gbps
    }

    /// Deterministic textual report: the plan, both per-flow tables, and
    /// the aggregate damage. Identical seeds render bit-identically.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "fault plan (seed {}):", self.plan.seed);
        for w in &self.plan.faults {
            let heal = match w.end_s {
                Some(end) => format!("heals at {end:.3}s"),
                None => "permanent".to_string(),
            };
            let _ = writeln!(out, "  {:?} at {:.3}s ({heal})", w.kind, w.start_s);
        }
        let _ = writeln!(out, "\nBASELINE\n{}", self.baseline.render());
        let _ = writeln!(out, "FAULTED\n{}", self.faulted.render());
        let _ = writeln!(
            out,
            "degradation: {:.1}% of aggregate bandwidth lost",
            100.0 * self.degradation()
        );
        out
    }
}

/// Build the demo flow set: one DMA write stream per node into the device
/// on `target` (flows are device-sided at the destination, so the source
/// copy engines and the interconnect carry the contention, as in Fig. 9).
fn demo_flows(sim: &mut Simulation<'_>, nodes: usize, target: NodeId) {
    for i in 0..nodes {
        let src = NodeId::new(i);
        sim.add_flow(
            FlowSpec::dma(src, target)
                .gbytes(25.0)
                .device_dst()
                .label(format!("write N{i}->N{}", target.index())),
        );
    }
}

/// Run `plan` against the demo workload on `fabric`. With `obs` attached,
/// the faulted run emits engine events (`fault_injected`/`fault_healed`)
/// and a `numio_faults_total{kind}` counter per fault window.
pub fn run_plan(
    fabric: &Fabric,
    plan: &FaultPlan,
    obs: Option<&numa_obs::Obs>,
) -> Result<ScenarioReport, FaultError> {
    plan.validate()?;
    let target = NodeId::new(fabric.num_nodes() - 1);

    let mut baseline = Simulation::new(fabric);
    demo_flows(&mut baseline, fabric.num_nodes(), target);
    let baseline = baseline.run()?;

    // The injector is armed eagerly (not via `Simulation::faults`) so
    // arming failures keep their typed `FaultError` shape.
    let mut sim = Simulation::new(fabric);
    demo_flows(&mut sim, fabric.num_nodes(), target);
    FaultInjector::new(plan.clone()).arm(&mut sim, fabric)?;
    if let Some(o) = obs {
        sim = sim.observe(o.clone());
        for w in &plan.faults {
            o.counter("numio_faults_total", &[("kind", w.kind.name())])
                .inc();
        }
    }
    let faulted = sim.run()?;

    Ok(ScenarioReport {
        plan: plan.clone(),
        baseline,
        faulted,
    })
}

/// [`run_plan`] with the canonical seeded demo plan ([`FaultPlan::demo`]).
pub fn run_demo(
    fabric: &Fabric,
    seed: u64,
    obs: Option<&numa_obs::Obs>,
) -> Result<ScenarioReport, FaultError> {
    run_plan(fabric, &FaultPlan::demo(seed), obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_fabric::calibration::dl585_fabric;

    #[test]
    fn demo_degrades_and_is_seed_deterministic() {
        let f = dl585_fabric();
        let a = run_demo(&f, 42, None).unwrap();
        let b = run_demo(&f, 42, None).unwrap();
        assert_eq!(a, b, "same seed, same scenario");
        assert_eq!(a.render(), b.render(), "bit-identical reports");
        assert!(
            a.degradation() > 0.05,
            "faults must bite: {}",
            a.degradation()
        );
        let c = run_demo(&f, 43, None).unwrap();
        assert_ne!(a.faulted, c.faulted, "seed changes the damage");
        // The baseline is fault-independent.
        assert_eq!(a.baseline, c.baseline);
    }

    #[test]
    fn observed_demo_counts_faults_and_tags_events() {
        let f = dl585_fabric();
        let obs = numa_obs::Obs::new();
        let r = run_demo(&f, 42, Some(&obs)).unwrap();
        assert!(r.degradation() > 0.0);
        assert_eq!(
            obs.counter("numio_faults_total", &[("kind", "link_degrade")])
                .get(),
            1
        );
        assert_eq!(
            obs.counter("numio_faults_total", &[("kind", "irq_storm")])
                .get(),
            1
        );
        let jsonl = obs.jsonl();
        assert!(jsonl.contains("\"ev\":\"fault_injected\""), "{jsonl}");
        assert!(jsonl.contains("\"ev\":\"fault_healed\""), "{jsonl}");
    }

    #[test]
    fn render_names_the_plan_and_the_damage() {
        let f = dl585_fabric();
        let s = run_demo(&f, 7, None).unwrap().render();
        assert!(s.contains("fault plan (seed 7)"));
        assert!(s.contains("BASELINE"));
        assert!(s.contains("FAULTED"));
        assert!(s.contains("degradation:"));
        assert!(s.contains("write N6->N7"));
    }
}
