//! Dynamic application: lower a fault plan onto a running simulation.

use crate::apply::FaultError;
use crate::plan::FaultPlan;
use numa_engine::{ResourceHandle, ResourceKey, Simulation};
use numa_fabric::{CapChange, Fabric, TrafficClass};
use numa_topology::DeviceId;

/// Lowers a [`FaultPlan`] onto a [`Simulation`] as scheduled capacity
/// events (`fault_injected` at each window's start, `fault_healed` at its
/// end). Arm *after* the workload's flows and device resources are
/// registered — device-stall faults address ports the harness lowers.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
}

impl FaultInjector {
    /// Wrap a validated plan.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector { plan }
    }

    /// Schedule every fault window onto `sim`; returns the number of
    /// capacity events added (one per injection, one more per heal).
    ///
    /// Each window's [`crate::FaultKind::lower`]ing maps onto engine
    /// resources. Links and copy ceilings are registered at their fabric
    /// base (idempotent with the engine's own lowering); derates scale
    /// what the harness registered: a TCP CPU budget if any, and a
    /// device's ports, which must exist, else [`FaultError::UnknownDevice`].
    pub fn arm(&self, sim: &mut Simulation<'_>, fabric: &Fabric) -> Result<usize, FaultError> {
        self.plan.validate()?;
        let mut events = 0usize;
        for w in &self.plan.faults {
            // (handle, degraded capacity, base capacity) per resource the
            // fault touches.
            let mut touched: Vec<(ResourceHandle, f64, f64)> = Vec::new();
            for change in w.kind.lower(fabric)? {
                let (keys, factor) = match change {
                    CapChange::Edge { edge, gbps } => {
                        let base = fabric.edge_capacity(edge, TrafficClass::Dma);
                        touched.push((sim.register(ResourceKey::Edge(edge), base), gbps, base));
                        continue;
                    }
                    CapChange::NodeCopy { node, gbps } => {
                        let base = fabric.node_copy_cap(node);
                        touched.push((sim.register(ResourceKey::NodeCopy(node), base), gbps, base));
                        continue;
                    }
                    CapChange::NodeCpu { node, factor } => {
                        (vec![ResourceKey::NodeCpu(node)], factor)
                    }
                    CapChange::Device { device, factor } => {
                        let dev = DeviceId(device);
                        let port = |to_device| ResourceKey::DevicePort { dev, to_device };
                        let ports = vec![port(true), port(false)];
                        if ports.iter().all(|&k| sim.resource(k).is_none()) {
                            return Err(FaultError::UnknownDevice { device });
                        }
                        (ports, factor)
                    }
                };
                for h in keys.into_iter().filter_map(|k| sim.resource(k)) {
                    let base = sim.capacity(h);
                    touched.push((h, base * factor, base));
                }
            }
            for (h, degraded, base) in touched {
                sim.schedule_capacity_as(h, w.start_s, degraded, "fault_injected");
                events += 1;
                if let Some(end) = w.end_s {
                    sim.schedule_capacity_as(h, end, base, "fault_healed");
                    events += 1;
                }
            }
        }
        Ok(events)
    }
}

/// A [`FaultInjector`] plugs into the engine's builder:
/// `Simulation::new(fabric).faults(FaultInjector::new(plan))`.
impl numa_engine::FaultSource for FaultInjector {
    fn arm_scenario(&self, sim: &mut Simulation<'_>) -> Result<usize, String> {
        let fabric = sim.fabric();
        self.arm(sim, fabric).map_err(|e| e.to_string())
    }
}

/// A bare [`FaultPlan`] is also a fault source — the common case:
/// `Simulation::new(fabric).faults(plan)`.
impl numa_engine::FaultSource for FaultPlan {
    fn arm_scenario(&self, sim: &mut Simulation<'_>) -> Result<usize, String> {
        numa_engine::FaultSource::arm_scenario(&FaultInjector::new(self.clone()), sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultKind, FaultWindow};
    use numa_engine::FlowSpec;
    use numa_fabric::calibration::dl585_fabric;
    use numa_topology::NodeId;

    #[test]
    fn armed_throttle_slows_the_run() {
        let f = dl585_fabric();
        let baseline = {
            let mut sim = Simulation::new(&f);
            sim.add_flow(FlowSpec::dma(NodeId(6), NodeId(7)).gbits(93.0));
            sim.run().unwrap().makespan_s
        };
        let mut sim = Simulation::new(&f);
        sim.add_flow(FlowSpec::dma(NodeId(6), NodeId(7)).gbits(93.0));
        let plan = FaultPlan::new(0).with(FaultWindow::permanent(FaultKind::LinkDegrade {
            from: 6,
            to: 7,
            factor: 0.5,
        }));
        let n = FaultInjector::new(plan).arm(&mut sim, &f).unwrap();
        assert_eq!(n, 1);
        let faulted = sim.run().unwrap().makespan_s;
        assert!(
            (faulted - 2.0 * baseline).abs() < 1e-9,
            "{faulted} vs {baseline}"
        );
    }

    #[test]
    fn healed_window_restores_full_rate() {
        let f = dl585_fabric();
        let mut sim = Simulation::new(&f);
        sim.add_flow(FlowSpec::dma(NodeId(6), NodeId(7)).gbits(93.0));
        // Half rate over [0, 2): 46.5 Gbit done by t=2, the rest at full
        // rate => makespan 3.
        let plan = FaultPlan::new(0).with(FaultWindow::between(
            FaultKind::LinkDegrade {
                from: 6,
                to: 7,
                factor: 0.5,
            },
            0.0,
            2.0,
        ));
        let n = FaultInjector::new(plan).arm(&mut sim, &f).unwrap();
        assert_eq!(n, 2);
        let r = sim.run().unwrap();
        assert!((r.makespan_s - 3.0).abs() < 1e-9, "{}", r.makespan_s);
    }

    #[test]
    fn unknown_link_and_device_are_typed_errors() {
        let f = dl585_fabric();
        let mut sim = Simulation::new(&f);
        let plan = FaultPlan::new(0).with(FaultWindow::permanent(FaultKind::LinkDown {
            from: 0,
            to: 7,
        }));
        assert_eq!(
            FaultInjector::new(plan).arm(&mut sim, &f).unwrap_err(),
            FaultError::UnknownLink {
                from: NodeId(0),
                to: NodeId(7)
            }
        );
        // Device 3 is not in the topology; device 0 (the NIC) is, but this
        // simulation registered no port for it.
        for device in [3, 0] {
            let stall = FaultKind::DeviceStall {
                device,
                factor: 0.5,
            };
            let plan = FaultPlan::new(0).with(FaultWindow::permanent(stall));
            assert_eq!(
                FaultInjector::new(plan).arm(&mut sim, &f).unwrap_err(),
                FaultError::UnknownDevice { device }
            );
        }
    }

    #[test]
    fn invalid_plan_is_rejected_at_arm_time() {
        let f = dl585_fabric();
        let mut sim = Simulation::new(&f);
        let plan = FaultPlan::new(0);
        assert_eq!(
            FaultInjector::new(plan).arm(&mut sim, &f).unwrap_err(),
            FaultError::EmptyPlan
        );
    }

    #[test]
    fn fault_plan_arms_through_the_simulation_builder() {
        let f = dl585_fabric();
        let plan = FaultPlan::new(0).with(FaultWindow::permanent(FaultKind::LinkDegrade {
            from: 6,
            to: 7,
            factor: 0.5,
        }));
        // Same throttle as `armed_throttle_slows_the_run`, via the
        // unified front door.
        let report = Simulation::new(&f)
            .flows([FlowSpec::dma(NodeId(6), NodeId(7)).gbits(93.0)])
            .faults(plan)
            .run()
            .unwrap();
        assert!(
            (report.makespan_s - 4.0).abs() < 1e-9,
            "{}",
            report.makespan_s
        );

        // A broken plan surfaces as a typed simulation error.
        let bad = FaultPlan::new(0).with(FaultWindow::permanent(FaultKind::LinkDown {
            from: 0,
            to: 7,
        }));
        let err = Simulation::new(&f)
            .flows([FlowSpec::dma(NodeId(6), NodeId(7)).gbits(1.0)])
            .faults(bad)
            .run()
            .unwrap_err();
        assert!(
            matches!(err, numa_engine::SimError::Faults { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn device_stall_throttles_registered_ports() {
        let f = dl585_fabric();
        let mut sim = Simulation::new(&f);
        let port = sim.register(
            ResourceKey::DevicePort {
                dev: DeviceId(0),
                to_device: true,
            },
            20.0,
        );
        sim.add_flow(FlowSpec::dma(NodeId(6), NodeId(7)).gbits(20.0).charge(port));
        let plan = FaultPlan::new(0).with(FaultWindow::permanent(FaultKind::DeviceStall {
            device: 0,
            factor: 0.25,
        }));
        FaultInjector::new(plan).arm(&mut sim, &f).unwrap();
        let r = sim.run().unwrap();
        // 20 Gbit at 25% of the 20 Gbps port => 4 s.
        assert!((r.makespan_s - 4.0).abs() < 1e-9, "{}", r.makespan_s);
    }
}
