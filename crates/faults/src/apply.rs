//! Static application: degraded what-if copies of fabrics and platforms.

use crate::plan::FaultKind;
use numa_engine::SimError;
use numa_fabric::{Fabric, FabricError};
use numa_topology::NodeId;
use numio_core::SimPlatform;

/// Residual capacity of a downed link, Gbit/s. Not exactly zero: the
/// fabric builder (reasonably) rejects zero-capacity links, and a dead
/// link still passes the occasional retried credit. Any flow routed over
/// it is starved for practical purposes.
pub const LINK_DOWN_GBPS: f64 = 1e-6;

/// Everything that can go wrong constructing or applying a fault plan.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// The plan JSON did not parse or did not match the schema.
    Parse(String),
    /// The plan references a directed link the topology does not have.
    UnknownLink {
        /// Source node of the missing edge.
        from: NodeId,
        /// Destination node of the missing edge.
        to: NodeId,
    },
    /// The plan references a node outside the machine.
    NodeOutOfRange {
        /// The offending node.
        node: NodeId,
        /// Number of nodes present.
        nodes: usize,
    },
    /// The plan references a device outside the topology, or one whose
    /// port the simulation never registered.
    UnknownDevice {
        /// The offending device index.
        device: u16,
    },
    /// A degradation factor or storm intensity outside its legal range.
    BadFactor {
        /// The offending value.
        value: f64,
    },
    /// A window with a non-finite or inverted time range.
    BadWindow {
        /// Injection time.
        start_s: f64,
        /// Heal time, if any.
        end_s: Option<f64>,
    },
    /// The plan contains no faults.
    EmptyPlan,
    /// The selected backend exposes no simulator fabric to degrade
    /// (faults are what-if views over the simulator).
    NoFabric {
        /// The backend's label.
        label: String,
    },
    /// The underlying simulation failed while the plan was active.
    Sim(SimError),
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::Parse(msg) => write!(f, "malformed fault plan: {msg}"),
            FaultError::UnknownLink { from, to } => {
                write!(f, "fault plan references unknown link {from:?}->{to:?}")
            }
            FaultError::NodeOutOfRange { node, nodes } => {
                write!(
                    f,
                    "fault plan references {node:?} on a {nodes}-node machine"
                )
            }
            FaultError::UnknownDevice { device } => {
                write!(f, "fault plan references unknown device {device}")
            }
            FaultError::BadFactor { value } => {
                write!(f, "fault factor/intensity {value} out of range")
            }
            FaultError::BadWindow { start_s, end_s } => {
                write!(
                    f,
                    "fault window [{start_s}, {end_s:?}) is not a valid time range"
                )
            }
            FaultError::EmptyPlan => write!(f, "fault plan has no faults"),
            FaultError::NoFabric { label } => {
                write!(f, "backend '{label}' exposes no fabric to degrade")
            }
            FaultError::Sim(e) => write!(f, "simulation failed under faults: {e}"),
        }
    }
}

impl std::error::Error for FaultError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FaultError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for FaultError {
    fn from(e: SimError) -> Self {
        FaultError::Sim(e)
    }
}

impl From<FabricError> for FaultError {
    fn from(e: FabricError) -> Self {
        match e {
            FabricError::UnknownLink(e) => FaultError::UnknownLink {
                from: e.from,
                to: e.to,
            },
            FabricError::NodeOutOfRange { node, nodes } => {
                FaultError::NodeOutOfRange { node, nodes }
            }
            FabricError::UnknownDevice(device) => FaultError::UnknownDevice { device },
            FabricError::BadCapacity(value) | FabricError::BadFactor(value) => {
                FaultError::BadFactor { value }
            }
        }
    }
}

/// A what-if copy of `base` with every fault applied at full strength —
/// the machine as it looks *while* the faults are active. Feed it back
/// through [`numio_core::IoModeler`] and `numio_core::drift::diff` to see
/// which nodes change performance class.
///
/// One shallow clone of `base`, then each fault's [`FaultKind::lower`]ing
/// applied in place with [`Fabric::apply`], in plan order (a second
/// fault on one resource degrades what the first left). The view records
/// every change that lowered its resource ([`Fabric::faults`]), so the
/// modeler can tell which probe paths a fault lowered. Derates land in
/// [`Fabric::device_derate`] and [`Fabric::node_cpu_derate`], which
/// `memcpy` probes never read and device harnesses fold into the port and
/// CPU capacities they lower — the `base * factor` the dynamic
/// [`crate::FaultInjector`] schedules, so the paths agree bit for bit.
pub fn degraded_fabric(base: &Fabric, faults: &[FaultKind]) -> Result<Fabric, FaultError> {
    let mut out = base.clone();
    for k in faults {
        for change in k.lower(&out)? {
            out.apply(change)?;
        }
    }
    Ok(out)
}

/// [`degraded_fabric`] lifted to a probe platform: the returned
/// [`SimPlatform`] keeps the original's noise amplitude and seed, so a
/// re-characterization differs from the baseline only through the faults.
pub fn degraded_platform(
    base: &SimPlatform,
    faults: &[FaultKind],
) -> Result<SimPlatform, FaultError> {
    let mut out = SimPlatform::new(degraded_fabric(base.fabric(), faults)?);
    out.noise = base.noise;
    out.seed = base.seed;
    Ok(out)
}

/// [`degraded_platform`] generalized to any backend: pulls the fabric out
/// of the selected [`Platform`](numio_core::Platform) and returns a
/// degraded [`SimPlatform`] what-if view, or a typed
/// [`FaultError::NoFabric`] when the backend is measurement-only (a real
/// host, a replay fixture).
pub fn degraded_backend<P: numio_core::Platform>(
    base: &P,
    faults: &[FaultKind],
) -> Result<SimPlatform, FaultError> {
    let fabric = base.fabric().ok_or_else(|| FaultError::NoFabric {
        label: base.label(),
    })?;
    Ok(SimPlatform::new(degraded_fabric(fabric, faults)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_fabric::calibration::dl585_fabric;
    use numa_fabric::{CapChange, TrafficClass};
    use numa_topology::DirectedEdge;
    use numio_core::{IoModeler, TransferMode};

    #[test]
    fn degraded_backend_needs_a_fabric() {
        let sim = SimPlatform::dl585();
        let faults = [FaultKind::LinkDegrade {
            from: 6,
            to: 7,
            factor: 0.5,
        }];
        // Over a sim backend it matches degraded_platform's fabric view.
        let via_backend = degraded_backend(&sim, &faults).unwrap();
        let via_platform = degraded_platform(&sim, &faults).unwrap();
        let e = DirectedEdge::new(NodeId(6), NodeId(7));
        assert_eq!(
            via_backend.fabric().edge_cap(e, TrafficClass::Dma),
            via_platform.fabric().edge_cap(e, TrafficClass::Dma)
        );
        // A fabric-less backend is a typed error.
        let host = numio_core::HostPlatform::with_shape(8, 4);
        let err = degraded_backend(&host, &faults).unwrap_err();
        assert_eq!(
            err,
            FaultError::NoFabric {
                label: "host:8-nodes".to_string()
            }
        );
        assert!(err.to_string().contains("no fabric to degrade"), "{err}");
    }

    #[test]
    fn degrade_scales_one_direction_only() {
        let base = dl585_fabric();
        let half = FaultKind::LinkDegrade {
            from: 6,
            to: 7,
            factor: 0.5,
        };
        let e = DirectedEdge::new(NodeId(6), NodeId(7));
        let back = DirectedEdge::new(NodeId(7), NodeId(6));
        let cap = |f: &Fabric, e| f.edge_cap(e, TrafficClass::Dma).unwrap();
        let once = degraded_fabric(&base, &[half]).unwrap();
        assert_eq!(cap(&once, e), cap(&base, e) * 0.5);
        assert_eq!(
            cap(&once, back),
            cap(&base, back),
            "reverse direction untouched"
        );
        // A second fault on the link degrades what the first left.
        let twice = degraded_fabric(&base, &[half, half]).unwrap();
        assert_eq!(cap(&twice, e), cap(&base, e) * 0.5 * 0.5);
        // The view shares the healthy fabric's topology and routes.
        assert!(std::ptr::eq(once.topology(), base.topology()));
        // A downed link keeps a residual trickle.
        let down = degraded_fabric(&base, &[FaultKind::LinkDown { from: 6, to: 7 }]).unwrap();
        assert_eq!(cap(&down, e), LINK_DOWN_GBPS);
    }

    #[test]
    fn irq_storm_derates_the_node_copy_cap() {
        let f = dl585_fabric();
        let d = degraded_fabric(
            &f,
            &[FaultKind::IrqStorm {
                node: 7,
                intensity: 0.5,
            }],
        )
        .unwrap();
        assert!((d.node_copy_cap(NodeId(7)) - 0.5 * f.node_copy_cap(NodeId(7))).abs() < 1e-12);
        assert_eq!(d.node_copy_cap(NodeId(6)), f.node_copy_cap(NodeId(6)));
        assert_eq!(d.node_cpu_derate(NodeId(7)), 0.5);
        assert_eq!(d.node_cpu_derate(NodeId(6)), 1.0);
        // The view records both lowered changes, in lowering order.
        assert_eq!(
            d.faults(),
            [
                CapChange::NodeCopy {
                    node: NodeId(7),
                    gbps: d.node_copy_cap(NodeId(7))
                },
                CapChange::NodeCpu {
                    node: NodeId(7),
                    factor: 0.5
                },
            ]
        );
    }

    #[test]
    fn device_stall_derates_the_device_port() {
        // Regression: this used to be a silent no-op (the deleted
        // `device_stall_is_a_fabric_no_op` pinned `d == f`), so static
        // what-if views disagreed with dynamic injection.
        let f = dl585_fabric();
        let d = degraded_fabric(
            &f,
            &[FaultKind::DeviceStall {
                device: 0,
                factor: 0.5,
            }],
        )
        .unwrap();
        assert_ne!(d, f, "the stall must be visible in the what-if view");
        assert_eq!(d.device_derate(0), 0.5);
        assert_eq!(d.device_derate(1), 1.0, "other devices untouched");
        // The interconnect itself is untouched: probes see no change.
        assert_eq!(d.dma_matrix(), f.dma_matrix());
    }

    /// Target 7's write and read models on the DL585 under `faults`.
    fn target7_models(faults: &[FaultKind]) -> [numio_core::IoPerfModel; 2] {
        let p = degraded_platform(&SimPlatform::dl585(), faults).unwrap();
        TransferMode::ALL.map(|mode| IoModeler::new().reps(3).characterize(&p, NodeId(7), mode))
    }

    #[test]
    fn a_fault_voids_class1_only_for_a_neighbour_whose_probe_path_it_lowers() {
        let class1 = |m: &numio_core::IoPerfModel| m.classes()[0].nodes.clone();
        let (pair, alone) = (vec![NodeId(6), NodeId(7)], vec![NodeId(7)]);
        // No fault, one that lowers nothing, or a storm that leaves node
        // 6's copy ceiling (53.5 -> 48.15) above its links to node 7 (46.5
        // and 47.1): the healthy models, bit for bit.
        let healthy = TransferMode::ALL.map(|mode| {
            IoModeler::new()
                .reps(3)
                .characterize(&SimPlatform::dl585(), NodeId(7), mode)
        });
        for faults in [
            &[][..],
            &[FaultKind::LinkDegrade {
                from: 6,
                to: 7,
                factor: 1.0,
            }],
            &[FaultKind::IrqStorm {
                node: 6,
                intensity: 0.1,
            }],
        ] {
            for (got, want) in target7_models(faults).iter().zip(&healthy) {
                assert_eq!(got.to_json(), want.to_json(), "{faults:?}");
            }
        }
        // A storm on the target lowers every probe path alike, and a
        // device stall lowers none: class 1 stays {6, 7}.
        for fault in [
            FaultKind::IrqStorm {
                node: 7,
                intensity: 0.5,
            },
            FaultKind::DeviceStall {
                device: 0,
                factor: 0.5,
            },
        ] {
            for m in target7_models(&[fault]) {
                assert_eq!(class1(&m), pair, "{fault:?} {:?}", m.mode);
            }
        }
        // The 7->6 edge carries only the read probe of node 6.
        let [write, read] = target7_models(&[FaultKind::LinkDegrade {
            from: 7,
            to: 6,
            factor: 0.25,
        }]);
        assert_eq!(class1(&write), pair);
        assert_eq!(class1(&read), alone);
        assert!(read.class_of(NodeId(6)) > 0);
        // Node 6's own copy ceiling is on both of its probe paths, and
        // halved it binds both.
        for m in target7_models(&[FaultKind::IrqStorm {
            node: 6,
            intensity: 0.5,
        }]) {
            assert_eq!(class1(&m), alone, "{:?}", m.mode);
        }
    }

    #[test]
    fn storage_models_void_class1_like_their_probe_models() {
        let faults = [
            FaultKind::LinkDegrade {
                from: 6,
                to: 7,
                factor: 0.25,
            },
            FaultKind::IrqStorm {
                node: 7,
                intensity: 0.5,
            },
        ];
        let p = degraded_platform(&SimPlatform::dl585(), &faults).unwrap();
        let modeler = IoModeler::new().reps(3);
        let storage = numio_core::characterize_storage_full_host(&modeler, &p).unwrap();
        let probes = TransferMode::ALL.map(|mode| modeler.characterize(&p, NodeId(7), mode));
        for (s, probe) in storage.iter().zip(probes.iter().cycle()) {
            assert_eq!(s.mode, probe.mode);
            assert_eq!(
                s.classes()[0].nodes,
                probe.classes()[0].nodes,
                "{}",
                s.platform
            );
        }
        assert_eq!(probes[0].classes()[0].nodes, [NodeId(7)]);
        assert_eq!(probes[1].classes()[0].nodes, [NodeId(6), NodeId(7)]);
    }

    #[test]
    fn degraded_platform_keeps_noise_and_seed() {
        let base = SimPlatform::dl585();
        let p = degraded_platform(
            &base,
            &[FaultKind::IrqStorm {
                node: 7,
                intensity: 0.5,
            }],
        )
        .unwrap();
        assert_eq!(p.noise, base.noise);
        assert_eq!(p.seed, base.seed);
        assert!(p.fabric().node_copy_cap(NodeId(7)) < base.fabric().node_copy_cap(NodeId(7)));
    }
}
