//! Fault plans: what breaks, when, and for how long.

use crate::apply::{FaultError, LINK_DOWN_GBPS};
use numa_fabric::{CapChange, Fabric, TrafficClass};
use numa_par::rng::mix64;
use numa_topology::{DirectedEdge, NodeId};

numa_par::json_enum! {
    #[json(tag = "kind")]
    /// One kind of hardware misbehaviour the model can express.
    ///
    /// Serialized with an internal `"kind"` tag, e.g.
    /// `{"kind": "link_degrade", "from": 6, "to": 7, "factor": 0.25, ...}`.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum FaultKind {
        /// One directed link retains only `factor` of its DMA capacity —
        /// firmware retraining a lane down, a flaky connector, asymmetric
        /// buffer starvation (§IV-A).
        LinkDegrade {
            /// Source node of the directed edge.
            from: u16,
            /// Destination node of the directed edge.
            to: u16,
            /// Remaining capacity fraction, in `(0, 1]`.
            factor: f64,
        },
        /// One directed link goes (effectively) dark.
        LinkDown {
            /// Source node of the directed edge.
            from: u16,
            /// Destination node of the directed edge.
            to: u16,
        },
        /// Interrupt-handling background load steals memory-controller
        /// bandwidth and protocol-CPU time on one node — the paper's node-7
        /// IRQ derating (§IV-C), dialled up.
        IrqStorm {
            /// The stormed node (usually the device-local node).
            node: u16,
            /// Fraction of the node's copy bandwidth consumed, in `[0, 1)`.
            intensity: f64,
        },
        /// A device's PCIe port retains only `factor` of its capacity in both
        /// directions — protocol-engine hiccups, thermal throttling. Applied
        /// identically on both paths: [`crate::degraded_fabric`] records it in
        /// the fabric's per-device derate table (which device harnesses fold
        /// into their lowered port capacities), and [`crate::FaultInjector`]
        /// throttles the registered `DevicePort` resources mid-run — the same
        /// `base * factor`, bit for bit.
        DeviceStall {
            /// Device index into the topology's device list (the dl585's NIC
            /// is device 0; its SSD cards are devices 1 and 2).
            device: u16,
            /// Remaining capacity fraction, in `(0, 1]`.
            factor: f64,
        },
    }
}

impl FaultKind {
    /// Lower this fault onto `fabric`: every resource it touches, with its
    /// degraded capacity (links, copy ceilings) or derate factor (protocol
    /// CPU, device ports). The one place a fault is validated; both
    /// [`crate::degraded_fabric`] and [`crate::FaultInjector`] consume it.
    /// An IRQ storm lowers to two changes: the node's copy ceiling and its
    /// protocol-CPU budget both keep `1 - intensity`.
    pub fn lower(&self, fabric: &Fabric) -> Result<Vec<CapChange>, FaultError> {
        self.check_range()?;
        Ok(match *self {
            FaultKind::LinkDegrade { from, to, .. } | FaultKind::LinkDown { from, to } => {
                let edge = DirectedEdge::new(NodeId(from), NodeId(to));
                let cap =
                    fabric
                        .edge_cap(edge, TrafficClass::Dma)
                        .ok_or(FaultError::UnknownLink {
                            from: NodeId(from),
                            to: NodeId(to),
                        })?;
                let gbps = match *self {
                    FaultKind::LinkDegrade { factor, .. } => cap * factor,
                    _ => LINK_DOWN_GBPS,
                };
                vec![CapChange::Edge { edge, gbps }]
            }
            FaultKind::IrqStorm { node, intensity } => {
                let (node, nodes, factor) = (NodeId(node), fabric.num_nodes(), 1.0 - intensity);
                if node.index() >= nodes {
                    return Err(FaultError::NodeOutOfRange { node, nodes });
                }
                let gbps = fabric.node_copy_cap(node) * factor;
                vec![
                    CapChange::NodeCopy { node, gbps },
                    CapChange::NodeCpu { node, factor },
                ]
            }
            FaultKind::DeviceStall { device, factor } => {
                if device as usize >= fabric.topology().devices().len() {
                    return Err(FaultError::UnknownDevice { device });
                }
                vec![CapChange::Device { device, factor }]
            }
        })
    }

    /// The machine-free part of validation: a factor in `(0, 1]`, an
    /// intensity in `[0, 1)`.
    fn check_range(&self) -> Result<(), FaultError> {
        match *self {
            FaultKind::LinkDegrade { factor: x, .. } | FaultKind::DeviceStall { factor: x, .. }
                if !(x > 0.0 && x <= 1.0) =>
            {
                Err(FaultError::BadFactor { value: x })
            }
            FaultKind::IrqStorm { intensity: x, .. } if !(0.0..1.0).contains(&x) => {
                Err(FaultError::BadFactor { value: x })
            }
            _ => Ok(()),
        }
    }

    /// Short label for metrics and reports.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::LinkDegrade { .. } => "link_degrade",
            FaultKind::LinkDown { .. } => "link_down",
            FaultKind::IrqStorm { .. } => "irq_storm",
            FaultKind::DeviceStall { .. } => "device_stall",
        }
    }
}

numa_par::json_struct! {
    /// A fault active from `start_s` until `end_s` (forever if `None`).
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct FaultWindow {
        /// Injection time, simulation seconds.
        pub start_s: f64,
        /// Heal time; `None` means the fault never heals.
        #[json(skip_none)]
        pub end_s: Option<f64>,
        /// What breaks.
        #[json(flatten)]
        pub kind: FaultKind,
    }
}

impl FaultWindow {
    /// A fault injected at t=0 that never heals.
    pub fn permanent(kind: FaultKind) -> Self {
        FaultWindow {
            start_s: 0.0,
            end_s: None,
            kind,
        }
    }

    /// A fault active over `[start_s, end_s)`.
    pub fn between(kind: FaultKind, start_s: f64, end_s: f64) -> Self {
        FaultWindow {
            start_s,
            end_s: Some(end_s),
            kind,
        }
    }
}

numa_par::json_struct! {
    /// A seeded, ordered fault timeline.
    #[derive(Debug, Clone, PartialEq)]
    pub struct FaultPlan {
        /// Seed recorded with the plan so reports can name the scenario; the
        /// timeline itself is already fully explicit.
        pub seed: u64,
        /// The faults, in insertion order (ties at equal times keep it).
        pub faults: Vec<FaultWindow>,
    }
}

impl FaultPlan {
    /// An empty plan.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Append a fault window.
    pub fn with(mut self, w: FaultWindow) -> Self {
        self.faults.push(w);
        self
    }

    /// The kinds, without their windows (the static what-if view).
    pub fn kinds(&self) -> Vec<FaultKind> {
        self.faults.iter().map(|w| w.kind).collect()
    }

    /// Structural validation that needs no machine: factors and
    /// intensities in range, windows ordered. Link, node and device
    /// existence is checked against a fabric by [`FaultKind::lower`].
    pub fn validate(&self) -> Result<(), FaultError> {
        if self.faults.is_empty() {
            return Err(FaultError::EmptyPlan);
        }
        for w in &self.faults {
            if !w.start_s.is_finite() || w.start_s < 0.0 {
                return Err(FaultError::BadWindow {
                    start_s: w.start_s,
                    end_s: w.end_s,
                });
            }
            if let Some(end) = w.end_s {
                if !end.is_finite() || end <= w.start_s {
                    return Err(FaultError::BadWindow {
                        start_s: w.start_s,
                        end_s: w.end_s,
                    });
                }
            }
            w.kind.check_range()?;
        }
        Ok(())
    }

    /// Serialize to JSON (the `--faults plan.json` file format).
    pub fn to_json(&self) -> String {
        numa_par::json::to_string_pretty(self)
    }

    /// Parse and structurally validate a JSON plan. Malformed JSON comes
    /// back as [`FaultError::Parse`] with the parser's line/column context.
    pub fn from_json(s: &str) -> Result<Self, FaultError> {
        let plan: FaultPlan =
            numa_par::json::from_str(s).map_err(|e| FaultError::Parse(e.to_string()))?;
        plan.validate()?;
        Ok(plan)
    }

    /// The canonical demo scenario, parameterized by `seed`: a throttle on
    /// the node-6→7 link (the trunk every even-numbered write path shares)
    /// plus an IRQ storm on the device-local node 7. Exact factors and
    /// timings vary deterministically with the seed inside ranges strong
    /// enough to reorder the Table IV classes.
    pub fn demo(seed: u64) -> Self {
        // One well-mixed draw in [0, 1) per salt.
        let unit = |salt: u64| -> f64 {
            let z = mix64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            (z >> 11) as f64 / (1u64 << 53) as f64
        };
        let throttle = 0.20 + 0.10 * unit(1); // keep 20–30% of 6→7
        let intensity = 0.40 + 0.20 * unit(2); // storm eats 40–60% of node 7
        let storm_end = 6.0 + 2.0 * unit(3);
        FaultPlan::new(seed)
            .with(FaultWindow::permanent(FaultKind::LinkDegrade {
                from: 6,
                to: 7,
                factor: throttle,
            }))
            .with(FaultWindow::between(
                FaultKind::IrqStorm { node: 7, intensity },
                0.0,
                storm_end,
            ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degraded_fabric;
    use numa_fabric::calibration::dl585_fabric;

    #[test]
    fn invalid_faults_are_typed_errors_not_panics() {
        let f = dl585_fabric();
        let cases = [
            (
                FaultKind::LinkDown { from: 0, to: 7 },
                FaultError::UnknownLink {
                    from: NodeId(0),
                    to: NodeId(7),
                },
            ),
            (
                FaultKind::IrqStorm {
                    node: 99,
                    intensity: 0.5,
                },
                FaultError::NodeOutOfRange {
                    node: NodeId(99),
                    nodes: 8,
                },
            ),
            (
                FaultKind::LinkDegrade {
                    from: 6,
                    to: 7,
                    factor: 0.0,
                },
                FaultError::BadFactor { value: 0.0 },
            ),
            (
                FaultKind::DeviceStall {
                    device: 9,
                    factor: 0.5,
                },
                FaultError::UnknownDevice { device: 9 },
            ),
            (
                FaultKind::DeviceStall {
                    device: 0,
                    factor: 0.0,
                },
                FaultError::BadFactor { value: 0.0 },
            ),
            (
                FaultKind::DeviceStall {
                    device: 0,
                    factor: 1.5,
                },
                FaultError::BadFactor { value: 1.5 },
            ),
        ];
        for (kind, err) in cases {
            assert_eq!(kind.lower(&f).unwrap_err(), err, "{kind:?}");
            assert_eq!(degraded_fabric(&f, &[kind]).unwrap_err(), err, "{kind:?}");
        }
    }

    #[test]
    fn json_round_trip() {
        let plan = FaultPlan::demo(42);
        let back = FaultPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn malformed_json_is_a_typed_error() {
        let err = FaultPlan::from_json("{ not json").unwrap_err();
        assert!(matches!(err, FaultError::Parse(_)), "{err:?}");
        assert!(err.to_string().contains("fault plan"), "{err}");
    }

    #[test]
    fn wrong_shape_is_a_parse_error() {
        // Valid JSON, wrong schema: unknown kind tag.
        let s = r#"{"seed": 1, "faults": [{"kind": "gremlins", "start_s": 0.0}]}"#;
        assert!(matches!(
            FaultPlan::from_json(s).unwrap_err(),
            FaultError::Parse(_)
        ));
    }

    #[test]
    fn out_of_range_factor_rejected() {
        let plan = FaultPlan::new(0).with(FaultWindow::permanent(FaultKind::LinkDegrade {
            from: 6,
            to: 7,
            factor: 1.5,
        }));
        assert_eq!(
            plan.validate().unwrap_err(),
            FaultError::BadFactor { value: 1.5 }
        );
        let plan = FaultPlan::new(0).with(FaultWindow::permanent(FaultKind::IrqStorm {
            node: 7,
            intensity: 1.0,
        }));
        assert_eq!(
            plan.validate().unwrap_err(),
            FaultError::BadFactor { value: 1.0 }
        );
        let plan = FaultPlan::new(0).with(FaultWindow::permanent(FaultKind::DeviceStall {
            device: 1,
            factor: 0.0,
        }));
        assert_eq!(
            plan.validate().unwrap_err(),
            FaultError::BadFactor { value: 0.0 }
        );
    }

    #[test]
    fn inverted_window_rejected() {
        let plan = FaultPlan::new(0).with(FaultWindow::between(
            FaultKind::LinkDown { from: 6, to: 7 },
            3.0,
            1.0,
        ));
        assert!(matches!(
            plan.validate().unwrap_err(),
            FaultError::BadWindow { .. }
        ));
    }

    #[test]
    fn empty_plan_rejected() {
        assert_eq!(
            FaultPlan::new(7).validate().unwrap_err(),
            FaultError::EmptyPlan
        );
    }

    #[test]
    fn demo_is_seed_deterministic_and_valid() {
        let a = FaultPlan::demo(1234);
        let b = FaultPlan::demo(1234);
        assert_eq!(a, b);
        a.validate().unwrap();
        assert_ne!(a, FaultPlan::demo(1235), "seed perturbs the plan");
        // Shape is fixed: a permanent 6→7 throttle plus a healing storm.
        assert!(matches!(
            a.faults[0].kind,
            FaultKind::LinkDegrade { from: 6, to: 7, .. }
        ));
        assert!(a.faults[0].end_s.is_none());
        assert!(matches!(
            a.faults[1].kind,
            FaultKind::IrqStorm { node: 7, .. }
        ));
        assert!(a.faults[1].end_s.is_some());
    }
}
