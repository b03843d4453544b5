//! Storage-tier characterization: Table IV/V analogues for the SSDs.
//!
//! The paper's methodology characterizes the *path* (per-node memcpy
//! probes, Algorithm 1) and shows the same class structure governs every
//! device protocol. This module closes the loop for storage: it runs the
//! ordinary probe characterization against the SSD attach node, then maps
//! each node's **measured** probe bandwidth through the calibrated SSD
//! rate curves — engine efficiency, O_DIRECT vs buffered, read/write
//! asymmetry, and any active `device_stall` derate — and re-classifies.
//! The result is an [`IoPerfModel`] per (engine × access mode ×
//! direction): the storage rows of Tables IV/V, produced by the same
//! machinery that builds the NIC tables, noise and faults included.

use crate::classify::classify_voiding;
use crate::model::{IoPerfModel, TransferMode};
use crate::modeler::{faulted_neighbours, IoModeler};
use crate::platform::{Platform, PlatformError};
use numa_engine::Summary;
use numa_iodev::{IoEngine, SsdModel};
use numa_topology::NodeId;

/// One storage operating point: I/O engine × access mode. The paper's
/// §IV-B3 grid is sync/libaio × buffered/direct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StorageConfig {
    /// fio I/O engine (sync or libaio with a queue depth).
    pub engine: IoEngine,
    /// Kernel bypass (O_DIRECT) vs page-cache buffered access.
    pub direct: bool,
}

impl StorageConfig {
    /// The paper's measurement configuration: libaio QD16, O_DIRECT.
    pub fn paper() -> Self {
        StorageConfig {
            engine: IoEngine::Libaio { iodepth: 16 },
            direct: true,
        }
    }

    /// The §IV-B3 grid, paper configuration first.
    pub const ALL: [StorageConfig; 4] = [
        StorageConfig {
            engine: IoEngine::Libaio { iodepth: 16 },
            direct: true,
        },
        StorageConfig {
            engine: IoEngine::Libaio { iodepth: 16 },
            direct: false,
        },
        StorageConfig {
            engine: IoEngine::Sync,
            direct: true,
        },
        StorageConfig {
            engine: IoEngine::Sync,
            direct: false,
        },
    ];

    /// Stable textual tag, e.g. `libaio16-direct`, `sync-buffered`. Used
    /// in model labels, cache keys, and the CLI `--device` suffix.
    pub fn tag(&self) -> String {
        let engine = match self.engine {
            IoEngine::Sync => "sync".to_string(),
            IoEngine::Libaio { iodepth } => format!("libaio{iodepth}"),
        };
        let access = if self.direct { "direct" } else { "buffered" };
        format!("{engine}-{access}")
    }

    /// Parse a [`Self::tag`]-shaped string.
    pub fn parse(s: &str) -> Option<Self> {
        let (engine, access) = s.rsplit_once('-')?;
        let direct = match access {
            "direct" => true,
            "buffered" => false,
            _ => return None,
        };
        let engine = if engine == "sync" {
            IoEngine::Sync
        } else {
            let depth = engine.strip_prefix("libaio")?;
            let iodepth: u32 = depth.parse().ok()?;
            if iodepth == 0 {
                return None;
            }
            IoEngine::Libaio { iodepth }
        };
        Some(StorageConfig { engine, direct })
    }
}

/// Which device view a characterization or prediction request addresses.
/// The default [`DeviceSelector::Probe`] is the paper's memcpy model; a
/// storage selector reshapes the same probes through the SSD curves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceSelector {
    /// The raw memcpy path model (Algorithm 1 as-is).
    Probe,
    /// The host's SSD subsystem at one operating point.
    Ssd(StorageConfig),
}

impl DeviceSelector {
    /// Parse a CLI/wire device string: `probe` (or `memcpy`), `ssd0` (the
    /// paper operating point), or `ssd0:<cfg>` with a
    /// [`StorageConfig::tag`] suffix, e.g. `ssd0:sync-buffered`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "probe" | "memcpy" => Some(DeviceSelector::Probe),
            "ssd0" => Some(DeviceSelector::Ssd(StorageConfig::paper())),
            other => {
                let cfg = other.strip_prefix("ssd0:")?;
                Some(DeviceSelector::Ssd(StorageConfig::parse(cfg)?))
            }
        }
    }

    /// Stable textual tag (inverse of [`Self::parse`]).
    pub fn tag(&self) -> String {
        match self {
            DeviceSelector::Probe => "probe".to_string(),
            DeviceSelector::Ssd(cfg) => format!("ssd0:{}", cfg.tag()),
        }
    }
}

/// Everything that can go wrong producing a storage model.
#[derive(Debug, Clone, PartialEq)]
pub enum StorageError {
    /// The backend exposes no fabric (real host, replay fixture): storage
    /// curves hang off the fabric's device list.
    NoFabric {
        /// The backend's label.
        label: String,
    },
    /// The fabric hosts no SSD devices.
    NoSsd {
        /// The backend's label.
        label: String,
    },
    /// The underlying probe characterization failed.
    Probe(PlatformError),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::NoFabric { label } => {
                write!(
                    f,
                    "backend '{label}' exposes no fabric for storage characterization"
                )
            }
            StorageError::NoSsd { label } => {
                write!(f, "backend '{label}' hosts no SSD devices")
            }
            StorageError::Probe(e) => write!(f, "storage probe characterization failed: {e}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Probe(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PlatformError> for StorageError {
    fn from(e: PlatformError) -> Self {
        StorageError::Probe(e)
    }
}

/// Characterize the host's SSD subsystem at one operating point and
/// direction: run the memcpy probe characterization against the SSD
/// attach node, map each node's measured probe bandwidth through the SSD
/// rate curves (engine efficiency × access mode × active device derates),
/// and re-classify with the ordinary gap rule, class-1 rule voided for
/// the same faulted neighbours as the probe model. `Write` models disk
/// writes (data flows into the cards), `Read` models reads back.
pub fn characterize_storage<P: Platform>(
    modeler: &IoModeler,
    platform: &P,
    cfg: StorageConfig,
    mode: TransferMode,
) -> Result<IoPerfModel, StorageError> {
    Ok(storage_models(modeler, platform, &[cfg], &[mode])?.remove(0))
}

/// The full storage atlas: every §IV-B3 operating point
/// ([`StorageConfig::ALL`]) in both directions, write before read —
/// 8 models, deterministic order. The storage counterpart of
/// `IoModeler::characterize_full_host`.
///
/// The SSD attach node is probed once per direction, and that model is
/// mapped through all four operating points. On `sim` and `replay` each
/// model equals the [`characterize_storage`] result for its slot; on a
/// `host` backend the four operating points share one measured sweep per
/// direction.
pub fn characterize_storage_full_host<P: Platform>(
    modeler: &IoModeler,
    platform: &P,
) -> Result<Vec<IoPerfModel>, StorageError> {
    storage_models(modeler, platform, &StorageConfig::ALL, &TransferMode::ALL)
}

/// Probe the SSD attach node once per mode in `modes`, then map each of
/// those models through every config in `cfgs`: config-major, in `modes`
/// order within a config.
fn storage_models<P: Platform>(
    modeler: &IoModeler,
    platform: &P,
    cfgs: &[StorageConfig],
    modes: &[TransferMode],
) -> Result<Vec<IoPerfModel>, StorageError> {
    let fabric = platform.fabric().ok_or_else(|| StorageError::NoFabric {
        label: platform.label(),
    })?;
    let ssd = SsdModel::for_fabric(fabric).ok_or_else(|| StorageError::NoSsd {
        label: platform.label(),
    })?;
    // A stalled card derates the aggregate in proportion: with the dl585's
    // two cards, stalling one at factor f leaves (1 + f) / 2 of the
    // subsystem. This is exactly what the dynamic injector's per-card
    // port throttle costs a card-striped workload in aggregate.
    let derate = ssd
        .device_ids
        .iter()
        .map(|&d| fabric.device_derate(d))
        .sum::<f64>()
        / ssd.device_ids.len().max(1) as f64;
    // Each probe model with the neighbours its class-1 rule voided, which
    // every storage model mapped from it voids too.
    let bases = modes
        .iter()
        .map(|&mode| {
            let base = modeler.try_characterize(platform, ssd.node, mode)?;
            Ok((base, faulted_neighbours(fabric, ssd.node, mode)))
        })
        .collect::<Result<Vec<_>, PlatformError>>()?;

    // Map one probe model through one operating point's SSD curve.
    let map_through = |base: &IoPerfModel, voided: &[NodeId], cfg: StorageConfig, tag: &str| {
        let curve = ssd.level_curve(base.mode == TransferMode::Write, cfg.engine, cfg.direct);
        let level = |path: f64| curve(path) * derate;
        let per_node: Vec<Summary> = base
            .per_node
            .iter()
            .map(|s| {
                let mean = level(s.mean);
                let (a, b) = (level(s.min), level(s.max));
                // The read curve is empirical (wiggles), so re-order the
                // mapped endpoints; preserve the probes' *relative* spread
                // for the std column, since the curves are locally
                // near-linear.
                let rel_std = if s.mean > 0.0 { s.std / s.mean } else { 0.0 };
                Summary {
                    n: s.n,
                    min: a.min(b),
                    max: a.max(b),
                    mean,
                    std: rel_std * mean,
                }
            })
            .collect();
        let means: Vec<f64> = per_node.iter().map(|s| s.mean).collect();
        let classes = classify_voiding(
            fabric.topology(),
            ssd.node,
            &means,
            modeler.classify,
            voided,
        );
        IoPerfModel::new(
            ssd.node,
            base.mode,
            per_node,
            classes,
            [base.platform.as_str(), "/", tag].concat(),
        )
    };
    Ok(cfgs
        .iter()
        .flat_map(|&cfg| {
            let tag = DeviceSelector::Ssd(cfg).tag();
            bases
                .iter()
                .map(move |(base, voided)| map_through(base, voided, cfg, &tag))
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::SimPlatform;

    fn modeler() -> IoModeler {
        IoModeler::new().reps(10)
    }

    #[test]
    fn config_tags_round_trip() {
        for cfg in StorageConfig::ALL {
            assert_eq!(StorageConfig::parse(&cfg.tag()), Some(cfg), "{}", cfg.tag());
        }
        assert_eq!(
            StorageConfig::parse("libaio4-buffered").unwrap().engine,
            IoEngine::Libaio { iodepth: 4 }
        );
        assert_eq!(StorageConfig::parse("gremlins"), None);
        assert_eq!(StorageConfig::parse("libaio0-direct"), None);
        assert_eq!(StorageConfig::parse("sync-sideways"), None);
    }

    #[test]
    fn device_selector_parses_cli_strings() {
        assert_eq!(DeviceSelector::parse("probe"), Some(DeviceSelector::Probe));
        assert_eq!(DeviceSelector::parse("memcpy"), Some(DeviceSelector::Probe));
        assert_eq!(
            DeviceSelector::parse("ssd0"),
            Some(DeviceSelector::Ssd(StorageConfig::paper()))
        );
        let sel = DeviceSelector::parse("ssd0:sync-buffered").unwrap();
        assert_eq!(
            sel,
            DeviceSelector::Ssd(StorageConfig {
                engine: IoEngine::Sync,
                direct: false
            })
        );
        assert_eq!(
            DeviceSelector::parse(&sel.tag()),
            Some(sel),
            "tag round-trips"
        );
        assert_eq!(DeviceSelector::parse("ssd1"), None);
        assert_eq!(DeviceSelector::parse("ssd0:warp9"), None);
    }

    #[test]
    fn storage_write_classes_reproduce_table_iv_partition() {
        let sim = SimPlatform::dl585();
        let model = characterize_storage(
            &modeler(),
            &sim,
            StorageConfig::paper(),
            TransferMode::Write,
        )
        .unwrap();
        assert_eq!(model.target, NodeId(7), "SSDs attach to node 7");
        let classes: Vec<Vec<u16>> = model
            .classes()
            .iter()
            .map(|c| c.nodes.iter().map(|n| n.0).collect())
            .collect();
        assert_eq!(classes, vec![vec![6, 7], vec![0, 1, 4, 5], vec![2, 3]]);
        // Levels sit on the Table IV SSD row.
        assert!(
            (model.node_gbps(NodeId(7)) - 29.1).abs() < 0.5,
            "{}",
            model.node_gbps(NodeId(7))
        );
        assert!(
            (model.node_gbps(NodeId(3)) - 17.9).abs() < 0.5,
            "{}",
            model.node_gbps(NodeId(3))
        );
    }

    #[test]
    fn storage_read_puts_node4_at_the_bottom() {
        // Table V: the read response path to node 4 crosses the narrow
        // 27.9 Gbps link, so node 4 is the bottom class alone.
        let sim = SimPlatform::dl585();
        let model =
            characterize_storage(&modeler(), &sim, StorageConfig::paper(), TransferMode::Read)
                .unwrap();
        let last = model.classes().last().unwrap();
        assert_eq!(last.nodes, vec![NodeId(4)]);
        assert!((model.node_gbps(NodeId(4)) - 18.5).abs() < 0.5);
    }

    #[test]
    fn engine_and_access_mode_scale_whole_tables() {
        let sim = SimPlatform::dl585();
        let m = modeler();
        let fast =
            characterize_storage(&m, &sim, StorageConfig::paper(), TransferMode::Read).unwrap();
        let sync_buffered = characterize_storage(
            &m,
            &sim,
            StorageConfig {
                engine: IoEngine::Sync,
                direct: false,
            },
            TransferMode::Read,
        )
        .unwrap();
        for n in 0..8u16 {
            let ratio = sync_buffered.node_gbps(NodeId(n)) / fast.node_gbps(NodeId(n));
            // sync ≈ QD1 ramp × buffered 0.45.
            let want = IoEngine::Sync.efficiency() * 0.45;
            assert!((ratio - want).abs() < 1e-9, "node {n}: {ratio} vs {want}");
        }
    }

    #[test]
    fn device_stall_derates_the_storage_tables() {
        let sim = SimPlatform::dl585();
        let m = modeler();
        let base =
            characterize_storage(&m, &sim, StorageConfig::paper(), TransferMode::Write).unwrap();
        // Stall card 1 (topology device 1) at 50%: the two-card aggregate
        // keeps (1 + 0.5) / 2 = 75%.
        let stall = numa_fabric::CapChange::Device {
            device: 1,
            factor: 0.5,
        };
        let mut stalled = SimPlatform::new(sim.fabric().with(stall).unwrap());
        stalled.noise = sim.noise;
        stalled.seed = sim.seed;
        let faulted =
            characterize_storage(&m, &stalled, StorageConfig::paper(), TransferMode::Write)
                .unwrap();
        for n in 0..8u16 {
            let ratio = faulted.node_gbps(NodeId(n)) / base.node_gbps(NodeId(n));
            assert!((ratio - 0.75).abs() < 1e-9, "node {n}: {ratio}");
        }
    }

    #[test]
    fn storage_characterization_is_seed_deterministic() {
        let sim = SimPlatform::dl585();
        let m = modeler();
        let a = characterize_storage_full_host(&m, &sim).unwrap();
        let b = characterize_storage_full_host(&m, &sim).unwrap();
        assert_eq!(a.len(), 8, "4 configs x 2 directions");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                numa_par::json::to_string(x),
                numa_par::json::to_string(y),
                "bit-identical reruns"
            );
        }
    }

    #[test]
    fn fabric_less_backends_are_typed_errors() {
        let host = crate::HostPlatform::with_shape(8, 4);
        let err = characterize_storage(
            &modeler(),
            &host,
            StorageConfig::paper(),
            TransferMode::Write,
        )
        .unwrap_err();
        assert_eq!(
            err,
            StorageError::NoFabric {
                label: "host:8-nodes".to_string()
            }
        );
        assert!(err.to_string().contains("no fabric"), "{err}");
    }

    #[test]
    fn fabric_without_ssds_is_a_typed_error() {
        use numa_fabric::calibration::generic_fabric;
        let bare = SimPlatform::new(generic_fabric(numa_topology::presets::fig1a()));
        let err = characterize_storage(
            &modeler(),
            &bare,
            StorageConfig::paper(),
            TransferMode::Write,
        )
        .unwrap_err();
        assert!(matches!(err, StorageError::NoSsd { .. }), "{err:?}");
    }
}
