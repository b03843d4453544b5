//! The characterization family: `characterize`, `classes`, `atlas`, and
//! the fixture-producing `record`. All run over the backend selected by
//! the global `--backend` flag.

use crate::backend;
use crate::opts::Opts;
use numa_iodev::{NicModel, NicOp};
use numa_topology::NodeId;
use numio_core::{
    backend::RecordingPlatform, characterize_storage, render_comparison_table, render_model,
    DeviceSelector, IoModeler, Platform, PlatformError, StorageConfig, TransferMode,
};
use std::fmt::Write as _;

pub(crate) fn cmd_characterize(opts: &Opts, obs: &numa_obs::Obs) -> Result<String, String> {
    let target = opts.node("target", 7)?;
    let reps: u32 = opts.num("reps", 100)?;
    let mode = opts.mode()?;
    let platform = backend::platform_for(opts)?.with_obs(obs.clone());
    if let DeviceSelector::Ssd(cfg) = opts.device()? {
        return characterize_ssd(opts, &platform, cfg, mode, reps);
    }
    let topo = Platform::topology(&platform).ok_or_else(|| {
        PlatformError::NoTopology {
            label: platform.label(),
        }
        .to_string()
    })?;
    let modeler = IoModeler::new().reps(reps);
    let model = modeler
        .try_characterize_observed(&platform, topo, target, mode, obs)
        .map_err(|e| e.to_string())?;
    if opts.flag("check") {
        // Re-run and require a bit-identical model: the replay-smoke gate
        // (and a determinism check for the seeded simulator).
        let again = modeler
            .try_characterize_with_topo(&platform, topo, target, mode)
            .map_err(|e| e.to_string())?;
        if again != model {
            return Err(format!(
                "characterization over backend '{}' is not reproducible",
                platform.label()
            ));
        }
        let mut out = format!(
            "characterize check OK: backend {}, target {target}, {} classes, two runs bit-identical\n",
            platform.label(),
            model.classes().len()
        );
        if mode == TransferMode::Write
            && target == NodeId(7)
            && platform.label().ends_with("dl585-g7")
        {
            let partition: Vec<Vec<u16>> = model
                .classes()
                .iter()
                .map(|c| c.nodes.iter().map(|n| n.0).collect())
                .collect();
            let want: Vec<Vec<u16>> = vec![vec![6, 7], vec![0, 1, 4, 5], vec![2, 3]];
            if partition != want {
                return Err(format!(
                    "class partition {partition:?} does not match Table IV {want:?}"
                ));
            }
            out.push_str("class partition matches Table IV: {6,7} > {0,1,4,5} > {2,3}\n");
        }
        return Ok(out);
    }
    if opts.flag("json") {
        Ok(model.to_json())
    } else {
        Ok(render_model(&model))
    }
}

/// The storage-tier arm of `characterize`: the same memcpy probes mapped
/// through the calibrated SSD curves (Table IV/V analogues). The target
/// node is fixed by the SSD cards' attach point, so `--target` is ignored.
fn characterize_ssd<P: Platform>(
    opts: &Opts,
    platform: &P,
    cfg: StorageConfig,
    mode: TransferMode,
    reps: u32,
) -> Result<String, String> {
    let modeler = IoModeler::new().reps(reps);
    let model = characterize_storage(&modeler, platform, cfg, mode).map_err(|e| e.to_string())?;
    if opts.flag("check") {
        let again =
            characterize_storage(&modeler, platform, cfg, mode).map_err(|e| e.to_string())?;
        if again != model {
            return Err(format!(
                "storage characterization over backend '{}' is not reproducible",
                platform.label()
            ));
        }
        let mut out = format!(
            "characterize check OK: backend {}, device ssd0:{}, {} classes, two runs bit-identical\n",
            platform.label(),
            cfg.tag(),
            model.classes().len()
        );
        if mode == TransferMode::Write && platform.label().ends_with("dl585-g7") {
            let partition: Vec<Vec<u16>> = model
                .classes()
                .iter()
                .map(|c| c.nodes.iter().map(|n| n.0).collect())
                .collect();
            let want: Vec<Vec<u16>> = vec![vec![6, 7], vec![0, 1, 4, 5], vec![2, 3]];
            if partition != want {
                return Err(format!(
                    "storage class partition {partition:?} does not match the Table IV analogue {want:?}"
                ));
            }
            out.push_str(
                "storage class partition matches the Table IV analogue: {6,7} > {0,1,4,5} > {2,3}\n",
            );
        }
        return Ok(out);
    }
    if opts.flag("json") {
        Ok(model.to_json())
    } else {
        Ok(render_model(&model))
    }
}

/// Capture every probe a characterization makes into a JSONL fixture that
/// `--backend replay:<file>` can re-execute bit-identically. Records the
/// full-host atlas by default; `--target`/`--mode` narrow it to one model.
pub(crate) fn cmd_record(opts: &Opts, obs: &numa_obs::Obs) -> Result<String, String> {
    let out_path = opts.get("out").ok_or("--out <fixture.jsonl> required")?;
    let reps: u32 = opts.num("reps", 100)?;
    let inner = backend::platform_for(opts)?;
    let rec = RecordingPlatform::new(inner).with_obs(obs.clone());
    let modeler = IoModeler::new().reps(reps);
    let models = if opts.get("target").is_some() || opts.get("mode").is_some() {
        let target = opts.node("target", 7)?;
        let mode = opts.mode()?;
        vec![modeler
            .try_characterize(&rec, target, mode)
            .map_err(|e| e.to_string())?]
    } else {
        modeler.characterize_full_host(&rec)
    };
    let fixture = rec.fixture();
    fixture.write_to(out_path).map_err(|e| e.to_string())?;
    Ok(format!(
        "recorded {} probes ({} models) from backend '{}' into {out_path}\n",
        fixture.probes.len(),
        models.len(),
        fixture.header.platform,
    ))
}

pub(crate) fn cmd_classes(opts: &Opts) -> Result<String, String> {
    let target = opts.node("target", 7)?;
    let platform = backend::platform_for(opts)?;
    let fabric = backend::fabric_of(opts, &platform)?;
    let nic = NicModel::paper();
    let ssd = numa_iodev::SsdModel::paper();
    let mut out = String::new();
    for mode in TransferMode::ALL {
        let model = IoModeler::new()
            .try_characterize(&platform, target, mode)
            .map_err(|e| e.to_string())?;
        let (label, ops): (&str, Vec<(&str, Vec<f64>)>) = match mode {
            TransferMode::Write => (
                "DEVICE WRITE model (Table IV)",
                vec![
                    ("memcpy", model.means()),
                    (
                        "TCP sender",
                        (0..8)
                            .map(|n| nic.node_ceiling(NicOp::TcpSend, &fabric, NodeId(n)))
                            .collect(),
                    ),
                    (
                        "RDMA_WRITE",
                        (0..8)
                            .map(|n| nic.node_ceiling(NicOp::RdmaWrite, &fabric, NodeId(n)))
                            .collect(),
                    ),
                    (
                        "SSD write",
                        (0..8)
                            .map(|n| ssd.node_ceiling(true, &fabric, NodeId(n)))
                            .collect(),
                    ),
                ],
            ),
            TransferMode::Read => (
                "DEVICE READ model (Table V)",
                vec![
                    ("memcpy", model.means()),
                    (
                        "TCP receiver",
                        (0..8)
                            .map(|n| nic.node_ceiling(NicOp::TcpRecv, &fabric, NodeId(n)))
                            .collect(),
                    ),
                    (
                        "RDMA_READ",
                        (0..8)
                            .map(|n| nic.node_ceiling(NicOp::RdmaRead, &fabric, NodeId(n)))
                            .collect(),
                    ),
                    (
                        "SSD read",
                        (0..8)
                            .map(|n| ssd.node_ceiling(false, &fabric, NodeId(n)))
                            .collect(),
                    ),
                ],
            ),
        };
        let _ = writeln!(out, "== {label} ==");
        out.push_str(&render_comparison_table(&model, &ops));
        out.push('\n');
    }
    Ok(out)
}

/// Characterize every node of the backend as a hypothetical device site
/// (both directions) — the full-host atlas.
pub(crate) fn cmd_atlas(opts: &Opts) -> Result<String, String> {
    let reps: u32 = opts.num("reps", 20)?;
    let platform = backend::platform_for(opts)?;
    if opts.flag("json") {
        let atlas = numio_core::Atlas::characterize(&platform, &IoModeler::new().reps(reps))
            .map_err(|e| e.to_string())?;
        return Ok(atlas.to_json());
    }
    let atlas = IoModeler::new()
        .reps(reps)
        .characterize_full_host(&platform);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "full-host atlas: {} models ({} nodes x write/read)\n",
        atlas.len(),
        platform.num_nodes()
    );
    for model in &atlas {
        let dir = match model.mode {
            TransferMode::Write => "write",
            TransferMode::Read => "read ",
        };
        let classes: Vec<String> = model
            .classes()
            .iter()
            .map(|c| {
                format!(
                    "{{{}}}@{:.1}",
                    c.nodes
                        .iter()
                        .map(|n| n.to_string())
                        .collect::<Vec<_>>()
                        .join(","),
                    c.avg_gbps
                )
            })
            .collect();
        let _ = writeln!(out, "node {} {dir}: {}", model.target, classes.join(" > "));
    }
    Ok(out)
}
