//! Real-host measurement: `host` (a live characterization), `probe`
//! (one raw memcpy probe for `numactl` scripting), `emit-script`, and
//! `import` (CSV -> model).

use crate::opts::Opts;
use numa_topology::{presets, NodeId};
use numio_core::{render_model, HostPlatform, IoModeler, Platform, TransferMode};
use std::fmt::Write as _;

pub(crate) fn cmd_host(opts: &Opts) -> Result<String, String> {
    let nodes: usize = opts.num("nodes", 4)?;
    let reps: u32 = opts.num("reps", 5)?;
    let platform = HostPlatform::new(nodes);
    let topo = match nodes {
        8 => presets::amd_4s8n(),
        4 => presets::intel_4s4n(),
        n => {
            return Err(format!(
                "--nodes must be 4 or 8 for the built-in topologies, got {n}"
            ))
        }
    };
    let modeler = IoModeler {
        reps,
        bytes_per_thread: 16 << 20,
        threads: Some(platform.cores_per_node(NodeId(0))),
        ..IoModeler::new()
    };
    let model = modeler
        .try_characterize_with_topo(&platform, &topo, NodeId(0), TransferMode::Write)
        .map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "real-host memcpy probe (no pinning; run under numactl on a NUMA box):"
    );
    out.push_str(&render_model(&model));
    Ok(out)
}

/// One raw memcpy probe, intended to run under `numactl` on a real NUMA
/// host (see `emit-script`). Prints a CSV line: `node,gbps` per repetition.
pub(crate) fn cmd_probe(opts: &Opts) -> Result<String, String> {
    let node: u16 = opts.num("node", 0)?;
    let threads: u32 = opts.num("threads", 4)?;
    let reps: u32 = opts.num("reps", 20)?;
    let mib: u64 = opts.num("mib", 64)?;
    let platform = HostPlatform::with_shape(1, threads);
    let samples = platform
        .try_run_copy(&numio_core::CopySpec {
            bind: NodeId(0),
            src: NodeId(0),
            dst: NodeId(0),
            threads,
            bytes_per_thread: mib << 20,
            reps,
        })
        .map_err(|e| e.to_string())?;
    let mut out = String::new();
    for s in samples {
        let _ = writeln!(out, "{node},{s:.4}");
    }
    Ok(out)
}

/// Emit a shell script that reproduces Algorithm 1 on a real NUMA host by
/// wrapping `iomodel probe` in `numactl`. Single `--membind` per probe is
/// the standard approximation without libnuma: it measures the node-i <->
/// node-k path component (both buffers on i, copiers on k). Collect the
/// CSV and feed it back through `iomodel import`.
pub(crate) fn cmd_emit_script(opts: &Opts) -> Result<String, String> {
    let target = opts.node("target", 7)?;
    let nodes: usize = opts.num("nodes", 8)?;
    let reps: u32 = opts.num("reps", 20)?;
    let mut out = String::new();
    let _ = writeln!(out, "#!/bin/sh");
    let _ = writeln!(
        out,
        "# Algorithm 1 probes for target node {target} on a real NUMA host."
    );
    let _ = writeln!(out, "# Requires numactl and the iomodel binary on PATH.");
    let _ = writeln!(out, "set -e");
    let _ = writeln!(out, "OUT=iomodel_probes.csv");
    let _ = writeln!(out, ": > \"$OUT\"");
    for i in 0..nodes {
        let _ = writeln!(
            out,
            "numactl --cpunodebind={target} --membind={i} \\\n  iomodel probe --node {i} --reps {reps} >> \"$OUT\""
        );
    }
    let _ = writeln!(
        out,
        "echo \"done; build the model with: iomodel import --csv $OUT --target {target} --mode write\""
    );
    Ok(out)
}

/// Build a performance model from probe CSV (`node,gbps` lines, multiple
/// samples per node) and print/persist it.
pub(crate) fn cmd_import(opts: &Opts) -> Result<String, String> {
    let path = opts.get("csv").ok_or("--csv <file> required")?;
    let target = opts.node("target", 7)?;
    let mode = opts.mode()?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let topo = presets::dl585_testbed();
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); topo.num_nodes()];
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (n, v) = line
            .split_once(',')
            .ok_or_else(|| format!("{path}:{}: expected node,gbps", lineno + 1))?;
        let n: usize = n
            .trim()
            .parse()
            .map_err(|_| format!("{path}:{}: bad node", lineno + 1))?;
        let v: f64 = v
            .trim()
            .parse()
            .map_err(|_| format!("{path}:{}: bad gbps", lineno + 1))?;
        if !(v.is_finite() && v >= 0.0) {
            return Err(format!(
                "{path}:{}: gbps sample {v} is not a finite, non-negative number",
                lineno + 1
            ));
        }
        if n >= samples.len() {
            return Err(format!("{path}:{}: node {n} out of range", lineno + 1));
        }
        samples[n].push(v);
    }
    if samples.iter().any(|s| s.is_empty()) {
        let missing: Vec<usize> = samples
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_empty())
            .map(|(i, _)| i)
            .collect();
        return Err(format!("no samples for nodes {missing:?}"));
    }
    let per_node = numa_engine::Summary::from_rows(&samples);
    let means: Vec<f64> = per_node.iter().map(|s| s.mean).collect();
    let classes =
        numio_core::classify(&topo, target, &means, numio_core::ClassifyParams::default());
    let model =
        numio_core::IoPerfModel::new(target, mode, per_node, classes, format!("imported:{path}"));
    if opts.flag("json") {
        Ok(model.to_json())
    } else {
        Ok(render_model(&model))
    }
}
