//! `predict` (Eq. 1 aggregate prediction vs measurement) and `advise`
//! (model-driven placement advice).

use crate::backend;
use crate::opts::Opts;
use numa_topology::NodeId;
use numio_core::{IoModeler, Platform, ScheduleAdvisor, TransferMode};
use std::fmt::Write as _;

pub(crate) fn cmd_predict(opts: &Opts) -> Result<String, String> {
    let target = opts.node("target", 7)?;
    let op = opts.nic_op()?;
    let mix_str = opts
        .get("mix")
        .ok_or("--mix node:count,node:count required")?;
    let mut mix: Vec<(NodeId, u32)> = Vec::new();
    for part in mix_str.split(',') {
        let (n, c) = part
            .split_once(':')
            .ok_or_else(|| format!("bad mix entry '{part}' (want node:count)"))?;
        let node: u16 = n.parse().map_err(|_| format!("bad node '{n}'"))?;
        let count: u32 = c
            .parse()
            .ok()
            .filter(|&c| c > 0)
            .ok_or_else(|| format!("bad count '{c}'"))?;
        mix.push((NodeId(node), count));
    }

    let platform = backend::platform_for(opts)?;
    let nodes = platform.num_nodes();
    if let Some((node, _)) = mix.iter().find(|(node, _)| node.index() >= nodes) {
        return Err(format!(
            "--mix node {node} is out of range: the platform has {nodes} nodes"
        ));
    }
    let mode = if op.to_device() {
        TransferMode::Write
    } else {
        TransferMode::Read
    };
    let model = IoModeler::new()
        .try_characterize(&platform, target, mode)
        .map_err(|e| e.to_string())?;
    let fabric = backend::fabric_of(opts, &platform)?;
    let check =
        numio_core::check_mix(&fabric, &model, op, &mix, 50.0).map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(out, "workload: {op:?} mix {mix_str} against node {target}");
    for (i, t) in check.terms.iter().enumerate() {
        let (node, count, class, bw, share) = (t.node, t.count, t.class + 1, t.gbps, t.share);
        let _ = writeln!(
            out,
            "  term {i}: node {node} x{count} -> class {class} @ {bw:.3} Gbps, share {share:.2}"
        );
    }
    let _ = writeln!(out, "predicted (Eq.1): {:.3} Gbps", check.predicted);
    let _ = writeln!(out, "measured  (sim) : {:.3} Gbps", check.measured);
    let _ = writeln!(out, "relative error  : {:.1}%", check.error() * 100.0);
    Ok(out)
}

pub(crate) fn cmd_advise(opts: &Opts) -> Result<String, String> {
    let target = opts.node("target", 7)?;
    let tasks: usize = opts.num("tasks", 8)?;
    let tolerance: f64 = opts.num("tolerance", 0.15)?;
    let mode = opts.mode()?;
    let platform = backend::platform_for(opts)?;
    let model = IoModeler::new()
        .try_characterize(&platform, target, mode)
        .map_err(|e| e.to_string())?;
    let advisor = ScheduleAdvisor {
        equivalence_tolerance: tolerance,
        avoid_irq_node: true,
    };
    let placement = advisor.place(&model, tasks);
    let naive = advisor.naive_local(&model, tasks);
    let mut out = String::new();
    let _ = writeln!(out, "model classes:");
    for (i, c) in model.classes().iter().enumerate() {
        let nodes: Vec<String> = c.nodes.iter().map(|n| n.to_string()).collect();
        let _ = writeln!(
            out,
            "  class {}: {{{}}} avg {:.1}",
            i + 1,
            nodes.join(","),
            c.avg_gbps
        );
    }
    let _ = writeln!(out, "eligible nodes: {:?}", advisor.eligible_nodes(&model));
    let _ = writeln!(
        out,
        "advised placement ({tasks} tasks): {:?}",
        placement.histogram()
    );
    let _ = writeln!(
        out,
        "naive local placement:             {:?}",
        naive.histogram()
    );
    let _ = writeln!(
        out,
        "max per-node load: advised {} vs naive {}",
        placement.max_load(),
        naive.max_load()
    );
    Ok(out)
}
