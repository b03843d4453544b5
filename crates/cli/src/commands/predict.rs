//! `predict` (Eq. 1 aggregate prediction vs measurement) and `advise`
//! (model-driven placement advice).

use crate::backend;
use crate::opts::Opts;
use numa_fio::JobSpec;
use numa_iodev::NicModel;
use numa_topology::NodeId;
use numio_core::{predict_aggregate, IoModeler, Platform, ScheduleAdvisor, TransferMode};
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
    if mix.is_empty() {
        return Err("--mix must contain at least one node:count".into());
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
    let nic = NicModel::paper();
    let total: u32 = mix.iter().map(|(_, c)| *c).sum();
    let terms: Vec<(f64, f64)> = mix
        .iter()
        .map(|&(node, count)| {
            let class = &model.classes()[model.class_of(node)];
            (
                nic.map(op).eval(class.avg_gbps),
                count as f64 / total as f64,
            )
        })
        .collect();
    let predicted = predict_aggregate(&terms);

    let jobs: Vec<JobSpec> = mix
        .iter()
        .map(|&(node, count)| JobSpec::nic(op, node).numjobs(count).size_gbytes(50.0))
        .collect();
    let fabric = backend::fabric_of(&platform)?;
    let measured = numa_fio::run_jobs(&fabric, &jobs)
        .map_err(|e| e.to_string())?
        .aggregate_gbps;
    let err = numio_core::relative_error(predicted, measured);
    let mut out = String::new();
    let _ = writeln!(out, "workload: {op:?} mix {mix_str} against node {target}");
    for (i, ((bw, share), (node, count))) in terms.iter().zip(&mix).enumerate() {
        let _ = writeln!(
            out,
            "  term {i}: node {node} x{count} -> class {} @ {bw:.3} Gbps, share {share:.2}",
            model.class_of(*node) + 1
        );
    }
    let _ = writeln!(out, "predicted (Eq.1): {predicted:.3} Gbps");
    let _ = writeln!(out, "measured  (sim) : {measured:.3} Gbps");
    let _ = writeln!(out, "relative error  : {:.1}%", err * 100.0);
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
