//! Memory-subsystem demonstrations: `stream`, `numastat`, `numademo`,
//! `latency`.

use crate::backend;
use crate::opts::Opts;
use numa_fio::memsys::{MemPolicy, MemoryState, StreamBench};
use numa_topology::{presets, render, NodeId};
use std::fmt::Write as _;

pub(crate) fn cmd_stream(opts: &Opts) -> Result<String, String> {
    let target = opts.node("target", 7)?;
    let fabric = backend::fabric_for(opts)?;
    let bench = StreamBench::paper();
    let mut out = String::new();
    let _ = writeln!(out, "STREAM Copy, 4 threads, max of 100 runs (Gbit/s):");
    out.push_str(&render::render_bw_matrix(
        "cpu",
        "mem",
        &bench.matrix(&fabric),
    ));
    let _ = writeln!(
        out,
        "\nCPU-centric model of node {target} (threads on {target}):"
    );
    for (i, v) in bench.cpu_centric(&fabric, target).iter().enumerate() {
        let _ = writeln!(out, "  mem {i}: {v:.2}");
    }
    let _ = writeln!(
        out,
        "\nMemory-centric model of node {target} (data on {target}):"
    );
    for (i, v) in bench.mem_centric(&fabric, target).iter().enumerate() {
        let _ = writeln!(out, "  cpu {i}: {v:.2}");
    }
    Ok(out)
}

pub(crate) fn cmd_numastat(_opts: &Opts) -> Result<String, String> {
    let topo = presets::dl585_testbed();
    let mut mem = MemoryState::dl585_idle(&topo);
    // Reproduce the paper's §IV-A demonstration: an idle system already
    // shows node 0 drained, then a local-preferred allocation spills.
    let mut out = String::new();
    out.push_str("numactl --hardware (idle system):\n");
    out.push_str(&mem.render_hardware());
    let _ = mem
        .allocate(NodeId(0), &MemPolicy::LocalPreferred, 2000)
        .map_err(|e| e.to_string())?;
    out.push_str("\nafter a 2000 MiB local-preferred allocation on node 0:\n");
    out.push_str(&mem.render_hardware());
    out.push_str("\nnumastat:\n");
    out.push_str(&mem.stats().render());
    Ok(out)
}

pub(crate) fn cmd_numademo(opts: &Opts) -> Result<String, String> {
    let cpu = opts.node("cpu", 0)?;
    let remote = opts.node("remote", 7)?;
    let fabric = backend::fabric_for(opts)?;
    let results = numa_fio::memsys::numademo::run_all(&fabric, cpu, remote);
    let mut out =
        format!("numademo work-alike: threads on node {cpu}, remote = node {remote} (Gbit/s)\n");
    out.push_str(&numa_fio::memsys::numademo::render(&results));
    Ok(out)
}

pub(crate) fn cmd_latency(opts: &Opts) -> Result<String, String> {
    let cpu = opts.node("cpu", 0)?;
    let topo = presets::dl585_testbed();
    let bench = numa_fio::memsys::LatencyBench::paper();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "pointer-chase latency staircase (lat_mem_rd style), threads on node {cpu}:"
    );
    let _ = writeln!(
        out,
        "{:>12} {:>12} {:>12} {:>12}",
        "working set", "local", "neighbour", "remote(n4)"
    );
    let neighbour = NodeId(cpu.0 ^ 1);
    for point in bench.curve(&topo, cpu, cpu, 256 << 20) {
        let nb = bench.latency_ns(&topo, cpu, neighbour, point.bytes);
        let far = bench.latency_ns(&topo, cpu, NodeId(4), point.bytes);
        let label = if point.bytes >= 1 << 20 {
            format!("{} MiB", point.bytes >> 20)
        } else {
            format!("{} KiB", point.bytes >> 10)
        };
        let _ = writeln!(
            out,
            "{label:>12} {:>10.1}ns {nb:>10.1}ns {far:>10.1}ns",
            point.ns
        );
    }
    let _ = writeln!(
        out,
        "
measured NUMA factor (DRAM plateaus): {:.2} (Table I row 2: 2.7)",
        bench.measured_numa_factor(&topo)
    );
    Ok(out)
}
