//! `topo` and `sysfs`: structural machine description.

use crate::opts::Opts;
use numa_topology::{distance, render};
use std::fmt::Write as _;

pub(crate) fn cmd_topo(opts: &Opts) -> Result<String, String> {
    let topo = opts.preset()?;
    let mut out = String::new();
    if opts.flag("dot") {
        out.push_str(&render::render_dot(&topo));
        return Ok(out);
    }
    out.push_str(&render::render_tree(&topo));
    out.push_str("\nhop distances:\n");
    out.push_str(&render::render_matrix(
        "from",
        "to",
        &distance::hop_matrix(&topo),
    ));
    out.push_str("\nSLIT (ideal):\n");
    out.push_str(&render::render_matrix(
        "from",
        "to",
        &distance::slit_matrix(&topo),
    ));
    Ok(out)
}

/// Discover the machine from a Linux sysfs node directory (default
/// `/sys/devices/system/node`) — the hwloc role, honest about the SLIT's
/// limits.
pub(crate) fn cmd_sysfs(opts: &Opts) -> Result<String, String> {
    let root = opts.get("root").unwrap_or("/sys/devices/system/node");
    let d = numa_topology::sysfs::discover_from_root(std::path::Path::new(root), &[])
        .map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(out, "discovered from {root}:");
    out.push_str(&render::render_tree(&d.topology));
    let _ = writeln!(out, "\nfirmware SLIT:");
    out.push_str(&render::render_matrix("from", "to", &d.slit));
    if d.slit_was_flat {
        let _ = writeln!(
            out,
            "\nWARNING: flat SLIT — firmware reports one distance for every\n\
             remote node (the 'often inaccurate' case, ref [18]); the link\n\
             graph below is a full mesh because nothing better is knowable.\n\
             Run the memcpy methodology to recover the real structure."
        );
    } else {
        let _ = writeln!(
            out,
            "\nnote: links are SLIT-tier approximations; real wiring is not\n\
             exposed by sysfs (the paper's hwloc observation, §II-B)."
        );
    }
    Ok(out)
}
