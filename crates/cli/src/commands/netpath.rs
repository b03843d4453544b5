//! `netpath`: end-to-end two-host NIC path bandwidth matrix.

use crate::backend;
use crate::opts::Opts;
use std::fmt::Write as _;

pub(crate) fn cmd_netpath(opts: &Opts) -> Result<String, String> {
    let op = opts.nic_op()?;
    let rtt: f64 = opts.num("rtt", 0.005)?;
    let local = backend::fabric_for(opts)?;
    let remote = local.clone();
    let mut path = numa_iodev::TwoHostPath::paper();
    path.rtt_ms = rtt;
    let m = path.matrix(op, &local, &remote);
    let mut out = format!("end-to-end {op:?} between two testbed hosts (RTT {rtt} ms), Gbit/s:\n");
    let _ = write!(out, "{:>8}", "tx\\rx");
    for r in 0..8 {
        let _ = write!(out, "{r:>8}");
    }
    let _ = writeln!(out);
    for (l, row) in m.iter().enumerate() {
        let _ = write!(out, "{l:>8}");
        for v in row {
            let _ = write!(out, "{v:>8.2}");
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(out, "window/RTT cap: {:.2} Gbit/s", path.window_cap_gbps());
    Ok(out)
}
