//! `diff`: drift detection between two persisted models.

use crate::opts::Opts;
use std::fmt::Write as _;

pub(crate) fn cmd_diff(opts: &Opts) -> Result<String, String> {
    let a = opts.get("old").ok_or("--old <model.json> required")?;
    let b = opts.get("new").ok_or("--new <model.json> required")?;
    let tolerance: f64 = opts.num("tolerance", 0.05)?;
    let read = |p: &str| -> Result<numio_core::IoPerfModel, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        numio_core::IoPerfModel::from_json(&text).map_err(|e| format!("{p}: {e}"))
    };
    let old = read(a)?;
    let new = read(b)?;
    let d = numio_core::diff_models(&old, &new).map_err(|e| e.to_string())?;
    let mut out = d.render();
    let _ = writeln!(
        out,
        "verdict: {}",
        if d.is_stable(tolerance) {
            "STABLE (model still valid)"
        } else {
            "DRIFTED (re-characterize)"
        }
    );
    Ok(out)
}
