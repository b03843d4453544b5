//! The one backend-construction helper every subcommand shares: resolves
//! the global `--backend sim|host|host:<n>|replay:<file>` flag (and, for
//! the simulator, `--fabric dl585|split`) into an
//! [`AnyPlatform`].

use crate::opts::Opts;
use numa_fabric::Fabric;
use numio_core::backend::AnyPlatform;
use numio_core::{Platform, SimPlatform};

/// Which measurement backend a command runs against.
pub(crate) fn platform_for(opts: &Opts) -> Result<AnyPlatform, String> {
    match opts.get("backend").unwrap_or("sim") {
        "sim" => Ok(AnyPlatform::Sim(sim_platform_for(opts)?)),
        spec => AnyPlatform::from_spec(spec).map_err(|e| e.to_string()),
    }
}

/// Which calibrated simulated machine `--fabric` selects.
pub(crate) fn sim_platform_for(opts: &Opts) -> Result<SimPlatform, String> {
    match opts.get("fabric").unwrap_or("dl585") {
        "dl585" => Ok(SimPlatform::dl585()),
        "split" => Ok(SimPlatform::new(
            numa_fabric::calibration::dl585_split_io_fabric(),
        )),
        other => Err(format!("--fabric must be dl585|split, got '{other}'")),
    }
}

/// The backend's simulator fabric, for commands that run jobs or episodes
/// rather than probes. Fabric-less backends (real host, replay) are a
/// clear error instead of a panic.
pub(crate) fn fabric_for(opts: &Opts) -> Result<Fabric, String> {
    let platform = platform_for(opts)?;
    fabric_of(&platform)
}

/// Pull an owned fabric out of an already-built backend.
pub(crate) fn fabric_of(platform: &AnyPlatform) -> Result<Fabric, String> {
    Platform::fabric(platform).cloned().ok_or_else(|| {
        format!(
            "backend '{}' exposes no simulator fabric; this command needs --backend sim",
            platform.label()
        )
    })
}
