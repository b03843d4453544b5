//! Storage device profiles: the per-device performance shape that turns a
//! DMA attach path into delivered I/O bandwidth.
//!
//! The paper characterizes its two Nytro WarpDrive cards at one operating
//! point (1 MiB requests, libaio QD16, O_DIRECT). The NVM I/O modeling
//! literature (arxiv 1705.03598) shows what varies around that point: a
//! block-size efficiency curve (small requests pay per-command overhead),
//! a queue-depth ramp (concurrency hides device latency), and read/write
//! asymmetry (flash programs slower than it reads). A [`DeviceProfile`]
//! bundles those curves so every consumer — fio lowering, storage
//! characterization, serve, fleet — derives ceilings from one place.

use crate::ratemap::{calibrated, RateMap};
use crate::ssd::IoEngine;
use std::borrow::Cow;

/// The performance shape of one storage device (or a set of identical
/// cards): how its streaming ceiling scales with request size, queue
/// depth, direction, and access mode. The DMA attach path itself lives in
/// the fabric; a profile only shapes what survives the attach point.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable device name for reports.
    pub name: Cow<'static, str>,
    /// Request-size efficiency: block size (KiB) → fraction of the
    /// streaming ceiling. Small blocks pay per-command overhead; the curve
    /// saturates at 1.0 for large sequential requests.
    block_curve: RateMap,
    /// Queue-depth latency-hiding constant: efficiency ramps as
    /// `qd / (qd + knee)`.
    pub qd_knee: f64,
    /// Reference queue depth at which the ramp is normalized to 1.0 (the
    /// calibration operating point).
    pub qd_ref: u32,
    /// Write port ceiling as a fraction of the read ceiling — flash
    /// program/erase asymmetry.
    pub write_asymmetry: f64,
    /// Fraction of bandwidth lost to kernel-buffered (non-O_DIRECT)
    /// access: the page-cache copy path.
    pub buffered_penalty: f64,
}

impl DeviceProfile {
    /// The calibrated LSI Nytro WarpDrive profile. The queue-depth knee
    /// and buffered penalty reproduce [`IoEngine::efficiency`] and the
    /// paper's buffered-vs-direct gap exactly; the write asymmetry is the
    /// Table IV/V port-ceiling ratio (29.1 / 34.7); the block curve is the
    /// standard flash shape (arxiv 1705.03598): 4 KiB random-ish requests
    /// reach ~a third of streaming, saturating near 1 MiB.
    pub fn nytro_warpdrive() -> Self {
        DeviceProfile {
            name: Cow::Borrowed("nytro-warpdrive"),
            block_curve: calibrated::nytro_block(),
            qd_knee: 2.0,
            qd_ref: 16,
            write_asymmetry: 29.1 / 34.7,
            buffered_penalty: 0.55,
        }
    }

    /// Throughput efficiency of an I/O engine relative to the calibration
    /// operating point: `ramp(qd) / ramp(qd_ref)` with
    /// `ramp(q) = q / (q + qd_knee)`; sync behaves like QD1. With the
    /// WarpDrive constants this is bit-identical to
    /// [`IoEngine::efficiency`].
    pub fn engine_efficiency(&self, engine: IoEngine) -> f64 {
        let qd = match engine {
            IoEngine::Sync => 1,
            IoEngine::Libaio { iodepth } => iodepth.max(1),
        };
        let ramp = |q: f64| q / (q + self.qd_knee);
        ramp(qd as f64) / ramp(self.qd_ref as f64)
    }

    /// Fraction of the streaming ceiling delivered at `block_kib`-sized
    /// requests (clamped to the calibrated range).
    pub fn block_efficiency(&self, block_kib: f64) -> f64 {
        self.block_curve.eval(block_kib)
    }

    /// Bandwidth multiplier for the access mode: 1.0 under O_DIRECT,
    /// `1 - buffered_penalty` through the page cache.
    pub fn access_factor(&self, direct: bool) -> f64 {
        if direct {
            1.0
        } else {
            1.0 - self.buffered_penalty
        }
    }

    /// The block-size curve's control points (for reports).
    pub fn block_curve(&self) -> &RateMap {
        &self.block_curve
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warpdrive_engine_ramp_matches_io_engine_exactly() {
        let p = DeviceProfile::nytro_warpdrive();
        for engine in [
            IoEngine::Sync,
            IoEngine::Libaio { iodepth: 1 },
            IoEngine::Libaio { iodepth: 4 },
            IoEngine::Libaio { iodepth: 16 },
            IoEngine::Libaio { iodepth: 64 },
        ] {
            assert_eq!(
                p.engine_efficiency(engine).to_bits(),
                engine.efficiency().to_bits(),
                "{engine:?}"
            );
        }
    }

    #[test]
    fn block_curve_saturates_at_streaming_sizes() {
        let p = DeviceProfile::nytro_warpdrive();
        assert!(p.block_efficiency(4.0) < 0.4, "small blocks pay overhead");
        assert!(p.block_efficiency(1024.0) >= 1.0 - 1e-12);
        assert_eq!(p.block_efficiency(4096.0), 1.0, "clamps above the range");
        let mut last = 0.0;
        for kib in [4.0, 16.0, 64.0, 256.0, 1024.0] {
            let e = p.block_efficiency(kib);
            assert!(e > last, "monotone in block size");
            last = e;
        }
    }

    #[test]
    fn write_asymmetry_reflects_the_table_port_ratio() {
        let p = DeviceProfile::nytro_warpdrive();
        assert!((p.write_asymmetry - 29.1 / 34.7).abs() < 1e-12);
        assert!(p.write_asymmetry < 1.0, "flash writes slower than it reads");
    }

    #[test]
    fn access_factor_matches_the_buffered_penalty() {
        let p = DeviceProfile::nytro_warpdrive();
        assert_eq!(p.access_factor(true), 1.0);
        assert!((p.access_factor(false) - 0.45).abs() < 1e-12);
    }
}
