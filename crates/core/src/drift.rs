//! Model drift detection.
//!
//! Performance models are snapshots: firmware updates, BIOS NUMA settings,
//! link retraining, or moving a card to another slot all shift the class
//! structure. [`diff`] compares two models of the same target/direction
//! and reports per-node deltas and class-membership changes, so a persisted
//! model can be revalidated cheaply (probe the representatives, diff, and
//! only re-characterize fully when membership moved).

use crate::model::IoPerfModel;
use crate::modeler::IoModeler;
use crate::platform::{Platform, PlatformError};
use numa_topology::NodeId;
use std::fmt::Write as _;

/// Why two models cannot be compared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffError {
    /// Different characterization targets.
    TargetMismatch,
    /// Different transfer directions.
    ModeMismatch,
    /// Different node counts.
    ShapeMismatch,
}

impl std::fmt::Display for DiffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiffError::TargetMismatch => write!(f, "models characterize different targets"),
            DiffError::ModeMismatch => write!(f, "models cover different transfer directions"),
            DiffError::ShapeMismatch => write!(f, "models cover different node counts"),
        }
    }
}

impl std::error::Error for DiffError {}

/// Why [`recharacterize_and_diff`] could not produce a drift report.
#[derive(Debug, Clone, PartialEq)]
pub enum RecheckError {
    /// Re-probing the backend failed (no topology, missing replay probe,
    /// host measurement failure, ...).
    Probe(PlatformError),
    /// The fresh model could not be compared against the stored one.
    Diff(DiffError),
}

impl std::fmt::Display for RecheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecheckError::Probe(e) => write!(f, "re-characterization failed: {e}"),
            RecheckError::Diff(e) => write!(f, "models are not comparable: {e}"),
        }
    }
}

impl std::error::Error for RecheckError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecheckError::Probe(e) => Some(e),
            RecheckError::Diff(e) => Some(e),
        }
    }
}

impl From<PlatformError> for RecheckError {
    fn from(e: PlatformError) -> Self {
        RecheckError::Probe(e)
    }
}

impl From<DiffError> for RecheckError {
    fn from(e: DiffError) -> Self {
        RecheckError::Diff(e)
    }
}

/// Comparison of two models (`old` vs `new`).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelDiff {
    /// Per-node relative bandwidth change `(new - old) / old`.
    pub rel_delta: Vec<f64>,
    /// Nodes whose class index changed: `(node, old class, new class)`.
    pub moved: Vec<(NodeId, usize, usize)>,
    /// Largest absolute relative delta.
    pub max_rel_delta: f64,
}

impl ModelDiff {
    /// Is the new model behaviourally the same (no membership moves and
    /// all deltas below `tolerance`)?
    pub fn is_stable(&self, tolerance: f64) -> bool {
        self.moved.is_empty() && self.max_rel_delta <= tolerance
    }

    /// Render a human-readable drift report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "per-node bandwidth drift:");
        for (i, d) in self.rel_delta.iter().enumerate() {
            let _ = writeln!(out, "  node {i}: {:+.1}%", d * 100.0);
        }
        if self.moved.is_empty() {
            let _ = writeln!(out, "class structure: unchanged");
        } else {
            let _ = writeln!(out, "class membership changes:");
            for (n, from, to) in &self.moved {
                let _ = writeln!(out, "  node {n}: class {} -> class {}", from + 1, to + 1);
            }
        }
        let _ = writeln!(out, "max drift: {:.1}%", self.max_rel_delta * 100.0);
        out
    }
}

/// Compare two models of the same target and direction.
pub fn diff(old: &IoPerfModel, new: &IoPerfModel) -> Result<ModelDiff, DiffError> {
    if old.target != new.target {
        return Err(DiffError::TargetMismatch);
    }
    if old.mode != new.mode {
        return Err(DiffError::ModeMismatch);
    }
    if old.per_node.len() != new.per_node.len() {
        return Err(DiffError::ShapeMismatch);
    }
    let rel_delta: Vec<f64> = old
        .means()
        .iter()
        .zip(new.means())
        .map(|(o, n)| (n - o) / o)
        .collect();
    let mut moved = Vec::new();
    for i in 0..old.per_node.len() {
        let node = NodeId::new(i);
        let (fo, fn_) = (old.class_of(node), new.class_of(node));
        if fo != fn_ {
            moved.push((node, fo, fn_));
        }
    }
    let max_rel_delta = rel_delta.iter().map(|d| d.abs()).fold(0.0, f64::max);
    Ok(ModelDiff {
        rel_delta,
        moved,
        max_rel_delta,
    })
}

/// Re-run `old`'s characterization against `platform` (any backend: live
/// sim, real host, replay fixture) and diff the fresh model against the
/// stored one — the one-call revalidation loop the module docs describe.
pub fn recharacterize_and_diff<P: Platform>(
    old: &IoPerfModel,
    platform: &P,
    modeler: &IoModeler,
) -> Result<ModelDiff, RecheckError> {
    let fresh = modeler.try_characterize(platform, old.target, old.mode)?;
    Ok(diff(old, &fresh)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TransferMode;
    use crate::modeler::IoModeler;
    use crate::platform::SimPlatform;
    use numa_fabric::Fabric;
    use numa_topology::presets;

    fn model(platform: &SimPlatform) -> IoPerfModel {
        IoModeler::new()
            .reps(10)
            .characterize(platform, NodeId(7), TransferMode::Write)
    }

    #[test]
    fn identical_models_are_stable() {
        let p = SimPlatform::dl585();
        let d = diff(&model(&p), &model(&p)).unwrap();
        assert!(d.is_stable(0.001));
        assert_eq!(d.max_rel_delta, 0.0);
        assert!(d.render().contains("unchanged"));
    }

    #[test]
    fn noise_seed_changes_are_within_tolerance() {
        let a = SimPlatform::dl585();
        let mut b = SimPlatform::dl585();
        b.seed = 999;
        let d = diff(&model(&a), &model(&b)).unwrap();
        assert!(d.is_stable(0.05), "{}", d.render());
        assert!(d.max_rel_delta > 0.0);
    }

    #[test]
    fn degraded_link_is_detected() {
        // Rebuild the fabric with the 6->7 link degraded 40%: nodes routed
        // through it (0, 2, 4, 6) drop, and membership shifts.
        let a = SimPlatform::dl585();
        let topo = presets::dl585_testbed();
        let routes = presets::dl585_routes(&topo);
        let mut builder = Fabric::builder(topo, routes)
            .dma_defaults(51.2, 44.0)
            .node_copy_caps(53.5)
            .pio(numa_fabric::PioModel::Matrix(
                numa_fabric::calibration::dl585_pio_matrix(a.fabric().topology()),
            ));
        for &(f, t, cap) in numa_fabric::calibration::DL585_DMA_EDGE_CAPS {
            let cap = if (f, t) == (6, 7) { cap * 0.6 } else { cap };
            builder = builder.dma_cap(f, t, cap);
        }
        let degraded = SimPlatform::new(builder.build());
        let d = diff(&model(&a), &model(&degraded)).unwrap();
        assert!(!d.is_stable(0.05), "{}", d.render());
        assert!(
            !d.moved.is_empty(),
            "membership should shift: {}",
            d.render()
        );
        // Node 6 specifically lost bandwidth.
        assert!(d.rel_delta[6] < -0.3, "{}", d.rel_delta[6]);
    }

    #[test]
    fn recharacterize_and_diff_closes_the_loop() {
        let p = SimPlatform::dl585();
        let stored = model(&p);
        // Against the same backend: stable.
        let d = recharacterize_and_diff(&stored, &p, &IoModeler::new().reps(10)).unwrap();
        assert!(d.is_stable(1e-9));
        // A backend without a topology is a typed probe error, not a panic.
        let bare = crate::host::HostPlatform::with_shape(8, 2);
        let e = recharacterize_and_diff(&stored, &bare, &IoModeler::new().reps(1)).unwrap_err();
        assert!(
            matches!(e, RecheckError::Probe(PlatformError::NoTopology { .. })),
            "{e}"
        );
        assert!(e.to_string().contains("re-characterization failed"), "{e}");
    }

    #[test]
    fn mismatched_models_rejected() {
        let p = SimPlatform::dl585();
        let w = model(&p);
        let r = IoModeler::new()
            .reps(5)
            .characterize(&p, NodeId(7), TransferMode::Read);
        assert_eq!(diff(&w, &r).unwrap_err(), DiffError::ModeMismatch);
        let other = IoModeler::new()
            .reps(5)
            .characterize(&p, NodeId(0), TransferMode::Write);
        assert_eq!(diff(&w, &other).unwrap_err(), DiffError::TargetMismatch);
    }
}
