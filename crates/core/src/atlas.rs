//! The host atlas: every (target, direction) model of one machine, as a
//! single persistable artifact.
//!
//! A cluster scheduler characterizes each host once and ships the atlas
//! with the machine; placement decisions then index it by the device node
//! and transfer direction. This is the natural on-disk product of the
//! paper's tool once it is run host-wide (§V-B's "generalized to other
//! nodes in the host").

use crate::model::{IoPerfModel, TransferMode};
use crate::modeler::IoModeler;
use crate::platform::{Platform, PlatformError};
use numa_topology::NodeId;
use std::fmt;

/// Errors from building or persisting an [`Atlas`].
#[derive(Debug, Clone, PartialEq)]
pub enum AtlasError {
    /// An atlas needs at least one model.
    Empty,
    /// Models from more than one platform were mixed.
    PlatformMismatch {
        /// Label of the first model.
        expected: String,
        /// The conflicting label encountered.
        found: String,
    },
    /// A characterization probe failed.
    Probe(PlatformError),
}

impl fmt::Display for AtlasError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AtlasError::Empty => write!(f, "atlas needs at least one model"),
            AtlasError::PlatformMismatch { expected, found } => write!(
                f,
                "all models must come from one platform (expected {expected:?}, found {found:?})"
            ),
            AtlasError::Probe(e) => write!(f, "atlas characterization probe failed: {e}"),
        }
    }
}

impl std::error::Error for AtlasError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AtlasError::Probe(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PlatformError> for AtlasError {
    fn from(e: PlatformError) -> Self {
        AtlasError::Probe(e)
    }
}

numa_par::json_struct! {
    /// A complete set of models for one host.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Atlas {
        /// Platform label all models came from.
        pub platform: String,
        models: Vec<IoPerfModel>,
    }
}

impl Atlas {
    /// Build from models (all must share the platform label).
    pub fn new(models: Vec<IoPerfModel>) -> Result<Self, AtlasError> {
        let Some(first) = models.first() else {
            return Err(AtlasError::Empty);
        };
        let platform = first.platform.clone();
        if let Some(stray) = models.iter().find(|m| m.platform != platform) {
            return Err(AtlasError::PlatformMismatch {
                expected: platform,
                found: stray.platform.clone(),
            });
        }
        Ok(Atlas { platform, models })
    }

    /// Characterize every node of any backend, both directions.
    pub fn characterize<P: Platform>(
        platform: &P,
        modeler: &IoModeler,
    ) -> Result<Self, AtlasError> {
        Self::new(modeler.try_characterize_full_host(platform)?)
    }

    /// Look up the model for a device node and direction.
    pub fn model(&self, target: NodeId, mode: TransferMode) -> Option<&IoPerfModel> {
        self.models
            .iter()
            .find(|m| m.target == target && m.mode == mode)
    }

    /// All models.
    pub fn models(&self) -> &[IoPerfModel] {
        &self.models
    }

    /// Targets covered.
    pub fn targets(&self) -> Vec<NodeId> {
        let mut t: Vec<NodeId> = self.models.iter().map(|m| m.target).collect();
        t.sort();
        t.dedup();
        t
    }

    /// Persist as JSON.
    pub fn to_json(&self) -> String {
        numa_par::json::to_string_pretty(self)
    }

    /// Load from JSON.
    pub fn from_json(s: &str) -> Result<Self, numa_par::json::Error> {
        numa_par::json::from_str(s)
    }

    /// Diff against a newer atlas: per-(target, mode) drift reports for
    /// every model both atlases cover.
    pub fn diff(&self, newer: &Atlas) -> Vec<(NodeId, TransferMode, crate::drift::ModelDiff)> {
        let mut out = Vec::new();
        for m in &self.models {
            if let Some(n) = newer.model(m.target, m.mode) {
                if let Ok(d) = crate::drift::diff(m, n) {
                    out.push((m.target, m.mode, d));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::SimPlatform;

    fn atlas() -> Atlas {
        let platform = SimPlatform::dl585();
        Atlas::characterize(&platform, &IoModeler::new().reps(3)).unwrap()
    }

    #[test]
    fn covers_every_node_and_direction() {
        let a = atlas();
        assert_eq!(a.models().len(), 16);
        assert_eq!(a.targets(), (0..8).map(NodeId).collect::<Vec<_>>());
        for n in 0..8u16 {
            for mode in TransferMode::ALL {
                let m = a.model(NodeId(n), mode).expect("model present");
                assert_eq!(m.target, NodeId(n));
                assert_eq!(m.mode, mode);
            }
        }
        assert!(a.model(NodeId(99), TransferMode::Read).is_none());
    }

    #[test]
    fn json_round_trip_preserves_lookups() {
        let a = atlas();
        let back = Atlas::from_json(&a.to_json()).unwrap();
        assert_eq!(back.platform, a.platform);
        assert_eq!(
            back.model(NodeId(7), TransferMode::Write)
                .unwrap()
                .classes()
                .len(),
            3
        );
    }

    #[test]
    fn self_diff_is_everywhere_stable() {
        let a = atlas();
        let diffs = a.diff(&a);
        assert_eq!(diffs.len(), 16);
        for (_, _, d) in diffs {
            assert!(d.is_stable(1e-9));
        }
    }

    #[test]
    fn empty_atlas_rejected() {
        // Regression: this was an `assert!` that panicked before the
        // fallible-API migration.
        assert_eq!(Atlas::new(vec![]).unwrap_err(), AtlasError::Empty);
    }

    #[test]
    fn mixed_platforms_rejected() {
        let a = atlas();
        let mut models = a.models().to_vec();
        models[1].platform = "other:host".to_string();
        let expected = models[0].platform.clone();
        assert_eq!(
            Atlas::new(models).unwrap_err(),
            AtlasError::PlatformMismatch {
                expected,
                found: "other:host".to_string()
            }
        );
    }

    #[test]
    fn probe_failure_surfaces_as_typed_error() {
        // A platform with no recorded probes cannot be characterized; the
        // probe error must surface through `characterize`, not panic.
        struct NoProbe(numa_topology::Topology);
        impl Platform for NoProbe {
            fn num_nodes(&self) -> usize {
                self.0.num_nodes()
            }
            fn cores_per_node(&self, _node: NodeId) -> u32 {
                4
            }
            fn probe(&self, _spec: &crate::CopySpec) -> Result<Vec<f64>, PlatformError> {
                Err(PlatformError::Probe {
                    label: self.label(),
                    reason: "always fails".to_string(),
                })
            }
            fn topology(&self) -> Option<&numa_topology::Topology> {
                Some(&self.0)
            }
            fn label(&self) -> String {
                "test:noprobe".into()
            }
        }
        let p = NoProbe(numa_topology::presets::fig1a());
        let err = Atlas::characterize(&p, &IoModeler::new().reps(2)).unwrap_err();
        assert!(
            matches!(err, AtlasError::Probe(PlatformError::Probe { .. })),
            "{err:?}"
        );
    }
}
