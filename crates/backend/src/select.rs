//! [`AnyPlatform`]: runtime backend selection behind one concrete type.

use crate::error::BackendError;
use crate::replay::ReplayPlatform;
use numa_fabric::Fabric;
use numa_obs::Obs;
use numa_topology::{NodeId, Topology};
use numio_core::{ClockSource, CopySpec, HostPlatform, Platform, PlatformError, SimPlatform};

/// One of the three first-class backends, chosen at runtime (the CLI's
/// global `--backend sim|host|replay:<file>` resolves to this).
pub enum AnyPlatform {
    /// The calibrated simulator.
    Sim(SimPlatform),
    /// Real memcpy on the machine running this code.
    Host(HostPlatform),
    /// A recorded fixture, replayed bit-identically (boxed: it carries
    /// the fixture's tables, several times a simulator's size).
    Replay(Box<ReplayPlatform>),
}

impl AnyPlatform {
    /// Parse a backend spec string:
    ///
    /// * `sim` — the DL585 simulator,
    /// * `host` — the real machine, 4-node shape,
    /// * `host:<nodes>` — the real machine with an explicit node count,
    /// * `replay:<file>` — a recorded JSONL fixture.
    pub fn from_spec(spec: &str) -> Result<Self, BackendError> {
        if spec == "sim" {
            return Ok(AnyPlatform::Sim(SimPlatform::dl585()));
        }
        if spec == "host" {
            return Ok(AnyPlatform::Host(HostPlatform::new(4)));
        }
        if let Some(nodes) = spec.strip_prefix("host:") {
            let nodes: usize = nodes.parse().map_err(|_| BackendError::UnknownBackend {
                spec: spec.to_string(),
            })?;
            return Ok(AnyPlatform::Host(HostPlatform::new(nodes)));
        }
        if let Some(path) = spec.strip_prefix("replay:") {
            return Ok(ReplayPlatform::from_file(path)?.into());
        }
        Err(BackendError::UnknownBackend {
            spec: spec.to_string(),
        })
    }

    /// Attach an obs handle where the variant supports one (replay event
    /// emission); sim and host pass through unchanged.
    pub fn with_obs(self, obs: Obs) -> Self {
        match self {
            AnyPlatform::Replay(r) => r.with_obs(obs).into(),
            other => other,
        }
    }
}

impl From<SimPlatform> for AnyPlatform {
    fn from(p: SimPlatform) -> Self {
        AnyPlatform::Sim(p)
    }
}

impl From<HostPlatform> for AnyPlatform {
    fn from(p: HostPlatform) -> Self {
        AnyPlatform::Host(p)
    }
}

impl From<ReplayPlatform> for AnyPlatform {
    fn from(p: ReplayPlatform) -> Self {
        AnyPlatform::Replay(Box::new(p))
    }
}

macro_rules! delegate {
    ($self:ident, $p:ident => $body:expr) => {
        match $self {
            AnyPlatform::Sim($p) => $body,
            AnyPlatform::Host($p) => $body,
            AnyPlatform::Replay($p) => {
                let $p: &ReplayPlatform = $p;
                $body
            }
        }
    };
}

impl Platform for AnyPlatform {
    fn num_nodes(&self) -> usize {
        delegate!(self, p => p.num_nodes())
    }

    fn cores_per_node(&self, node: NodeId) -> u32 {
        delegate!(self, p => p.cores_per_node(node))
    }

    fn probe(&self, spec: &CopySpec) -> Result<Vec<f64>, PlatformError> {
        delegate!(self, p => p.probe(spec))
    }

    fn io_nodes(&self) -> Vec<NodeId> {
        delegate!(self, p => p.io_nodes())
    }

    fn label(&self) -> String {
        delegate!(self, p => Platform::label(p))
    }

    fn topology(&self) -> Option<&Topology> {
        delegate!(self, p => Platform::topology(p))
    }

    fn fabric(&self) -> Option<&Fabric> {
        delegate!(self, p => Platform::fabric(p))
    }

    fn clock(&self) -> ClockSource {
        delegate!(self, p => p.clock())
    }

    fn deterministic(&self) -> bool {
        delegate!(self, p => p.deterministic())
    }

    fn backend_kind(&self) -> &'static str {
        delegate!(self, p => p.backend_kind())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_spec_builds_the_dl585() {
        let p = AnyPlatform::from_spec("sim").unwrap();
        assert_eq!(p.backend_kind(), "sim");
        assert_eq!(p.num_nodes(), 8);
        assert!(Platform::fabric(&p).is_some());
        assert_eq!(p.label(), "sim:dl585-g7");
    }

    #[test]
    fn host_specs_build_real_backends() {
        let p = AnyPlatform::from_spec("host").unwrap();
        assert_eq!(p.backend_kind(), "host");
        assert_eq!(p.num_nodes(), 4);
        let p = AnyPlatform::from_spec("host:2").unwrap();
        assert_eq!(p.num_nodes(), 2);
    }

    #[test]
    fn bad_specs_are_typed_errors() {
        for bad in ["", "simulator", "host:many", "record"] {
            assert!(
                matches!(
                    AnyPlatform::from_spec(bad),
                    Err(BackendError::UnknownBackend { .. })
                ),
                "{bad}"
            );
        }
        // A replay path that does not exist is an Io error, not Unknown.
        assert!(matches!(
            AnyPlatform::from_spec("replay:/no/such/fixture.jsonl"),
            Err(BackendError::Io { .. })
        ));
    }
}
