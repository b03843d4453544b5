//! The probe surface the methodology runs against.

use numa_fabric::calibration::dl585_fabric;
use numa_fabric::Fabric;
use numa_par::rng::SplitMix64;
use numa_topology::{NodeId, Topology};

numa_par::json_struct! {
    /// One pinned copy probe: `threads` workers bound to `bind`, each moving
    /// `bytes_per_thread` from memory on `src` to memory on `dst`, repeated
    /// `reps` times.
    ///
    /// In the paper's methodology `bind` is always the *target* node (the one
    /// with the I/O devices) so the copy threads stand in for the device's DMA
    /// engine (Fig. 9); `src`/`dst` carry the direction.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub struct CopySpec {
        /// Node the copy threads are pinned to.
        pub bind: NodeId,
        /// Node the source buffers are bound to.
        pub src: NodeId,
        /// Node the destination buffers are bound to.
        pub dst: NodeId,
        /// Worker threads (Algorithm 1: the core count of one node).
        pub threads: u32,
        /// Bytes each thread copies per repetition.
        pub bytes_per_thread: u64,
        /// Repetitions (Algorithm 1: 100).
        pub reps: u32,
    }
}

impl CopySpec {
    /// Sanity-check the spec. Returns an error instead of panicking so
    /// callers driven by user input (job files, fault plans, the CLI) can
    /// surface the problem; the legacy panicking entry points funnel
    /// through this and preserve their historical messages.
    pub fn validate(&self) -> Result<(), PlatformError> {
        if self.threads < 1 {
            return Err(PlatformError::ZeroThreads);
        }
        if self.reps < 1 {
            return Err(PlatformError::ZeroReps);
        }
        if self.bytes_per_thread == 0 {
            return Err(PlatformError::EmptyBuffer);
        }
        Ok(())
    }
}

/// Invalid probe requests against a [`Platform`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlatformError {
    /// `threads == 0`.
    ZeroThreads,
    /// `reps == 0`.
    ZeroReps,
    /// `bytes_per_thread == 0`.
    EmptyBuffer,
    /// A spec references a node the platform does not have.
    NodeOutOfRange {
        /// The offending node.
        node: NodeId,
        /// Number of nodes actually present.
        nodes: usize,
    },
    /// A platform was paired with a topology of a different size.
    NodeCountMismatch {
        /// Nodes the platform reports.
        platform: usize,
        /// Nodes the topology has.
        topology: usize,
    },
    /// The platform carries no topology handle, but the caller needed one
    /// (e.g. `IoModeler::characterize` without an explicit topology).
    NoTopology {
        /// The platform's [`Platform::label`].
        label: String,
    },
    /// The probe itself failed on a real-measurement backend (thread
    /// spawn, affinity binding, ...).
    Probe {
        /// The platform's [`Platform::label`].
        label: String,
        /// What went wrong, in the backend's own words.
        reason: String,
    },
    /// A replay backend has no recorded sample set for this exact spec.
    NoRecordedProbe {
        /// The spec that missed.
        spec: CopySpec,
    },
}

impl std::fmt::Display for PlatformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The wording of the first four variants is load-bearing: the
        // panicking wrappers format this Display, and downstream
        // `#[should_panic(expected = ...)]` contracts match on it.
        match self {
            PlatformError::ZeroThreads => write!(f, "at least one copy thread"),
            PlatformError::ZeroReps => write!(f, "at least one repetition"),
            PlatformError::EmptyBuffer => write!(f, "buffers must be non-empty"),
            PlatformError::NodeOutOfRange { node, nodes } => {
                write!(
                    f,
                    "target out of range: {node:?} on a {nodes}-node platform"
                )
            }
            PlatformError::NodeCountMismatch { platform, topology } => write!(
                f,
                "platform and topology disagree on node count ({platform} vs {topology})"
            ),
            PlatformError::NoTopology { label } => write!(
                f,
                "platform '{label}' carries no topology; pass one explicitly \
                 (characterize_with_topo) or use a backend that embeds it"
            ),
            PlatformError::Probe { label, reason } => {
                write!(f, "probe failed on '{label}': {reason}")
            }
            PlatformError::NoRecordedProbe { spec } => write!(
                f,
                "no recorded probe for bind {} src {} dst {} ({} threads, {} bytes, {} reps); \
                 the replay fixture does not cover this spec",
                spec.bind.index(),
                spec.src.index(),
                spec.dst.index(),
                spec.threads,
                spec.bytes_per_thread,
                spec.reps
            ),
        }
    }
}

impl std::error::Error for PlatformError {}

/// Where a platform's bandwidth samples come from in time.
///
/// Purely informational metadata: reports carry it so a reader can tell
/// a simulated result from a wall-clock measurement from a replayed
/// capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockSource {
    /// Samples are functions of simulated time (deterministic).
    SimTime,
    /// Samples are real wall-clock measurements.
    WallClock,
    /// Samples were captured earlier and are replayed verbatim.
    Recorded,
}

impl std::fmt::Display for ClockSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClockSource::SimTime => write!(f, "sim-time"),
            ClockSource::WallClock => write!(f, "wall-clock"),
            ClockSource::Recorded => write!(f, "recorded"),
        }
    }
}

/// Anything the modeler can probe: the simulator, a real host, or (on a
/// real NUMA machine, outside this repo's scope) `libnuma`-pinned threads.
///
/// `Sync` is a supertrait so one platform can be shared by the threads of
/// a caller's own fan-out; the modeler itself probes serially.
pub trait Platform: Sync {
    /// Number of NUMA nodes visible.
    fn num_nodes(&self) -> usize;

    /// CPU cores on one node (Algorithm 1 derives its thread count from
    /// this: `m = cores / nodes` in the paper's notation).
    fn cores_per_node(&self, node: NodeId) -> u32;

    /// Execute a probe, returning one aggregate bandwidth sample (Gbit/s)
    /// per repetition — the one required measurement entry point.
    ///
    /// Implementations may assume nothing about the spec and should return
    /// a typed [`PlatformError`] (not panic) on anything unexpected:
    /// callers normally reach this through
    /// [`try_run_copy`](Self::try_run_copy), which has already validated
    /// the spec structurally and range-checked its nodes.
    fn probe(&self, spec: &CopySpec) -> Result<Vec<f64>, PlatformError>;

    /// Execute a probe, panicking on an invalid spec or a failed
    /// measurement; use [`try_run_copy`](Self::try_run_copy) when the spec
    /// comes from user input. Kept for the historical call sites — the
    /// panic message is the typed error's `Display`.
    fn run_copy(&self, spec: &CopySpec) -> Vec<f64> {
        self.try_run_copy(spec).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`run_copy`](Self::run_copy): validates the spec (and its
    /// node references) before delegating to [`probe`](Self::probe).
    fn try_run_copy(&self, spec: &CopySpec) -> Result<Vec<f64>, PlatformError> {
        spec.validate()?;
        let nodes = self.num_nodes();
        for node in [spec.bind, spec.src, spec.dst] {
            if node.index() >= nodes {
                return Err(PlatformError::NodeOutOfRange { node, nodes });
            }
        }
        self.probe(spec)
    }

    /// Unread: the modeler probes serially on the caller's thread whatever
    /// this returns. Kept only because the benchmark's tracing wrapper
    /// (`perf/src/trace.rs`) still overrides it; it goes once that
    /// override does.
    fn parallel_probes(&self) -> bool {
        false
    }

    /// Nodes with I/O devices attached — characterization targets.
    /// Platforms that cannot tell return an empty list.
    fn io_nodes(&self) -> Vec<NodeId> {
        Vec::new()
    }

    /// A short label for reports.
    fn label(&self) -> String {
        "platform".to_string()
    }

    /// The topology this platform measures, when it knows one. The modeler
    /// uses this for the `characterize*` conveniences; platforms without a
    /// topology (e.g. a bare-shape host) return `None` and callers must
    /// supply one via `characterize_with_topo`.
    fn topology(&self) -> Option<&Topology> {
        None
    }

    /// The interconnect fabric behind this platform, when the backend is
    /// (or wraps) the simulator. Consumers that lower work onto the
    /// simulator — `fio::run_jobs`, the scheduler, fault injection — need
    /// this; measurement-only backends (host, replay) return `None` and
    /// those consumers surface a typed "no fabric" error.
    fn fabric(&self) -> Option<&Fabric> {
        None
    }

    /// Where this platform's samples come from in time.
    fn clock(&self) -> ClockSource {
        ClockSource::WallClock
    }

    /// Whether repeated identical probes return bit-identical samples.
    /// `true` for the seeded simulator and for replay; `false` for real
    /// hardware.
    fn deterministic(&self) -> bool {
        false
    }

    /// Stable short name of the backend family (`"sim"`, `"host"`,
    /// `"record"`, `"replay"`) — used as the `backend` label on probe
    /// metrics.
    fn backend_kind(&self) -> &'static str {
        "custom"
    }
}

/// The calibrated simulator as a [`Platform`].
#[derive(Debug, Clone)]
pub struct SimPlatform {
    fabric: Fabric,
    /// Per-repetition measurement noise amplitude.
    pub noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl SimPlatform {
    /// Wrap a fabric.
    pub fn new(fabric: Fabric) -> Self {
        SimPlatform {
            fabric,
            noise: 0.02,
            seed: 0xC0FFEE,
        }
    }

    /// The paper's testbed.
    pub fn dl585() -> Self {
        Self::new(dl585_fabric())
    }

    /// Access the underlying fabric (for cross-checking experiments).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Disable noise (exact min-cut values).
    pub fn noiseless(mut self) -> Self {
        self.noise = 0.0;
        self
    }

    /// Validate a probe spec against this platform: structural sanity
    /// (threads, reps, buffer size) plus node-range checks against the
    /// wrapped fabric.
    pub fn validate(&self, spec: &CopySpec) -> Result<(), PlatformError> {
        spec.validate()?;
        let nodes = self.fabric.num_nodes();
        for node in [spec.bind, spec.src, spec.dst] {
            if node.index() >= nodes {
                return Err(PlatformError::NodeOutOfRange { node, nodes });
            }
        }
        Ok(())
    }
}

impl Platform for SimPlatform {
    fn num_nodes(&self) -> usize {
        self.fabric.num_nodes()
    }

    fn cores_per_node(&self, node: NodeId) -> u32 {
        self.fabric.topology().node(node).cores
    }

    fn probe(&self, spec: &CopySpec) -> Result<Vec<f64>, PlatformError> {
        self.validate(spec)?;
        // Pinned copy threads emulate a DMA engine at `bind`: with a full
        // complement of threads the transfer runs at the DMA min-cut of the
        // src->dst route; undersubscribed probes scale down.
        let cores = self.cores_per_node(spec.bind);
        let thread_scale = (spec.threads as f64 / cores as f64).min(1.0);
        // A probe not pinned to either endpoint pays an extra relay
        // penalty: the data crosses bind's cache hierarchy both ways.
        let relay = if spec.bind == spec.src || spec.bind == spec.dst || spec.src == spec.dst {
            1.0
        } else {
            0.82
        };
        let base = self.fabric.dma_path_bandwidth(spec.src, spec.dst) * thread_scale * relay;
        let cell_seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((spec.bind.index() as u64) << 40)
            .wrapping_add((spec.src.index() as u64) << 20)
            .wrapping_add(spec.dst.index() as u64);
        let mut rng = SplitMix64::new(cell_seed);
        Ok((0..spec.reps)
            .map(|_| {
                if self.noise == 0.0 {
                    base
                } else {
                    base * (1.0 + rng.range_f64_inclusive(-self.noise, self.noise))
                }
            })
            .collect())
    }

    fn io_nodes(&self) -> Vec<NodeId> {
        self.fabric.topology().io_hub_nodes()
    }

    fn label(&self) -> String {
        format!("sim:{}", self.fabric.topology().name())
    }

    fn topology(&self) -> Option<&Topology> {
        Some(self.fabric.topology())
    }

    fn fabric(&self) -> Option<&Fabric> {
        Some(&self.fabric)
    }

    fn clock(&self) -> ClockSource {
        ClockSource::SimTime
    }

    fn deterministic(&self) -> bool {
        true
    }

    fn backend_kind(&self) -> &'static str {
        "sim"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dl585_platform_shape() {
        let p = SimPlatform::dl585();
        assert_eq!(p.num_nodes(), 8);
        assert_eq!(p.cores_per_node(NodeId(3)), 4);
        assert_eq!(p.io_nodes(), vec![NodeId(7)]);
        assert!(p.label().contains("dl585"));
    }

    #[test]
    fn sim_capability_metadata() {
        let p = SimPlatform::dl585();
        assert_eq!(Platform::topology(&p).map(|t| t.name()), Some("dl585-g7"));
        assert!(Platform::fabric(&p).is_some());
        assert_eq!(p.clock(), ClockSource::SimTime);
        assert!(p.deterministic());
        assert_eq!(p.backend_kind(), "sim");
        // The trait's probe and the legacy run_copy agree.
        let spec = CopySpec {
            bind: NodeId(7),
            src: NodeId(3),
            dst: NodeId(7),
            threads: 4,
            bytes_per_thread: 1 << 20,
            reps: 3,
        };
        assert_eq!(p.probe(&spec).unwrap(), p.run_copy(&spec));
    }

    #[test]
    fn full_thread_probe_hits_min_cut() {
        let p = SimPlatform::dl585().noiseless();
        let spec = CopySpec {
            bind: NodeId(7),
            src: NodeId(3),
            dst: NodeId(7),
            threads: 4,
            bytes_per_thread: 64 << 20,
            reps: 3,
        };
        let samples = p.run_copy(&spec);
        assert_eq!(samples.len(), 3);
        for s in samples {
            assert!((s - 26.0).abs() < 1e-9, "{s}");
        }
    }

    #[test]
    fn undersubscribed_probe_scales_down() {
        let p = SimPlatform::dl585().noiseless();
        let mut spec = CopySpec {
            bind: NodeId(7),
            src: NodeId(7),
            dst: NodeId(6),
            threads: 2,
            bytes_per_thread: 1 << 20,
            reps: 1,
        };
        let half = p.run_copy(&spec)[0];
        spec.threads = 4;
        let full = p.run_copy(&spec)[0];
        assert!((half - full / 2.0).abs() < 1e-9);
        spec.threads = 64;
        assert_eq!(p.run_copy(&spec)[0], full, "oversubscription does not help");
    }

    #[test]
    fn relay_probe_pays_a_penalty() {
        let p = SimPlatform::dl585().noiseless();
        let direct = CopySpec {
            bind: NodeId(7),
            src: NodeId(7),
            dst: NodeId(6),
            threads: 4,
            bytes_per_thread: 1 << 20,
            reps: 1,
        };
        let relayed = CopySpec {
            bind: NodeId(0),
            ..direct
        };
        assert!(p.run_copy(&relayed)[0] < p.run_copy(&direct)[0]);
    }

    #[test]
    fn noise_is_seeded_and_bounded() {
        let p = SimPlatform::dl585();
        let spec = CopySpec {
            bind: NodeId(7),
            src: NodeId(5),
            dst: NodeId(7),
            threads: 4,
            bytes_per_thread: 1 << 20,
            reps: 50,
        };
        let a = p.run_copy(&spec);
        let b = p.run_copy(&spec);
        assert_eq!(a, b);
        for s in &a {
            assert!((s - 45.0).abs() <= 45.0 * 0.021, "{s}");
        }
        assert!(a.iter().any(|&s| (s - 45.0).abs() > 1e-6), "noise present");
    }

    #[test]
    fn validate_reports_typed_errors() {
        let p = SimPlatform::dl585();
        let good = CopySpec {
            bind: NodeId(0),
            src: NodeId(0),
            dst: NodeId(7),
            threads: 4,
            bytes_per_thread: 1 << 20,
            reps: 1,
        };
        assert_eq!(p.validate(&good), Ok(()));
        assert_eq!(
            p.validate(&CopySpec { threads: 0, ..good }),
            Err(PlatformError::ZeroThreads)
        );
        assert_eq!(
            p.validate(&CopySpec { reps: 0, ..good }),
            Err(PlatformError::ZeroReps)
        );
        assert_eq!(
            p.validate(&CopySpec {
                bytes_per_thread: 0,
                ..good
            }),
            Err(PlatformError::EmptyBuffer)
        );
        let bad = p
            .validate(&CopySpec {
                dst: NodeId(42),
                ..good
            })
            .unwrap_err();
        assert_eq!(
            bad,
            PlatformError::NodeOutOfRange {
                node: NodeId(42),
                nodes: 8
            }
        );
        assert!(bad.to_string().contains("target out of range"), "{bad}");
    }

    #[test]
    fn try_run_copy_matches_run_copy_and_rejects_bad_specs() {
        let p = SimPlatform::dl585();
        let spec = CopySpec {
            bind: NodeId(7),
            src: NodeId(3),
            dst: NodeId(7),
            threads: 4,
            bytes_per_thread: 1 << 20,
            reps: 3,
        };
        assert_eq!(p.try_run_copy(&spec).unwrap(), p.run_copy(&spec));
        assert_eq!(
            p.try_run_copy(&CopySpec {
                src: NodeId(99),
                ..spec
            }),
            Err(PlatformError::NodeOutOfRange {
                node: NodeId(99),
                nodes: 8
            })
        );
    }

    #[test]
    #[should_panic(expected = "at least one copy thread")]
    fn zero_threads_rejected() {
        let p = SimPlatform::dl585();
        let spec = CopySpec {
            bind: NodeId(0),
            src: NodeId(0),
            dst: NodeId(0),
            threads: 0,
            bytes_per_thread: 1,
            reps: 1,
        };
        let _ = p.run_copy(&spec);
    }
}
