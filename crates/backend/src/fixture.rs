//! The versioned JSONL probe fixture.
//!
//! Line 1 is a [`FixtureHeader`] (schema tag, platform shape, and —
//! when the recorded platform knew one — its full embedded [`Topology`]);
//! every following line is one [`ProbeRecord`]: the exact [`CopySpec`]
//! issued and the samples it returned. The format is append-friendly,
//! diff-friendly, and stable: floats round-trip exactly (shortest
//! round-trip text, correctly rounded parsing in
//! [`numa_par::json`](mod@numa_par::json)), which is what makes replay
//! bit-identical to the live run.

use crate::error::BackendError;
use numa_par::json;
use numa_topology::{presets, Topology};
use numio_core::CopySpec;
use std::path::Path;

/// The schema tag this build reads and writes. Bump the suffix on any
/// incompatible change; readers reject unknown tags with a typed
/// [`BackendError::SchemaMismatch`] instead of misinterpreting data.
pub const SCHEMA: &str = "numio-probe-fixture/1";

numa_par::json_struct! {
    /// First line of a fixture: what was measured, and its shape.
    #[derive(Debug, Clone, PartialEq)]
    pub struct FixtureHeader {
        /// Format version tag ([`SCHEMA`]).
        pub schema: String,
        /// Label of the recorded platform (e.g. `sim:dl585-g7`). Replay
        /// reports this label so replayed models compare bit-identical to
        /// live ones.
        pub platform: String,
        /// NUMA node count.
        pub nodes: usize,
        /// Cores per node, indexed by node.
        pub cores_per_node: Vec<u32>,
        /// Nodes with I/O devices attached (characterization targets).
        #[json(default)]
        pub io_nodes: Vec<u16>,
        /// Whether the recorded platform was deterministic.
        #[json(default)]
        pub deterministic: bool,
        /// Name of the recorded topology, when it matches a built-in preset
        /// (`dl585-g7`, `intel-4s4n`, ...) — a human-readable hint and a
        /// fallback when `topology` is absent.
        #[json(skip_none)]
        pub preset: Option<String>,
        /// The full topology, embedded so the fixture is self-contained.
        #[json(skip_none)]
        pub topology: Option<Topology>,
    }
}

numa_par::json_struct! {
    /// One recorded probe: the spec issued and every sample it returned.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ProbeRecord {
        /// The exact probe spec.
        pub spec: CopySpec,
        /// One bandwidth sample (Gbit/s) per repetition, verbatim.
        pub samples: Vec<f64>,
    }
}

/// A parsed fixture: header plus probe log, in recording order.
#[derive(Debug, Clone, PartialEq)]
pub struct Fixture {
    /// The header line.
    pub header: FixtureHeader,
    /// The probe lines, in the order they were recorded.
    pub probes: Vec<ProbeRecord>,
}

impl Fixture {
    /// Serialize to JSONL (header line + one line per probe).
    pub fn to_jsonl(&self) -> String {
        let mut out = json::to_string(&self.header);
        out.push('\n');
        for p in &self.probes {
            out.push_str(&json::to_string(p));
            out.push('\n');
        }
        out
    }

    /// Parse from JSONL text. Blank lines are ignored; the first
    /// non-blank line must be a header with a known [`SCHEMA`].
    pub fn from_jsonl(text: &str) -> Result<Self, BackendError> {
        let mut header: Option<FixtureHeader> = None;
        let mut probes = Vec::new();
        for (idx, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let lineno = idx + 1;
            match header {
                None => {
                    let h: FixtureHeader =
                        json::from_str(line).map_err(|e| BackendError::Parse {
                            line: lineno,
                            reason: e.to_string(),
                        })?;
                    if h.schema != SCHEMA {
                        return Err(BackendError::SchemaMismatch { found: h.schema });
                    }
                    header = Some(h);
                }
                Some(_) => {
                    let p: ProbeRecord = json::from_str(line).map_err(|e| BackendError::Parse {
                        line: lineno,
                        reason: e.to_string(),
                    })?;
                    probes.push(p);
                }
            }
        }
        let header = header.ok_or(BackendError::EmptyFixture)?;
        Ok(Fixture { header, probes })
    }

    /// Write to a file.
    pub fn write_to(&self, path: impl AsRef<Path>) -> Result<(), BackendError> {
        let path = path.as_ref();
        std::fs::write(path, self.to_jsonl()).map_err(|e| BackendError::Io {
            path: path.display().to_string(),
            reason: e.to_string(),
        })
    }

    /// Read from a file.
    pub fn read_from(path: impl AsRef<Path>) -> Result<Self, BackendError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| BackendError::Io {
            path: path.display().to_string(),
            reason: e.to_string(),
        })?;
        Self::from_jsonl(&text)
    }

    /// Resolve the fixture's topology: the embedded one when present,
    /// else a preset named in the header, else `None`.
    pub fn resolve_topology(&self) -> Result<Option<Topology>, BackendError> {
        if let Some(t) = &self.header.topology {
            return Ok(Some(t.clone()));
        }
        match self.header.preset.as_deref() {
            None => Ok(None),
            Some(name) => {
                preset_topology(name)
                    .map(Some)
                    .ok_or_else(|| BackendError::UnknownPreset {
                        name: name.to_string(),
                    })
            }
        }
    }
}

/// Look up a built-in preset topology by its `Topology::name()`.
pub fn preset_topology(name: &str) -> Option<Topology> {
    match name {
        "dl585-g7" => Some(presets::dl585_testbed()),
        "dl585-split-io" => Some(presets::dl585_split_io()),
        "intel-4s4n" => Some(presets::intel_4s4n()),
        "amd-4s8n" => Some(presets::amd_4s8n()),
        "amd-8s8n" => Some(presets::amd_8s8n()),
        "blade32" => Some(presets::blade32()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_topology::NodeId;

    #[test]
    fn shipped_fixture_lines_re_emit_byte_identical() {
        let text = include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/fixtures/dl585.jsonl"
        ));
        let mut lines = text.lines();
        let header = lines.next().unwrap();
        let h: FixtureHeader = json::from_str(header).unwrap();
        assert_eq!(json::to_string(&h), header);
        for line in lines {
            let p: ProbeRecord = json::from_str(line).unwrap();
            assert_eq!(json::to_string(&p), line);
        }
        assert_eq!(Fixture::from_jsonl(text).unwrap().to_jsonl(), text);
    }

    fn sample_fixture() -> Fixture {
        Fixture {
            header: FixtureHeader {
                schema: SCHEMA.to_string(),
                platform: "sim:dl585-g7".to_string(),
                nodes: 8,
                cores_per_node: vec![4; 8],
                io_nodes: vec![7],
                deterministic: true,
                preset: Some("dl585-g7".to_string()),
                topology: None,
            },
            probes: vec![ProbeRecord {
                spec: CopySpec {
                    bind: NodeId(7),
                    src: NodeId(3),
                    dst: NodeId(7),
                    threads: 4,
                    bytes_per_thread: 64 << 20,
                    reps: 3,
                },
                samples: vec![26.0, 25.987654321, 26.012345678901234],
            }],
        }
    }

    #[test]
    fn jsonl_round_trip_is_exact() {
        let fix = sample_fixture();
        let back = Fixture::from_jsonl(&fix.to_jsonl()).unwrap();
        assert_eq!(back, fix);
        // Floats survive bit-exactly — the foundation of bit-identical replay.
        assert_eq!(back.probes[0].samples[2], 26.012345678901234);
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let mut fix = sample_fixture();
        fix.header.schema = "numio-probe-fixture/99".to_string();
        let e = Fixture::from_jsonl(&fix.to_jsonl()).unwrap_err();
        assert_eq!(
            e,
            BackendError::SchemaMismatch {
                found: "numio-probe-fixture/99".to_string()
            }
        );
        assert!(e.to_string().contains("unsupported fixture schema"), "{e}");
    }

    #[test]
    fn garbage_lines_are_typed_parse_errors() {
        assert!(matches!(
            Fixture::from_jsonl("not json"),
            Err(BackendError::Parse { line: 1, .. })
        ));
        let mut text = sample_fixture().to_jsonl();
        text.push_str("{\"spec\": \"nope\"}\n");
        assert!(matches!(
            Fixture::from_jsonl(&text),
            Err(BackendError::Parse { line: 3, .. })
        ));
        assert_eq!(Fixture::from_jsonl("\n\n"), Err(BackendError::EmptyFixture));
    }

    #[test]
    fn preset_resolution_covers_the_builtin_machines() {
        for name in [
            "dl585-g7",
            "dl585-split-io",
            "intel-4s4n",
            "amd-4s8n",
            "amd-8s8n",
            "blade32",
        ] {
            let topo = preset_topology(name).unwrap_or_else(|| panic!("{name}"));
            assert_eq!(topo.name(), name);
        }
        assert!(preset_topology("cray-1").is_none());
        let mut fix = sample_fixture();
        fix.header.preset = Some("cray-1".to_string());
        assert_eq!(
            fix.resolve_topology(),
            Err(BackendError::UnknownPreset {
                name: "cray-1".to_string()
            })
        );
    }

    #[test]
    fn embedded_topology_wins_over_preset() {
        let mut fix = sample_fixture();
        fix.header.topology = Some(presets::dl585_split_io());
        fix.header.preset = Some("dl585-g7".to_string());
        let t = fix.resolve_topology().unwrap().unwrap();
        assert_eq!(t.name(), "dl585-split-io");
    }
}
