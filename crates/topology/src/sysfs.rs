//! Topology discovery from a Linux `/sys` tree — the `hwloc` role.
//!
//! The paper (§II-B) describes hwloc as analyzing "/proc and /sys file
//! systems in Linux" to give a systemic view of the host, while noting it
//! "does not include the information regarding how the NUMA nodes are
//! interconnected". This module does the same from the node directories
//! under `/sys/devices/system/node`:
//!
//! * `node<N>/cpulist` — core ranges (`"0-3"`, `"0,2,4-5"`);
//! * `node<N>/meminfo` — `MemTotal` per node;
//! * `node<N>/distance` — the ACPI SLIT row;
//! * optionally PCI devices with their `numa_node` attributes.
//!
//! The SLIT gives *distances*, not wiring: [`discover`] reconstructs links
//! only between minimum-distance remote pairs and flags the result as a
//! distance-derived approximation — hwloc's blind spot, preserved honestly.
//! On a real Linux host call [`discover_from_root`] with `/sys`; tests use
//! an in-memory tree.

use crate::device::DeviceSpec;
use crate::ids::{NodeId, PackageId};
use crate::link::HtWidth;
use crate::node::NodeSpec;
use crate::topology::Topology;
use std::collections::BTreeMap;
use std::path::Path;

/// A parse/discovery failure with context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SysfsError {
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for SysfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sysfs discovery: {}", self.message)
    }
}

impl std::error::Error for SysfsError {}

fn err(message: impl Into<String>) -> SysfsError {
    SysfsError {
        message: message.into(),
    }
}

/// An in-memory `/sys/devices/system/node` snapshot: relative path →
/// file contents. The unit real discovery reads and tests fabricate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SysfsSnapshot {
    files: BTreeMap<String, String>,
}

impl SysfsSnapshot {
    /// Empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a file (builder style).
    pub fn with(mut self, path: &str, contents: &str) -> Self {
        self.files.insert(path.to_string(), contents.to_string());
        self
    }

    /// Read a file.
    pub fn read(&self, path: &str) -> Option<&str> {
        self.files.get(path).map(String::as_str)
    }

    /// Node ids present (from `node<N>/cpulist` entries), sorted.
    pub fn node_ids(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = self
            .files
            .keys()
            .filter_map(|k| {
                k.strip_prefix("node")?
                    .strip_suffix("/cpulist")?
                    .parse()
                    .ok()
            })
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Capture a snapshot from a real sysfs node directory
    /// (`/sys/devices/system/node`). Missing optional files are skipped.
    pub fn capture(root: &Path) -> std::io::Result<Self> {
        let mut snap = SysfsSnapshot::new();
        for entry in std::fs::read_dir(root)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().to_string();
            if !name.starts_with("node") || name[4..].parse::<usize>().is_err() {
                continue;
            }
            for file in ["cpulist", "meminfo", "distance"] {
                let p = entry.path().join(file);
                if let Ok(contents) = std::fs::read_to_string(&p) {
                    snap.files.insert(format!("{name}/{file}"), contents);
                }
            }
        }
        Ok(snap)
    }
}

/// Parse a Linux cpulist (`"0-3"`, `"0,2,8-11"`) into core numbers.
pub fn parse_cpulist(s: &str) -> Result<Vec<u32>, SysfsError> {
    let mut cores = Vec::new();
    for part in s.trim().split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        match part.split_once('-') {
            Some((a, b)) => {
                let a: u32 = a
                    .trim()
                    .parse()
                    .map_err(|_| err(format!("bad range '{part}'")))?;
                let b: u32 = b
                    .trim()
                    .parse()
                    .map_err(|_| err(format!("bad range '{part}'")))?;
                if b < a {
                    return Err(err(format!("reversed range '{part}'")));
                }
                cores.extend(a..=b);
            }
            None => cores.push(part.parse().map_err(|_| err(format!("bad cpu '{part}'")))?),
        }
    }
    Ok(cores)
}

/// Parse the `MemTotal` line of a per-node meminfo.
pub fn parse_mem_total_mib(s: &str) -> Result<u64, SysfsError> {
    for line in s.lines() {
        if let Some(idx) = line.find("MemTotal:") {
            let rest = &line[idx + "MemTotal:".len()..];
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .map_err(|_| err(format!("bad MemTotal line '{line}'")))?;
            return Ok(kb / 1024);
        }
    }
    Err(err("no MemTotal line"))
}

/// Parse a SLIT distance row (`"10 16 16 22"`).
pub fn parse_distance_row(s: &str) -> Result<Vec<u32>, SysfsError> {
    s.split_whitespace()
        .map(|t| t.parse().map_err(|_| err(format!("bad distance '{t}'"))))
        .collect()
}

/// Result of discovery: the reconstructed topology plus honesty flags.
#[derive(Debug, Clone, PartialEq)]
pub struct Discovered {
    /// The machine, with distance-derived links.
    pub topology: Topology,
    /// The raw SLIT matrix as reported by firmware.
    pub slit: Vec<Vec<u32>>,
    /// True when the SLIT was flat (all remote distances equal) — the
    /// "often inaccurate" case the paper cites \[18\]: wiring cannot even be
    /// approximated, so a full mesh is emitted.
    pub slit_was_flat: bool,
}

/// Reconstruct a [`Topology`] from a snapshot.
///
/// Packages are inferred from the SLIT: remote pairs at the *minimum*
/// remote distance are treated as same-package when that distance is
/// strictly below the next tier, matching how real 2-die packages report.
/// Links are drawn between minimum-distance pairs (the best hwloc-style
/// approximation — real wiring is NOT in sysfs, which is the paper's
/// point).
pub fn discover(snap: &SysfsSnapshot) -> Result<Discovered, SysfsError> {
    let ids = snap.node_ids();
    if ids.is_empty() {
        return Err(err("no node<N>/cpulist entries"));
    }
    if ids != (0..ids.len()).collect::<Vec<_>>() {
        return Err(err(format!("node ids are not dense: {ids:?}")));
    }
    let n = ids.len();

    let mut cores = Vec::with_capacity(n);
    let mut mem_mib = Vec::with_capacity(n);
    let mut slit: Vec<Vec<u32>> = Vec::with_capacity(n);
    for i in 0..n {
        let cpulist = snap
            .read(&format!("node{i}/cpulist"))
            .ok_or_else(|| err(format!("missing node{i}/cpulist")))?;
        cores.push(parse_cpulist(cpulist)?.len() as u32);
        let meminfo = snap
            .read(&format!("node{i}/meminfo"))
            .ok_or_else(|| err(format!("missing node{i}/meminfo")))?;
        mem_mib.push(parse_mem_total_mib(meminfo)?);
        let distance = snap
            .read(&format!("node{i}/distance"))
            .ok_or_else(|| err(format!("missing node{i}/distance")))?;
        let row = parse_distance_row(distance)?;
        if row.len() != n {
            return Err(err(format!(
                "node{i}/distance has {} entries for {n} nodes",
                row.len()
            )));
        }
        slit.push(row);
    }

    // Distance tiers over remote pairs.
    let mut remote: Vec<u32> = (0..n)
        .flat_map(|i| {
            slit[i]
                .iter()
                .enumerate()
                .filter(move |&(j, _)| j != i)
                .map(|(_, &d)| d)
        })
        .collect();
    remote.sort_unstable();
    remote.dedup();
    let slit_was_flat = remote.len() <= 1 && n > 2;
    let min_remote = remote.first().copied().unwrap_or(10);
    let has_package_tier = remote.len() >= 2;

    // Package assignment: greedy pairing over minimum-distance pairs when a
    // distinct closest tier exists; otherwise one package per node.
    let mut package = vec![usize::MAX; n];
    let mut next_pkg = 0;
    if has_package_tier {
        for i in 0..n {
            if package[i] != usize::MAX {
                continue;
            }
            package[i] = next_pkg;
            if let Some(j) =
                (i + 1..n).find(|&j| package[j] == usize::MAX && slit[i][j] == min_remote)
            {
                package[j] = next_pkg;
            }
            next_pkg += 1;
        }
    } else {
        for (i, p) in package.iter_mut().enumerate() {
            *p = i;
        }
        next_pkg = n;
    }
    let _ = next_pkg;

    let mut b = Topology::builder("sysfs-discovered");
    for i in 0..n {
        b.node(NodeSpec {
            package: PackageId::new(package[i]),
            cores: cores[i].max(1),
            dram_mib: mem_mib[i].max(1),
            llc_bytes: 5 * 1024 * 1024,
            has_io_hub: false,
            os_home: i == 0,
        });
    }
    // Links: every pair at the minimum remote distance; if flat, full mesh
    // (we cannot know better — hwloc's documented blind spot).
    #[allow(clippy::needless_range_loop)] // paired (i, j) matrix walk
    for i in 0..n {
        for j in (i + 1)..n {
            let link_it = if slit_was_flat {
                true
            } else {
                slit[i][j] == min_remote
                    || (has_package_tier && remote.get(1).is_some_and(|&t| slit[i][j] == t))
            };
            if link_it {
                b.link(NodeId::new(i), NodeId::new(j), HtWidth::W8);
            }
        }
    }
    let topology = b
        .build()
        .map_err(|e| err(format!("reconstructed graph invalid: {e}")))?;
    Ok(Discovered {
        topology,
        slit,
        slit_was_flat,
    })
}

/// Discover from a real sysfs root (e.g. `/sys/devices/system/node`),
/// optionally attaching `devices`.
pub fn discover_from_root(root: &Path, devices: &[DeviceSpec]) -> Result<Discovered, SysfsError> {
    let snap = SysfsSnapshot::capture(root).map_err(|e| err(format!("{root:?}: {e}")))?;
    let mut d = discover(&snap)?;
    if !devices.is_empty() {
        let mut b = Topology::builder(d.topology.name().to_string());
        for node in d.topology.node_ids() {
            b.node(d.topology.node(node).clone());
        }
        for l in d.topology.links() {
            b.link(l.a, l.b, l.width);
        }
        for dev in devices {
            b.device(*dev);
        }
        d.topology = b.build().map_err(|e| err(e.to_string()))?;
    }
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 4-node snapshot shaped like a 2-package host: SLIT 10/16/22.
    #[allow(clippy::needless_range_loop)]
    fn four_node_snapshot() -> SysfsSnapshot {
        let mut s = SysfsSnapshot::new();
        let slit = ["10 16 22 22", "16 10 22 22", "22 22 10 16", "22 22 16 10"];
        for i in 0..4 {
            s = s
                .with(
                    &format!("node{i}/cpulist"),
                    &format!("{}-{}", i * 4, i * 4 + 3),
                )
                .with(
                    &format!("node{i}/meminfo"),
                    &format!("Node {i} MemTotal:      4194304 kB\nNode {i} MemFree: 1000 kB"),
                )
                .with(&format!("node{i}/distance"), slit[i]);
        }
        s
    }

    #[test]
    fn cpulist_parsing() {
        assert_eq!(parse_cpulist("0-3").unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(parse_cpulist("0,2,8-10").unwrap(), vec![0, 2, 8, 9, 10]);
        assert_eq!(parse_cpulist(" 5 ").unwrap(), vec![5]);
        assert!(parse_cpulist("3-1").is_err());
        assert!(parse_cpulist("x").is_err());
    }

    #[test]
    fn meminfo_parsing() {
        assert_eq!(
            parse_mem_total_mib("Node 0 MemTotal:      4194304 kB").unwrap(),
            4096
        );
        assert!(parse_mem_total_mib("nothing here").is_err());
    }

    #[test]
    fn distance_parsing() {
        assert_eq!(parse_distance_row("10 16 22").unwrap(), vec![10, 16, 22]);
        assert!(parse_distance_row("10 banana").is_err());
    }

    #[test]
    fn discovery_reconstructs_packages_and_links() {
        let d = discover(&four_node_snapshot()).unwrap();
        assert!(!d.slit_was_flat);
        let t = &d.topology;
        assert_eq!(t.num_nodes(), 4);
        assert_eq!(t.num_packages(), 2);
        // Same-package pairs are the min-distance pairs.
        assert_eq!(t.node(NodeId(0)).package, t.node(NodeId(1)).package);
        assert_eq!(t.node(NodeId(2)).package, t.node(NodeId(3)).package);
        assert_ne!(t.node(NodeId(0)).package, t.node(NodeId(2)).package);
        assert_eq!(t.node(NodeId(0)).cores, 4);
        assert_eq!(t.node(NodeId(0)).dram_mib, 4096);
        // Connected graph with both tiers linked.
        assert!(t.link_between(NodeId(0), NodeId(1)).is_some());
        assert!(t.link_between(NodeId(0), NodeId(2)).is_some());
    }

    #[test]
    fn flat_slit_is_flagged_and_meshed() {
        let mut s = SysfsSnapshot::new();
        for i in 0..4 {
            s = s
                .with(&format!("node{i}/cpulist"), "0-3")
                .with(&format!("node{i}/meminfo"), "MemTotal: 1048576 kB")
                .with(
                    &format!("node{i}/distance"),
                    &(0..4)
                        .map(|j| if j == i { "10" } else { "20" })
                        .collect::<Vec<_>>()
                        .join(" "),
                );
        }
        let d = discover(&s).unwrap();
        assert!(d.slit_was_flat, "lazy-firmware SLIT must be flagged");
        // Full mesh: 6 links for 4 nodes.
        assert_eq!(d.topology.links().len(), 6);
        // No package structure claimable.
        assert_eq!(d.topology.num_packages(), 4);
    }

    #[test]
    fn missing_files_are_reported() {
        let s = SysfsSnapshot::new().with("node0/cpulist", "0-3");
        let e = discover(&s).unwrap_err();
        assert!(e.message.contains("node0/meminfo"), "{e}");
        assert!(discover(&SysfsSnapshot::new()).is_err());
    }

    #[test]
    fn sparse_node_ids_rejected() {
        let s = SysfsSnapshot::new()
            .with("node0/cpulist", "0-3")
            .with("node2/cpulist", "4-7");
        let e = discover(&s).unwrap_err();
        assert!(e.message.contains("not dense"), "{e}");
    }

    #[test]
    fn wrong_distance_width_rejected() {
        let s = four_node_snapshot().with("node1/distance", "16 10");
        assert!(discover(&s).is_err());
    }

    #[test]
    fn discovered_topology_characterizes() {
        // The reconstructed machine plugs straight into the rest of the
        // stack: hop distances and localities work.
        let d = discover(&four_node_snapshot()).unwrap();
        let t = &d.topology;
        use crate::topology::Locality;
        assert_eq!(t.locality(NodeId(0), NodeId(1)), Locality::Neighbour);
        assert!(matches!(
            t.locality(NodeId(0), NodeId(2)),
            Locality::Remote(_)
        ));
    }

    #[test]
    fn capture_from_real_sysfs_if_present() {
        // On Linux CI hosts /sys/devices/system/node usually exists; when
        // it does, discovery must either succeed or fail gracefully.
        let root = Path::new("/sys/devices/system/node");
        if root.exists() {
            match discover_from_root(root, &[]) {
                Ok(d) => assert!(d.topology.num_nodes() >= 1),
                Err(e) => assert!(!e.message.is_empty()),
            }
        }
    }
}
