//! The fleet level: from one characterized DL585 to N heterogeneous NUMA
//! hosts and cluster-level stream placement.
//!
//! The paper's methodology characterizes a single host's per-node I/O
//! bandwidth classes. At warehouse scale that characterization becomes a
//! *per-host profile* in a fleet-wide atlas, and placement becomes a
//! two-level decision — which host, then which node — the setting of MAO
//! (arxiv 2411.01460) and of bandwidth-aware placement (arxiv 2003.03304).
//! A single host is a fleet of one.
//!
//! A seeded [`Fleet`] of generated [`Host`]s (each with a characterized
//! [`HostProfile`]) is placed on by a [`FleetPolicy`] — three host rules,
//! with `class-ranked` delegating the node to
//! [`ClassRanked`](crate::ClassRanked) — and the [`ClusterScheduler`] runs
//! the episodes in rounds through the engine's `Simulation`, reporting each
//! rule as a [`FleetReport`].
//!
//! ```
//! use numa_sched::fleet::{ClusterScheduler, Fleet, StreamSpec};
//!
//! let fleet = Fleet::generate(2, 42).unwrap();
//! let streams = StreamSpec::workload(8, 7);
//! let reports = ClusterScheduler::new(&fleet).compare(&streams).unwrap();
//! assert_eq!(reports.len(), 3);
//! assert!(reports.iter().all(|r| r.aggregate_gbps > 0.0));
//! ```

mod host;
mod policy;
mod scheduler;

pub use host::{Host, HostProfile};
pub use policy::{FleetPolicy, Placement, StreamSpec, POLICY_NAMES};
pub use scheduler::{jain, ClusterScheduler, FleetReport};

use crate::error::SchedError;

/// Largest fleet one request or command may generate: generation
/// characterizes every host, so the cap keeps one call from monopolizing
/// a server worker or hanging the CLI.
pub const MAX_HOSTS: usize = 64;

/// Largest workload one fleet episode may place: the one stream bound,
/// which [`numa_fio::run_jobs`] enforces too.
pub use numa_fio::MAX_STREAMS;

/// Check fleet inputs before generating anything: `hosts` must be in
/// `1..=MAX_HOSTS` and `streams` in `1..=MAX_STREAMS`.
pub fn check_bounds(hosts: usize, streams: usize) -> Result<(), SchedError> {
    for (what, max, got) in [
        ("hosts", MAX_HOSTS, hosts),
        ("streams", MAX_STREAMS, streams),
    ] {
        if got == 0 || got > max {
            return Err(SchedError::OutOfRange { what, max, got });
        }
    }
    Ok(())
}

/// N heterogeneous NUMA hosts generated from one seed. Host `i` of fleet
/// seed `s` is always the same machine, so every experiment over a fleet is
/// reproducible bit-for-bit.
#[derive(Debug, Clone)]
pub struct Fleet {
    seed: u64,
    hosts: Vec<Host>,
}

impl Fleet {
    /// Generate `n` hosts from `seed`.
    pub fn generate(n: usize, seed: u64) -> Result<Fleet, SchedError> {
        if n == 0 {
            return Err(SchedError::EmptyFleet);
        }
        let hosts = (0..n)
            .map(|id| Host::generate(id, seed))
            .collect::<Result<_, _>>()?;
        Ok(Fleet { seed, hosts })
    }

    /// Build a fleet from explicit hosts (ids must match positions).
    pub fn from_hosts(hosts: Vec<Host>) -> Result<Fleet, SchedError> {
        if hosts.is_empty() {
            return Err(SchedError::EmptyFleet);
        }
        Ok(Fleet { seed: 0, hosts })
    }

    /// The generation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// True when the fleet has no hosts (never, post-construction).
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// All hosts, id order.
    pub fn hosts(&self) -> &[Host] {
        &self.hosts
    }

    /// One host by id.
    pub fn host(&self, id: usize) -> &Host {
        &self.hosts[id]
    }

    /// Total NUMA nodes across the fleet.
    pub fn total_nodes(&self) -> usize {
        self.hosts.iter().map(Host::num_nodes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_rejects_empty() {
        assert_eq!(Fleet::generate(0, 1).unwrap_err(), SchedError::EmptyFleet);
        assert_eq!(
            Fleet::from_hosts(Vec::new()).unwrap_err(),
            SchedError::EmptyFleet
        );
    }

    #[test]
    fn fleet_is_reproducible_and_heterogeneous() {
        let a = Fleet::generate(4, 99).unwrap();
        let b = Fleet::generate(4, 99).unwrap();
        assert_eq!(a.len(), 4);
        assert_eq!(a.seed(), 99);
        for (x, y) in a.hosts().iter().zip(b.hosts()) {
            assert_eq!(x.spec, y.spec);
            assert_eq!(x.profile(), y.profile());
        }
        assert!(a.total_nodes() > 4, "hosts have multiple nodes");
        // Ids are positional.
        for (i, h) in a.hosts().iter().enumerate() {
            assert_eq!(h.id, i);
        }
    }
}
