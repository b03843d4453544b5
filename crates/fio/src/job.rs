//! Job specifications, fio-style.

use crate::memsys::MemPolicy;
use numa_engine::JitterCfg;
use numa_iodev::{IoEngine, NicOp};
use numa_topology::NodeId;
use std::fmt::Write as _;

/// What a job exercises.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// A network operation against the host NIC.
    Nic(NicOp),
    /// Disk I/O against the SSD cards.
    Ssd {
        /// `true` = write to the drives, `false` = read back.
        write: bool,
        /// fio I/O engine.
        engine: IoEngine,
        /// Kernel-bypass (O_DIRECT) vs buffered.
        direct: bool,
    },
}

/// One fio job: `numjobs` identical pinned processes.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Device workload.
    pub workload: Workload,
    /// Parallel processes/streams spawned by this job.
    pub numjobs: u32,
    /// CPU node binding (`numactl --cpunodebind`).
    pub bind: NodeId,
    /// Buffer placement policy. The paper's default: "all test cases will
    /// allocate buffers in their local memory space" — local preferred.
    pub mem_policy: MemPolicy,
    /// Data volume per process, GBytes (paper: 400).
    pub size_gbytes: f64,
    /// Block size in KiB (paper: 128). Informational — the fluid model is
    /// block-size agnostic above ~64 KiB.
    pub block_kib: u32,
    /// Run-to-run noise.
    pub jitter: JitterCfg,
    /// QoS weight: this job's streams receive `weight x` the fair share of
    /// any contended resource (weighted max-min). 1.0 = best effort.
    pub weight: f64,
}

impl JobSpec {
    /// A NIC job with the paper's Table III defaults.
    pub fn nic(op: NicOp, bind: NodeId) -> Self {
        JobSpec {
            workload: Workload::Nic(op),
            numjobs: 1,
            bind,
            mem_policy: MemPolicy::LocalPreferred,
            size_gbytes: 400.0,
            block_kib: 128,
            jitter: JitterCfg::none(),
            weight: 1.0,
        }
    }

    /// An SSD job with the paper's §IV-B3 defaults: libaio, QD16, direct.
    pub fn ssd(write: bool, bind: NodeId) -> Self {
        JobSpec {
            workload: Workload::Ssd {
                write,
                engine: IoEngine::paper(),
                direct: true,
            },
            ..JobSpec::nic(NicOp::TcpSend, bind)
        }
    }

    /// Set the number of parallel processes.
    pub fn numjobs(mut self, n: u32) -> Self {
        assert!(n >= 1, "numjobs must be at least 1");
        self.numjobs = n;
        self
    }

    /// Set the per-process volume in GBytes.
    pub fn size_gbytes(mut self, gb: f64) -> Self {
        self.size_gbytes = gb;
        self
    }

    /// Set the buffer policy.
    pub fn mem_policy(mut self, p: MemPolicy) -> Self {
        self.mem_policy = p;
        self
    }

    /// Enable jitter.
    pub fn jitter(mut self, j: JitterCfg) -> Self {
        self.jitter = j;
        self
    }

    /// Set the QoS weight (must be positive).
    pub fn weight(mut self, weight: f64) -> Self {
        assert!(weight > 0.0, "weight must be positive");
        self.weight = weight;
        self
    }

    /// The node the job's buffers land on: explicit bind target, else the
    /// CPU node (local-preferred with ample memory). Panics on an empty
    /// interleave list, which `run_jobs` rejects as a typed error first.
    pub fn buffer_node(&self) -> NodeId {
        match &self.mem_policy {
            MemPolicy::Bind(n) | MemPolicy::Preferred(n) => *n,
            MemPolicy::LocalPreferred => self.bind,
            MemPolicy::Interleave(nodes) => {
                // The fluid model needs one endpoint; take the first node
                // (full page-striping is a documented simplification).
                nodes[0]
            }
        }
    }

    /// fio-style one-line description.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        self.write_describe(&mut out);
        out
    }

    /// Append [`Self::describe`]'s text to `out`, so a caller that
    /// labels many streams writes it once into a buffer it reuses.
    pub(crate) fn write_describe(&self, out: &mut String) {
        let _ = match &self.workload {
            Workload::Nic(op) => write!(out, "{op:?}"),
            Workload::Ssd {
                write,
                engine,
                direct,
            } => write!(
                out,
                "Ssd{}({engine:?}{})",
                if *write { "Write" } else { "Read" },
                if *direct { ",direct" } else { ",buffered" }
            ),
        };
        let _ = write!(
            out,
            " numjobs={} cpunode={} mem={} size={}G bs={}K",
            self.numjobs, self.bind, self.mem_policy, self.size_gbytes, self.block_kib
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nic_defaults_match_table_iii() {
        let j = JobSpec::nic(NicOp::TcpSend, NodeId(5));
        assert_eq!(j.size_gbytes, 400.0);
        assert_eq!(j.block_kib, 128);
        assert_eq!(j.numjobs, 1);
        assert_eq!(j.buffer_node(), NodeId(5));
    }

    #[test]
    fn ssd_defaults_match_section_ivb3() {
        let j = JobSpec::ssd(true, NodeId(2));
        match j.workload {
            Workload::Ssd {
                write,
                engine,
                direct,
            } => {
                assert!(write);
                assert!(direct);
                assert_eq!(engine, IoEngine::Libaio { iodepth: 16 });
            }
            _ => panic!("wrong workload"),
        }
    }

    #[test]
    fn buffer_node_follows_policy() {
        let j = JobSpec::nic(NicOp::TcpRecv, NodeId(4)).mem_policy(MemPolicy::bind(1));
        assert_eq!(j.buffer_node(), NodeId(1));
        let j = JobSpec::nic(NicOp::TcpRecv, NodeId(4))
            .mem_policy(MemPolicy::Interleave(vec![NodeId(2), NodeId(3)]));
        assert_eq!(j.buffer_node(), NodeId(2));
    }

    #[test]
    fn describe_mentions_key_fields() {
        let d = JobSpec::nic(NicOp::RdmaRead, NodeId(0))
            .numjobs(4)
            .describe();
        assert!(d.contains("RdmaRead"));
        assert!(d.contains("numjobs=4"));
        assert!(d.contains("cpunode=0"));
    }

    #[test]
    #[should_panic(expected = "numjobs")]
    fn zero_jobs_rejected() {
        let _ = JobSpec::nic(NicOp::TcpSend, NodeId(0)).numjobs(0);
    }
}
