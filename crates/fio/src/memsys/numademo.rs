//! A `numademo` work-alike (§II-B): "a benchmark which shows the effect of
//! possible resource affinity policies, such as local, remote, and
//! interleave. It includes seven test modules, such as memset, memcpy, and
//! also the STREAM benchmark."
//!
//! The paper extends exactly this tool with its `iomodel` module; we model
//! the original seven so the extended tool exists end to end
//! (`numio-core`'s modeler is the added module).

use super::stream::{StreamBench, StreamOp};
use numa_fabric::Fabric;
use numa_topology::NodeId;
use std::fmt::Write as _;

/// The seven classic test modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TestModule {
    /// `memset(3)` over the test region (write-only traffic).
    Memset,
    /// `memcpy(3)` between two regions.
    Memcpy,
    /// Forward sequential 8-byte reads.
    Forward,
    /// STREAM Copy.
    StreamCopy,
    /// STREAM Scale.
    StreamScale,
    /// STREAM Add.
    StreamAdd,
    /// STREAM Triad.
    StreamTriad,
}

impl TestModule {
    /// All seven modules.
    pub const ALL: [TestModule; 7] = [
        TestModule::Memset,
        TestModule::Memcpy,
        TestModule::Forward,
        TestModule::StreamCopy,
        TestModule::StreamScale,
        TestModule::StreamAdd,
        TestModule::StreamTriad,
    ];

    /// numademo's printed name.
    pub fn name(self) -> &'static str {
        match self {
            TestModule::Memset => "memset",
            TestModule::Memcpy => "memcpy",
            TestModule::Forward => "forward",
            TestModule::StreamCopy => "STREAM copy",
            TestModule::StreamScale => "STREAM scale",
            TestModule::StreamAdd => "STREAM add",
            TestModule::StreamTriad => "STREAM triad",
        }
    }
}

/// The affinity policies numademo sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Affinity {
    /// Memory on the running node.
    Local,
    /// Memory on a specific other node.
    Remote(NodeId),
    /// Memory interleaved across all nodes.
    Interleave,
}

/// One measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct DemoResult {
    /// Test module.
    pub module: TestModule,
    /// Affinity policy.
    pub affinity: Affinity,
    /// Measured bandwidth, Gbit/s.
    pub gbps: f64,
}

/// Run one module under one affinity with threads on `cpu`.
pub fn run_module(fabric: &Fabric, cpu: NodeId, module: TestModule, affinity: Affinity) -> f64 {
    let bench = |op: StreamOp| StreamBench {
        op,
        noise: 0.0,
        ..StreamBench::paper()
    };
    let pio = |mem: NodeId, factor: f64| fabric.pio_bandwidth(cpu, mem) * factor;
    let value = |mem: NodeId| match module {
        // memset writes only: roughly 1.35x copy throughput (no read
        // stream competing for the controller).
        TestModule::Memset => pio(mem, 1.35),
        // memcpy is the Copy kernel without the benchmark harness.
        TestModule::Memcpy => pio(mem, 1.0),
        // pointer-free sequential reads: a bit above copy.
        TestModule::Forward => pio(mem, 1.18),
        TestModule::StreamCopy => bench(StreamOp::Copy).run(fabric, cpu, mem).max_gbps,
        TestModule::StreamScale => bench(StreamOp::Scale).run(fabric, cpu, mem).max_gbps,
        TestModule::StreamAdd => bench(StreamOp::Add).run(fabric, cpu, mem).max_gbps,
        TestModule::StreamTriad => bench(StreamOp::Triad).run(fabric, cpu, mem).max_gbps,
    };
    match affinity {
        Affinity::Local => value(cpu),
        Affinity::Remote(mem) => value(mem),
        Affinity::Interleave => {
            // Pages round-robin across every node: the harmonic mean of the
            // per-node rates (each page stalls at its node's rate).
            let n = fabric.num_nodes();
            let h: f64 = (0..n).map(|m| 1.0 / value(NodeId::new(m))).sum();
            n as f64 / h
        }
    }
}

/// Full sweep from one CPU node, like running `numademo` pinned there.
pub fn run_all(fabric: &Fabric, cpu: NodeId, remote: NodeId) -> Vec<DemoResult> {
    let mut out = Vec::new();
    for module in TestModule::ALL {
        for affinity in [
            Affinity::Local,
            Affinity::Remote(remote),
            Affinity::Interleave,
        ] {
            out.push(DemoResult {
                module,
                affinity,
                gbps: run_module(fabric, cpu, module, affinity),
            });
        }
    }
    out
}

/// Render numademo-style output.
pub fn render(results: &[DemoResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>10} {:>10} {:>12}",
        "module", "local", "remote", "interleave"
    );
    for module in TestModule::ALL {
        let get = |aff_match: fn(&Affinity) -> bool| {
            results
                .iter()
                .find(|r| r.module == module && aff_match(&r.affinity))
                .map_or(f64::NAN, |r| r.gbps)
        };
        let _ = writeln!(
            out,
            "{:<14} {:>10.2} {:>10.2} {:>12.2}",
            module.name(),
            get(|a| matches!(a, Affinity::Local)),
            get(|a| matches!(a, Affinity::Remote(_))),
            get(|a| matches!(a, Affinity::Interleave)),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_fabric::calibration::dl585_fabric;

    #[test]
    fn local_beats_remote_for_every_module() {
        let f = dl585_fabric();
        for module in TestModule::ALL {
            let local = run_module(&f, NodeId(5), module, Affinity::Local);
            let remote = run_module(&f, NodeId(5), module, Affinity::Remote(NodeId(2)));
            assert!(local > remote, "{module:?}: {local} vs {remote}");
        }
    }

    #[test]
    fn interleave_sits_between_best_and_worst() {
        let f = dl585_fabric();
        let inter = run_module(&f, NodeId(0), TestModule::Memcpy, Affinity::Interleave);
        let local = run_module(&f, NodeId(0), TestModule::Memcpy, Affinity::Local);
        let worst = (0..8)
            .map(|m| {
                run_module(
                    &f,
                    NodeId(0),
                    TestModule::Memcpy,
                    Affinity::Remote(NodeId(m)),
                )
            })
            .fold(f64::INFINITY, f64::min);
        assert!(inter < local);
        assert!(inter > worst);
    }

    #[test]
    fn memset_exceeds_memcpy() {
        let f = dl585_fabric();
        let set = run_module(&f, NodeId(3), TestModule::Memset, Affinity::Local);
        let cpy = run_module(&f, NodeId(3), TestModule::Memcpy, Affinity::Local);
        assert!(set > cpy);
    }

    #[test]
    fn stream_modules_agree_with_stream_bench() {
        let f = dl585_fabric();
        let demo = run_module(
            &f,
            NodeId(7),
            TestModule::StreamCopy,
            Affinity::Remote(NodeId(4)),
        );
        assert!((demo - 21.34).abs() < 1e-9, "{demo}");
    }

    #[test]
    fn run_all_covers_the_grid() {
        let f = dl585_fabric();
        let results = run_all(&f, NodeId(0), NodeId(7));
        assert_eq!(results.len(), 7 * 3);
        let s = render(&results);
        assert!(s.contains("memset"));
        assert!(s.contains("STREAM triad"));
        assert!(!s.contains("NaN"));
    }
}
