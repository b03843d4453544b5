//! Seeded task-arrival traces.

use crate::task::IoTask;
use numa_fio::Workload;
use numa_iodev::{IoEngine, NicOp};
use numa_par::rng::SplitMix64;

/// Workload mixes for trace generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixProfile {
    /// Wide-area ingest: RDMA pulls + SSD persists (the paper's
    /// data-transfer-node motivation).
    Ingest,
    /// Serving: SSD reads + TCP sends.
    Serve,
    /// Everything, uniformly.
    Uniform,
}

impl MixProfile {
    fn draw(self, rng: &mut SplitMix64) -> Workload {
        let ssd = |write| Workload::Ssd {
            write,
            engine: IoEngine::paper(),
            direct: true,
        };
        match self {
            MixProfile::Ingest => match rng.below(3) {
                0 => Workload::Nic(NicOp::RdmaRead),
                1 => ssd(true),
                _ => Workload::Nic(NicOp::TcpRecv),
            },
            MixProfile::Serve => match rng.below(3) {
                0 => ssd(false),
                1 => Workload::Nic(NicOp::TcpSend),
                _ => Workload::Nic(NicOp::RdmaWrite),
            },
            MixProfile::Uniform => match rng.below(6) {
                0 => Workload::Nic(NicOp::TcpSend),
                1 => Workload::Nic(NicOp::TcpRecv),
                2 => Workload::Nic(NicOp::RdmaWrite),
                3 => Workload::Nic(NicOp::RdmaRead),
                4 => ssd(true),
                _ => ssd(false),
            },
        }
    }
}

/// Poisson arrivals: `n` tasks with exponential inter-arrival times of
/// mean `mean_gap_s`, volumes 8–24 GB, 1–4 streams. Fully determined by
/// `seed`.
pub fn poisson(n: usize, mean_gap_s: f64, mix: MixProfile, seed: u64) -> Vec<IoTask> {
    assert!(mean_gap_s > 0.0, "inter-arrival mean must be positive");
    let mut rng = SplitMix64::new(seed);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            // Inverse-CDF exponential draw.
            let u = rng.range_f64(1e-9, 1.0);
            t += -mean_gap_s * u.ln();
            IoTask::new(
                t,
                mix.draw(&mut rng),
                1 + rng.below(4) as u32,
                rng.range_f64(8.0, 24.0),
            )
        })
        .collect()
}

/// A burst where roughly every third task is *premium*: triple weight and
/// an SLA deadline sized for its fair-share-boosted rate. The scenario for
/// QoS experiments: best-effort tasks absorb the contention.
pub fn premium_burst(n: usize, mix: MixProfile, seed: u64) -> Vec<IoTask> {
    let mut rng = SplitMix64::new(seed ^ 0x9E37);
    (0..n)
        .map(|i| {
            let task = IoTask::new(
                0.0,
                mix.draw(&mut rng),
                1 + rng.below(2) as u32,
                rng.range_f64(8.0, 14.0),
            );
            if i % 3 == 0 {
                // Deadline: volume at ~10 Gbps plus slack.
                let deadline = task.volume_gbytes * 8.0 / 10.0 + 2.0;
                task.premium(3.0, deadline)
            } else {
                task
            }
        })
        .collect()
}

/// A synchronized burst: all `n` tasks arrive at t=0 (worst-case
/// contention, the scenario of the paper's §V-B scheduling example).
pub fn burst(n: usize, mix: MixProfile, seed: u64) -> Vec<IoTask> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            IoTask::new(
                0.0,
                mix.draw(&mut rng),
                1 + rng.below(4) as u32,
                rng.range_f64(10.0, 20.0),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_is_sorted_and_deterministic() {
        let a = poisson(20, 1.5, MixProfile::Uniform, 7);
        let b = poisson(20, 1.5, MixProfile::Uniform, 7);
        assert_eq!(a, b);
        for w in a.windows(2) {
            assert!(w[1].arrival_s >= w[0].arrival_s);
        }
        assert_eq!(a.len(), 20);
    }

    #[test]
    fn poisson_mean_gap_is_plausible() {
        let tasks = poisson(400, 2.0, MixProfile::Uniform, 3);
        let span = tasks.last().unwrap().arrival_s;
        let mean = span / 400.0;
        assert!((1.5..2.5).contains(&mean), "{mean}");
    }

    #[test]
    fn seeds_differ() {
        let a = poisson(10, 1.0, MixProfile::Ingest, 1);
        let b = poisson(10, 1.0, MixProfile::Ingest, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn burst_arrives_at_zero() {
        let tasks = burst(8, MixProfile::Serve, 5);
        assert!(tasks.iter().all(|t| t.arrival_s == 0.0));
        assert!(tasks.iter().all(|t| (1..=4).contains(&t.streams)));
    }

    #[test]
    fn profiles_draw_from_their_pools() {
        for t in poisson(50, 1.0, MixProfile::Ingest, 11) {
            match t.workload {
                Workload::Nic(NicOp::RdmaRead) | Workload::Nic(NicOp::TcpRecv) => {}
                Workload::Ssd { write: true, .. } => {}
                other => panic!("unexpected ingest workload {other:?}"),
            }
        }
    }

    #[test]
    fn premium_burst_marks_every_third_task() {
        let tasks = premium_burst(9, MixProfile::Ingest, 4);
        let premium: Vec<bool> = tasks.iter().map(|t| t.deadline_s.is_some()).collect();
        assert_eq!(premium.iter().filter(|&&p| p).count(), 3);
        for t in &tasks {
            if t.deadline_s.is_some() {
                assert_eq!(t.weight, 3.0);
            } else {
                assert_eq!(t.weight, 1.0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_gap_rejected() {
        let _ = poisson(1, 0.0, MixProfile::Uniform, 0);
    }
}
