//! Episode metrics and reports.

use crate::task::TaskOutcome;
use std::fmt::Write as _;

/// Result of one scheduling episode.
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeReport {
    /// Policy name.
    pub policy: String,
    /// Per-task outcomes, by task id.
    pub outcomes: Vec<TaskOutcome>,
    /// Time until the last task completed.
    pub makespan_s: f64,
    /// Total volume moved, gigabits.
    pub total_gbit: f64,
    /// Total migrations performed.
    pub migrations: u32,
}

impl EpisodeReport {
    /// Mean task sojourn time.
    pub fn mean_latency_s(&self) -> f64 {
        self.outcomes
            .iter()
            .map(TaskOutcome::latency_s)
            .sum::<f64>()
            / self.outcomes.len().max(1) as f64
    }

    /// 95th-percentile sojourn time (nearest-rank).
    pub fn p95_latency_s(&self) -> f64 {
        let mut lat: Vec<f64> = self.outcomes.iter().map(TaskOutcome::latency_s).collect();
        lat.sort_by(f64::total_cmp);
        numa_obs::nearest_rank(&lat, 0.95)
    }

    /// Episode-level throughput: volume over makespan.
    pub fn aggregate_gbps(&self) -> f64 {
        self.total_gbit / self.makespan_s.max(1e-12)
    }

    /// Count of tasks that blew their SLA deadline.
    pub fn deadline_misses(&self) -> usize {
        self.outcomes.iter().filter(|o| o.missed_deadline()).count()
    }

    /// A per-task table: arrival, node, finish, latency, achieved rate.
    pub fn render_timeline(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<6} {:>9} {:>6} {:>9} {:>9} {:>10} {:>5}",
            "task", "arrive(s)", "node", "finish(s)", "sojourn(s)", "mean(Gbps)", "migr"
        );
        for o in &self.outcomes {
            let _ = writeln!(
                out,
                "T{:<5} {:>9.1} {:>6} {:>9.1} {:>9.1} {:>10.2} {:>5}",
                o.id.0,
                o.arrival_s,
                o.node.to_string(),
                o.finish_s,
                o.latency_s(),
                o.mean_gbps(),
                o.migrations
            );
        }
        let _ = writeln!(out, "{}", self.summary());
        out
    }

    /// One summary line.
    pub fn summary(&self) -> String {
        format!(
            "{:<22} tasks {:>3}  makespan {:>7.1}s  mean-lat {:>6.1}s  p95 {:>6.1}s  agg {:>6.2}G  migrations {}",
            self.policy,
            self.outcomes.len(),
            self.makespan_s,
            self.mean_latency_s(),
            self.p95_latency_s(),
            self.aggregate_gbps(),
            self.migrations
        )
    }
}

/// Render a comparison of several episodes over the same trace.
pub fn render_comparison(reports: &[EpisodeReport]) -> String {
    let mut out = String::new();
    for r in reports {
        let _ = writeln!(out, "{}", r.summary());
    }
    if let (Some(best), Some(worst)) = (
        reports
            .iter()
            .min_by(|a, b| a.mean_latency_s().total_cmp(&b.mean_latency_s())),
        reports
            .iter()
            .max_by(|a, b| a.mean_latency_s().total_cmp(&b.mean_latency_s())),
    ) {
        let _ = writeln!(
            out,
            "\nbest mean latency: {} ({:.1}s) — {:.0}% below {} ({:.1}s)",
            best.policy,
            best.mean_latency_s(),
            (1.0 - best.mean_latency_s() / worst.mean_latency_s()) * 100.0,
            worst.policy,
            worst.mean_latency_s()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskId;
    use numa_topology::NodeId;

    fn outcome(id: u32, arrival: f64, finish: f64) -> TaskOutcome {
        TaskOutcome {
            id: TaskId(id),
            node: NodeId(0),
            arrival_s: arrival,
            finish_s: finish,
            volume_gbit: 10.0,
            migrations: 0,
            deadline_s: None,
        }
    }

    fn report(lats: &[f64]) -> EpisodeReport {
        EpisodeReport {
            policy: "test".into(),
            outcomes: lats
                .iter()
                .enumerate()
                .map(|(i, &l)| outcome(i as u32, 0.0, l))
                .collect(),
            makespan_s: lats.iter().cloned().fold(0.0, f64::max),
            total_gbit: 10.0 * lats.len() as f64,
            migrations: 0,
        }
    }

    #[test]
    fn latency_statistics() {
        let r = report(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(r.mean_latency_s(), 2.5);
        assert_eq!(r.p95_latency_s(), 4.0);
        assert_eq!(r.aggregate_gbps(), 10.0);
    }

    #[test]
    fn p95_nearest_rank() {
        let lats: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let r = report(&lats);
        assert_eq!(r.p95_latency_s(), 95.0);
    }

    #[test]
    fn p95_tolerates_non_finite_latencies() {
        // Regression: the old partial_cmp().unwrap() sort panicked if a
        // degenerate outcome produced a NaN sojourn time.
        let mut r = report(&[1.0, 2.0, 3.0]);
        r.outcomes[1].finish_s = f64::NAN;
        let p95 = r.p95_latency_s();
        // total_cmp orders NaN after all finite values; nearest-rank p95
        // of three samples is the last one, so NaN surfaces rather than
        // panicking — the caller sees the bad data instead of an abort.
        assert!(p95.is_nan(), "{p95}");
    }

    #[test]
    fn deadline_misses_counted() {
        let mut r = report(&[2.0, 5.0]);
        r.outcomes[0].deadline_s = Some(3.0); // met
        r.outcomes[1].deadline_s = Some(3.0); // missed
        assert_eq!(r.deadline_misses(), 1);
    }

    #[test]
    fn timeline_lists_every_task() {
        let r = report(&[1.0, 2.0, 3.0]);
        let s = r.render_timeline();
        assert!(s.contains("T0"));
        assert!(s.contains("T2"));
        assert!(s.contains("sojourn(s)"));
        assert_eq!(s.lines().count(), 5, "{s}");
    }

    #[test]
    fn comparison_names_best_and_worst() {
        let mut a = report(&[1.0, 1.0]);
        a.policy = "fast".into();
        let mut b = report(&[5.0, 5.0]);
        b.policy = "slow".into();
        let s = render_comparison(&[a, b]);
        assert!(s.contains("best mean latency: fast"));
        assert!(s.contains("80% below slow"));
    }
}
