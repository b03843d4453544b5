//! Flow-completion-time distributions.
//!
//! FCT — how long each flow took from arrival to completion — is the
//! comparison currency for open-loop scenarios: aggregate bandwidth
//! hides tail pain, but a p99 FCT does not. [`FctStats`] summarizes a
//! completed flow set with nearest-rank percentiles, the mean slowdown
//! against each flow's isolated lower bound, and a per-label breakdown;
//! [`fct_digest`] folds the exact FCT bit patterns into one `u64` so a
//! seeded scenario's determinism can be pinned by a single value.

use crate::flow::FlowResult;
use numa_obs::nearest_rank;
use numa_par::rng::{fnv1a64, FNV1A64_INIT};
use std::sync::Arc;

/// Summary of a flow-completion-time distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FctStats {
    /// Number of completed flows summarized.
    pub count: usize,
    /// Mean FCT, seconds.
    pub mean_s: f64,
    /// Median FCT (nearest-rank), seconds.
    pub p50_s: f64,
    /// 90th percentile (nearest-rank), seconds.
    pub p90_s: f64,
    /// 99th percentile (nearest-rank), seconds.
    pub p99_s: f64,
    /// 99.9th percentile (nearest-rank), seconds.
    pub p999_s: f64,
    /// Mean of per-flow slowdowns (FCT over isolated-run time); 1.0
    /// means the fabric was effectively uncontended.
    pub mean_slowdown: f64,
}

impl FctStats {
    /// The all-zero summary of an empty flow set (same family as
    /// `Summary::empty`: no NaN from a zero-length division).
    pub fn empty() -> Self {
        FctStats {
            count: 0,
            mean_s: 0.0,
            p50_s: 0.0,
            p90_s: 0.0,
            p99_s: 0.0,
            p999_s: 0.0,
            mean_slowdown: 0.0,
        }
    }

    /// Summarize a completed flow set.
    pub fn from_flows(flows: &[FlowResult]) -> Self {
        let fct = flows.iter().map(|f| f.fct_s).collect();
        FctStats::summarize(fct, flows.iter().map(|f| f.slowdown))
    }

    /// Summarize FCTs (any order) and their flows' slowdowns (flow
    /// order, the order they are summed in). An unstable sort is enough:
    /// values that `total_cmp` ranks equal have equal bits.
    pub(crate) fn summarize(mut fct: Vec<f64>, slowdowns: impl Iterator<Item = f64>) -> Self {
        if fct.is_empty() {
            return FctStats::empty();
        }
        fct.sort_unstable_by(f64::total_cmp);
        let n = fct.len() as f64;
        FctStats {
            count: fct.len(),
            mean_s: fct.iter().sum::<f64>() / n,
            p50_s: nearest_rank(&fct, 0.50),
            p90_s: nearest_rank(&fct, 0.90),
            p99_s: nearest_rank(&fct, 0.99),
            p999_s: nearest_rank(&fct, 0.999),
            mean_slowdown: slowdowns.sum::<f64>() / n,
        }
    }

    /// Per-label breakdown: one [`FctStats`] per distinct label, sorted
    /// by label so the output is deterministic. Flows sharing a template
    /// label (one workload class) group together. One stable sort of the
    /// flow indices by label keeps each group in flow order, so every
    /// group sums exactly as [`FctStats::from_flows`] over its flows.
    pub fn by_label(flows: &[FlowResult]) -> Vec<(Arc<str>, FctStats)> {
        let mut order: Vec<usize> = (0..flows.len()).collect();
        order.sort_by(|&a, &b| flows[a].label.cmp(&flows[b].label));
        order
            .chunk_by(|&a, &b| flows[a].label == flows[b].label)
            .map(|group| {
                let fct = group.iter().map(|&i| flows[i].fct_s).collect();
                let slowdowns = group.iter().map(|&i| flows[i].slowdown);
                (
                    flows[group[0]].label.clone(),
                    FctStats::summarize(fct, slowdowns),
                )
            })
            .collect()
    }

    /// Render a compact single-distribution table.
    pub fn render(&self) -> String {
        format!(
            "flows {}  mean {:.4}s  p50 {:.4}s  p90 {:.4}s  p99 {:.4}s  p99.9 {:.4}s  slowdown {:.2}x",
            self.count, self.mean_s, self.p50_s, self.p90_s, self.p99_s, self.p999_s,
            self.mean_slowdown
        )
    }
}

/// Order-sensitive FNV-1a digest over the exact FCT bit patterns, in
/// flow order. Two runs produce the same digest iff every flow's FCT is
/// bit-identical — the anchor the determinism gates compare.
pub fn fct_digest(flows: &[FlowResult]) -> u64 {
    flows.iter().fold(FNV1A64_INIT, |h, f| {
        fnv1a64(h, &f.fct_s.to_bits().to_le_bytes())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowId;

    fn flow(i: u32, fct: f64, slowdown: f64, label: &str) -> FlowResult {
        FlowResult {
            id: FlowId(i),
            label: label.into(),
            volume_gbit: 1.0,
            start_s: 0.0,
            finish_s: fct,
            fct_s: fct,
            mean_gbps: if fct > 0.0 { 1.0 / fct } else { 0.0 },
            slowdown,
        }
    }

    #[test]
    fn empty_is_all_zero_not_nan() {
        let s = FctStats::from_flows(&[]);
        assert_eq!(s, FctStats::empty());
        assert_eq!(s.mean_s, 0.0);
        assert_eq!(s.mean_slowdown, 0.0);
    }

    #[test]
    fn nearest_rank_percentiles_match_hand_computation() {
        // 1..=100 seconds: p50 = 50, p90 = 90, p99 = 99, p99.9 = 100.
        let flows: Vec<FlowResult> = (1..=100)
            .map(|i| flow(i as u32, i as f64, 1.0, "x"))
            .collect();
        let s = FctStats::from_flows(&flows);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_s, 50.0);
        assert_eq!(s.p90_s, 90.0);
        assert_eq!(s.p99_s, 99.0);
        assert_eq!(s.p999_s, 100.0);
        assert_eq!(s.mean_s, 50.5);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let s = FctStats::from_flows(&[flow(0, 2.5, 1.5, "only")]);
        assert_eq!(s.p50_s, 2.5);
        assert_eq!(s.p999_s, 2.5);
        assert_eq!(s.mean_slowdown, 1.5);
    }

    #[test]
    fn by_label_groups_and_sorts() {
        let flows = vec![
            flow(0, 1.0, 1.0, "b"),
            flow(1, 3.0, 2.0, "a"),
            flow(2, 2.0, 1.0, "b"),
        ];
        let groups = FctStats::by_label(&flows);
        assert_eq!(groups.len(), 2);
        assert_eq!(&*groups[0].0, "a");
        assert_eq!(groups[0].1.count, 1);
        assert_eq!(&*groups[1].0, "b");
        assert_eq!(groups[1].1.count, 2);
        assert_eq!(groups[1].1.p50_s, 1.0);
    }

    #[test]
    fn by_label_matches_from_flows_on_each_filtered_group() {
        // Interleaved labels, tied and signed-zero FCTs, and slowdowns
        // whose sum depends on the order they are added in.
        let labels = ["c", "a", "b", "a", "c", "a"];
        let flows: Vec<FlowResult> = (0..60u32)
            .map(|i| {
                let fct = [0.0, -0.0, 1e-3, 0.1, 0.1, 7.0, 1e16][(i * 5 % 7) as usize];
                let slowdown = [1.0, 1e16, 3.3, -1e16, 0.7][(i % 5) as usize];
                flow(i, fct, slowdown, labels[(i * 7 % 6) as usize])
            })
            .collect();
        let groups = FctStats::by_label(&flows);
        let names: Vec<&str> = groups.iter().map(|(l, _)| &**l).collect();
        assert_eq!(names, ["a", "b", "c"]);
        for (label, stats) in groups {
            let group: Vec<FlowResult> =
                flows.iter().filter(|f| f.label == label).cloned().collect();
            let want = FctStats::from_flows(&group);
            let bits = |s: &FctStats| {
                [
                    s.mean_s,
                    s.p50_s,
                    s.p90_s,
                    s.p99_s,
                    s.p999_s,
                    s.mean_slowdown,
                ]
                .map(f64::to_bits)
            };
            assert_eq!(
                (stats.count, bits(&stats)),
                (want.count, bits(&want)),
                "{label}"
            );
        }
    }

    #[test]
    fn digest_is_order_and_bit_sensitive() {
        let a = vec![flow(0, 1.0, 1.0, ""), flow(1, 2.0, 1.0, "")];
        let b = vec![flow(0, 2.0, 1.0, ""), flow(1, 1.0, 1.0, "")];
        assert_eq!(fct_digest(&a), fct_digest(&a));
        assert_ne!(fct_digest(&a), fct_digest(&b), "order matters");
        let c = vec![flow(0, 1.0 + 1e-15, 1.0, ""), flow(1, 2.0, 1.0, "")];
        assert_ne!(fct_digest(&a), fct_digest(&c), "one ulp flips the digest");
        assert_ne!(fct_digest(&a), fct_digest(&[]), "empty digests differ");
    }
}
