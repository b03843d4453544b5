//! Eq. 1: aggregate bandwidth prediction for multi-user workloads.
//!
//! With a target node's performance model in hand, the expected aggregate
//! bandwidth of a device shared by accesses from several classes is the
//! access-share-weighted mean of the class bandwidths:
//!
//! ```text
//! BW_io = Σᵢ αᵢ% · BWᵢ          (Eq. 1)
//! ```
//!
//! The paper validates this for RDMA_READ with two processes on node 2 and
//! two on node 0: predicted 20.017 Gbps vs measured 19.415 Gbps, a 3.1%
//! relative error.

use crate::model::IoPerfModel;
use numa_fabric::Fabric;
use numa_fio::{run_jobs, FioError, JobSpec};
use numa_iodev::{NicModel, NicOp};
use numa_topology::NodeId;

/// Eq. 1 over explicit `(class bandwidth, share)` terms. Shares must sum
/// to 1 (within rounding).
pub fn predict_aggregate(terms: &[(f64, f64)]) -> f64 {
    assert!(!terms.is_empty(), "prediction needs at least one class");
    let share_sum: f64 = terms.iter().map(|(_, s)| s).sum();
    assert!(
        (share_sum - 1.0).abs() < 1e-6,
        "shares must sum to 1, got {share_sum}"
    );
    terms.iter().map(|(bw, s)| bw * s).sum()
}

/// Eq. 1 for `(node, access count)` pairs against a model, in memcpy
/// units: each access contributes its node's **class-average** bandwidth
/// (that is the point of the model — per-node probing is unnecessary once
/// classes are known). Allocates nothing; the total is summed in `u64`.
/// Panics if the counts sum to 0 or a node is outside the model.
pub fn predict_for_mix<I>(model: &IoPerfModel, mix: I) -> f64
where
    I: IntoIterator<Item = (NodeId, u32)>,
    I::IntoIter: Clone,
{
    let mix = mix.into_iter();
    let total: u64 = mix.clone().map(|(_, count)| u64::from(count)).sum();
    assert!(total > 0, "empty workload");
    let total = total as f64;
    let mut sum = 0.0;
    for (node, count) in mix {
        let class = &model.classes()[model.class_of(node)];
        sum += class.avg_gbps * f64::from(count) / total;
    }
    sum
}

/// One Eq. 1 term of a [`MixCheck`]: a mix entry and its class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixTerm {
    /// The node the accesses bind to.
    pub node: NodeId,
    /// How many concurrent accesses (fio `numjobs`) it runs.
    pub count: u32,
    /// The node's class index in [`IoPerfModel::classes`].
    pub class: usize,
    /// The class average mapped through the operation's NIC curve, Gbit/s.
    pub gbps: f64,
    /// `count / total`: the term's weight αᵢ.
    pub share: f64,
}

/// Eq. 1 predicted and measured for one mix: what [`check_mix`] returns.
#[derive(Debug, Clone, PartialEq)]
pub struct MixCheck {
    /// One term per mix entry, in mix order.
    pub terms: Vec<MixTerm>,
    /// Eq. 1 over the terms, Gbit/s.
    pub predicted: f64,
    /// The fio run's aggregate bandwidth, Gbit/s.
    pub measured: f64,
}

impl MixCheck {
    /// Relative error of the prediction against the measurement (§V-B).
    pub fn error(&self) -> f64 {
        relative_error(self.predicted, self.measured)
    }
}

/// The §V-B check of Eq. 1 for one mix of `(node, access count)` pairs:
/// map each node's class average through the NIC curve of `op`, weight
/// the terms by access share, then run the same mix as fio jobs of
/// `gbytes` each and measure the aggregate.
///
/// A missing NIC, an empty mix, a zero count, a node outside the model or
/// the fabric, or more than [`numa_fio::MAX_STREAMS`] accesses in all is
/// a [`FioError`].
///
/// ```
/// use numa_iodev::NicOp;
/// use numa_topology::NodeId;
/// use numio_core::{check_mix, IoModeler, SimPlatform, TransferMode};
///
/// let platform = SimPlatform::dl585();
/// let (fabric, modeler) = (platform.fabric(), IoModeler::new());
/// let read = modeler.characterize(&platform, NodeId(7), TransferMode::Read);
///
/// // The paper's worked example: RDMA_READ, 2 processes on node 2 and 2 on
/// // node 0 (predicted 20.017, measured 19.415, 3.1% error).
/// let mix = [(NodeId(2), 2), (NodeId(0), 2)];
/// let paper = check_mix(fabric, &read, NicOp::RdmaRead, &mix, 40.0).unwrap();
/// assert_eq!(paper.terms.iter().map(|t| t.class).collect::<Vec<_>>(), [1, 2]);
/// assert!((20.0..20.3).contains(&paper.predicted), "{paper:?}");
/// assert!((0.001..0.06).contains(&paper.error()), "{paper:?}");
///
/// // A write mix: node 6 (class 1) shares the adapter with node 2 (class 3).
/// let write = modeler.characterize(&platform, NodeId(7), TransferMode::Write);
/// let mix = [(NodeId(2), 2), (NodeId(6), 2)];
/// let write = check_mix(fabric, &write, NicOp::RdmaWrite, &mix, 40.0).unwrap();
/// assert!(write.terms[1].class == 0 && write.terms[1].gbps > write.terms[0].gbps);
/// assert!((0.001..0.06).contains(&write.error()), "{write:?}");
/// ```
pub fn check_mix(
    fabric: &Fabric,
    model: &IoPerfModel,
    op: NicOp,
    mix: &[(NodeId, u32)],
    gbytes: f64,
) -> Result<MixCheck, FioError> {
    let nic = NicModel::for_fabric(fabric).ok_or(FioError::NoNic)?;
    let total: u64 = mix.iter().map(|&(_, count)| u64::from(count)).sum();
    let mut terms = Vec::with_capacity(mix.len());
    let mut jobs = Vec::with_capacity(mix.len());
    for (job, &(node, count)) in mix.iter().enumerate() {
        let class = model
            .try_class_of(node)
            .ok_or(FioError::UnknownNode { job, node })?;
        terms.push(MixTerm {
            node,
            count,
            class,
            gbps: nic.map(op).eval(model.classes()[class].avg_gbps),
            share: count as f64 / total as f64,
        });
        // Set directly, not by the asserting builder: `run_jobs` reports a
        // zero count as a typed error.
        let spec = JobSpec::nic(op, node).size_gbytes(gbytes);
        jobs.push(JobSpec {
            numjobs: count,
            ..spec
        });
    }
    // The run validates the mix first (an empty one is `NoJobs`, a zero
    // count or a total past the stream bound `StreamCount`), so the shares
    // sum to 1 below.
    let measured = run_jobs(fabric, &jobs)?.aggregate_gbps;
    let predicted = predict_aggregate(&terms.iter().map(|t| (t.gbps, t.share)).collect::<Vec<_>>());
    Ok(MixCheck {
        terms,
        predicted,
        measured,
    })
}

/// Relative error `|predicted - measured| / measured` (§V-B).
pub fn relative_error(predicted: f64, measured: f64) -> f64 {
    numa_engine::stats::relative_error(predicted, measured)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TransferMode;
    use crate::modeler::IoModeler;
    use crate::platform::SimPlatform;
    use numa_fabric::calibration::paper;
    use numa_iodev::NicOp;

    #[test]
    fn paper_worked_example_predicts_20_017() {
        // 50% from class 2 (21.998) + 50% from class 3 (18.036).
        let p = predict_aggregate(&[(paper::EQ1_CLASS2_BW, 0.5), (paper::EQ1_CLASS3_BW, 0.5)]);
        assert!((p - paper::EQ1_PREDICTED).abs() < 1e-9, "{p}");
    }

    #[test]
    fn mix_prediction_against_simulated_measurement() {
        // End-to-end: model from the methodology, prediction from Eq. 1,
        // "measurement" from the fio runner; error within a few percent,
        // like the paper's 3.1%.
        let platform = SimPlatform::dl585();
        let model = IoModeler::new().characterize(&platform, NodeId(7), TransferMode::Read);
        let mix = [(NodeId(2), 2), (NodeId(0), 2)];
        let check = check_mix(platform.fabric(), &model, NicOp::RdmaRead, &mix, 50.0).unwrap();
        let classes: Vec<usize> = check.terms.iter().map(|t| t.class).collect();
        assert_eq!(classes, [1, 2], "node 2 in class 2, node 0 in class 3");
        assert!(check.terms.iter().all(|t| t.share == 0.5));
        // Not exact either: a mixture model against contention.
        assert!((0.001..0.06).contains(&check.error()), "{check:?}");
    }

    #[test]
    fn homogeneous_mix_predicts_class_average() {
        let platform = SimPlatform::dl585();
        let model = IoModeler::new().characterize(&platform, NodeId(7), TransferMode::Write);
        let p = predict_for_mix(&model, [(NodeId(2), 3)]);
        let class = &model.classes()[model.class_of(NodeId(2))];
        assert_eq!(p, class.avg_gbps);
    }

    #[test]
    fn mix_total_counts() {
        // The total is summed in u64: a u32 sum would wrap to 0 here and
        // divide by zero.
        let platform = SimPlatform::dl585();
        let model = IoModeler::new().characterize(&platform, NodeId(7), TransferMode::Read);
        let avg = |n| model.classes()[model.class_of(NodeId(n))].avg_gbps;
        for extra in [1, 2] {
            let p = predict_for_mix(&model, [(NodeId(2), u32::MAX), (NodeId(0), extra)]);
            assert!(p.is_finite() && (p - avg(2)).abs() < 1e-6, "{p}");
        }
    }

    #[test]
    fn zero_count_rejected() {
        // Every bad mix is a typed error before a job runs, never a panic.
        let platform = SimPlatform::dl585();
        let f = platform.fabric();
        let model = IoModeler::new().characterize(&platform, NodeId(7), TransferMode::Read);
        let check = |mix: &[(NodeId, u32)]| check_mix(f, &model, NicOp::RdmaRead, mix, 1.0);
        let (n2, n8) = (NodeId(2), NodeId(8));
        let zero = FioError::StreamCount { job: 1, streams: 0 };
        assert_eq!(check(&[(n2, 2), (NodeId(0), 0)]), Err(zero));
        assert_eq!(check(&[]), Err(FioError::NoJobs));
        let unknown = FioError::UnknownNode { job: 1, node: n8 };
        assert_eq!(check(&[(n2, 1), (n8, 1)]), Err(unknown));
        let bare = numa_fabric::calibration::generic_fabric(numa_topology::presets::fig1a());
        let no_nic = check_mix(&bare, &model, NicOp::RdmaRead, &[(n2, 1)], 1.0);
        assert_eq!(no_nic, Err(FioError::NoNic));
    }

    #[test]
    #[should_panic(expected = "shares must sum to 1")]
    fn bad_shares_rejected() {
        let _ = predict_aggregate(&[(10.0, 0.7), (20.0, 0.7)]);
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn empty_terms_rejected() {
        let _ = predict_aggregate(&[]);
    }
}
