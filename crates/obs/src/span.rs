//! Self-profiling spans: scoped wall-clock timers over our own hot paths.
//!
//! Spans are a *profiling* tool, deliberately separate from the structured
//! event stream: event traces carry simulation time and must be
//! seed-deterministic, while span durations are wall-clock and vary run to
//! run. A span therefore records only into the metrics registry (the
//! `numio_op_seconds` histogram family), and only while profiling is
//! enabled on the owning [`Obs`] — when it is off, creating a span is a
//! no-op costing one atomic load.

use crate::Obs;

/// Default duration buckets for span histograms: 1 µs to 10 s, decades.
pub const OP_SECONDS_BUCKETS: &[f64] = &[1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0];

/// Histogram family every span records into, labelled `op=<name>`.
pub const OP_SECONDS_METRIC: &str = "numio_op_seconds";

/// A scoped timer. Records its duration on drop (or [`Span::done`]).
#[derive(Debug)]
pub struct Span {
    /// `None` when profiling is disabled: the span is inert.
    armed: Option<(Obs, f64)>,
    op: String,
}

impl Span {
    pub(crate) fn new(obs: &Obs, op: &str) -> Self {
        let armed = if obs.profiling() {
            Some((obs.clone(), obs.clock_s()))
        } else {
            None
        };
        Span {
            armed,
            op: op.to_string(),
        }
    }

    /// The operation name this span times.
    pub fn op(&self) -> &str {
        &self.op
    }

    /// Finish the span explicitly (identical to dropping it).
    pub fn done(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((obs, start_s)) = self.armed.take() {
            let dur = (obs.clock_s() - start_s).max(0.0);
            obs.histogram(OP_SECONDS_METRIC, &[("op", &self.op)], OP_SECONDS_BUCKETS)
                .observe(dur);
        }
    }
}

/// Standard bucket sets shared by instrumented crates, so the same
/// quantity always lands in comparable histograms.
pub mod buckets {
    /// Task/episode latencies, seconds.
    pub const LATENCY_SECONDS: &[f64] = &[0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0];

    /// Per-node probe bandwidths, Gbit/s (the paper's Tables IV/V span
    /// roughly 14–54 Gbit/s).
    pub const GBPS: &[f64] = &[5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 50.0, 60.0];

    /// Flow completion times, seconds: open-loop scenarios span
    /// millisecond small transfers to the paper's multi-second 400 GB
    /// bulk runs.
    pub const FCT_SECONDS: &[f64] = &[1e-3, 1e-2, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0];

    /// Serve request latencies, seconds: an exponential 1–2.5–5 ladder
    /// from 10 µs to 2.5 s. Hot cache hits land in the µs decades, cold
    /// characterizations in the ms–s decades, so one bucket set covers
    /// both regimes of `numio_serve_request_seconds`.
    pub const SERVE_SECONDS: &[f64] = &[
        1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1,
        2.5e-1, 5e-1, 1.0, 2.5,
    ];

    /// Batch-request sizes (mixes per `predict_batch`), roughly powers of
    /// four: singleton "batches" sit in the first bucket, the bench's
    /// 4096-mix batches near the top.
    pub const BATCH_SIZE: &[f64] = &[
        1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    #[test]
    fn disabled_span_records_nothing() {
        let obs = Obs::new();
        {
            let _s = obs.span("noop");
        }
        assert!(obs.registry().is_empty());
    }

    #[test]
    fn enabled_span_records_duration() {
        let obs = Obs::with_clock(Box::new(ManualClock::new()));
        obs.set_profiling(true);
        let clock = obs.clock_s();
        assert_eq!(clock, 0.0);
        {
            let s = obs.span("engine.alloc_round");
            assert_eq!(s.op(), "engine.alloc_round");
            // Manual clock does not advance: duration is exactly 0.
            s.done();
        }
        let h = obs.histogram(
            OP_SECONDS_METRIC,
            &[("op", "engine.alloc_round")],
            OP_SECONDS_BUCKETS,
        );
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 0.0);
    }

    #[test]
    fn wall_clock_span_is_nonnegative() {
        let obs = Obs::new();
        obs.set_profiling(true);
        {
            let _s = obs.span("work");
            std::hint::black_box((0..1000).sum::<u64>());
        }
        let h = obs.histogram(OP_SECONDS_METRIC, &[("op", "work")], OP_SECONDS_BUCKETS);
        assert_eq!(h.count(), 1);
        assert!(h.sum() >= 0.0);
    }
}
