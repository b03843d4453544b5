#![warn(missing_docs)]
//! # numa-obs
//!
//! The workspace's unified observability layer: structured events, a
//! sharded metrics registry, self-profiling spans, and deterministic
//! exporters. Every runtime crate (`numa-engine`, `numio-core`,
//! `numa-sched`, `numa-fio`, `numio-cli`) records into one [`Obs`] handle
//! instead of inventing its own ad-hoc logging.
//!
//! Design rules (see `docs/OBSERVABILITY.md`):
//!
//! * **Events carry simulation time.** Instrumented simulators timestamp
//!   events with *sim* seconds, so a seeded run produces a byte-identical
//!   JSONL trace every time.
//! * **Metrics are deterministic by default.** Counters, gauges, and
//!   histograms are fed simulation quantities. Wall-clock self-profiling
//!   ([`Span`]) is opt-in (`set_profiling(true)`) and lands in its own
//!   `numio_op_seconds` family, keeping the default Prometheus snapshot
//!   reproducible.
//! * **Exporters own their bytes.** JSON-lines and Prometheus text are
//!   hand-rolled with stable ordering — golden-testable artifacts.
//! * **Request traces are events.** Serving layers mint a request id and
//!   open [`ReqSpan`]s ([`Obs::request_span`] / [`Obs::stage_span`]); the
//!   resulting `span_start`/`span_end` tree rides the same deterministic
//!   event stream. A bounded [`FlightRecorder`] keeps the most recent
//!   events for post-mortem dumps without unbounded growth.
//!
//! ```
//! use numa_obs::{Obs, Value};
//!
//! let obs = Obs::new();
//! obs.event("alloc_round", 0.5, &[("flows", Value::from(2u64))]);
//! obs.counter("numio_alloc_rounds_total", &[("component", "engine")]).inc();
//! assert_eq!(obs.jsonl(), "{\"t\":0.5,\"ev\":\"alloc_round\",\"flows\":2}\n");
//! assert!(obs.prometheus().contains("numio_alloc_rounds_total{component=\"engine\"} 1"));
//! ```

pub mod clock;
pub mod event;
mod export;
pub mod flight;
pub mod registry;
pub mod span;
pub mod trace;

pub use clock::{Clock, ManualClock, WallClock};
pub use event::{Event, Value};
pub use flight::{FlightRecorder, Incident, DEFAULT_FLIGHT_CAPACITY};
pub use registry::{nearest_rank, Counter, Gauge, Histogram, Registry, RECENT_SAMPLES};
pub use span::{buckets, Span, OP_SECONDS_BUCKETS, OP_SECONDS_METRIC};
pub use trace::ReqSpan;

use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

struct Inner {
    clock: Box<dyn Clock>,
    events: Mutex<Vec<Event>>,
    registry: Registry,
    profiling: AtomicBool,
}

/// The central observability handle. Cheap to clone (an `Arc`); clones
/// share the same event buffer, registry, clock, and profiling switch.
#[derive(Clone)]
pub struct Obs {
    inner: Arc<Inner>,
}

impl Obs {
    /// An `Obs` with a wall clock and profiling off.
    pub fn new() -> Self {
        Self::with_clock(Box::new(WallClock::new()))
    }

    /// An `Obs` over an explicit clock (e.g. [`ManualClock`] in tests).
    pub fn with_clock(clock: Box<dyn Clock>) -> Self {
        Obs {
            inner: Arc::new(Inner {
                clock,
                events: Mutex::new(Vec::new()),
                registry: Registry::new(),
                profiling: AtomicBool::new(false),
            }),
        }
    }

    /// Enable or disable wall-clock self-profiling ([`Span`] recording).
    pub fn set_profiling(&self, on: bool) {
        self.inner.profiling.store(on, Ordering::Relaxed);
    }

    /// Whether spans currently record.
    pub fn profiling(&self) -> bool {
        self.inner.profiling.load(Ordering::Relaxed)
    }

    /// Current clock reading, seconds.
    pub fn clock_s(&self) -> f64 {
        self.inner.clock.now_s()
    }

    /// Append a structured event at `time_s` (callers pass simulation time
    /// for determinism; pass [`Obs::clock_s`] explicitly if wall time is
    /// really meant).
    pub fn event(&self, name: &str, time_s: f64, fields: &[(&str, Value)]) {
        self.inner
            .events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Event::new(name, time_s, fields));
    }

    /// Fetch-or-create a counter series.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.inner.registry.counter(name, labels)
    }

    /// Fetch-or-create a gauge series.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        self.inner.registry.gauge(name, labels)
    }

    /// Fetch-or-create a histogram series.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], buckets: &[f64]) -> Histogram {
        self.inner.registry.histogram(name, labels, buckets)
    }

    /// Start a self-profiling span over `op` (no-op unless profiling).
    pub fn span(&self, op: &str) -> Span {
        Span::new(self, op)
    }

    /// Direct access to the registry (exporters, tests).
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// Number of buffered events.
    pub fn num_events(&self) -> usize {
        self.inner
            .events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// Copy of the buffered events.
    pub fn events(&self) -> Vec<Event> {
        self.inner
            .events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// The whole event stream as JSON lines (one event per line, trailing
    /// newline when non-empty).
    pub fn jsonl(&self) -> String {
        let events = self.inner.events.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::new();
        for e in events.iter() {
            out.push_str(&e.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Stream the event log as JSON lines into `w`.
    pub fn write_jsonl(&self, w: &mut dyn Write) -> io::Result<()> {
        w.write_all(self.jsonl().as_bytes())
    }

    /// Prometheus text-format snapshot of every metric series, sorted by
    /// name then labels (deterministic).
    pub fn prometheus(&self) -> String {
        export::prometheus(&self.inner.registry.snapshot())
    }

    /// Human-readable metrics table.
    pub fn report(&self) -> String {
        export::report(&self.inner.registry.snapshot())
    }
}

impl Default for Obs {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("events", &self.num_events())
            .field("series", &self.inner.registry.len())
            .field("profiling", &self.profiling())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_golden() {
        let obs = Obs::with_clock(Box::new(ManualClock::new()));
        obs.event("alloc_round", 0.0, &[("flows", 2u64.into())]);
        obs.event(
            "flow_finished",
            1.25,
            &[("flow", 0u64.into()), ("label", "job0.0".into())],
        );
        assert_eq!(
            obs.jsonl(),
            "{\"t\":0,\"ev\":\"alloc_round\",\"flows\":2}\n\
             {\"t\":1.25,\"ev\":\"flow_finished\",\"flow\":0,\"label\":\"job0.0\"}\n"
        );
        assert_eq!(obs.num_events(), 2);
        assert_eq!(obs.events()[1].name, "flow_finished");
    }

    #[test]
    fn clones_share_state() {
        let obs = Obs::new();
        let clone = obs.clone();
        clone.counter("c_total", &[]).inc();
        clone.event("e", 0.0, &[]);
        clone.set_profiling(true);
        assert_eq!(obs.counter("c_total", &[]).get(), 1);
        assert_eq!(obs.num_events(), 1);
        assert!(obs.profiling());
    }

    #[test]
    fn write_jsonl_streams_bytes() {
        let obs = Obs::new();
        obs.event("e", 2.0, &[]);
        let mut buf: Vec<u8> = Vec::new();
        obs.write_jsonl(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "{\"t\":2,\"ev\":\"e\"}\n");
    }

    #[test]
    fn debug_is_compact() {
        let obs = Obs::new();
        obs.event("e", 0.0, &[]);
        let s = format!("{obs:?}");
        assert!(s.contains("events: 1"), "{s}");
    }

    #[test]
    fn empty_exports_are_empty() {
        let obs = Obs::new();
        assert_eq!(obs.jsonl(), "");
        assert_eq!(obs.prometheus(), "");
        assert!(obs.report().contains("metric"));
    }
}
