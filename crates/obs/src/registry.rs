//! The sharded metrics registry and its handle types.
//!
//! Metrics are identified by `(name, sorted labels)`. Lookup takes a shard
//! lock keyed on the metric name; the returned handles are lock-free
//! atomics, so hot paths pay one hash + one atomic op after the first
//! registration (callers should cache handles where it matters).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const SHARDS: usize = 8;

/// How many raw samples a histogram retains for exact percentiles. The
/// ring is lock-free (one `fetch_add` + one store per observation) and
/// fixed-size, so long-running series keep a bounded, recent window.
pub const RECENT_SAMPLES: usize = 1024;

/// A monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Upper bucket bounds (inclusive, ascending); an implicit `+Inf`
    /// bucket follows.
    bounds: Vec<f64>,
    /// One count per bound plus the `+Inf` bucket.
    counts: Vec<AtomicU64>,
    sum_bits: AtomicU64,
    count: AtomicU64,
    /// Ring of the most recent raw samples (f64 bits), for exact
    /// percentiles. Writers reserve a slot with `recent_next` and store;
    /// a concurrent reader may see a slot mid-overwrite (it reads the
    /// previous sample), which is fine for a recency window.
    recent: Vec<AtomicU64>,
    recent_next: AtomicU64,
}

/// A fixed-bucket histogram (Prometheus semantics: cumulative on export).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be ascending"
        );
        Histogram(Arc::new(HistogramInner {
            bounds: bounds.to_vec(),
            counts: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0.0_f64.to_bits()),
            count: AtomicU64::new(0),
            recent: (0..RECENT_SAMPLES).map(|_| AtomicU64::new(0)).collect(),
            recent_next: AtomicU64::new(0),
        }))
    }

    /// A standalone (unregistered) histogram over ascending upper
    /// `bounds` — for callers that want the bucket/percentile machinery
    /// without a registry series (e.g. a service-private aggregate).
    pub fn with_buckets(bounds: &[f64]) -> Self {
        Self::new(bounds)
    }

    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let idx = self
            .0
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.0.bounds.len());
        self.0.counts[idx].fetch_add(1, Ordering::Relaxed);
        add_f64(&self.0.sum_bits, v);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        let slot = self.0.recent_next.fetch_add(1, Ordering::Relaxed) as usize;
        self.0.recent[slot % RECENT_SAMPLES].store(v.to_bits(), Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Bucket bounds (without the implicit `+Inf`).
    pub fn bounds(&self) -> &[f64] {
        &self.0.bounds
    }

    /// Per-bucket counts including the final `+Inf` bucket
    /// (non-cumulative).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// The retained raw samples (the most recent ≤ [`RECENT_SAMPLES`]
    /// observations), unordered.
    pub fn recent_samples(&self) -> Vec<f64> {
        let written = self.0.recent_next.load(Ordering::Relaxed) as usize;
        self.0.recent[..written.min(RECENT_SAMPLES)]
            .iter()
            .map(|bits| f64::from_bits(bits.load(Ordering::Relaxed)))
            .collect()
    }

    /// Exact nearest-rank percentile over the retained samples
    /// (`q` in `(0, 1]`, e.g. `0.99`). `None` when empty. For series
    /// past [`RECENT_SAMPLES`] observations this is the percentile of
    /// the most recent window, not of all history.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let mut samples = self.recent_samples();
        if samples.is_empty() {
            return None;
        }
        samples.sort_by(f64::total_cmp);
        Some(nearest_rank(&samples, q))
    }
}

/// Nearest-rank percentile of an ascending-sorted slice (`q` in
/// `(0, 1]`): the value at 1-based rank `ceil(q * n)`, clamped to the
/// first element; 0.0 when the slice is empty. The workspace's one
/// percentile rule, shared by the registry, FCT statistics and the
/// scheduler reports.
#[inline]
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let rank = (q * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

fn add_f64(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// Identity of one metric series.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct MetricKey {
    pub(crate) name: String,
    /// Sorted `(label, value)` pairs.
    pub(crate) labels: Vec<(String, String)>,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A point-in-time copy of one series, used by the exporters.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum MetricSnapshot {
    Counter(u64),
    Gauge(f64),
    Histogram {
        bounds: Vec<f64>,
        /// Non-cumulative counts, one per bound plus `+Inf`.
        counts: Vec<u64>,
        sum: f64,
        count: u64,
        /// Retained raw samples, ascending (for exact percentiles in the
        /// report exporter).
        recent: Vec<f64>,
    },
}

/// Sharded metric store.
#[derive(Debug)]
pub struct Registry {
    shards: Vec<Mutex<HashMap<MetricKey, Metric>>>,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Registry {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, name: &str) -> &Mutex<HashMap<MetricKey, Metric>> {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        name.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Fetch-or-create a counter series.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = MetricKey::new(name, labels);
        let mut shard = self.shard(name).lock().unwrap_or_else(|e| e.into_inner());
        match shard
            .entry(key)
            .or_insert_with(|| Metric::Counter(Counter(Arc::new(AtomicU64::new(0)))))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric '{name}' already registered with a different type"),
        }
    }

    /// Fetch-or-create a gauge series.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = MetricKey::new(name, labels);
        let mut shard = self.shard(name).lock().unwrap_or_else(|e| e.into_inner());
        match shard
            .entry(key)
            .or_insert_with(|| Metric::Gauge(Gauge(Arc::new(AtomicU64::new(0.0_f64.to_bits())))))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric '{name}' already registered with a different type"),
        }
    }

    /// Fetch-or-create a histogram series. `buckets` are ascending upper
    /// bounds; they are fixed by the first registration.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], buckets: &[f64]) -> Histogram {
        let key = MetricKey::new(name, labels);
        let mut shard = self.shard(name).lock().unwrap_or_else(|e| e.into_inner());
        match shard
            .entry(key)
            .or_insert_with(|| Metric::Histogram(Histogram::new(buckets)))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric '{name}' already registered with a different type"),
        }
    }

    /// Total number of registered series.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deterministic snapshot: every series, sorted by name then labels.
    pub(crate) fn snapshot(&self) -> Vec<(MetricKey, MetricSnapshot)> {
        let mut out: Vec<(MetricKey, MetricSnapshot)> = Vec::new();
        for shard in &self.shards {
            for (key, metric) in shard.lock().unwrap_or_else(|e| e.into_inner()).iter() {
                let snap = match metric {
                    Metric::Counter(c) => MetricSnapshot::Counter(c.get()),
                    Metric::Gauge(g) => MetricSnapshot::Gauge(g.get()),
                    Metric::Histogram(h) => {
                        let mut recent = h.recent_samples();
                        recent.sort_by(f64::total_cmp);
                        MetricSnapshot::Histogram {
                            bounds: h.bounds().to_vec(),
                            counts: h.bucket_counts(),
                            sum: h.sum(),
                            count: h.count(),
                            recent,
                        }
                    }
                };
                out.push((key.clone(), snap));
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_and_is_shared() {
        let r = Registry::new();
        let a = r.counter("hits", &[("node", "3")]);
        let b = r.counter("hits", &[("node", "3")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(r.len(), 1);
        // Different labels are a different series.
        r.counter("hits", &[("node", "4")]).inc();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn label_order_does_not_split_series() {
        let r = Registry::new();
        r.counter("x", &[("a", "1"), ("b", "2")]).inc();
        r.counter("x", &[("b", "2"), ("a", "1")]).inc();
        assert_eq!(r.len(), 1);
        assert_eq!(r.counter("x", &[("a", "1"), ("b", "2")]).get(), 2);
    }

    #[test]
    fn gauge_overwrites() {
        let r = Registry::new();
        let g = r.gauge("load", &[]);
        g.set(1.5);
        g.set(-2.0);
        assert_eq!(g.get(), -2.0);
    }

    #[test]
    fn histogram_buckets_and_moments() {
        let r = Registry::new();
        let h = r.histogram("lat", &[], &[1.0, 2.0, 4.0]);
        for v in [0.5, 1.0, 1.5, 3.0, 100.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 106.0).abs() < 1e-12);
        assert!((h.mean() - 21.2).abs() < 1e-12);
        // le=1: {0.5, 1.0}; le=2: {1.5}; le=4: {3.0}; +Inf: {100.0}.
        assert_eq!(h.bucket_counts(), vec![2, 1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_confusion_panics() {
        let r = Registry::new();
        r.counter("m", &[]).inc();
        let _ = r.gauge("m", &[]);
    }

    #[test]
    fn snapshot_is_sorted() {
        let r = Registry::new();
        r.counter("zz", &[]).inc();
        r.counter("aa", &[("n", "2")]).inc();
        r.counter("aa", &[("n", "1")]).inc();
        let snap = r.snapshot();
        let names: Vec<String> = snap
            .iter()
            .map(|(k, _)| format!("{}{:?}", k.name, k.labels))
            .collect();
        assert!(names[0].starts_with("aa") && names[0].contains('1'));
        assert!(names[1].starts_with("aa") && names[1].contains('2'));
        assert!(names[2].starts_with("zz"));
    }
}
