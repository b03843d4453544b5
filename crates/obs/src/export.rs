//! Exporters: Prometheus text format and a human report table.
//!
//! Both operate on a sorted registry snapshot, so output is deterministic
//! for a deterministic run — the property the golden tests pin down.

use crate::event::fmt_f64;
use crate::registry::{nearest_rank, MetricKey, MetricSnapshot};
use std::fmt::Write as _;

/// Format a sample value for the Prometheus exposition format, which
/// (unlike JSON) spells non-finite values `NaN` / `+Inf` / `-Inf`.
fn prom_f64(v: f64) -> String {
    if v.is_finite() {
        fmt_f64(v)
    } else if v.is_nan() {
        "NaN".to_string()
    } else if v > 0.0 {
        "+Inf".to_string()
    } else {
        "-Inf".to_string()
    }
}

fn prom_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", prom_escape(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", prom_escape(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Render a snapshot in the Prometheus text exposition format.
pub(crate) fn prometheus(snapshot: &[(MetricKey, MetricSnapshot)]) -> String {
    let mut out = String::new();
    let mut last_name: Option<&str> = None;
    for (key, snap) in snapshot {
        if last_name != Some(key.name.as_str()) {
            let kind = match snap {
                MetricSnapshot::Counter(_) => "counter",
                MetricSnapshot::Gauge(_) => "gauge",
                MetricSnapshot::Histogram { .. } => "histogram",
            };
            let _ = writeln!(out, "# TYPE {} {kind}", key.name);
            last_name = Some(key.name.as_str());
        }
        match snap {
            MetricSnapshot::Counter(v) => {
                let _ = writeln!(out, "{}{} {v}", key.name, label_block(&key.labels, None));
            }
            MetricSnapshot::Gauge(v) => {
                let _ = writeln!(
                    out,
                    "{}{} {}",
                    key.name,
                    label_block(&key.labels, None),
                    prom_f64(*v)
                );
            }
            MetricSnapshot::Histogram {
                bounds,
                counts,
                sum,
                count,
                ..
            } => {
                let mut cum = 0u64;
                for (i, b) in bounds.iter().enumerate() {
                    cum += counts[i];
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {cum}",
                        key.name,
                        label_block(&key.labels, Some(("le", &prom_f64(*b))))
                    );
                }
                cum += counts[bounds.len()];
                let _ = writeln!(
                    out,
                    "{}_bucket{} {cum}",
                    key.name,
                    label_block(&key.labels, Some(("le", "+Inf")))
                );
                let _ = writeln!(
                    out,
                    "{}_sum{} {}",
                    key.name,
                    label_block(&key.labels, None),
                    prom_f64(*sum)
                );
                let _ = writeln!(
                    out,
                    "{}_count{} {count}",
                    key.name,
                    label_block(&key.labels, None)
                );
            }
        }
    }
    out
}

/// Render a snapshot as a human table: one line per series.
pub(crate) fn report(snapshot: &[(MetricKey, MetricSnapshot)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{:<44} {:<28} value", "metric", "labels");
    for (key, snap) in snapshot {
        let labels = if key.labels.is_empty() {
            "-".to_string()
        } else {
            key.labels
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        let value = match snap {
            MetricSnapshot::Counter(v) => v.to_string(),
            MetricSnapshot::Gauge(v) => fmt_f64(*v),
            MetricSnapshot::Histogram {
                sum, count, recent, ..
            } => {
                let mean = if *count == 0 {
                    0.0
                } else {
                    sum / *count as f64
                };
                let mut line = format!("n={count} sum={} mean={}", fmt_f64(*sum), fmt_f64(mean));
                // Exact percentiles over the bounded recent-sample ring
                // (the whole stream when fewer than RECENT_SAMPLES).
                if !recent.is_empty() {
                    let _ = write!(
                        line,
                        " p50={} p90={} p99={}",
                        fmt_f64(nearest_rank(recent, 0.50)),
                        fmt_f64(nearest_rank(recent, 0.90)),
                        fmt_f64(nearest_rank(recent, 0.99)),
                    );
                }
                line
            }
        };
        let _ = writeln!(out, "{:<44} {labels:<28} {value}", key.name);
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::Obs;

    #[test]
    fn prometheus_golden() {
        let obs = Obs::new();
        obs.counter("numio_alloc_rounds_total", &[("component", "engine")])
            .add(4);
        obs.gauge("numio_makespan_seconds", &[("policy", "local-only")])
            .set(8.0);
        let h = obs.histogram("numio_latency_seconds", &[("policy", "x")], &[1.0, 5.0]);
        h.observe(0.5);
        h.observe(2.0);
        h.observe(30.0);
        assert_eq!(
            obs.prometheus(),
            "\
# TYPE numio_alloc_rounds_total counter
numio_alloc_rounds_total{component=\"engine\"} 4
# TYPE numio_latency_seconds histogram
numio_latency_seconds_bucket{policy=\"x\",le=\"1\"} 1
numio_latency_seconds_bucket{policy=\"x\",le=\"5\"} 2
numio_latency_seconds_bucket{policy=\"x\",le=\"+Inf\"} 3
numio_latency_seconds_sum{policy=\"x\"} 32.5
numio_latency_seconds_count{policy=\"x\"} 3
# TYPE numio_makespan_seconds gauge
numio_makespan_seconds{policy=\"local-only\"} 8
"
        );
    }

    #[test]
    fn non_finite_samples_use_prometheus_spelling() {
        // The exposition format spells non-finite values NaN/+Inf/-Inf;
        // only the JSONL exporter uses JSON's null.
        let obs = Obs::new();
        obs.gauge("g", &[]).set(f64::NEG_INFINITY);
        obs.histogram("h_seconds", &[], &[1.0]).observe(f64::NAN);
        let prom = obs.prometheus();
        assert!(prom.contains("g -Inf"), "{prom}");
        assert!(prom.contains("h_seconds_sum NaN"), "{prom}");
        assert!(prom.contains("h_seconds_bucket{le=\"+Inf\"} 1"), "{prom}");
        assert!(!prom.contains("null"), "{prom}");
    }

    #[test]
    fn report_lists_every_series() {
        let obs = Obs::new();
        obs.counter("a_total", &[]).inc();
        obs.histogram("b_seconds", &[("op", "alloc")], &[1.0])
            .observe(0.5);
        let s = obs.report();
        assert!(s.contains("a_total"));
        assert!(s.contains("op=alloc"));
        assert!(s.contains("n=1"));
        assert!(s.contains("mean=0.5"));
        assert!(s.contains("p50=0.5"), "{s}");
    }

    #[test]
    fn report_percentiles_are_exact_nearest_rank() {
        let obs = Obs::new();
        let h = obs.histogram("lat_seconds", &[], &[1.0]);
        for i in 1..=100u32 {
            h.observe(i as f64 / 100.0);
        }
        let s = obs.report();
        assert!(s.contains("p50=0.5 p90=0.9 p99=0.99"), "{s}");
        // The shared rule's edges: rank clamps to the first element, and
        // an empty slice is 0.0 rather than a panic.
        assert_eq!(crate::nearest_rank(&[1.0, 2.0, 3.0], 0.0), 1.0);
        assert_eq!(crate::nearest_rank(&[], 0.99), 0.0);
    }

    #[test]
    fn serve_seconds_histogram_golden() {
        // Pin the exact exposition bytes of the serve-latency family:
        // cumulative le-labelled buckets, a +Inf bucket, and label order
        // exactly as recorded (backend, op, outcome) with le last.
        let obs = Obs::new();
        let h = obs.histogram(
            "numio_serve_request_seconds",
            &[("op", "classify"), ("backend", "sim"), ("outcome", "ok")],
            &[1e-4, 1e-3, 1e-2],
        );
        h.observe(5e-5);
        h.observe(5e-5);
        h.observe(5e-4);
        h.observe(2.0);
        assert_eq!(
            obs.prometheus(),
            "\
# TYPE numio_serve_request_seconds histogram
numio_serve_request_seconds_bucket{backend=\"sim\",op=\"classify\",outcome=\"ok\",le=\"0.0001\"} 2
numio_serve_request_seconds_bucket{backend=\"sim\",op=\"classify\",outcome=\"ok\",le=\"0.001\"} 3
numio_serve_request_seconds_bucket{backend=\"sim\",op=\"classify\",outcome=\"ok\",le=\"0.01\"} 3
numio_serve_request_seconds_bucket{backend=\"sim\",op=\"classify\",outcome=\"ok\",le=\"+Inf\"} 4
numio_serve_request_seconds_sum{backend=\"sim\",op=\"classify\",outcome=\"ok\"} 2.0006\n\
numio_serve_request_seconds_count{backend=\"sim\",op=\"classify\",outcome=\"ok\"} 4
"
        );
    }

    #[test]
    fn serve_seconds_label_order_is_stable_across_series() {
        // Two series of the same family sort deterministically: label
        // *sets* are sorted at key creation, series sort by labels.
        let obs = Obs::new();
        let buckets = crate::span::buckets::SERVE_SECONDS;
        obs.histogram(
            "numio_serve_request_seconds",
            &[("outcome", "ok"), ("op", "predict"), ("backend", "sim")],
            buckets,
        )
        .observe(1e-4);
        obs.histogram(
            "numio_serve_request_seconds",
            &[("op", "classify"), ("backend", "sim"), ("outcome", "error")],
            buckets,
        )
        .observe(1e-4);
        let prom = obs.prometheus();
        let classify = prom
            .find("numio_serve_request_seconds_bucket{backend=\"sim\",op=\"classify\",outcome=\"error\",le=\"0.00001\"}")
            .expect("classify series rendered");
        let predict = prom
            .find("numio_serve_request_seconds_bucket{backend=\"sim\",op=\"predict\",outcome=\"ok\",le=\"0.00001\"}")
            .expect("predict series rendered");
        assert!(classify < predict, "series sorted by labels:\n{prom}");
        assert_eq!(prom.matches("le=\"+Inf\"").count(), 2, "{prom}");
        // Rendering twice is byte-stable.
        assert_eq!(prom, obs.prometheus());
    }
}
