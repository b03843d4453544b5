//! Workload generators: closed-loop batches and seeded open-loop
//! arrival processes.
//!
//! A [`Workload`] turns a small set of template flows into the full flow
//! list a [`crate::Simulation`] runs: either a closed-loop **batch** (every
//! flow present from t=0 — exactly the engine's historical behavior) or
//! an **open-loop** process where flow `i` arrives after a seeded random
//! interarrival gap (Poisson/exponential, or bounded-Pareto for
//! heavy-tailed bursts). Interarrival streams come from a splitmix64
//! generator, so the same seed produces the same arrival sequence on
//! every platform — the determinism contract the whole repo keeps.
//!
//! The [`Workload::parse`] grammar gives the CLI and the serve wire
//! protocol one shared spec syntax:
//!
//! ```text
//! poisson:rate=200,n=1000,seed=42,src=6,dst=7,gbit=1.0
//! pareto:alpha=1.5,min=0.001,max=0.5,n=500,seed=7,src=3,dst=7,gbit=2.0
//! batch:n=8,src=6,dst=7,gbit=40.0
//! ```

use crate::flow::FlowSpec;
use crate::sim::SimError;
use numa_par::rng::SplitMix64;
use numa_topology::NodeId;

/// How flow arrival times are generated.
#[derive(Debug, Clone, PartialEq)]
pub enum Arrivals {
    /// Closed loop: every flow arrives at t=0 (the historical batch
    /// behavior).
    Batch,
    /// Open loop: exponential interarrivals at `rate_hz` flows/second,
    /// from a splitmix64 stream seeded with `seed`.
    Poisson {
        /// Mean arrival rate, flows per second.
        rate_hz: f64,
        /// Stream seed; same seed, same arrival sequence.
        seed: u64,
    },
    /// Open loop: bounded-Pareto interarrivals in `[min_s, max_s]` with
    /// tail index `alpha` — heavy-tailed bursts with a finite worst gap.
    BoundedPareto {
        /// Tail index (smaller = heavier tail). Must be positive.
        alpha: f64,
        /// Smallest possible gap, seconds.
        min_s: f64,
        /// Largest possible gap, seconds.
        max_s: f64,
        /// Stream seed.
        seed: u64,
    },
}

/// A flow-list generator: templates cycled round-robin across `count`
/// flows, with arrival times from an [`Arrivals`] process.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    templates: Vec<FlowSpec>,
    count: usize,
    arrivals: Arrivals,
}

impl Workload {
    /// Closed-loop batch of exactly these flows (arrival times kept as
    /// set on each spec — today's behavior, verbatim).
    pub fn batch(flows: Vec<FlowSpec>) -> Self {
        let count = flows.len();
        Workload {
            templates: flows,
            count,
            arrivals: Arrivals::Batch,
        }
    }

    /// Open-loop Poisson process: `count` flows cycled round-robin over
    /// `templates`, arriving at `rate_hz` flows/second.
    pub fn poisson(templates: Vec<FlowSpec>, count: usize, rate_hz: f64, seed: u64) -> Self {
        assert!(rate_hz > 0.0, "arrival rate must be positive");
        assert!(
            !templates.is_empty(),
            "open-loop workload needs a template flow"
        );
        Workload {
            templates,
            count,
            arrivals: Arrivals::Poisson { rate_hz, seed },
        }
    }

    /// Open-loop bounded-Pareto process: heavy-tailed gaps in
    /// `[min_s, max_s]` with tail index `alpha`.
    pub fn bounded_pareto(
        templates: Vec<FlowSpec>,
        count: usize,
        alpha: f64,
        min_s: f64,
        max_s: f64,
        seed: u64,
    ) -> Self {
        assert!(alpha > 0.0, "pareto alpha must be positive");
        assert!(0.0 < min_s && min_s < max_s, "need 0 < min_s < max_s");
        assert!(
            !templates.is_empty(),
            "open-loop workload needs a template flow"
        );
        Workload {
            templates,
            count,
            arrivals: Arrivals::BoundedPareto {
                alpha,
                min_s,
                max_s,
                seed,
            },
        }
    }

    /// Number of flows this workload materializes.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The arrival process.
    pub fn arrivals(&self) -> &Arrivals {
        &self.arrivals
    }

    /// Generate the concrete flow list: template `i % templates` with
    /// the process's arrival time stamped on. Deterministic for a given
    /// workload value. Fails with [`SimError::ArrivalOverflow`] when the
    /// summed gaps leave the finite range.
    pub fn materialize(&self) -> Result<Vec<FlowSpec>, SimError> {
        match self.arrivals {
            Arrivals::Batch => Ok(self.templates.clone()),
            Arrivals::Poisson { rate_hz, seed } => {
                let mut rng = SplitMix64::new(seed);
                self.stamp(|| -rng.u01().ln() / rate_hz)
            }
            Arrivals::BoundedPareto {
                alpha,
                min_s,
                max_s,
                seed,
            } => {
                let mut rng = SplitMix64::new(seed);
                // Inverse CDF of the bounded Pareto on [L, H]:
                // x = L * (1 - u * (1 - (L/H)^a))^(-1/a).
                let k = 1.0 - (min_s / max_s).powf(alpha);
                self.stamp(|| min_s * (1.0 - rng.u01() * k).powf(-1.0 / alpha))
            }
        }
    }

    /// Cycle the templates over `count` flows, each arriving `gap()`
    /// seconds after the previous one. A stamped flow shares its
    /// template's label (an `Arc` copy, no allocation).
    fn stamp(&self, mut gap: impl FnMut() -> f64) -> Result<Vec<FlowSpec>, SimError> {
        let mut flows = Vec::with_capacity(self.count);
        let mut t = 0.0_f64;
        for i in 0..self.count {
            t += gap();
            if !t.is_finite() {
                return Err(SimError::ArrivalOverflow { index: i });
            }
            flows.push(self.templates[i % self.templates.len()].clone().arrival(t));
        }
        Ok(flows)
    }

    /// Parse the shared CLI/wire workload grammar:
    /// `kind:key=value,key=value,...` where kind is `poisson`, `pareto`,
    /// or `batch`. Keys: `n` (flows, default 100), `seed` (default 42),
    /// `src`/`dst` (nodes, default 6/7), `gbit` (volume per flow,
    /// default 1.0), plus `rate` (poisson, flows/s, default 100) and
    /// `alpha`/`min`/`max` (pareto, defaults 1.5/0.001/1.0).
    pub fn parse(spec: &str) -> Result<Workload, String> {
        let (kind, rest) = spec.split_once(':').unwrap_or((spec, ""));
        let mut n = 100usize;
        let mut seed = 42u64;
        let mut src = 6usize;
        let mut dst = 7usize;
        let mut gbit = 1.0f64;
        let mut rate = 100.0f64;
        let mut alpha = 1.5f64;
        let mut min_s = 1e-3f64;
        let mut max_s = 1.0f64;
        for pair in rest.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("workload option '{pair}' is not key=value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("workload option '{key}': {e}");
            match key {
                "n" => n = value.parse().map_err(|e| bad(&e))?,
                "seed" => seed = value.parse().map_err(|e| bad(&e))?,
                "src" => src = value.parse().map_err(|e| bad(&e))?,
                "dst" => dst = value.parse().map_err(|e| bad(&e))?,
                "gbit" => gbit = value.parse().map_err(|e| bad(&e))?,
                "rate" => rate = value.parse().map_err(|e| bad(&e))?,
                "alpha" => alpha = value.parse().map_err(|e| bad(&e))?,
                "min" => min_s = value.parse().map_err(|e| bad(&e))?,
                "max" => max_s = value.parse().map_err(|e| bad(&e))?,
                other => return Err(format!("unknown workload option '{other}'")),
            }
        }
        if n == 0 {
            return Err("workload needs n >= 1".to_string());
        }
        if gbit.is_nan() || gbit <= 0.0 {
            return Err("workload needs gbit > 0".to_string());
        }
        let template = FlowSpec::dma(NodeId::new(src), NodeId::new(dst))
            .gbits(gbit)
            .label(format!("{kind} {src}->{dst}"));
        match kind {
            "batch" => Ok(Workload::batch(vec![template; n])),
            "poisson" => {
                if rate.is_nan() || rate <= 0.0 {
                    return Err("poisson needs rate > 0".to_string());
                }
                Ok(Workload::poisson(vec![template], n, rate, seed))
            }
            "pareto" => {
                if !(alpha > 0.0 && 0.0 < min_s && min_s < max_s) {
                    return Err("pareto needs alpha > 0 and 0 < min < max".to_string());
                }
                Ok(Workload::bounded_pareto(
                    vec![template],
                    n,
                    alpha,
                    min_s,
                    max_s,
                    seed,
                ))
            }
            other => Err(format!(
                "unknown workload kind '{other}' (expected poisson|pareto|batch)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_arrivals_are_increasing_and_seed_deterministic() {
        let t = FlowSpec::dma(NodeId(6), NodeId(7)).gbits(1.0);
        let w = Workload::poisson(vec![t.clone()], 100, 50.0, 42);
        let a = w.materialize().unwrap();
        let b = w.materialize().unwrap();
        assert_eq!(a, b, "same workload value, same flows");
        assert_eq!(a.len(), 100);
        let mut last = 0.0;
        for f in &a {
            assert!(f.arrival_s > last, "strictly increasing arrivals");
            last = f.arrival_s;
        }
        // Mean gap should be in the ballpark of 1/rate.
        let mean_gap = last / 100.0;
        assert!((mean_gap - 0.02).abs() < 0.01, "{mean_gap}");
        let c = Workload::poisson(vec![t], 100, 50.0, 43)
            .materialize()
            .unwrap();
        assert_ne!(a, c, "seed changes the sequence");
    }

    #[test]
    fn bounded_pareto_gaps_respect_bounds() {
        let t = FlowSpec::dma(NodeId(6), NodeId(7)).gbits(1.0);
        let w = Workload::bounded_pareto(vec![t], 200, 1.5, 0.01, 0.5, 7);
        let flows = w.materialize().unwrap();
        let mut last = 0.0;
        for f in &flows {
            let gap = f.arrival_s - last;
            assert!((0.01 - 1e-12..=0.5 + 1e-12).contains(&gap), "{gap}");
            last = f.arrival_s;
        }
    }

    #[test]
    fn batch_keeps_flows_verbatim() {
        let flows = vec![
            FlowSpec::dma(NodeId(3), NodeId(7)).gbits(5.0).label("a"),
            FlowSpec::dma(NodeId(6), NodeId(7)).gbits(6.0).label("b"),
        ];
        let w = Workload::batch(flows.clone());
        assert_eq!(w.materialize().unwrap(), flows);
        assert_eq!(w.count(), 2);
    }

    #[test]
    fn round_robin_cycles_templates() {
        let a = FlowSpec::dma(NodeId(3), NodeId(7)).gbits(1.0).label("a");
        let b = FlowSpec::dma(NodeId(6), NodeId(7)).gbits(1.0).label("b");
        let flows = Workload::poisson(vec![a, b], 4, 100.0, 1)
            .materialize()
            .unwrap();
        let labels: Vec<&str> = flows.iter().map(|f| &*f.label).collect();
        assert_eq!(labels, ["a", "b", "a", "b"]);
        // Stamping shares the template's label text instead of copying it.
        assert!(std::sync::Arc::ptr_eq(&flows[0].label, &flows[2].label));
    }

    #[test]
    fn parse_round_trips_the_grammar() {
        let w = Workload::parse("poisson:rate=200,n=10,seed=7,src=3,dst=7,gbit=2.0").unwrap();
        assert_eq!(w.count(), 10);
        assert_eq!(
            w.arrivals(),
            &Arrivals::Poisson {
                rate_hz: 200.0,
                seed: 7
            }
        );
        let flows = w.materialize().unwrap();
        assert_eq!(flows[0].volume_gbit, 2.0);
        assert_eq!(flows[0].src, NodeId(3));

        let w = Workload::parse("pareto:alpha=2.0,min=0.01,max=0.1,n=5").unwrap();
        assert_eq!(w.count(), 5);

        let w = Workload::parse("batch:n=3,gbit=40.0").unwrap();
        assert_eq!(w.arrivals(), &Arrivals::Batch);
        assert_eq!(w.materialize().unwrap().len(), 3);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(Workload::parse("uniform:n=3").is_err());
        assert!(Workload::parse("poisson:rate").is_err());
        assert!(Workload::parse("poisson:rate=0").is_err());
        assert!(Workload::parse("poisson:bogus=1").is_err());
        assert!(Workload::parse("batch:n=0").is_err());
        assert!(Workload::parse("pareto:min=2.0,max=1.0").is_err());
    }

    #[test]
    fn parse_rejects_nan_volume_and_rate() {
        // "NaN" parses as an f64, so the range checks must reject it.
        assert!(Workload::parse("batch:gbit=NaN").is_err());
        assert!(Workload::parse("poisson:gbit=NaN").is_err());
        assert!(Workload::parse("poisson:rate=NaN").is_err());
        assert!(Workload::parse("poisson:rate=-NaN").is_err());
    }
}
