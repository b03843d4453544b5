//! Deterministic run-to-run noise.
//!
//! Real measurements wobble: the paper reports ranges, takes the max of 100
//! STREAM runs, and observes "unexpected behavior" once more than four TCP
//! streams contend (§IV-B1). We reproduce that texture with seeded
//! multiplicative jitter on per-flow ceilings, refreshed at a fixed period,
//! so every experiment is exactly reproducible from its seed.

use numa_par::rng::SplitMix64;

/// Jitter configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitterCfg {
    /// Relative amplitude: multipliers are drawn uniformly from
    /// `[1 - amplitude, 1 + amplitude]`.
    pub amplitude: f64,
    /// How often multipliers are re-drawn, in simulated seconds.
    pub refresh_s: f64,
    /// RNG seed.
    pub seed: u64,
}

impl JitterCfg {
    /// No jitter at all.
    pub fn none() -> Self {
        JitterCfg {
            amplitude: 0.0,
            refresh_s: f64::INFINITY,
            seed: 0,
        }
    }

    /// Mild measurement noise (±2%), refreshed every simulated second.
    pub fn measurement(seed: u64) -> Self {
        JitterCfg {
            amplitude: 0.02,
            refresh_s: 1.0,
            seed,
        }
    }

    /// Heavy contention noise (±8%) as seen with >4 TCP streams.
    pub fn contention(seed: u64) -> Self {
        JitterCfg {
            amplitude: 0.08,
            refresh_s: 1.0,
            seed,
        }
    }

    /// Is jitter disabled?
    pub fn is_none(&self) -> bool {
        self.amplitude == 0.0
    }
}

/// Stateful multiplier source for one simulation.
#[derive(Debug, Clone)]
pub struct JitterState {
    cfg: JitterCfg,
    rng: SplitMix64,
    multipliers: Vec<f64>,
}

impl JitterState {
    /// Create with one multiplier per flow, drawn immediately (none when
    /// jitter is off: every multiplier is then 1.0).
    pub fn new(cfg: JitterCfg, num_flows: usize) -> Self {
        let mut s = JitterState {
            cfg,
            rng: SplitMix64::new(cfg.seed),
            multipliers: if cfg.is_none() {
                Vec::new()
            } else {
                vec![1.0; num_flows]
            },
        };
        s.refresh();
        s
    }

    /// Redraw all multipliers.
    pub fn refresh(&mut self) {
        if self.cfg.is_none() {
            return;
        }
        let a = self.cfg.amplitude;
        for m in &mut self.multipliers {
            *m = 1.0 + self.rng.range_f64_inclusive(-a, a);
        }
    }

    /// Current multiplier of flow `i`.
    pub fn multiplier(&self, i: usize) -> f64 {
        if self.multipliers.is_empty() {
            1.0
        } else {
            self.multipliers[i]
        }
    }

    /// Refresh period (infinite when disabled).
    pub fn refresh_s(&self) -> f64 {
        self.cfg.refresh_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_identity() {
        let s = JitterState::new(JitterCfg::none(), 4);
        for i in 0..4 {
            assert_eq!(s.multiplier(i), 1.0);
        }
        assert!(s.refresh_s().is_infinite());
    }

    #[test]
    fn multipliers_stay_in_band() {
        let mut s = JitterState::new(JitterCfg::measurement(42), 16);
        for _ in 0..50 {
            s.refresh();
            for i in 0..16 {
                let m = s.multiplier(i);
                assert!((0.98..=1.02).contains(&m), "{m}");
            }
        }
    }

    #[test]
    fn same_seed_same_sequence() {
        let mut a = JitterState::new(JitterCfg::contention(7), 8);
        let mut b = JitterState::new(JitterCfg::contention(7), 8);
        for _ in 0..10 {
            a.refresh();
            b.refresh();
            for i in 0..8 {
                assert_eq!(a.multiplier(i), b.multiplier(i));
            }
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let a = JitterState::new(JitterCfg::contention(1), 8);
        let b = JitterState::new(JitterCfg::contention(2), 8);
        let same = (0..8).all(|i| a.multiplier(i) == b.multiplier(i));
        assert!(!same);
    }
}
