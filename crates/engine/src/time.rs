//! Integer simulation time.
//!
//! The event calendar keys on an integer clock so event ordering never
//! depends on floating-point rounding: two events scheduled at the same
//! nanosecond compare equal on every platform, and ties break on the
//! deterministic `(kind, sequence)` order the [`crate::schedule::Schedule`]
//! maintains. One tick is one nanosecond — fine enough that the paper's
//! multi-second 400 GB transfers span billions of ticks, coarse enough
//! that a `u64` holds ~584 years of simulated time.
//!
//! The fluid integrator still advances in `f64` seconds (rate × time
//! products want the full mantissa); [`Time`] is the *ordering* domain,
//! seconds are the *arithmetic* domain, and [`Time::from_seconds`] is the
//! single, deterministic bridge between them.

/// Ticks per simulated second (nanosecond resolution).
pub const TICKS_PER_SECOND: u64 = 1_000_000_000;

/// An absolute instant on the simulation clock, in integer nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Time(pub u64);

impl Time {
    /// Quantize a non-negative time in seconds onto the tick clock,
    /// rounding to the nearest tick. Deterministic: the same `f64` input
    /// always maps to the same tick on every platform.
    pub fn from_seconds(s: f64) -> Time {
        debug_assert!(
            s >= 0.0 && s.is_finite(),
            "time must be finite and >= 0: {s}"
        );
        Time((s * TICKS_PER_SECOND as f64).round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_quantize_at_tick_resolution() {
        assert_eq!(Time::from_seconds(1.25), Time(1_250_000_000));
        assert_eq!(Time::from_seconds(0.5), Time(500_000_000));
    }

    #[test]
    fn ordering_is_integer_exact() {
        // Two f64 values closer than a tick land on the same instant.
        let a = Time::from_seconds(1.0);
        let b = Time::from_seconds(1.0 + 1e-13);
        assert_eq!(a, b);
        assert!(Time::from_seconds(1.0) < Time::from_seconds(1.0 + 1e-8));
    }
}
