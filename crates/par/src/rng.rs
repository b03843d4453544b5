//! The workspace's one seeded generator and one stable hash.
//!
//! Every seeded stream in `numio` (probe noise, jitter, arrival gaps,
//! sampled hosts, traces) draws from [`SplitMix64`], and every digest that
//! must survive across processes and Rust versions (FCT digests, cache
//! keys, request-mix digests) is [`fnv1a64`]. Both are a few lines of
//! integer arithmetic, identical on every platform, so a seed replays bit
//! for bit.
//!
//! The range draws follow one convention:
//!
//! * integers map 64 random bits onto the span by multiply-high (Lemire),
//!   without rejection: the bias is below `span / 2^64`;
//! * floats take the top 53 bits over `2^53` for `[lo, hi)`, or over
//!   `2^53 - 1` for `[lo, hi]`, and redraw when rounding lands past `hi`.

/// The splitmix64 Weyl increment, `2^64 / φ`.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 finalizer (Stafford's Mix13): a bijection on `u64` that
/// spreads every input bit over every output bit. Use it to derive one
/// well-mixed sub-seed from a seed, or as a one-shot hash of an integer.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// splitmix64 (Steele, Lea and Flood): a Weyl sequence through
/// [`mix64`]. One 64-bit state, so it is cheap to seed per probe cell.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream seeded with `seed`; the same seed gives the same stream.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        mix64(self.state)
    }

    /// Uniform in the open interval (0, 1): the high 53 bits plus a half
    /// tick, so `ln(u)` never sees 0.
    #[inline]
    pub fn u01(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. Panics when `n` is 0.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below: empty range");
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[lo, hi)`. Panics unless `lo < hi`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "range_f64: empty range");
        self.f64_between(lo, hi, false)
    }

    /// Uniform in `[lo, hi]`. Panics unless `lo <= hi`.
    #[inline]
    pub fn range_f64_inclusive(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "range_f64_inclusive: empty range");
        self.f64_between(lo, hi, true)
    }

    #[inline]
    fn f64_between(&mut self, lo: f64, hi: f64, inclusive: bool) -> f64 {
        let denom = if inclusive {
            ((1u64 << 53) - 1) as f64
        } else {
            (1u64 << 53) as f64
        };
        loop {
            let x = lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / denom);
            if x < hi || (inclusive && x <= hi) {
                return x;
            }
        }
    }
}

/// The FNV-1a-64 offset basis: the digest of no bytes.
pub const FNV1A64_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into the FNV-1a-64 digest `h`. Start from
/// [`FNV1A64_INIT`]; folding a message in pieces gives the digest of the
/// whole.
pub fn fnv1a64(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vector() {
        // Reference outputs for seed 1234567 (Vigna's splitmix64.c).
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
        assert_eq!(rng.next_u64(), 9817491932198370423);
        let mut again = SplitMix64::new(1234567);
        assert_eq!(
            again.next_u64(),
            6457827717110365317,
            "same seed, same stream"
        );
        let mut other = SplitMix64::new(1234568);
        assert_ne!(other.next_u64(), 6457827717110365317);
    }

    #[test]
    fn mix64_is_the_stream_finalizer() {
        assert_eq!(mix64(1234567u64.wrapping_add(GAMMA)), 6457827717110365317);
        assert_eq!(mix64(0), 0);
    }

    #[test]
    fn u01_is_open_interval() {
        let mut rng = SplitMix64::new(9);
        for _ in 0..10_000 {
            let u = rng.u01();
            assert!(u > 0.0 && u < 1.0, "{u}");
        }
    }

    #[test]
    fn below_stays_in_bounds_and_covers_them() {
        let mut rng = SplitMix64::new(1);
        let mut seen = [false; 3];
        for _ in 0..10_000 {
            let x = rng.below(3);
            assert!(x < 3, "{x}");
            seen[x as usize] = true;
        }
        assert_eq!(seen, [true; 3]);
        assert_eq!(rng.below(1), 0);
    }

    #[test]
    fn below_is_multiply_high() {
        let mut a = SplitMix64::new(5);
        let mut b = a.clone();
        for _ in 0..100 {
            let bits = b.next_u64();
            assert_eq!(a.below(10), ((bits as u128 * 10) >> 64) as u64);
        }
    }

    #[test]
    fn floats_stay_in_their_ranges() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..10_000 {
            let x = rng.range_f64(1e-9, 1.0);
            assert!((1e-9..1.0).contains(&x), "{x}");
            let y = rng.range_f64_inclusive(-0.05, 0.05);
            assert!((-0.05..=0.05).contains(&y), "{y}");
        }
        assert_eq!(rng.range_f64_inclusive(0.0, 0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_float_range_panics() {
        SplitMix64::new(5).range_f64(3.0, 3.0);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_int_range_panics() {
        SplitMix64::new(5).below(0);
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // From the FNV reference test suite.
        assert_eq!(fnv1a64(FNV1A64_INIT, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(FNV1A64_INIT, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(FNV1A64_INIT, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(
            fnv1a64(fnv1a64(FNV1A64_INIT, b"foo"), b"bar"),
            0x8594_4171_f739_67e8
        );
    }
}
