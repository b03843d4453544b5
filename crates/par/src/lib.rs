#![warn(missing_docs)]
//! # numa-par
//!
//! Deterministic parallel fan-out over scoped `std::thread` — no external
//! dependencies (the build environment cannot reach a crate registry, and
//! the workspace's fan-out needs are small enough that `rayon` would be
//! overkill anyway).
//!
//! ## Determinism contract
//!
//! [`map_indexed`] and [`parallel_map`] guarantee **serial equivalence**:
//!
//! * The output vector is ordered by item index, exactly as
//!   `(0..n).map(f).collect()` would order it. Workers race over *which
//!   thread* computes an item, never over *where its result lands*.
//! * If one or more closure invocations panic, the panic payload of the
//!   **lowest-index** panicking item is rethrown — the same panic a serial
//!   loop would have surfaced first. Later results are discarded.
//! * With one worker (or `NUMIO_PAR_THREADS=1`, or a single-item input)
//!   the code degenerates to a plain serial loop on the calling thread.
//!
//! Callers therefore stay byte-identical to their serial forms as long as
//! `f` itself is a pure function of its index (seeded per item, no shared
//! mutable state) — which is exactly how the fio sweep grid and the bench
//! experiment generators are written.
//!
//! ## Thread-count policy
//!
//! Worker count = `min(available_parallelism, n)`, overridable with the
//! `NUMIO_PAR_THREADS` environment variable (values `0` and `1` both mean
//! "serial"). Nested calls simply spawn their own scoped workers; with the
//! small fan-outs in this workspace the resulting oversubscription is
//! harmless and keeps the implementation free of a global pool.
//!
//! ## Seeded streams
//!
//! [`rng`] holds the workspace's only generator ([`rng::SplitMix64`]) and
//! only stable hash ([`rng::fnv1a64`]), which is what "seeded per item"
//! above means in practice.
//!
//! ## JSON
//!
//! [`json`](mod@json) is the workspace's only JSON codec: models, atlases, fault
//! plans, probe fixtures and the serve wire all go through it.

pub mod json;
pub mod rng;

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of workers to use for a fan-out of `n` items.
fn thread_count(n: usize) -> usize {
    let configured = std::env::var("NUMIO_PAR_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok());
    let t = configured.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    });
    t.clamp(1, n.max(1))
}

/// Apply `f` to every index in `0..n` and return the results in index
/// order. See the module docs for the determinism contract.
pub fn map_indexed<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let workers = thread_count(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    // Per-index result slots: the work-claiming counter races, the slot an
    // item writes to does not.
    let slots: Vec<Mutex<Option<std::thread::Result<U>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // Catch panics so one failing item cannot tear down the
                // scope before its siblings store their results; the
                // payload is rethrown below in index order.
                let result = catch_unwind(AssertUnwindSafe(|| f(i)));
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
            });
        }
    });
    let mut out = Vec::with_capacity(n);
    for slot in slots {
        let result = slot
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
            .expect("scope joined, so every item was computed");
        match result {
            Ok(v) => out.push(v),
            Err(payload) => resume_unwind(payload),
        }
    }
    out
}

/// Apply `f` to every element of `items`, returning results in input
/// order (the slice-flavoured convenience over [`map_indexed`]).
pub fn parallel_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    map_indexed(items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn results_are_in_index_order() {
        let got = map_indexed(100, |i| i * i);
        let want: Vec<usize> = (0..100).map(|i| i * i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn matches_serial_for_seeded_work() {
        // A per-index "seeded" computation, like the probe cells.
        let f = |i: usize| {
            let mut x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            for _ in 0..50 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            x
        };
        let serial: Vec<u64> = (0..257).map(f).collect();
        assert_eq!(map_indexed(257, f), serial);
    }

    #[test]
    fn empty_and_single_inputs_work() {
        assert_eq!(map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(map_indexed(1, |i| i + 41), vec![41]);
    }

    #[test]
    fn slice_flavour_borrows_items() {
        let words = ["alpha".to_string(), "beta".to_string()];
        assert_eq!(parallel_map(&words, |w| w.len()), vec![5, 4]);
    }

    #[test]
    fn lowest_index_panic_wins() {
        let flag = AtomicBool::new(false);
        let result = catch_unwind(AssertUnwindSafe(|| {
            map_indexed(64, |i| {
                if i == 60 {
                    panic!("late panic");
                }
                if i == 3 {
                    panic!("early panic");
                }
                flag.store(true, Ordering::Relaxed);
                i
            })
        }));
        let payload = result.expect_err("must panic");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "early panic", "serial-equivalent panic order");
        assert!(flag.load(Ordering::Relaxed), "other items still ran");
    }

    #[test]
    fn env_override_forces_serial() {
        // Exercise the serial path explicitly (the env var itself is
        // process-global, so test the knob's effect via thread_count).
        assert_eq!(super::thread_count(0), 1);
        assert_eq!(super::thread_count(1), 1);
        assert!(super::thread_count(1024) >= 1);
    }

    #[test]
    fn closure_may_capture_shared_state() {
        let base = [10, 20, 30];
        let got = map_indexed(base.len(), |i| base[i] + 1);
        assert_eq!(got, vec![11, 21, 31]);
    }
}
