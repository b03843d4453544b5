//! Seeded property tests for [`RateMap`]: clamping, segment-local
//! interpolation, piecewise linearity, edge cases (single-point and empty
//! curves, NaN/±inf queries, typed construction errors) — the invariants
//! the calibrated Tables IV/V curves rely on. Each property runs `CASES`
//! cases, case `c` drawing its inputs from `SplitMix64::new(c)`.

use numa_iodev::ratemap::{calibrated, RateMapError};
use numa_iodev::RateMap;
use numa_par::rng::SplitMix64;

const CASES: u64 = 128;

/// 2–9 control points with strictly increasing x and positive y.
fn arb_points(rng: &mut SplitMix64) -> Vec<(f64, f64)> {
    let mut pts: Vec<(f64, f64)> = (0..2 + rng.below(8))
        .map(|_| (rng.range_f64(0.1, 50.0), rng.range_f64(0.1, 100.0)))
        .collect();
    pts.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut x = 0.0;
    pts.into_iter()
        .map(|(dx, y)| {
            x += dx + 0.001;
            (x, y)
        })
        .collect()
}

/// Any `f64`: a special value (NaN, ±inf, ±0, subnormal, extremes) one
/// time in four, otherwise 64 random bits.
fn any_f64(rng: &mut SplitMix64) -> f64 {
    const SPECIAL: [f64; 8] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        f64::MIN_POSITIVE / 2.0,
        f64::MAX,
        f64::MIN,
    ];
    if rng.below(4) == 0 {
        SPECIAL[rng.below(SPECIAL.len() as u64) as usize]
    } else {
        f64::from_bits(rng.next_u64())
    }
}

#[test]
fn eval_clamps_outside_the_calibrated_range() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let pts = arb_points(&mut rng);
        let d = rng.range_f64(0.001, 1000.0);
        let map = RateMap::empirical(pts.clone());
        let (x0, y0) = pts[0];
        let (xn, yn) = pts[pts.len() - 1];
        assert_eq!(
            map.eval(x0 - d),
            y0,
            "case {case}: below range clamps to first y"
        );
        assert_eq!(
            map.eval(xn + d),
            yn,
            "case {case}: above range clamps to last y"
        );
    }
}

#[test]
fn eval_stays_inside_the_bracketing_segment() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let pts = arb_points(&mut rng);
        let t = rng.range_f64(0.0, 1.0);
        let map = RateMap::empirical(pts.clone());
        for w in pts.windows(2) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            let x = x0 + t * (x1 - x0);
            let y = map.eval(x);
            let (lo, hi) = if y0 <= y1 { (y0, y1) } else { (y1, y0) };
            assert!(
                y >= lo - 1e-9 && y <= hi + 1e-9,
                "case {case}: eval({x}) = {y} escapes segment [{lo},{hi}]"
            );
        }
    }
}

#[test]
fn interpolation_is_piecewise_linear() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let pts = arb_points(&mut rng);
        let t = rng.range_f64(0.01, 0.99);
        let map = RateMap::empirical(pts.clone());
        for w in pts.windows(2) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            let x = x0 + t * (x1 - x0);
            let want = y0 + t * (y1 - y0);
            let got = map.eval(x);
            assert!(
                (got - want).abs() < 1e-6 * want.abs().max(1.0),
                "case {case}: eval({x}) = {got}, linear prediction {want}"
            );
        }
    }
}

#[test]
fn max_output_is_attained_at_a_control_point() {
    for case in 0..CASES {
        let pts = arb_points(&mut SplitMix64::new(case));
        let map = RateMap::empirical(pts.clone());
        let best = map.max_output();
        assert!(
            pts.iter().any(|&(_, y)| (y - best).abs() < 1e-12),
            "case {case}"
        );
        // No control point beats it.
        for &(_, y) in &pts {
            assert!(y <= best, "case {case}: {y} > {best}");
        }
    }
}

#[test]
fn eval_is_total_and_never_nan() {
    // Any representable query — NaN, ±inf, subnormals — comes back
    // finite; eval(NaN) used to index out of range.
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let map = RateMap::empirical(arb_points(&mut rng));
        let q = any_f64(&mut rng);
        assert!(map.eval(q).is_finite(), "case {case}: eval({q})");
    }
}

#[test]
fn nan_queries_are_typed_errors() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let map = RateMap::empirical(arb_points(&mut rng));
        let x = rng.range_f64(0.0, 500.0);
        assert_eq!(
            map.try_eval(f64::NAN).unwrap_err(),
            RateMapError::NanQuery,
            "case {case}"
        );
        // Finite queries agree bit-for-bit with the infallible path.
        assert_eq!(
            map.try_eval(x).unwrap().to_bits(),
            map.eval(x).to_bits(),
            "case {case}"
        );
    }
}

#[test]
fn single_point_curves_are_constant() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let (x, y) = (rng.range_f64(0.1, 100.0), rng.range_f64(0.1, 100.0));
        let q = any_f64(&mut rng);
        let map = RateMap::try_empirical(vec![(x, y)]).unwrap();
        assert_eq!(map.eval(q), y, "case {case}: eval({q})");
        assert_eq!(map.max_output(), y, "case {case}");
    }
}

#[test]
fn duplicated_x_is_a_typed_error() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let mut pts = arb_points(&mut rng);
        let i = (rng.below(10) as usize).min(pts.len() - 1);
        let dup = pts[i];
        pts.insert(i, dup);
        let err = RateMap::try_empirical(pts).unwrap_err();
        assert!(
            matches!(err, RateMapError::NonIncreasingX { .. }),
            "case {case}: {err:?}"
        );
    }
}

#[test]
fn bad_control_points_are_typed_errors() {
    for case in 0..CASES {
        let y = SplitMix64::new(case).range_f64_inclusive(-100.0, 0.0);
        for bad in [
            vec![(1.0, y)],
            vec![(f64::NAN, 1.0)],
            vec![(1.0, f64::INFINITY)],
        ] {
            let err = RateMap::try_empirical(bad).unwrap_err();
            assert!(
                matches!(err, RateMapError::BadPoint { .. }),
                "case {case}: {err:?}"
            );
        }
    }
}

#[test]
fn try_monotone_rejects_any_decreasing_pair() {
    for case in 0..CASES {
        let pts = arb_points(&mut SplitMix64::new(case));
        match RateMap::try_monotone(pts.clone()) {
            Ok(_) => {
                for w in pts.windows(2) {
                    assert!(w[1].1 >= w[0].1, "case {case}: accepted a decreasing pair");
                }
            }
            Err(e) => assert!(
                matches!(e, RateMapError::DecreasingY { .. }),
                "case {case}: {e:?}"
            ),
        }
    }
}

#[test]
fn calibrated_curves_hold_their_invariants() {
    // Every shipped curve clamps, stays positive, and never exceeds its
    // own ceiling — the properties Eq. 1 predictions rest on.
    for case in 0..CASES {
        let x = SplitMix64::new(case).range_f64(0.0, 100.0);
        for map in [
            calibrated::tcp_send(),
            calibrated::tcp_recv(),
            calibrated::rdma_write(),
            calibrated::rdma_read(),
            calibrated::ssd_write(),
            calibrated::ssd_read(),
        ] {
            let y = map.eval(x);
            assert!(y > 0.0, "case {case}: eval({x}) = {y}");
            assert!(y <= map.max_output() + 1e-9, "case {case}: eval({x}) = {y}");
        }
        // The monotone write-direction curves really are monotone.
        for map in [
            calibrated::tcp_send(),
            calibrated::rdma_write(),
            calibrated::ssd_write(),
        ] {
            assert!(
                map.eval(x) <= map.eval(x + 1.0) + 1e-9,
                "case {case}: at {x}"
            );
        }
    }
}

#[test]
fn empty_curve_is_a_typed_error() {
    assert_eq!(
        RateMap::try_empirical(vec![]).unwrap_err(),
        RateMapError::Empty
    );
    assert_eq!(
        RateMap::try_monotone(vec![]).unwrap_err(),
        RateMapError::Empty
    );
}
