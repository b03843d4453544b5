//! Piecewise-linear calibration curves: DMA path bandwidth → protocol
//! bandwidth.
//!
//! The paper's central empirical result is that the per-node `memcpy`
//! bandwidths (its proposed model) and the per-node I/O bandwidths share
//! the same class structure, while the absolute levels are protocol
//! specific. A [`RateMap`] captures one protocol's level curve: its control
//! points are the `(memcpy, protocol)` pairs implied by Tables IV and V,
//! evaluation interpolates linearly and clamps outside the calibrated
//! range.
//!
//! Most curves are monotone (faster path ⇒ faster protocol); measured TCP
//! receive is *slightly* non-monotone in the mid-range (Table V: class
//! {0,1,5} edges out class {2,3}), which the paper attributes to host-side
//! contention noise. [`RateMap::monotone`] enforces monotonicity where it
//! is expected; [`RateMap::empirical`] admits measured wiggle.

use std::borrow::Cow;

/// Everything that can go wrong building or querying a [`RateMap`]. The
/// `Display` text matches the panic messages of the infallible
/// constructors, which delegate here.
#[derive(Debug, Clone, PartialEq)]
pub enum RateMapError {
    /// The control-point list was empty.
    Empty,
    /// Two control points with non-increasing `x`.
    NonIncreasingX {
        /// The earlier point.
        prev: (f64, f64),
        /// The offending point.
        next: (f64, f64),
    },
    /// A control point with a non-finite or non-positive coordinate.
    BadPoint {
        /// The offending point.
        point: (f64, f64),
    },
    /// A monotone map whose `y` decreases.
    DecreasingY {
        /// The earlier point.
        prev: (f64, f64),
        /// The offending point.
        next: (f64, f64),
    },
    /// A query with a NaN input.
    NanQuery,
}

impl std::fmt::Display for RateMapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RateMapError::Empty => write!(f, "rate map needs at least one point"),
            RateMapError::NonIncreasingX { prev, next } => {
                write!(f, "x must be strictly increasing: {prev:?} then {next:?}")
            }
            RateMapError::BadPoint { point: (x, y) } => {
                write!(f, "control points must be positive: ({x},{y})")
            }
            RateMapError::DecreasingY { prev, next } => {
                write!(
                    f,
                    "monotone map must have non-decreasing y: {prev:?} then {next:?}"
                )
            }
            RateMapError::NanQuery => write!(f, "rate map queried with NaN"),
        }
    }
}

impl std::error::Error for RateMapError {}

/// A piecewise-linear `x -> y` map with clamping. The calibrated curves
/// borrow their control points from static tables, so building or
/// cloning one copies nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct RateMap {
    points: Cow<'static, [(f64, f64)]>,
}

impl RateMap {
    /// Build from control points; `x` must be strictly increasing and `y`
    /// non-decreasing. Panics on bad input; see [`Self::try_monotone`].
    pub fn monotone(points: Vec<(f64, f64)>) -> Self {
        Self::try_monotone(points).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::monotone`]: typed errors instead of panics, for
    /// maps built from user-supplied calibration data.
    pub fn try_monotone(points: Vec<(f64, f64)>) -> Result<Self, RateMapError> {
        let m = Self::try_empirical(points)?;
        for w in m.points.windows(2) {
            if w[1].1 < w[0].1 {
                return Err(RateMapError::DecreasingY {
                    prev: w[0],
                    next: w[1],
                });
            }
        }
        Ok(m)
    }

    /// Build from control points; `x` must be strictly increasing, `y` may
    /// wiggle (measured data). Panics on bad input; see
    /// [`Self::try_empirical`].
    pub fn empirical(points: Vec<(f64, f64)>) -> Self {
        Self::try_empirical(points).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Self::empirical`]: typed errors instead of panics.
    pub fn try_empirical(points: Vec<(f64, f64)>) -> Result<Self, RateMapError> {
        if points.is_empty() {
            return Err(RateMapError::Empty);
        }
        for &(x, y) in &points {
            if !(x.is_finite() && y.is_finite() && x > 0.0 && y > 0.0) {
                return Err(RateMapError::BadPoint { point: (x, y) });
            }
        }
        for w in points.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(RateMapError::NonIncreasingX {
                    prev: w[0],
                    next: w[1],
                });
            }
        }
        Ok(RateMap {
            points: Cow::Owned(points),
        })
    }

    /// A calibrated curve over a static table, borrowed as is: the
    /// tables are checked once, by `calibrated_tables_pass_their_checks`,
    /// not on every model build.
    fn calibrated(points: &'static [(f64, f64)]) -> Self {
        RateMap {
            points: Cow::Borrowed(points),
        }
    }

    /// Evaluate with linear interpolation, clamping outside the range.
    /// Total over all inputs: `±inf` clamp like any out-of-range query and
    /// NaN clamps to the first control point (constructors guarantee at
    /// least one exists), so no input can panic or return NaN. Use
    /// [`Self::try_eval`] to surface NaN queries as typed errors instead.
    pub fn eval(&self, x: f64) -> f64 {
        let pts = &self.points;
        // NaN fails every comparison below; without this guard it would
        // fall through to the bracketing search and index out of range.
        if x.is_nan() || x <= pts[0].0 {
            return pts[0].1;
        }
        if x >= pts[pts.len() - 1].0 {
            return pts[pts.len() - 1].1;
        }
        // Find the bracketing segment.
        let i = pts.partition_point(|&(px, _)| px < x);
        let (x0, y0) = pts[i - 1];
        let (x1, y1) = pts[i];
        y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    }

    /// [`Self::eval`] that rejects NaN queries with a typed error instead
    /// of clamping.
    pub fn try_eval(&self, x: f64) -> Result<f64, RateMapError> {
        if x.is_nan() {
            return Err(RateMapError::NanQuery);
        }
        Ok(self.eval(x))
    }

    /// Highest output the map can produce (the protocol's port ceiling as
    /// observed from the best node).
    pub fn max_output(&self) -> f64 {
        self.points.iter().map(|&(_, y)| y).fold(0.0, f64::max)
    }

    /// The control points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }
}

/// Calibrated curves for the DL585 testbed. Control-point x values are the
/// per-node DMA path bandwidths of `numa_fabric::calibration` (write
/// direction: 26.0, 27.3, 42.9, 44.6, 45.0, 46.5, 53.5; read direction:
/// 27.9, 39.9, 40.2, 40.9, 46.9, 47.1, 50.3, 53.5); y values are the
/// per-node protocol bandwidths implied by the class rows of Tables IV/V
/// (and, for RDMA_READ, the exact per-class figures quoted in the Eq. 1
/// worked example). The SSDs' request-size curve sits here too. Each
/// curve is a static table, so a model holds it without a copy.
pub mod calibrated {
    use super::RateMap;

    /// TCP sender (Table IV row 2). Node 7 additionally loses CPU to IRQ
    /// handling, modelled in [`crate::NicModel`], not here.
    pub fn tcp_send() -> RateMap {
        RateMap::calibrated(&TCP_SEND)
    }

    static TCP_SEND: [(f64, f64); 7] = [
        (26.0, 16.2),
        (27.3, 16.3),
        (42.9, 20.0),
        (44.6, 20.4),
        (45.0, 20.5),
        (46.5, 20.9),
        (53.5, 21.2),
    ];

    /// TCP receiver (Table V row 2). Slightly non-monotone mid-range, as
    /// measured.
    pub fn tcp_recv() -> RateMap {
        RateMap::calibrated(&TCP_RECV)
    }

    static TCP_RECV: [(f64, f64); 8] = [
        (27.9, 14.4),
        (39.9, 20.4),
        (40.2, 20.6),
        (40.9, 20.8),
        (46.9, 20.1),
        (47.1, 20.3),
        (50.3, 19.9),
        (53.5, 22.0),
    ];

    /// RDMA_WRITE (Table IV row 3): offloaded, port-clamped at 23.3 for
    /// every class except the starved {2,3} path.
    pub fn rdma_write() -> RateMap {
        RateMap::calibrated(&RDMA_WRITE)
    }

    static RDMA_WRITE: [(f64, f64); 7] = [
        (26.0, 17.05),
        (27.3, 17.1),
        (42.9, 23.2),
        (44.6, 23.2),
        (45.0, 23.25),
        (46.5, 23.3),
        (53.5, 23.3),
    ];

    /// RDMA_READ (Table V row 3). Anchors include the exact class
    /// bandwidths of the paper's Eq. 1 example (18.036 and 21.998 Gbps).
    pub fn rdma_read() -> RateMap {
        RateMap::calibrated(&RDMA_READ)
    }

    static RDMA_READ: [(f64, f64); 7] = [
        (27.9, 16.1),
        (39.9, 18.036),
        (40.2, 18.3),
        (40.9, 18.5),
        (46.9, 21.998),
        (47.1, 22.0),
        (53.5, 22.0),
    ];

    /// SSD write, both cards aggregate (Table IV row 4).
    pub fn ssd_write() -> RateMap {
        RateMap::calibrated(&SSD_WRITE)
    }

    static SSD_WRITE: [(f64, f64); 7] = [
        (26.0, 17.9),
        (27.3, 18.0),
        (42.9, 28.1),
        (44.6, 28.5),
        (45.0, 28.55),
        (46.5, 28.6),
        (53.5, 29.1),
    ];

    /// Request-size efficiency of the Nytro WarpDrive cards: block size
    /// (KiB) to the fraction of the streaming ceiling (see
    /// [`crate::DeviceProfile::nytro_warpdrive`]).
    pub fn nytro_block() -> RateMap {
        RateMap::calibrated(&NYTRO_BLOCK)
    }

    static NYTRO_BLOCK: [(f64, f64); 5] = [
        (4.0, 0.34),
        (16.0, 0.62),
        (64.0, 0.85),
        (256.0, 0.96),
        (1024.0, 1.0),
    ];

    /// SSD read, both cards aggregate (Table V row 4).
    pub fn ssd_read() -> RateMap {
        RateMap::calibrated(&SSD_READ)
    }

    static SSD_READ: [(f64, f64); 8] = [
        (27.9, 18.5),
        (39.9, 29.7),
        (40.2, 30.0),
        (40.9, 30.9),
        (46.9, 32.3),
        (47.1, 34.7),
        (50.3, 32.9),
        (53.5, 34.7),
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_tables_pass_their_checks() {
        use calibrated::*;
        for m in [
            tcp_send(),
            rdma_write(),
            rdma_read(),
            ssd_write(),
            nytro_block(),
        ] {
            assert_eq!(RateMap::try_monotone(m.points().to_vec()), Ok(m));
        }
        for m in [tcp_recv(), ssd_read()] {
            assert_eq!(RateMap::try_empirical(m.points().to_vec()), Ok(m));
        }
    }

    #[test]
    fn eval_interpolates_and_clamps() {
        let m = RateMap::monotone(vec![(10.0, 1.0), (20.0, 3.0)]);
        assert_eq!(m.eval(10.0), 1.0);
        assert_eq!(m.eval(15.0), 2.0);
        assert_eq!(m.eval(20.0), 3.0);
        assert_eq!(m.eval(0.0), 1.0, "clamp below");
        assert_eq!(m.eval(99.0), 3.0, "clamp above");
        assert_eq!(m.max_output(), 3.0);
    }

    #[test]
    fn single_point_is_constant() {
        let m = RateMap::monotone(vec![(5.0, 2.0)]);
        assert_eq!(m.eval(1.0), 2.0);
        assert_eq!(m.eval(5.0), 2.0);
        assert_eq!(m.eval(9.0), 2.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn duplicate_x_rejected() {
        let _ = RateMap::empirical(vec![(1.0, 1.0), (1.0, 2.0)]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn monotone_rejects_wiggle() {
        let _ = RateMap::monotone(vec![(1.0, 2.0), (2.0, 1.0)]);
    }

    #[test]
    fn empirical_accepts_wiggle() {
        let m = RateMap::empirical(vec![(1.0, 2.0), (2.0, 1.0), (3.0, 4.0)]);
        assert_eq!(m.eval(1.5), 1.5);
    }

    #[test]
    fn try_constructors_return_typed_errors() {
        assert_eq!(
            RateMap::try_empirical(vec![]).unwrap_err(),
            RateMapError::Empty
        );
        assert_eq!(
            RateMap::try_empirical(vec![(1.0, 1.0), (1.0, 2.0)]).unwrap_err(),
            RateMapError::NonIncreasingX {
                prev: (1.0, 1.0),
                next: (1.0, 2.0)
            }
        );
        // NaN != NaN, so match the error instead of comparing it.
        assert!(matches!(
            RateMap::try_empirical(vec![(1.0, f64::NAN)]).unwrap_err(),
            RateMapError::BadPoint { point: (x, y) } if x == 1.0 && y.is_nan()
        ));
        assert_eq!(
            RateMap::try_empirical(vec![(f64::INFINITY, 1.0)]).unwrap_err(),
            RateMapError::BadPoint {
                point: (f64::INFINITY, 1.0)
            }
        );
        assert_eq!(
            RateMap::try_monotone(vec![(1.0, 2.0), (2.0, 1.0)]).unwrap_err(),
            RateMapError::DecreasingY {
                prev: (1.0, 2.0),
                next: (2.0, 1.0)
            }
        );
        assert!(RateMap::try_monotone(vec![(1.0, 1.0), (2.0, 2.0)]).is_ok());
    }

    #[test]
    fn nan_query_clamps_in_eval_and_errors_in_try_eval() {
        // Regression: eval(NaN) used to fall through both clamp guards and
        // index `pts[0 - 1]`.
        let m = RateMap::monotone(vec![(10.0, 1.0), (20.0, 3.0)]);
        assert_eq!(m.eval(f64::NAN), 1.0);
        assert_eq!(m.try_eval(f64::NAN).unwrap_err(), RateMapError::NanQuery);
        assert_eq!(m.try_eval(15.0).unwrap(), 2.0);
        // ±inf clamp like any out-of-range query.
        assert_eq!(m.eval(f64::NEG_INFINITY), 1.0);
        assert_eq!(m.eval(f64::INFINITY), 3.0);
        assert_eq!(m.try_eval(f64::INFINITY).unwrap(), 3.0);
    }

    #[test]
    fn error_display_matches_constructor_panics() {
        assert!(RateMapError::Empty
            .to_string()
            .contains("at least one point"));
        let e = RateMapError::NonIncreasingX {
            prev: (1.0, 1.0),
            next: (1.0, 2.0),
        };
        assert!(e.to_string().contains("strictly increasing"));
        let e = RateMapError::DecreasingY {
            prev: (1.0, 2.0),
            next: (2.0, 1.0),
        };
        assert!(e.to_string().contains("non-decreasing"));
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_rejected() {
        let _ = RateMap::empirical(vec![]);
    }

    #[test]
    fn calibrated_maps_reproduce_table_anchors() {
        // Write direction path values per node (fabric calibration docs).
        let write_paths = [42.9, 44.6, 27.3, 26.0, 46.5, 45.0, 46.5, 53.5];
        let read_paths = [39.9, 40.2, 46.9, 50.3, 27.9, 40.9, 47.1, 53.5];
        let class_avg = |map: &RateMap, paths: &[f64; 8], nodes: &[u16]| -> f64 {
            nodes
                .iter()
                .map(|&n| map.eval(paths[n as usize]))
                .sum::<f64>()
                / nodes.len() as f64
        };
        use numa_fabric::calibration::paper;

        let m = calibrated::tcp_send();
        for (nodes, &want) in paper::WRITE_CLASSES.iter().zip(&paper::WRITE_TCP_AVG) {
            // Skip class 1: node 7's IRQ derate applies outside the map.
            if nodes.contains(&7) {
                continue;
            }
            let got = class_avg(&m, &write_paths, nodes);
            assert!(
                (got - want).abs() / want < 0.01,
                "tcp_send {nodes:?}: {got} vs {want}"
            );
        }
        let m = calibrated::rdma_write();
        for (nodes, &want) in paper::WRITE_CLASSES.iter().zip(&paper::WRITE_RDMA_AVG) {
            let got = class_avg(&m, &write_paths, nodes);
            assert!(
                (got - want).abs() / want < 0.01,
                "rdma_write {nodes:?}: {got} vs {want}"
            );
        }
        let m = calibrated::ssd_write();
        for (nodes, &want) in paper::WRITE_CLASSES.iter().zip(&paper::WRITE_SSD_AVG) {
            let got = class_avg(&m, &write_paths, nodes);
            assert!(
                (got - want).abs() / want < 0.02,
                "ssd_write {nodes:?}: {got} vs {want}"
            );
        }
        let m = calibrated::tcp_recv();
        for (nodes, &want) in paper::READ_CLASSES.iter().zip(&paper::READ_TCP_AVG) {
            let got = class_avg(&m, &read_paths, nodes);
            assert!(
                (got - want).abs() / want < 0.01,
                "tcp_recv {nodes:?}: {got} vs {want}"
            );
        }
        let m = calibrated::rdma_read();
        for (nodes, &want) in paper::READ_CLASSES.iter().zip(&paper::READ_RDMA_AVG) {
            let got = class_avg(&m, &read_paths, nodes);
            assert!(
                (got - want).abs() / want < 0.01,
                "rdma_read {nodes:?}: {got} vs {want}"
            );
        }
        let m = calibrated::ssd_read();
        for (nodes, &want) in paper::READ_CLASSES.iter().zip(&paper::READ_SSD_AVG) {
            let got = class_avg(&m, &read_paths, nodes);
            assert!(
                (got - want).abs() / want < 0.02,
                "ssd_read {nodes:?}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn eq1_anchors_are_exact() {
        use numa_fabric::calibration::paper;
        let m = calibrated::rdma_read();
        // Node 2 (class 2) path = 46.9; node 0 (class 3) path = 39.9.
        assert_eq!(m.eval(46.9), paper::EQ1_CLASS2_BW);
        assert_eq!(m.eval(39.9), paper::EQ1_CLASS3_BW);
    }
}
