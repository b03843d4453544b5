//! Seeded property tests for the max-min fair allocator: each property
//! runs `CASES` cases, case `c` drawing its inputs from `SplitMix64::new(c)`.

use numa_fabric::{solve_max_min, FlowSpec, MaxMinProblem, MaxMinSolver};
use numa_par::rng::SplitMix64;

const CASES: u64 = 256;

/// Uniform in `[lo, hi)`.
fn int(rng: &mut SplitMix64, lo: usize, hi: usize) -> usize {
    lo + rng.below((hi - lo) as u64) as usize
}

/// `len` in `[lo, hi)` values drawn uniformly from `[a, b)`.
fn floats(rng: &mut SplitMix64, lo: usize, hi: usize, a: f64, b: f64) -> Vec<f64> {
    let len = int(rng, lo, hi);
    (0..len).map(|_| rng.range_f64(a, b)).collect()
}

fn arb_problem(rng: &mut SplitMix64) -> MaxMinProblem {
    let capacities = floats(rng, 1, 8, 0.1, 100.0);
    let nr = capacities.len();
    let flows = (0..int(rng, 0, 10))
        .map(|_| {
            let resources = (0..int(rng, 1, nr.min(4) + 1))
                .map(|_| int(rng, 0, nr))
                .collect();
            FlowSpec {
                resources,
                ceiling: maybe_ceiling(rng, 0.1, 60.0),
                weight: 1.0,
            }
        })
        .collect();
    MaxMinProblem { capacities, flows }
}

/// Larger instances for pinning the incremental solver against the
/// reference: up to 64 flows, mixed weights, duplicate resource listings
/// allowed (sampling with replacement), zero-capacity resources possible.
fn arb_problem_rich(rng: &mut SplitMix64) -> MaxMinProblem {
    let capacities: Vec<f64> = (0..int(rng, 1, 10))
        .map(|_| {
            if rng.below(2) == 0 {
                0.0
            } else {
                rng.range_f64(0.1, 100.0)
            }
        })
        .collect();
    let nr = capacities.len();
    let flows = (0..int(rng, 0, 64))
        .map(|_| {
            let resources = (0..int(rng, 1, nr.min(5) + 1))
                .map(|_| int(rng, 0, nr))
                .collect();
            let ceiling = match rng.below(3) {
                0 => f64::INFINITY,
                1 => 0.0,
                _ => rng.range_f64(0.1, 60.0),
            };
            let weight = rng.range_f64(0.25, 4.25);
            FlowSpec {
                resources,
                ceiling,
                weight,
            }
        })
        .collect();
    MaxMinProblem { capacities, flows }
}

/// A ceiling that is unbounded half the time, else uniform in `[lo, hi)`.
fn maybe_ceiling(rng: &mut SplitMix64, lo: f64, hi: f64) -> f64 {
    if rng.below(2) == 0 {
        f64::INFINITY
    } else {
        rng.range_f64(lo, hi)
    }
}

/// The historical one-shot progressive-filling implementation, verbatim —
/// the ground truth the incremental [`MaxMinSolver`] must reproduce
/// bit-for-bit.
fn reference_solve(problem: &MaxMinProblem) -> Vec<f64> {
    let caps = &problem.capacities;
    let flows = &problem.flows;
    let nf = flows.len();
    let nr = caps.len();
    let mut rate = vec![0.0_f64; nf];
    let mut active: Vec<bool> = (0..nf).map(|i| flows[i].ceiling > 0.0).collect();
    let mut remaining: Vec<f64> = caps.clone();
    const EPS: f64 = 1e-12;

    loop {
        let mut load = vec![0.0_f64; nr];
        for (i, f) in flows.iter().enumerate() {
            if active[i] {
                for &r in &f.resources {
                    load[r] += f.weight;
                }
            }
        }
        let mut lambda = f64::INFINITY;
        for r in 0..nr {
            if load[r] > 0.0 {
                lambda = lambda.min(remaining[r].max(0.0) / load[r]);
            }
        }
        let mut any_active = false;
        for i in 0..nf {
            if active[i] {
                any_active = true;
                lambda = lambda.min((flows[i].ceiling - rate[i]) / flows[i].weight);
            }
        }
        if !any_active {
            break;
        }
        let lambda = lambda.max(0.0);
        for i in 0..nf {
            if active[i] {
                rate[i] += lambda * flows[i].weight;
                for &r in &flows[i].resources {
                    remaining[r] -= lambda * flows[i].weight;
                }
            }
        }
        let mut frozen_any = false;
        for i in 0..nf {
            if !active[i] {
                continue;
            }
            let at_ceiling = rate[i] + EPS >= flows[i].ceiling;
            let on_saturated = flows[i]
                .resources
                .iter()
                .any(|&r| remaining[r] <= EPS.max(caps[r] * 1e-12));
            if at_ceiling || on_saturated {
                active[i] = false;
                frozen_any = true;
            }
        }
        if !frozen_any && lambda <= EPS {
            if let Some(i) = (0..nf).find(|&i| active[i]) {
                active[i] = false;
            }
        }
    }
    rate
}

const EPS: f64 = 1e-6;

/// Every rate within its ceiling and every resource within capacity, then
/// Pareto: each flow sits at its ceiling or crosses a saturated resource
/// (otherwise its rate could rise). Duplicate listings charge per listing.
fn check_feasible_and_blocked(case: u64, p: &MaxMinProblem, rates: &[f64]) {
    assert_eq!(rates.len(), p.flows.len(), "case {case}");
    let mut used = vec![0.0; p.capacities.len()];
    for (f, &rate) in p.flows.iter().zip(rates) {
        assert!(rate >= 0.0, "case {case}: negative rate {rate}");
        assert!(
            rate <= f.ceiling + EPS,
            "case {case}: rate {rate} above ceiling {}",
            f.ceiling
        );
        for &r in &f.resources {
            used[r] += rate;
        }
    }
    for (r, (&u, &c)) in used.iter().zip(&p.capacities).enumerate() {
        assert!(
            u <= c + EPS,
            "case {case}: resource {r}: used {u} > cap {c}"
        );
    }
    for (i, (f, &rate)) in p.flows.iter().zip(rates).enumerate() {
        let at_ceiling = rate + 1e-4 >= f.ceiling;
        let saturated = f
            .resources
            .iter()
            .any(|&r| used[r] + 1e-4 >= p.capacities[r]);
        assert!(
            at_ceiling || saturated,
            "case {case}: flow {i} unblocked at rate {rate}"
        );
    }
}

#[test]
fn solution_is_feasible_and_every_flow_is_blocked() {
    for case in 0..CASES {
        let p = arb_problem(&mut SplitMix64::new(case));
        check_feasible_and_blocked(case, &p, &solve_max_min(&p));
    }
}

#[test]
fn shared_pair_of_tiny_resources_is_feasible_and_blocked() {
    // A case an earlier randomized run failed on: two 0.1 Gbit/s resources,
    // one flow listing resource 1 twice.
    let flow = |resources: Vec<usize>| FlowSpec {
        resources,
        ceiling: f64::INFINITY,
        weight: 1.0,
    };
    let p = MaxMinProblem {
        capacities: vec![0.1, 0.1],
        flows: vec![
            flow(vec![1, 1]),
            flow(vec![0]),
            flow(vec![1, 0]),
            flow(vec![1]),
        ],
    };
    check_feasible_and_blocked(0, &p, &solve_max_min(&p));
}

#[test]
fn identical_flows_get_equal_rates() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let cap = rng.range_f64(1.0, 100.0);
        let n = int(&mut rng, 1, 8);
        let ceiling = maybe_ceiling(&mut rng, 0.5, 50.0);
        let p = MaxMinProblem {
            capacities: vec![cap],
            flows: (0..n)
                .map(|_| FlowSpec {
                    resources: vec![0],
                    ceiling,
                    weight: 1.0,
                })
                .collect(),
        };
        let rates = solve_max_min(&p);
        for w in rates.windows(2) {
            assert!(
                (w[0] - w[1]).abs() < EPS,
                "case {case}: {} != {}",
                w[0],
                w[1]
            );
        }
    }
}

#[test]
fn rates_scale_with_capacity() {
    // Scaling all capacities and ceilings by k scales all rates by k.
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let p = arb_problem(&mut rng);
        let k = rng.range_f64(0.5, 4.0);
        let rates = solve_max_min(&p);
        let scaled = MaxMinProblem {
            capacities: p.capacities.iter().map(|c| c * k).collect(),
            flows: p
                .flows
                .iter()
                .map(|f| FlowSpec {
                    resources: f.resources.clone(),
                    ceiling: f.ceiling * k,
                    weight: f.weight,
                })
                .collect(),
        };
        let scaled_rates = solve_max_min(&scaled);
        for (a, b) in rates.iter().zip(&scaled_rates) {
            assert!((a * k - b).abs() < 1e-4, "case {case}: {a} * {k} != {b}");
        }
    }
}

/// One resource of capacity in `[1, 100)` shared by 1–7 flows with
/// ceilings in `[0.5, 50)`.
fn single_resource(rng: &mut SplitMix64) -> (f64, Vec<f64>, MaxMinProblem) {
    let cap = rng.range_f64(1.0, 100.0);
    let ceilings = floats(rng, 1, 8, 0.5, 50.0);
    let flows = ceilings
        .iter()
        .map(|&c| FlowSpec {
            resources: vec![0],
            ceiling: c,
            weight: 1.0,
        })
        .collect();
    (
        cap,
        ceilings,
        MaxMinProblem {
            capacities: vec![cap],
            flows,
        },
    )
}

// NOTE: "adding a flow never raises anyone's rate" is *not* a theorem
// for multi-resource max-min (freezing one flow early can free a second
// resource for another), so we only assert monotonicity in the
// single-resource case, where it does hold.
#[test]
fn adding_a_flow_never_raises_others_single_resource() {
    for case in 0..CASES {
        let (_, _, p) = single_resource(&mut SplitMix64::new(case));
        let rates_all = solve_max_min(&p);
        let mut smaller = p.clone();
        smaller.flows.pop();
        let rates_fewer = solve_max_min(&smaller);
        for (i, (&with, &without)) in rates_all.iter().zip(&rates_fewer).enumerate() {
            assert!(
                with <= without + 1e-4,
                "case {case}: flow {i}: {with} > {without}"
            );
        }
    }
}

#[test]
fn weighted_rates_are_proportional_on_one_resource() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let cap = rng.range_f64(1.0, 100.0);
        let weights = floats(&mut rng, 2, 8, 0.1, 10.0);
        let flows: Vec<FlowSpec> = weights
            .iter()
            .map(|&w| FlowSpec::shared(vec![0]).weighted(w))
            .collect();
        let p = MaxMinProblem {
            capacities: vec![cap],
            flows,
        };
        let rates = solve_max_min(&p);
        let total: f64 = rates.iter().sum();
        assert!(
            (total - cap).abs() < 1e-4,
            "case {case}: work conservation: {total} vs {cap}"
        );
        for ((ra, wa), (rb, wb)) in rates.iter().zip(&weights).zip(rates.iter().zip(&weights)) {
            assert!(
                (ra * wb - rb * wa).abs() < 1e-4,
                "case {case}: proportionality violated"
            );
        }
    }
}

#[test]
fn incremental_solver_matches_reference_bit_for_bit() {
    // The rewritten solver must perform the same floating-point
    // operations in the same order as progressive filling — not just
    // "close", the identical bit pattern per rate.
    for case in 0..CASES {
        let p = arb_problem_rich(&mut SplitMix64::new(case));
        let want = reference_solve(&p);
        let got = solve_max_min(&p);
        assert_eq!(want.len(), got.len(), "case {case}");
        for (i, (a, b)) in want.iter().zip(&got).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "case {case}: flow {i}: reference {a:?} != solver {b:?}"
            );
        }
    }
}

#[test]
fn solver_reuse_is_bit_identical_across_ceiling_retunes() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let p = arb_problem_rich(&mut rng);
        if p.flows.is_empty() {
            continue;
        }
        let retunes: Vec<(usize, f64)> = (0..int(&mut rng, 0, 24))
            .map(|_| {
                let i = int(&mut rng, 0, p.flows.len());
                let ceiling = match rng.below(3) {
                    0 => 0.0,
                    1 => f64::INFINITY,
                    _ => rng.range_f64(0.1, 50.0),
                };
                (i, ceiling)
            })
            .collect();
        let mut solver = MaxMinSolver::from_problem(&p);
        solver.validate().unwrap();
        let mut q = p.clone();
        // First solve, then retune ceilings a few at a time: every reused
        // solve must equal a from-scratch reference solve of the retuned
        // problem, bit for bit (scratch state cannot leak across solves).
        for chunk in std::iter::once(&[][..]).chain(retunes.chunks(6)) {
            for &(i, ceiling) in chunk {
                // Keep the allocator's invariant: a flow with no
                // resources must keep a finite ceiling.
                if q.flows[i].resources.is_empty() && !ceiling.is_finite() {
                    continue;
                }
                q.flows[i].ceiling = ceiling;
                solver.set_ceiling(i, ceiling);
            }
            let want = reference_solve(&q);
            let got = solver.solve();
            for (i, (a, b)) in want.iter().zip(got).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "case {case}: flow {i}: fresh {a:?} != reused {b:?}"
                );
            }
        }
    }
}

#[test]
fn solver_reuse_is_bit_identical_across_capacity_and_ceiling_retunes() {
    // A solve resets only the resources its live flows list, so a
    // resource taken to 0 and brought back, or retuned while no flow
    // uses it, must not leak state into a later solve. Some flows repeat
    // an earlier flow's resources and are lowered through `repeat_flow`,
    // as the engine lowers a repeated flow shape.
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let mut p = arb_problem_rich(&mut rng);
        if p.flows.is_empty() {
            continue;
        }
        let mut solver = MaxMinSolver::new(p.capacities.clone());
        for i in 0..p.flows.len() {
            if i > 0 && rng.below(3) == 0 {
                let of = int(&mut rng, 0, i);
                p.flows[i].resources = p.flows[of].resources.clone();
                assert_eq!(
                    solver.repeat_flow(of, p.flows[i].ceiling, p.flows[i].weight),
                    i
                );
            } else {
                let f = &p.flows[i];
                solver.add_flow(&f.resources, f.ceiling, f.weight);
            }
        }
        solver.validate().unwrap();
        let nr = p.capacities.len();
        for step in 0..int(&mut rng, 4, 24) {
            for _ in 0..int(&mut rng, 1, 4) {
                match rng.below(3) {
                    // A resource goes offline, or comes back.
                    0 => {
                        let r = int(&mut rng, 0, nr);
                        let cap = if p.capacities[r] > 0.0 {
                            0.0
                        } else {
                            rng.range_f64(0.1, 100.0)
                        };
                        p.capacities[r] = cap;
                        solver.set_capacity(r, cap);
                    }
                    // A flow switches off, on, or moves its ceiling; a
                    // flow with no resources keeps a finite ceiling.
                    _ => {
                        let i = int(&mut rng, 0, p.flows.len());
                        let ceiling = match rng.below(3) {
                            0 => 0.0,
                            1 if !p.flows[i].resources.is_empty() => f64::INFINITY,
                            _ => rng.range_f64(0.1, 50.0),
                        };
                        p.flows[i].ceiling = ceiling;
                        solver.set_ceiling(i, ceiling);
                    }
                }
            }
            let want = reference_solve(&p);
            let fresh = solve_max_min(&p);
            let got = solver.solve();
            for (i, ((a, f), b)) in want.iter().zip(&fresh).zip(got).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "case {case} step {step}: flow {i}"
                );
                assert_eq!(
                    f.to_bits(),
                    b.to_bits(),
                    "case {case} step {step}: flow {i}"
                );
            }
        }
    }
}

/// A flow over up to four resources (listed with replacement) with an
/// unbounded or finite ceiling and a random weight; a flow with no
/// resources always gets a finite ceiling.
fn arb_open_loop_flow(rng: &mut SplitMix64, nr: usize) -> FlowSpec {
    let resources: Vec<usize> = (0..int(rng, 0, nr.min(4) + 1))
        .map(|_| int(rng, 0, nr))
        .collect();
    let mut ceiling = maybe_ceiling(rng, 0.1, 60.0);
    if resources.is_empty() {
        ceiling = rng.range_f64(0.1, 60.0);
    }
    FlowSpec {
        resources,
        ceiling,
        weight: rng.range_f64(0.25, 4.25),
    }
}

#[test]
fn sparse_activity_solver_reuse_is_bit_identical() {
    // The open-loop engine's shape: most flows sit at a zero ceiling (not
    // yet arrived, or finished), a few are live, flows switch on in
    // arrival order and off in any order, and new flows may be added
    // after a solve. Every reused solve must equal a from-scratch
    // reference solve bit for bit.
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let capacities: Vec<f64> = (0..int(&mut rng, 1, 10))
            .map(|_| {
                if rng.below(8) == 0 {
                    0.0
                } else {
                    rng.range_f64(0.1, 100.0)
                }
            })
            .collect();
        let nr = capacities.len();
        let mut p = MaxMinProblem::new(capacities);
        for _ in 0..int(&mut rng, 20, 120) {
            p.add_flow(arb_open_loop_flow(&mut rng, nr));
        }
        let mut base: Vec<f64> = p.flows.iter().map(|f| f.ceiling).collect();
        // Either lower the flows at their ceilings and switch them all
        // off (the engine's way), or lower them already off.
        let mut q = p.clone();
        q.flows.iter_mut().for_each(|f| f.ceiling = 0.0);
        let mut solver = if rng.below(2) == 0 {
            let mut s = MaxMinSolver::from_problem(&p);
            (0..p.flows.len()).for_each(|i| s.set_ceiling(i, 0.0));
            s
        } else {
            MaxMinSolver::from_problem(&q)
        };
        solver.validate().unwrap();
        // Flows still to arrive, in index order, and the live ones.
        let mut pending: Vec<usize> = (0..p.flows.len()).collect();
        let mut live: Vec<usize> = Vec::new();
        for step in 0..int(&mut rng, 10, 80) {
            match rng.below(10) {
                // Arrival: the lowest pending flow switches on.
                0..=3 if !pending.is_empty() && live.len() < q.flows.len() / 10 => {
                    let i = pending.remove(0);
                    q.flows[i].ceiling = base[i];
                    solver.set_ceiling(i, base[i]);
                    live.push(i);
                }
                // Completion: any live flow switches off.
                4..=6 if !live.is_empty() => {
                    let i = live.swap_remove(int(&mut rng, 0, live.len()));
                    q.flows[i].ceiling = 0.0;
                    solver.set_ceiling(i, 0.0);
                }
                // Jitter: a live flow's ceiling moves.
                7 if !live.is_empty() => {
                    let i = live[int(&mut rng, 0, live.len())];
                    let c = rng.range_f64(0.1, 50.0);
                    q.flows[i].ceiling = c;
                    solver.set_ceiling(i, c);
                }
                // A flow added after a solve: off until it arrives, or
                // on at once.
                _ => {
                    let f = arb_open_loop_flow(&mut rng, nr);
                    let on = rng.below(2) == 0 && live.len() < (q.flows.len() + 1) / 10;
                    let c = if on { f.ceiling } else { 0.0 };
                    base.push(f.ceiling);
                    let i = solver.add_flow(&f.resources, c, f.weight);
                    assert_eq!(i, q.add_flow(FlowSpec { ceiling: c, ..f }));
                    if on {
                        live.push(i)
                    } else {
                        pending.push(i)
                    }
                }
            }
            assert!(
                live.len() * 10 <= q.flows.len(),
                "case {case}: too many live flows"
            );
            let want = reference_solve(&q);
            let got = solver.solve();
            assert_eq!(want.len(), got.len(), "case {case} step {step}");
            for (i, (a, b)) in want.iter().zip(got).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "case {case} step {step}: flow {i}: fresh {a:?} != reused {b:?}"
                );
            }
        }
    }
}

#[test]
fn rich_solutions_are_feasible_and_pareto_blocked() {
    for case in 0..CASES {
        let p = arb_problem_rich(&mut SplitMix64::new(case));
        check_feasible_and_blocked(case, &p, &solve_max_min(&p));
    }
}

#[test]
fn single_resource_aggregate_is_min_of_cap_and_ceilings() {
    for case in 0..CASES {
        let (cap, ceilings, p) = single_resource(&mut SplitMix64::new(case));
        let total: f64 = solve_max_min(&p).iter().sum();
        let expected = cap.min(ceilings.iter().sum());
        assert!(
            (total - expected).abs() < 1e-4,
            "case {case}: {total} vs {expected}"
        );
    }
}

#[test]
fn memoized_solves_are_bit_identical_to_fresh_solves() {
    // The solve memo answers a configuration it has solved before under
    // the same capacities. Rows are shared through `repeat_flow` with
    // ceilings and weights drawn from small sets, so one row recurs under
    // different ceilings and weights, and two rows recur in either order
    // of the `on` list. Steps switch flows on and off, revisit earlier
    // ceiling vectors, jitter live ceilings (which bypasses the memo) and
    // retune capacities between revisits. Every solve must equal the
    // reference and a fresh solver bit for bit.
    let (mut solves, mut hits) = (0, 0);
    for case in 0..CASES {
        let mut rng = SplitMix64::new(case);
        let nr = int(&mut rng, 1, 6);
        let mut p = MaxMinProblem::new((0..nr).map(|_| rng.range_f64(0.5, 40.0)).collect());
        let ceilings = [
            f64::INFINITY,
            rng.range_f64(0.5, 20.0),
            rng.range_f64(0.5, 20.0),
        ];
        let weights = [1.0, rng.range_f64(0.25, 4.0)];
        let mut solver = MaxMinSolver::new(p.capacities.clone());
        let rows = int(&mut rng, 2, 4);
        for i in 0..int(&mut rng, rows + 2, 14) {
            let ceiling = ceilings[int(&mut rng, 0, 3)];
            let weight = weights[int(&mut rng, 0, 2)];
            if i < rows {
                let resources: Vec<usize> = (0..int(&mut rng, 1, 4))
                    .map(|_| int(&mut rng, 0, nr))
                    .collect();
                assert_eq!(solver.add_flow(&resources, ceiling, weight), i);
                p.add_flow(FlowSpec {
                    resources,
                    ceiling,
                    weight,
                });
            } else {
                let of = int(&mut rng, 0, i);
                assert_eq!(solver.repeat_flow(of, ceiling, weight), i);
                let resources = p.flows[of].resources.clone();
                p.add_flow(FlowSpec {
                    resources,
                    ceiling,
                    weight,
                });
            }
        }
        solver.validate().unwrap();
        let base: Vec<f64> = p.flows.iter().map(|f| f.ceiling).collect();
        let nf = base.len();
        let mut seen: Vec<Vec<f64>> = vec![base.clone()];
        let steps = int(&mut rng, 8, 40);
        for step in 0..steps {
            match rng.below(8) {
                // A flow switches on at its lowered ceiling, or off.
                0..=2 => {
                    let i = int(&mut rng, 0, nf);
                    let c = if p.flows[i].ceiling > 0.0 {
                        0.0
                    } else {
                        base[i]
                    };
                    p.flows[i].ceiling = c;
                    solver.set_ceiling(i, c);
                }
                // Revisit an earlier ceiling vector.
                3..=5 => {
                    let back = seen[int(&mut rng, 0, seen.len())].clone();
                    for (i, &c) in back.iter().enumerate() {
                        p.flows[i].ceiling = c;
                        solver.set_ceiling(i, c);
                    }
                }
                // Jitter: a live flow's ceiling moves off its lowered one.
                6 => {
                    let i = int(&mut rng, 0, nf);
                    if p.flows[i].ceiling > 0.0 {
                        let c = base[i].min(20.0) * rng.range_f64(0.9, 1.1);
                        p.flows[i].ceiling = c;
                        solver.set_ceiling(i, c);
                    }
                }
                // A capacity retune, possibly to 0.
                _ => {
                    let r = int(&mut rng, 0, nr);
                    let cap = match rng.below(3) {
                        0 => 0.0,
                        _ => rng.range_f64(0.5, 40.0),
                    };
                    p.capacities[r] = cap;
                    solver.set_capacity(r, cap);
                }
            }
            if seen.len() < 8 {
                seen.push(p.flows.iter().map(|f| f.ceiling).collect());
            }
            let want = reference_solve(&p);
            let fresh = solve_max_min(&p);
            let got = solver.solve();
            for (i, ((a, f), b)) in want.iter().zip(&fresh).zip(got).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "case {case} step {step}: flow {i}"
                );
                assert_eq!(
                    f.to_bits(),
                    b.to_bits(),
                    "case {case} step {step}: flow {i}"
                );
            }
        }
        assert_eq!(solver.solves(), steps as u64, "case {case}");
        solves += steps as u64;
        hits += solver.memo_hits();
    }
    // The memo must answer a good share of the solves, or the property
    // above tests the filling loop alone.
    assert!(hits * 4 >= solves, "{hits} memo hits in {solves} solves");
}
