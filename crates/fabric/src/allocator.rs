//! Max-min fair bandwidth allocation by progressive filling.
//!
//! When concurrent transfers share hardware — HT links, memory controllers,
//! device ports, CPU protocol-processing capacity — the achieved rates are
//! modelled as the classic *max-min fair* allocation: every flow's rate
//! rises at the same pace until some resource saturates or the flow hits
//! its own ceiling; saturated participants freeze and the rest continue.
//!
//! This matches the paper's observations qualitatively: parallel TCP
//! streams grow aggregate bandwidth until the shared bottleneck saturates
//! (~4 streams, Fig. 5), and piling every task onto the device-local node
//! degrades everyone (§V-B "contention of shared resource").
//!
//! The solver is deliberately generic: resources are indices with
//! capacities, flows are index sets with optional ceilings. `numa-engine`
//! maps links/nodes/ports onto indices.
//!
//! Two entry points share one kernel:
//!
//! * [`solve_max_min`] — one-shot convenience over a [`MaxMinProblem`];
//!   builds a throwaway [`MaxMinSolver`] per call.
//! * [`MaxMinSolver`] — the reusable form for hot paths that re-solve the
//!   same flow set many times (the engine event loop re-allocates rates on
//!   every arrival/completion/jitter event). Flows are lowered once into
//!   a flattened CSR layout; between solves only ceilings (a zero ceiling
//!   switches a flow off) and capacities change, and every solve touches
//!   only the switched-on flows, against preallocated scratch. Once a
//!   flow repeats another's resource list ([`MaxMinSolver::repeat_flow`]),
//!   a solve whose switched-on flows all run at their lowered ceilings
//!   first looks its configuration up in a memo of earlier solves.
//!
//! ## Duplicate-resource contract
//!
//! A flow listing the same resource index twice is charged **twice** per
//! unit of rate (`load` and `remaining` see the entry once per listing).
//! This deliberately models transfers that cross one piece of hardware
//! more than once — e.g. a local copy whose read and write both land on
//! the same memory controller. Callers that want "listed twice = charged
//! once" semantics must canonicalize before handing the list over;
//! `numa-engine` deduplicates its lowered per-flow resource lists for
//! exactly that reason.

/// One flow's resource usage.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    /// Indices of the resources this flow consumes (each unit of rate
    /// consumes one unit of each listed resource).
    pub resources: Vec<usize>,
    /// Per-flow rate ceiling (e.g. a protocol or per-stream CPU limit).
    /// `f64::INFINITY` when only shared resources bind.
    pub ceiling: f64,
    /// Fairness weight: under contention a flow's rate grows as
    /// `weight x lambda` (weighted max-min). 1.0 = plain fairness; a
    /// weight-2 flow receives twice a weight-1 flow's share of any shared
    /// bottleneck. Must be positive.
    pub weight: f64,
}

impl Default for FlowSpec {
    fn default() -> Self {
        FlowSpec {
            resources: Vec::new(),
            ceiling: f64::INFINITY,
            weight: 1.0,
        }
    }
}

impl FlowSpec {
    /// Flow over `resources` with no individual ceiling.
    pub fn shared(resources: Vec<usize>) -> Self {
        FlowSpec {
            resources,
            ..Default::default()
        }
    }

    /// Flow over `resources` with a ceiling.
    pub fn capped(resources: Vec<usize>, ceiling: f64) -> Self {
        FlowSpec {
            resources,
            ceiling,
            ..Default::default()
        }
    }

    /// Set the fairness weight (builder style).
    pub fn weighted(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }
}

/// A solver precondition that [`MaxMinSolver::validate`] found broken.
/// `Display` gives the messages [`solve_max_min`] panics with.
#[derive(Debug, Clone, PartialEq)]
pub enum AllocError {
    /// Flow `.0` has neither a finite ceiling nor a resource, so its fair
    /// rate would be unbounded.
    Unbounded(usize),
    /// Flow `.0` has a negative or NaN ceiling, `.1`.
    BadCeiling(usize, f64),
    /// Flow `.0` has a weight that is not positive and finite, `.1`.
    BadWeight(usize, f64),
    /// Flow `.0` lists resource index `.1`, past the last resource.
    UnknownResource(usize, usize),
    /// Resource `.0` has a negative or NaN capacity, `.1`.
    BadCapacity(usize, f64),
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            AllocError::Unbounded(i) => {
                write!(f, "flow {i} is unbounded: no ceiling and no resources")
            }
            AllocError::BadCeiling(i, _) => write!(f, "flow {i} has negative ceiling"),
            AllocError::BadWeight(i, _) => write!(f, "flow {i} has non-positive weight"),
            AllocError::UnknownResource(i, r) => {
                write!(f, "flow {i} references resource {r} out of range")
            }
            AllocError::BadCapacity(r, _) => write!(f, "resource {r} has negative capacity"),
        }
    }
}

impl std::error::Error for AllocError {}

/// A max-min fairness problem instance.
#[derive(Debug, Clone, PartialEq)]
pub struct MaxMinProblem {
    /// Resource capacities (any non-negative unit; Gbit/s here).
    pub capacities: Vec<f64>,
    /// The competing flows.
    pub flows: Vec<FlowSpec>,
}

impl MaxMinProblem {
    /// New problem with the given resource capacities and no flows yet.
    pub fn new(capacities: Vec<f64>) -> Self {
        MaxMinProblem {
            capacities,
            flows: Vec::new(),
        }
    }

    /// Add a flow; returns its index.
    pub fn add_flow(&mut self, flow: FlowSpec) -> usize {
        self.flows.push(flow);
        self.flows.len() - 1
    }
}

/// Reusable progressive-filling solver over a fixed resource set.
///
/// Construction lowers flows into a flattened CSR layout
/// (`res_idx`/`spans`); `solve` runs the filling loop against
/// preallocated scratch (`rate`, one state slot per resource, the
/// compact active list), so after the first call the filling loop
/// performs **zero heap allocation**. The only other heap a solve may take is the solve memo
/// below: one flat arena of keys and rates, allocated on its first
/// insert and capped at `MEMO_WORDS` (16 Ki) words, behind an index of
/// `MEMO_SLOTS` (512) slots. Lowering takes one more `f64` per flow once
/// a row is shared. Input invariants are checked once by
/// [`validate`](Self::validate) (`debug_assert` only inside the hot
/// loop), not on every solve.
///
/// Between solves callers may retune the instance with
/// [`set_ceiling`](Self::set_ceiling) (a ceiling of `0.0` deactivates a
/// flow — the engine's active mask), [`set_capacity`](Self::set_capacity)
/// and [`add_flow`](Self::add_flow). The solver keeps the flows with a
/// positive ceiling in an ascending list, so a solve costs O(those flows
/// and the resources they list) however many switched-off flows and idle
/// resources it holds.
///
/// The filling loop performs the same floating-point operations in the
/// same order as the historical one-shot implementation, so solutions are
/// bit-for-bit identical to progressive filling over the equivalent
/// [`MaxMinProblem`] — the property tests in
/// `tests/allocator_properties.rs` pin this down against a reference
/// implementation.
///
/// **Solve memo.** Each flow has a row: its span of `res_idx`.
/// [`add_flow`](Self::add_flow) and [`close_flow`](Self::close_flow)
/// start a new row; [`repeat_flow`](Self::repeat_flow)`(of, ..)` shares
/// `of`'s instead of copying it. A solve is a pure function of the
/// capacities and of the (row, ceiling, weight) of each switched-on flow
/// in `on` order (rates are reset and the scratch loads are zero between
/// solves), so a configuration solved before under the same capacities
/// gets its stored rates back, bit for bit. The memo is consulted only
/// when some row is shared and every switched-on flow runs at the
/// ceiling it was lowered with — an open-loop run cycling a few flow
/// shapes revisits a handful of live sets many times. Flows with rows of
/// their own, jittered ceilings, empty live sets and live sets of more
/// than `MEMO_MAX_FLOWS` (64) flows bypass it at the cost of a flag test
/// or a compare, with no lookup and no allocation.
/// [`set_capacity`](Self::set_capacity) and
/// [`set_capacities`](Self::set_capacities) clear it.
/// [`solves`](Self::solves) and [`memo_hits`](Self::memo_hits) count its
/// use.
#[derive(Debug, Clone)]
pub struct MaxMinSolver {
    /// Resource capacities.
    capacities: Vec<f64>,
    /// Concatenated resource lists (CSR values).
    res_idx: Vec<usize>,
    /// Per flow, its row: the `(start, len)` span of `res_idx` it uses.
    /// Flows lowered by [`repeat_flow`](Self::repeat_flow) share a span.
    spans: Vec<(u32, u32)>,
    /// Where the resources of the flow being lowered in place start.
    open: u32,
    /// Per-flow fairness weights.
    weights: Vec<f64>,
    /// Per-flow rate ceilings (mutable between solves).
    ceilings: Vec<f64>,
    /// Flows whose ceiling is > 0, ascending: the only flows a solve
    /// touches. Every other flow's rate is 0.
    on: Vec<usize>,
    // ---- scratch reused across solves ----
    /// Last computed allocation.
    rate: Vec<f64>,
    /// Per-resource solve state, one slot per resource.
    res: Vec<ResState>,
    /// Indices of still-active flows, ascending (so per-round sums run in
    /// the same order as a dense 0..nf scan).
    active: Vec<usize>,
    /// Resources with at least one active user (live `load > 0`).
    live: Vec<usize>,
    /// Flows frozen this round.
    frozen: Vec<usize>,
    // ---- solve memo ----
    /// Per flow, the ceiling it was lowered with. Empty (and the memo
    /// off) until [`repeat_flow`](Self::repeat_flow) first shares a row.
    lowered: Vec<f64>,
    /// Rates of the configurations solved since the capacities last
    /// changed.
    memo: Memo,
    /// Solves so far.
    solves: u64,
    /// Solves the memo answered.
    memo_hits: u64,
}

/// One resource's state during a solve, kept together so a solve reads
/// one slot per listed resource.
#[derive(Debug, Clone, Copy, Default)]
struct ResState {
    /// Capacity left during a solve (meaningful only while the resource
    /// is in `live`).
    remaining: f64,
    /// Weighted active load, maintained incrementally: when a flow
    /// freezes, each of its resources is recomputed by walking the
    /// still-active flows in ascending order — the same summation order
    /// as a from-scratch rescan, hence bit-identical. Zero between solves.
    load: f64,
    /// Has the resource saturated during this solve? (Reset as it joins
    /// `live`.)
    sat: bool,
    /// Does the load need a recompute after this round's freezes?
    dirty: bool,
}

impl MaxMinSolver {
    /// New solver over the given resource capacities with no flows yet.
    pub fn new(capacities: Vec<f64>) -> Self {
        let nr = capacities.len();
        MaxMinSolver {
            capacities,
            res_idx: Vec::new(),
            spans: Vec::new(),
            open: 0,
            weights: Vec::new(),
            ceilings: Vec::new(),
            on: Vec::new(),
            rate: Vec::new(),
            res: vec![ResState::default(); nr],
            active: Vec::new(),
            live: Vec::with_capacity(nr),
            frozen: Vec::new(),
            lowered: Vec::new(),
            memo: Memo::default(),
            solves: 0,
            memo_hits: 0,
        }
    }

    /// Make room for `flows` more flows that list `listings` more
    /// resources in all, so lowering them grows no per-flow array.
    pub fn reserve(&mut self, flows: usize, listings: usize) {
        self.res_idx.reserve(listings);
        self.spans.reserve(flows);
        self.weights.reserve(flows);
        self.ceilings.reserve(flows);
        self.on.reserve(flows);
        self.rate.reserve(flows);
    }

    /// Lower a whole [`MaxMinProblem`] (does not [`validate`](Self::validate)).
    pub fn from_problem(problem: &MaxMinProblem) -> Self {
        let mut s = Self::new(problem.capacities.clone());
        for f in &problem.flows {
            s.add_flow(&f.resources, f.ceiling, f.weight);
        }
        s
    }

    /// Add a flow over `resources` (duplicate indices are charged per
    /// listing — see the module docs); returns its index.
    pub fn add_flow(&mut self, resources: &[usize], ceiling: f64, weight: f64) -> usize {
        self.res_idx.extend_from_slice(resources);
        self.close_flow(ceiling, weight)
    }

    /// Add a flow over the resources flow `of` lists, in the same order
    /// (call it between flows, not while one is being lowered in place);
    /// returns its index. Lowers a repeat of a known flow shape without
    /// copying its resource list: the new flow shares `of`'s row, which
    /// turns the solve memo on.
    pub fn repeat_flow(&mut self, of: usize, ceiling: f64, weight: f64) -> usize {
        if self.lowered.is_empty() {
            self.lowered = self.ceilings.clone();
        }
        self.lowered.push(ceiling);
        self.spans.push(self.spans[of]);
        self.push_flow(ceiling, weight)
    }

    /// List resource `r` on the flow being lowered in place (ended by
    /// [`close_flow`](Self::close_flow)) unless it already lists `r`.
    pub fn push_resource_once(&mut self, r: usize) {
        if !self.res_idx[self.open as usize..].contains(&r) {
            self.res_idx.push(r);
        }
    }

    /// End the flow being lowered in place: it uses every resource
    /// pushed since the previous flow ended. Returns its index.
    pub fn close_flow(&mut self, ceiling: f64, weight: f64) -> usize {
        let end = u32::try_from(self.res_idx.len()).expect("resource lists fit u32 offsets");
        self.spans.push((self.open, end - self.open));
        self.open = end;
        if !self.lowered.is_empty() {
            self.lowered.push(ceiling);
        }
        self.push_flow(ceiling, weight)
    }

    /// Append the per-flow entries of a flow whose span is pushed.
    fn push_flow(&mut self, ceiling: f64, weight: f64) -> usize {
        self.ceilings.push(ceiling);
        self.weights.push(weight);
        self.rate.push(0.0);
        let i = self.ceilings.len() - 1;
        if ceiling > 0.0 {
            self.on.push(i);
        }
        i
    }

    /// Check the solver's preconditions, once, before the first solve:
    ///
    /// * resource indices are in range;
    /// * every flow has a finite ceiling or at least one resource
    ///   (otherwise its fair rate would be unbounded);
    /// * capacities and ceilings are non-negative, weights positive.
    ///
    /// Returns the first violation, flows before resources.
    /// [`solve`](Self::solve) assumes these hold and only `debug_assert`s.
    pub fn validate(&self) -> Result<(), AllocError> {
        let nr = self.capacities.len();
        for flow in 0..self.num_flows() {
            let (ceiling, weight) = (self.ceilings[flow], self.weights[flow]);
            let resources = self.resources(flow);
            if !ceiling.is_finite() && resources.is_empty() {
                return Err(AllocError::Unbounded(flow));
            }
            if ceiling.is_nan() || ceiling < 0.0 {
                return Err(AllocError::BadCeiling(flow, ceiling));
            }
            if weight <= 0.0 || !weight.is_finite() {
                return Err(AllocError::BadWeight(flow, weight));
            }
            if let Some(&r) = resources.iter().find(|&&r| r >= nr) {
                return Err(AllocError::UnknownResource(flow, r));
            }
        }
        match self.capacities.iter().position(|&c| c.is_nan() || c < 0.0) {
            Some(r) => Err(AllocError::BadCapacity(r, self.capacities[r])),
            None => Ok(()),
        }
    }

    /// The resources flow `flow` is charged on, as lowered.
    pub fn resources(&self, flow: usize) -> &[usize] {
        span(&self.res_idx, self.spans[flow])
    }

    /// Number of flows lowered into the solver.
    pub fn num_flows(&self) -> usize {
        self.ceilings.len()
    }

    /// Every resource's current capacity.
    pub fn capacities(&self) -> &[f64] {
        &self.capacities
    }

    /// Number of resources.
    pub fn num_resources(&self) -> usize {
        self.capacities.len()
    }

    /// Current ceiling of a flow.
    pub fn ceiling(&self, flow: usize) -> f64 {
        self.ceilings[flow]
    }

    /// Retune a flow's ceiling for the next solve. `0.0` deactivates the
    /// flow (it receives rate 0 and charges nothing) — the engine's
    /// active-mask mechanism; a later non-zero ceiling reactivates it.
    /// Deactivation zeroes the flow's rate at once.
    pub fn set_ceiling(&mut self, flow: usize, ceiling: f64) {
        let was_on = self.ceilings[flow] > 0.0;
        self.ceilings[flow] = ceiling;
        match (was_on, ceiling > 0.0) {
            (false, true) => {
                let at = self
                    .on
                    .binary_search(&flow)
                    .expect_err("a switched-off flow is not on");
                self.on.insert(at, flow);
            }
            (true, false) => {
                let at = self
                    .on
                    .binary_search(&flow)
                    .expect("a switched-on flow is on");
                self.on.remove(at);
                self.rate[flow] = 0.0;
            }
            _ => {}
        }
    }

    /// Switch off every flow `off` selects in one pass, as
    /// [`set_ceiling`](Self::set_ceiling)`(flow, 0.0)` would one at a time.
    pub fn switch_off(&mut self, off: impl Fn(usize) -> bool) {
        self.on.retain(|&i| !off(i));
        for i in (0..self.ceilings.len()).filter(|&i| off(i)) {
            (self.ceilings[i], self.rate[i]) = (0.0, 0.0);
        }
    }

    /// Retune a resource capacity for the next solve (clears the solve
    /// memo).
    pub fn set_capacity(&mut self, resource: usize, cap: f64) {
        self.capacities[resource] = cap;
        self.memo.clear();
    }

    /// Replace the whole resource set; [`validate`](Self::validate) again.
    /// Clears the solve memo.
    pub fn set_capacities(&mut self, capacities: Vec<f64>) {
        let nr = capacities.len();
        self.res.resize(nr, ResState::default());
        self.live.reserve(nr);
        self.capacities = capacities;
        self.memo.clear();
    }

    /// The allocation computed by the last [`solve`](Self::solve) (zeros
    /// before the first; a flow switched off since then reads 0).
    pub fn rates(&self) -> &[f64] {
        &self.rate
    }

    /// Solves run so far, memo hits included.
    pub fn solves(&self) -> u64 {
        self.solves
    }

    /// Solves the memo answered with stored rates.
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits
    }

    /// Solve by progressive filling; returns one rate per flow (borrowed
    /// from the solver's scratch — copy out if it must outlive the next
    /// mutation). A configuration the memo holds (see the type docs) is
    /// answered from it, bit for bit as the filling loop would.
    pub fn solve(&mut self) -> &[f64] {
        self.solves += 1;
        let hash = self.key().hash();
        if let Some(hash) = hash {
            if let Some(rates) = self.memo.find(&self.key(), hash) {
                for (&i, &bits) in self.on.iter().zip(rates) {
                    self.rate[i] = f64::from_bits(bits);
                }
                self.memo_hits += 1;
                return &self.rate;
            }
        }
        self.fill();
        if let Some(hash) = hash {
            let mut memo = std::mem::take(&mut self.memo);
            memo.insert(&self.key(), hash, &self.rate);
            self.memo = memo;
        }
        &self.rate
    }

    /// The memo key of the current configuration.
    fn key(&self) -> Key<'_> {
        Key {
            on: &self.on,
            spans: &self.spans,
            lowered: &self.lowered,
            ceilings: &self.ceilings,
            weights: &self.weights,
        }
    }

    /// The progressive-filling loop behind [`solve`](Self::solve).
    ///
    /// The solve touches only the flows with a positive ceiling (the `on`
    /// list) and the resources they list: `remaining` and `sat` are reset
    /// for each resource as it joins the live set, and `load` needs no
    /// reset, since every resource's load is recomputed to exactly 0 when
    /// its last user freezes. Switched-off flows and idle resources cost
    /// nothing. Per-resource loads are maintained across rounds
    /// (recomputed only for resources that lost a user, by walking the
    /// still-active flows in ascending order — the same summation order
    /// as a from-scratch rescan, hence bit-identical). A flow freezes at
    /// its ceiling or on a saturated resource: `remaining` never
    /// increases during a solve, so every earlier saturation already
    /// froze all of that resource's users, and testing `sat` is the same
    /// as testing for a saturation new this round. Per-round cost is
    /// O(resource listings of active flows + live resources).
    fn fill(&mut self) {
        const EPS: f64 = 1e-12;
        // Destructured so the loops below can borrow fields disjointly.
        let MaxMinSolver {
            capacities,
            res_idx,
            spans,
            weights,
            ceilings,
            on,
            rate,
            res,
            active,
            live,
            frozen,
            ..
        } = self;

        debug_assert!(
            res.iter().all(|s| s.load == 0.0),
            "a solve ends with every load at 0"
        );
        active.clear();
        active.extend_from_slice(on);
        for &i in active.iter() {
            rate[i] = 0.0;
        }
        // Initial weighted load per resource: each active flow consumes
        // weight x lambda of every resource it lists (listed twice =
        // charged twice). Accumulated in ascending flow order —
        // bit-identical to a dense scan. `live` collects the resources
        // with at least one active user; only those can constrain lambda,
        // and only those are charged or tested, so only those are reset.
        live.clear();
        for &i in active.iter() {
            let w = weights[i];
            for &r in span(res_idx, spans[i]) {
                let s = &mut res[r];
                if s.load == 0.0 {
                    live.push(r);
                    s.remaining = capacities[r];
                    s.sat = false;
                }
                s.load += w;
            }
        }

        while !active.is_empty() {
            // Fair increment permitted by each saturating constraint
            // (min is order-independent, so any scan order is fine).
            let mut lambda = f64::INFINITY;
            for &r in live.iter() {
                lambda = lambda.min(res[r].remaining.max(0.0) / res[r].load);
            }
            for &i in active.iter() {
                // Uncapped flows contribute +inf — skip the divide.
                let c = ceilings[i];
                if c.is_finite() {
                    lambda = lambda.min((c - rate[i]) / weights[i]);
                }
            }
            debug_assert!(lambda.is_finite(), "some active flow must be bounded");
            let lambda = lambda.max(0.0);

            // Raise every active flow by weight x lambda and charge
            // resources.
            for &i in active.iter() {
                let dw = lambda * weights[i];
                rate[i] += dw;
                for &r in span(res_idx, spans[i]) {
                    res[r].remaining -= dw;
                }
            }
            for &r in live.iter() {
                if res[r].remaining <= EPS.max(capacities[r] * 1e-12) {
                    res[r].sat = true;
                }
            }
            // Freeze flows at ceilings or on saturated resources (retain
            // keeps the list ascending). A resource that saturated in an
            // earlier round froze all its users then, so a still-active
            // flow can only hit a saturation new this round.
            frozen.clear();
            active.retain(|&i| {
                let resources = span(res_idx, spans[i]);
                if rate[i] + EPS >= ceilings[i] || resources.iter().any(|&r| res[r].sat) {
                    frozen.push(i);
                    false
                } else {
                    true
                }
            });
            // Numerical safety: if lambda rounded to zero and nothing
            // froze we would spin; freeze the most constrained flow
            // explicitly.
            if frozen.is_empty() && lambda <= EPS && !active.is_empty() {
                frozen.push(active.remove(0));
            }
            // Recompute the loads of resources that lost a user: zero
            // them, then add each still-active flow's weight once per
            // listing in ascending flow order (the bit pattern a full
            // rescan would produce); drop fully-frozen resources out of
            // the live set.
            if !frozen.is_empty() {
                for &i in frozen.iter() {
                    for &r in span(res_idx, spans[i]) {
                        let s = &mut res[r];
                        if !s.dirty {
                            s.dirty = true;
                            s.load = 0.0;
                        }
                    }
                }
                for &i in active.iter() {
                    for &r in span(res_idx, spans[i]) {
                        if res[r].dirty {
                            res[r].load += weights[i];
                        }
                    }
                }
                // The frozen rows list every marked resource.
                for &i in frozen.iter() {
                    for &r in span(res_idx, spans[i]) {
                        res[r].dirty = false;
                    }
                }
                live.retain(|&r| res[r].load > 0.0);
            }
        }
    }
}

/// The resources of `res_idx` a `(start, len)` span covers.
#[inline]
fn span(res_idx: &[usize], (start, len): (u32, u32)) -> &[usize] {
    &res_idx[start as usize..(start + len) as usize]
}

/// Words the solve memo's arena holds at most: an entry of `n` flows
/// takes `4n + 1` (its flow count, `3n` key words and `n` rates).
const MEMO_WORDS: usize = 1 << 14;

/// Switched-on flows a memoized configuration has at most, so one entry
/// takes about 1/64 of `MEMO_WORDS` at most. A larger live set (an overloaded
/// run) bypasses the memo: it seldom recurs, and hashing it would cost
/// about what solving it does.
const MEMO_MAX_FLOWS: usize = MEMO_WORDS / 256;

/// Slots of the memo's open-addressed index (a power of two); it holds at
/// most half as many entries, so every probe ends at an empty slot.
const MEMO_SLOTS: usize = 1 << 9;

/// The memo key of a solve: per switched-on flow, in `on` order, its row,
/// ceiling bits and weight bits.
struct Key<'a> {
    on: &'a [usize],
    spans: &'a [(u32, u32)],
    lowered: &'a [f64],
    ceilings: &'a [f64],
    weights: &'a [f64],
}

impl Key<'_> {
    /// Flow `i`'s three key words.
    fn words(&self, i: usize) -> [u64; 3] {
        [
            u64::from(self.spans[i].0) << 32 | u64::from(self.spans[i].1),
            self.ceilings[i].to_bits(),
            self.weights[i].to_bits(),
        ]
    }

    /// The key's hash, or `None` when the memo is off, no flow or more
    /// than `MEMO_MAX_FLOWS` flows are on, or a switched-on flow runs at
    /// another ceiling than it was lowered with (jitter). An empty
    /// configuration costs nothing to solve; the others seldom recur.
    fn hash(&self) -> Option<u64> {
        if self.lowered.is_empty() || !(1..=MEMO_MAX_FLOWS).contains(&self.on.len()) {
            return None;
        }
        let mut h = self.on.len() as u64;
        for &i in self.on {
            if self.ceilings[i] != self.lowered[i] {
                return None;
            }
            for w in self.words(i) {
                // One Fx hash step.
                h = (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
            }
        }
        Some(h)
    }

    /// Does this key equal `stored`, the key words of an entry with as
    /// many flows?
    fn matches(&self, stored: &[u64]) -> bool {
        stored
            .chunks_exact(3)
            .zip(self.on)
            .all(|(k, &i)| k == self.words(i))
    }
}

/// Rates of solved configurations, in one flat arena behind a fixed
/// open-addressed index. Empty, with nothing allocated, until the first
/// insert; inserts past the budget are dropped.
#[derive(Debug, Clone, Default)]
struct Memo {
    /// `MEMO_SLOTS` slots once anything is stored: 0 is empty, `at + 1`
    /// names the entry starting at `words[at]`.
    slots: Vec<u32>,
    /// Entries back to back: a flow count `n`, the key's `3n` words, then
    /// the `n` rates' bits in `on` order.
    words: Vec<u64>,
    /// Entries stored.
    entries: usize,
}

impl Memo {
    /// The rates' bits of the entry matching `key`, if stored.
    fn find(&self, key: &Key<'_>, hash: u64) -> Option<&[u64]> {
        if self.slots.is_empty() {
            return None;
        }
        let n = key.on.len();
        let mut s = Self::home(hash);
        loop {
            let at = (self.slots[s] as usize).checked_sub(1)?;
            if self.words[at] == n as u64 {
                let (stored, rates) = self.words[at + 1..].split_at(3 * n);
                if key.matches(stored) {
                    return Some(&rates[..n]);
                }
            }
            s = (s + 1) & (MEMO_SLOTS - 1);
        }
    }

    /// Store `rate`'s entries for `key`'s flows under `key`, unless the
    /// memo is full.
    fn insert(&mut self, key: &Key<'_>, hash: u64, rate: &[f64]) {
        let n = key.on.len();
        if 2 * (self.entries + 1) > MEMO_SLOTS || self.words.len() + 1 + 4 * n > MEMO_WORDS {
            return;
        }
        if self.slots.is_empty() {
            self.slots = vec![0; MEMO_SLOTS];
        }
        let mut s = Self::home(hash);
        while self.slots[s] != 0 {
            s = (s + 1) & (MEMO_SLOTS - 1);
        }
        self.slots[s] = self.words.len() as u32 + 1;
        self.entries += 1;
        self.words.push(n as u64);
        for &i in key.on {
            self.words.extend_from_slice(&key.words(i));
        }
        self.words.extend(key.on.iter().map(|&i| rate[i].to_bits()));
    }

    /// The slot a hash probes first (its top bits).
    fn home(hash: u64) -> usize {
        (hash >> (64 - MEMO_SLOTS.trailing_zeros())) as usize
    }

    /// Forget every entry, keeping the allocations.
    fn clear(&mut self) {
        if self.entries > 0 {
            self.slots.fill(0);
            self.words.clear();
            self.entries = 0;
        }
    }
}

/// Solve by progressive filling. Returns one rate per flow.
///
/// Preconditions (checked per call, panicking with the violation — see
/// [`MaxMinSolver::validate`]):
/// * resource indices are in range;
/// * every flow has a finite ceiling or at least one resource (otherwise
///   its fair rate would be unbounded);
/// * capacities and ceilings are non-negative.
///
/// One-shot convenience over [`MaxMinSolver`]; hot paths that re-solve
/// the same flow set should build the solver once and retune it instead.
pub fn solve_max_min(problem: &MaxMinProblem) -> Vec<f64> {
    let mut solver = MaxMinSolver::from_problem(problem);
    if let Err(e) = solver.validate() {
        panic!("{e}");
    }
    solver.solve().to_vec()
}

/// Convenience: the aggregate rate of a solution.
pub fn aggregate(rates: &[f64]) -> f64 {
    rates.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(caps: Vec<f64>, flows: Vec<FlowSpec>) -> Vec<f64> {
        solve_max_min(&MaxMinProblem {
            capacities: caps,
            flows,
        })
    }

    #[test]
    fn single_flow_takes_whole_resource() {
        let r = solve(vec![10.0], vec![FlowSpec::shared(vec![0])]);
        assert_eq!(r, vec![10.0]);
    }

    #[test]
    fn equal_flows_split_evenly() {
        let r = solve(
            vec![12.0],
            vec![
                FlowSpec::shared(vec![0]),
                FlowSpec::shared(vec![0]),
                FlowSpec::shared(vec![0]),
            ],
        );
        for v in r {
            assert!((v - 4.0).abs() < 1e-9);
        }
    }

    #[test]
    fn ceiling_binds_before_resource() {
        let r = solve(
            vec![12.0],
            vec![FlowSpec::capped(vec![0], 2.0), FlowSpec::shared(vec![0])],
        );
        assert!((r[0] - 2.0).abs() < 1e-9);
        assert!(
            (r[1] - 10.0).abs() < 1e-9,
            "leftover goes to the other flow: {r:?}"
        );
    }

    #[test]
    fn classic_three_link_example() {
        // Textbook max-min: links A=10, B=10; f0 uses A+B, f1 uses A, f2 uses B.
        let r = solve(
            vec![10.0, 10.0],
            vec![
                FlowSpec::shared(vec![0, 1]),
                FlowSpec::shared(vec![0]),
                FlowSpec::shared(vec![1]),
            ],
        );
        assert!((r[0] - 5.0).abs() < 1e-9);
        assert!((r[1] - 5.0).abs() < 1e-9);
        assert!((r[2] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn bottleneck_chain() {
        // f0 crosses a narrow link (2) and a wide one; f1 only the wide one.
        let r = solve(
            vec![2.0, 100.0],
            vec![FlowSpec::shared(vec![0, 1]), FlowSpec::shared(vec![1])],
        );
        assert!((r[0] - 2.0).abs() < 1e-9);
        assert!((r[1] - 98.0).abs() < 1e-9);
    }

    #[test]
    fn ceiling_only_flow_is_fine() {
        let r = solve(vec![], vec![FlowSpec::capped(vec![], 7.5)]);
        assert_eq!(r, vec![7.5]);
    }

    #[test]
    fn zero_capacity_resource_starves_users() {
        let r = solve(
            vec![0.0, 10.0],
            vec![FlowSpec::shared(vec![0]), FlowSpec::shared(vec![1])],
        );
        assert_eq!(r[0], 0.0);
        assert!((r[1] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn zero_ceiling_flow_gets_zero() {
        let r = solve(
            vec![10.0],
            vec![FlowSpec::capped(vec![0], 0.0), FlowSpec::shared(vec![0])],
        );
        assert_eq!(r[0], 0.0);
        assert!((r[1] - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "unbounded")]
    fn unbounded_flow_rejected() {
        let _ = solve(vec![10.0], vec![FlowSpec::shared(vec![])]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_resource_rejected() {
        let _ = solve(vec![10.0], vec![FlowSpec::shared(vec![3])]);
    }

    #[test]
    fn empty_problem_is_empty_solution() {
        let r = solve(vec![5.0], vec![]);
        assert!(r.is_empty());
    }

    #[test]
    fn weights_split_a_shared_resource_proportionally() {
        let r = solve(
            vec![12.0],
            vec![
                FlowSpec::shared(vec![0]).weighted(1.0),
                FlowSpec::shared(vec![0]).weighted(2.0),
                FlowSpec::shared(vec![0]).weighted(3.0),
            ],
        );
        assert!((r[0] - 2.0).abs() < 1e-9, "{r:?}");
        assert!((r[1] - 4.0).abs() < 1e-9);
        assert!((r[2] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_flow_still_respects_its_ceiling() {
        let r = solve(
            vec![12.0],
            vec![
                FlowSpec::capped(vec![0], 3.0).weighted(5.0),
                FlowSpec::shared(vec![0]),
            ],
        );
        assert!((r[0] - 3.0).abs() < 1e-9, "{r:?}");
        assert!(
            (r[1] - 9.0).abs() < 1e-9,
            "leftover flows to the other: {r:?}"
        );
    }

    #[test]
    #[should_panic(expected = "non-positive weight")]
    fn zero_weight_rejected() {
        let _ = solve(vec![10.0], vec![FlowSpec::shared(vec![0]).weighted(0.0)]);
    }

    #[test]
    fn repeated_resource_in_one_flow_counts_double() {
        // A flow listing the same resource twice charges it twice — this
        // models e.g. a local copy that crosses the same controller for
        // read and write.
        let r = solve(vec![10.0], vec![FlowSpec::shared(vec![0, 0])]);
        assert!((r[0] - 5.0).abs() < 1e-9, "{r:?}");
    }

    #[test]
    fn aggregate_sums() {
        assert_eq!(aggregate(&[1.0, 2.5, 3.5]), 7.0);
    }

    #[test]
    fn solver_matches_one_shot_solution() {
        let p = MaxMinProblem {
            capacities: vec![10.0, 10.0],
            flows: vec![
                FlowSpec::shared(vec![0, 1]),
                FlowSpec::shared(vec![0]),
                FlowSpec::capped(vec![1], 3.0),
            ],
        };
        let mut solver = MaxMinSolver::from_problem(&p);
        solver.validate().unwrap();
        assert_eq!(solver.num_flows(), 3);
        assert_eq!(solver.num_resources(), 2);
        assert_eq!(solver.solve(), solve_max_min(&p).as_slice());
    }

    #[test]
    fn solver_reuse_matches_fresh_solves_bit_for_bit() {
        let mut p = MaxMinProblem {
            capacities: vec![12.0, 30.0],
            flows: vec![
                FlowSpec::capped(vec![0], 9.0),
                FlowSpec::shared(vec![0, 1]).weighted(2.0),
                FlowSpec::capped(vec![1], 25.0),
            ],
        };
        let mut solver = MaxMinSolver::from_problem(&p);
        solver.validate().unwrap();
        // Sweep one flow's ceiling across re-solves; every retuned solve
        // must equal a from-scratch solve of the retuned problem.
        for ceiling in [9.0, 4.0, 0.0, 17.5, 0.25] {
            solver.set_ceiling(0, ceiling);
            p.flows[0].ceiling = ceiling;
            assert_eq!(
                solver.solve(),
                solve_max_min(&p).as_slice(),
                "ceiling {ceiling}"
            );
        }
    }

    #[test]
    fn zero_ceiling_deactivates_and_reactivates() {
        let p = MaxMinProblem {
            capacities: vec![12.0],
            flows: vec![FlowSpec::shared(vec![0]), FlowSpec::shared(vec![0])],
        };
        let mut solver = MaxMinSolver::from_problem(&p);
        solver.validate().unwrap();
        assert_eq!(solver.solve(), &[6.0, 6.0]);
        solver.set_ceiling(0, 0.0);
        assert_eq!(
            solver.solve(),
            &[0.0, 12.0],
            "deactivated flow charges nothing"
        );
        solver.set_ceiling(0, f64::INFINITY);
        assert_eq!(
            solver.solve(),
            &[6.0, 6.0],
            "reactivation restores the split"
        );
        assert_eq!(
            solver.rates(),
            &[6.0, 6.0],
            "rates() reports the last solve"
        );
    }

    #[test]
    fn capacity_retune_applies_to_next_solve() {
        let p = MaxMinProblem {
            capacities: vec![10.0],
            flows: vec![FlowSpec::shared(vec![0])],
        };
        let mut solver = MaxMinSolver::from_problem(&p);
        solver.validate().unwrap();
        assert_eq!(solver.solve(), &[10.0]);
        solver.set_capacity(0, 4.0);
        assert_eq!(solver.solve(), &[4.0]);
        assert_eq!(solver.ceiling(0), f64::INFINITY);
    }

    #[test]
    fn validate_reports_the_first_violation() {
        let mut s = MaxMinSolver::new(vec![f64::NAN]);
        s.add_flow(&[0], f64::INFINITY, 1.0);
        assert!(matches!(s.validate(), Err(AllocError::BadCapacity(0, c)) if c.is_nan()));
        s.add_flow(&[], f64::INFINITY, 1.0);
        assert_eq!(s.validate(), Err(AllocError::Unbounded(1)));
        assert_eq!(
            AllocError::Unbounded(1).to_string(),
            "flow 1 is unbounded: no ceiling and no resources"
        );
    }

    #[test]
    fn in_place_lowering_matches_from_problem() {
        let p = MaxMinProblem {
            capacities: vec![12.0, 30.0],
            flows: vec![
                FlowSpec::shared(vec![0, 1]),
                FlowSpec::capped(vec![1], 25.0),
            ],
        };
        // Lowered before the capacities are known, with a repeat that
        // `push_resource_once` drops.
        let mut s = MaxMinSolver::new(Vec::new());
        for r in [0, 1, 0] {
            s.push_resource_once(r);
        }
        s.close_flow(f64::INFINITY, 1.0);
        s.push_resource_once(1);
        s.close_flow(25.0, 1.0);
        s.set_capacities(p.capacities.clone());
        s.validate().unwrap();
        assert_eq!(s.resources(0), &[0, 1]);
        assert_eq!(s.solve(), solve_max_min(&p).as_slice());
        s.switch_off(|i| i == 0);
        assert_eq!((s.ceiling(0), s.rates()[0]), (0.0, 0.0));
        assert_eq!(s.solve(), &[0.0, 25.0]);
    }

    #[test]
    fn memo_answers_only_revisited_configurations_at_lowered_ceilings() {
        let mut s = MaxMinSolver::new(vec![12.0, 30.0]);
        s.add_flow(&[0, 1], f64::INFINITY, 1.0);
        s.add_flow(&[1], 25.0, 1.0);
        // No shared row yet: the memo is off.
        s.solve();
        s.solve();
        assert_eq!((s.solves(), s.memo_hits()), (2, 0));
        s.repeat_flow(0, f64::INFINITY, 2.0);
        let first = s.solve().to_vec();
        assert_eq!(s.solve(), first.as_slice());
        assert_eq!(s.memo_hits(), 1, "a revisited configuration hits");
        // Off and on again revisits it; an empty configuration bypasses.
        s.switch_off(|_| true);
        assert_eq!(s.solve(), &[0.0; 3]);
        for (i, c) in [(0, f64::INFINITY), (1, 25.0), (2, f64::INFINITY)] {
            s.set_ceiling(i, c);
        }
        assert_eq!(s.solve(), first.as_slice());
        assert_eq!(s.memo_hits(), 2);
        // A ceiling off its lowered value bypasses the memo.
        s.set_ceiling(1, 20.0);
        s.solve();
        s.solve();
        assert_eq!(s.memo_hits(), 2, "jittered ceilings bypass");
        // A capacity retune clears it.
        s.set_ceiling(1, 25.0);
        s.set_capacity(0, 6.0);
        let retuned = s.solve().to_vec();
        assert_ne!(retuned, first);
        assert_eq!((s.solves(), s.memo_hits()), (9, 2));
    }

    #[test]
    fn solver_rates_are_zero_before_first_solve() {
        let solver = MaxMinSolver::from_problem(&MaxMinProblem {
            capacities: vec![5.0],
            flows: vec![FlowSpec::shared(vec![0])],
        });
        assert_eq!(solver.rates(), &[0.0]);
    }
}
