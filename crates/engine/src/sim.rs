//! The simulation: one fabric, its flows and workloads, optional fault
//! sources and an observability handle, and the discrete-event loop that
//! runs them.

use crate::fct::FctStats;
use crate::flow::{FlowId, FlowResult, FlowSpec};
use crate::jitter::{JitterCfg, JitterState};
use crate::resources::{ResourceHandle, ResourceKey, ResourceRegistry};
use crate::schedule::{Event, Schedule};
use crate::workload::Workload;
use numa_fabric::{AllocError, Fabric, MaxMinSolver, TrafficClass};
use numa_par::rng::mix64;
use numa_topology::NodeId;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Simulation failure modes.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// No flows were added.
    NoFlows,
    /// A flow can never make progress (zero-capacity path or zero ceiling).
    Starved {
        /// The stuck flow.
        flow: FlowId,
    },
    /// Safety valve: more events than `MAX_EVENTS` (runaway jitter loop).
    EventLimit,
    /// A flow names an endpoint the fabric does not have.
    UnknownNode {
        /// The offending flow.
        flow: FlowId,
        /// The endpoint outside the fabric.
        node: NodeId,
    },
    /// A workload's summed interarrival gaps overflow to a non-finite
    /// arrival time (e.g. a Poisson rate so small that one gap is `inf`).
    ArrivalOverflow {
        /// Position of the first such flow within its workload.
        index: usize,
    },
    /// A fault source could not arm its plan against the simulation.
    Faults {
        /// What the fault layer reported.
        reason: String,
    },
    /// The lowered flows break a max-min solver precondition, e.g. a
    /// registered resource with a negative or NaN capacity (flow and
    /// resource indices are [`FlowId`] and [`ResourceHandle`] indices).
    Alloc(AllocError),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::NoFlows => write!(f, "simulation has no flows"),
            SimError::Starved { flow } => write!(f, "flow {flow:?} is starved"),
            SimError::EventLimit => write!(f, "event limit exceeded"),
            SimError::UnknownNode { flow, node } => {
                write!(
                    f,
                    "flow {flow:?} names node {node}, which the fabric does not have"
                )
            }
            SimError::ArrivalOverflow { index } => {
                write!(f, "workload flow {index} arrives at a non-finite time")
            }
            SimError::Faults { reason } => write!(f, "fault plan failed: {reason}"),
            SimError::Alloc(e) => write!(f, "invalid allocation input: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Something that can arm fault timelines on a simulation — implemented
/// by `numa_faults::{FaultPlan, FaultInjector}`. The engine defines the
/// trait (rather than naming a fault type) so the dependency keeps
/// pointing from faults to engine.
pub trait FaultSource {
    /// Schedule this source's capacity events on `sim` (whose fabric is
    /// reachable via [`Simulation::fabric`]). Returns how many events
    /// were armed.
    fn arm_scenario(&self, sim: &mut Simulation<'_>) -> Result<usize, String>;
}

/// Hard cap on processed events.
pub const MAX_EVENTS: usize = 1_000_000;

/// Result of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Per-flow outcomes, ordered by [`FlowId`].
    pub flows: Vec<FlowResult>,
    /// Time until the last flow finished, seconds.
    pub makespan_s: f64,
    /// Total volume divided by makespan — the "average aggregate
    /// performance" the paper reports for its 400 GB runs.
    pub aggregate_gbps: f64,
    /// Total volume, gigabits.
    pub total_gbit: f64,
    /// FCT distribution of [`flows`](Self::flows): nearest-rank
    /// percentiles, and the mean slowdown (each flow's FCT divided by the
    /// time it would take alone on an idle fabric; 1.0 means no
    /// contention at all).
    pub fct: FctStats,
}

impl SimReport {
    /// Mean of the per-flow mean rates (0.0 for an empty report).
    pub fn mean_flow_gbps(&self) -> f64 {
        if self.flows.is_empty() {
            return 0.0;
        }
        self.flows.iter().map(|f| f.mean_gbps).sum::<f64>() / self.flows.len() as f64
    }

    /// Full FCT distribution summary over this report's flows (the
    /// [`fct`](Self::fct) field, summarized once by the run).
    pub fn fct_stats(&self) -> FctStats {
        self.fct
    }

    /// Order-sensitive digest of the FCT vector — the bit-identity
    /// anchor for seeded scenarios (see [`crate::fct::fct_digest`]).
    pub fn fct_digest(&self) -> u64 {
        crate::fct::fct_digest(&self.flows)
    }

    /// Render an fio-style per-flow table plus the aggregate line.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<6} {:>12} {:>10} {:>10}  label",
            "flow", "volume(Gbit)", "finish(s)", "mean(Gbps)"
        );
        for f in &self.flows {
            let _ = writeln!(
                out,
                "F{:<5} {:>12.1} {:>10.2} {:>10.2}  {}",
                f.id.0, f.volume_gbit, f.finish_s, f.mean_gbps, f.label
            );
        }
        let _ = writeln!(
            out,
            "aggregate: {:.2} Gbit/s over {:.2} s ({:.1} Gbit total)",
            self.aggregate_gbps, self.makespan_s, self.total_gbit
        );
        out
    }
}

/// A simulation over one fabric: explicit flows, [`Workload`]s, fault
/// sources and an observability handle, built up and then run.
///
/// Workload flows materialize after the explicit flows, and fault sources
/// arm after the endpoint check, when [`run`](Self::run),
/// [`steady_rates`](Self::steady_rates) or
/// [`bottlenecks`](Self::bottlenecks) starts.
pub struct Simulation<'f> {
    fabric: &'f Fabric,
    registry: ResourceRegistry,
    flows: Vec<FlowSpec>,
    workloads: Vec<Workload>,
    faults: Vec<Box<dyn FaultSource + 'f>>,
    jitter: JitterCfg,
    obs: Option<numa_obs::Obs>,
    /// Scheduled capacity changes; the run adds the arrivals and jitter.
    calendar: Schedule,
}

impl<'f> Simulation<'f> {
    /// Empty simulation on `fabric`, with no jitter.
    pub fn new(fabric: &'f Fabric) -> Self {
        Simulation {
            fabric,
            registry: ResourceRegistry::new(fabric.num_nodes()),
            flows: Vec::new(),
            workloads: Vec::new(),
            faults: Vec::new(),
            jitter: JitterCfg::none(),
            obs: None,
            calendar: Schedule::new(),
        }
    }

    /// Same as [`Simulation::new`]; it exists for `perf/` and goes with
    /// the next benchmark change.
    pub fn on(fabric: &'f Fabric) -> Self {
        Simulation::new(fabric)
    }

    /// Identity; it exists for `perf/` and goes with the next benchmark
    /// change.
    pub fn from_simulation(sim: Simulation<'f>) -> Self {
        sim
    }

    /// Enable rate jitter.
    pub fn jitter(mut self, cfg: JitterCfg) -> Self {
        self.jitter = cfg;
        self
    }

    /// Attach an observability handle: the run emits `alloc_round` /
    /// `flow_arrived` / `flow_finished` / `jitter_refresh` events
    /// (timestamped with simulation time, so seeded runs trace
    /// identically) and feeds the `numio_*` engine metric series
    /// (including the `numio_fct_seconds` histogram).
    pub fn observe(mut self, obs: numa_obs::Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Attach a workload; its flows are materialized (arrival times
    /// stamped) when the simulation starts. May be called repeatedly —
    /// workloads append in order.
    pub fn workload(mut self, w: Workload) -> Self {
        self.workloads.push(w);
        self
    }

    /// Add explicit flows (closed-loop unless their specs carry
    /// arrival times).
    pub fn flows(mut self, flows: impl IntoIterator<Item = FlowSpec>) -> Self {
        for f in flows {
            self.add_flow(f);
        }
        self
    }

    /// Arm a fault source (a `numa_faults::FaultPlan` or anything else
    /// implementing [`FaultSource`]) when the simulation starts.
    pub fn faults(mut self, source: impl FaultSource + 'f) -> Self {
        self.faults.push(Box::new(source));
        self
    }

    /// The fabric this simulation runs over. The returned reference
    /// carries the fabric's own lifetime, so fault layers can hold it
    /// while mutating the simulation.
    pub fn fabric(&self) -> &'f Fabric {
        self.fabric
    }

    /// Register (or fetch) a shared resource, e.g. a device port or a
    /// node's CPU protocol budget.
    pub fn register(&mut self, key: ResourceKey, cap: f64) -> ResourceHandle {
        self.registry.ensure(key, cap)
    }

    /// Look up an already-registered resource by key. Fault injectors use
    /// this to find the handles lowered by higher layers (device ports,
    /// CPU budgets) without re-registering them at a different capacity.
    pub fn resource(&self, key: ResourceKey) -> Option<ResourceHandle> {
        self.registry.get(key)
    }

    /// Current capacity of a registered resource, Gbit/s.
    pub fn capacity(&self, h: ResourceHandle) -> f64 {
        self.registry.capacity(h)
    }

    /// Schedule a capacity change: at simulation time `at_s`, resource `h`
    /// is reset to `cap` Gbit/s (0.0 takes it offline). Events fire in
    /// time order; ties resolve in insertion order, so seeded plans replay
    /// deterministically. A flow stalled at zero rate waits for the next
    /// scheduled change instead of erroring as starved.
    pub fn schedule_capacity(&mut self, h: ResourceHandle, at_s: f64, cap: f64) {
        self.schedule_capacity_as(h, at_s, cap, "capacity_change");
    }

    /// [`Self::schedule_capacity`] with an explicit obs event name, so
    /// fault layers can tag changes as `fault_injected` / `fault_healed`.
    pub fn schedule_capacity_as(
        &mut self,
        h: ResourceHandle,
        at_s: f64,
        cap: f64,
        tag: &'static str,
    ) {
        assert!(
            at_s.is_finite() && at_s >= 0.0,
            "capacity event time must be finite and >= 0"
        );
        assert!(cap >= 0.0, "capacity must be non-negative");
        self.calendar.push(
            at_s,
            Event::CapacityChange {
                resource: h,
                cap_gbps: cap,
                tag,
            },
        );
    }

    /// Add a flow; returns its id. The flow becomes active at its
    /// [`FlowSpec::arrival_s`] (0.0 — the closed-loop default — means it
    /// competes from simulation start). Ids are assigned before workload
    /// flows, which materialize when the simulation starts.
    pub fn add_flow(&mut self, spec: FlowSpec) -> FlowId {
        check_flow(&spec);
        self.flows.push(spec);
        FlowId(self.flows.len() as u32 - 1)
    }

    /// The shared start of every run and analysis view: materialize the
    /// workloads after the explicit flows (the first list is adopted, not
    /// copied), check every endpoint against the fabric (lowering indexes
    /// per-node tables and routes with them), then arm the fault sources.
    fn prepare(&mut self) -> Result<(), SimError> {
        for w in std::mem::take(&mut self.workloads) {
            let flows = w.materialize()?;
            flows.iter().for_each(check_flow);
            if self.flows.is_empty() {
                self.flows = flows;
            } else {
                self.flows.extend(flows);
            }
        }
        let n = self.fabric.num_nodes();
        for (i, spec) in self.flows.iter().enumerate() {
            if let Some(&node) = [spec.src, spec.dst].iter().find(|v| v.index() >= n) {
                return Err(SimError::UnknownNode {
                    flow: FlowId(i as u32),
                    node,
                });
            }
        }
        for f in std::mem::take(&mut self.faults) {
            f.arm_scenario(self)
                .map_err(|reason| SimError::Faults { reason })?;
        }
        Ok(())
    }

    /// Lower every flow straight into one validated solver, in flow
    /// order; each flow's base ceiling is its solver ceiling until the
    /// run retunes it. Each flow lists
    /// its copy budgets, then its route's edges, then its extra handles,
    /// each resource once (a handle charged twice, or one that repeats a
    /// route resource, would otherwise be billed twice). A fabric
    /// resource's capacity is read when it is first registered.
    ///
    /// A flow without extra handles is lowered from its [`Shape`] alone,
    /// so a repeat of a shape (a workload cycling its templates) copies
    /// the first such flow's row and ceiling instead of walking its route
    /// again; the first flow already registered every resource it lists.
    fn lower(&mut self) -> Result<MaxMinSolver, SimError> {
        let fabric = self.fabric;
        let registry = &mut self.registry;
        let mut solver = MaxMinSolver::new(Vec::new());
        // A row lists two copy budgets, a route and a few extra handles:
        // eight listings each keep a small run's rows in one allocation.
        // Repeated shapes share rows, so a large run needs no more.
        let n = self.flows.len();
        solver.reserve(n, 8 * n.min(64));
        let mut lowered: HashMap<Shape, (usize, f64), BuildHasherDefault<ShapeHasher>> =
            HashMap::default();
        for (i, spec) in self.flows.iter().enumerate() {
            let shape = spec.extra_resources.is_empty().then(|| Shape::of(spec));
            if let Some(&(row, ceiling)) = shape.as_ref().and_then(|k| lowered.get(k)) {
                solver.repeat_flow(row, ceiling, spec.weight);
                continue;
            }
            let (src, dst) = (spec.src, spec.dst);
            let local = src == dst;
            // Shared hardware carries the DMA constraint, so a lone flow
            // converges to the route min-cut; a local DMA transfer charges
            // its node's controller once if either end is host memory. The
            // PIO model is a pairwise table, not a link property: it
            // becomes the flow ceiling, while the destination controller
            // and the links still arbitrate contention.
            let copies = match spec.class {
                TrafficClass::Dma if local => [
                    (spec.charge_src_copy || spec.charge_dst_copy).then_some(src),
                    None,
                ],
                TrafficClass::Dma => [
                    spec.charge_src_copy.then_some(src),
                    spec.charge_dst_copy.then_some(dst),
                ],
                TrafficClass::Pio => [Some(dst), None],
            };
            for v in copies.into_iter().flatten() {
                let h = registry.ensure_with(ResourceKey::NodeCopy(v), || fabric.node_copy_cap(v));
                solver.push_resource_once(h.index());
            }
            if !local {
                for e in fabric.routes().route(src, dst).edges() {
                    let cap = || fabric.edge_capacity(e, TrafficClass::Dma);
                    let h = registry.ensure_with(ResourceKey::Edge(e), cap);
                    solver.push_resource_once(h.index());
                }
            }
            for h in spec.extra_resources.iter() {
                solver.push_resource_once(h.index());
            }
            let ceiling = match spec.class {
                // Degenerate but legal: a fully device-side local flow with
                // no shared resources and no finite ceiling still needs a
                // bound for the allocator's invariant.
                TrafficClass::Dma
                    if copies == [None, None]
                        && local
                        && spec.extra_resources.is_empty()
                        && spec.ceiling_gbps.is_infinite() =>
                {
                    fabric.dma_path_bandwidth(src, dst)
                }
                TrafficClass::Dma => spec.ceiling_gbps,
                TrafficClass::Pio => spec.ceiling_gbps.min(fabric.pio_bandwidth(src, dst)),
            };
            solver.close_flow(ceiling, spec.weight);
            if let Some(k) = shape {
                lowered.insert(k, (i, ceiling));
            }
        }
        // The solver takes the capacities over: from here on it holds
        // the live values, and the registry only names resources.
        solver.set_capacities(registry.take_capacities());
        solver.validate().map_err(SimError::Alloc)?;
        Ok(solver)
    }

    /// Each flow's isolated-rate bound: its base ceiling (its ceiling in
    /// the freshly lowered `solver`) when finite, else its path bandwidth
    /// on the idle fabric. It scales jitter and is the slowdown's
    /// denominator. DMA path bandwidths are kept per ordered node pair,
    /// so each route is walked at most once.
    fn isolated_bounds(&self, solver: &MaxMinSolver) -> Vec<f64> {
        let n = self.fabric.num_nodes();
        let mut dma = Vec::new();
        let bound = |(i, s): (usize, &FlowSpec)| match s.class {
            _ if solver.ceiling(i).is_finite() => solver.ceiling(i),
            TrafficClass::Pio => self.fabric.pio_bandwidth(s.src, s.dst),
            TrafficClass::Dma => {
                if dma.is_empty() {
                    dma = vec![f64::NAN; n * n];
                }
                let slot = &mut dma[s.src.index() * n + s.dst.index()];
                if slot.is_nan() {
                    *slot = self.fabric.dma_path_bandwidth(s.src, s.dst);
                }
                *slot
            }
        };
        self.flows.iter().enumerate().map(bound).collect()
    }

    /// Instantaneous max-min rates with all flows (explicit and
    /// workload-generated) active, no volumes and no jitter — the
    /// steady-state allocation.
    pub fn steady_rates(mut self) -> Result<Vec<f64>, SimError> {
        self.prepare()?;
        let mut solver = self.lower()?;
        Ok(solver.solve().to_vec())
    }

    /// Steady-state resource utilization: for every registered resource,
    /// `(key, used Gbit/s, capacity, utilization)` with all flows active,
    /// sorted most-loaded first. The contention-analysis view: the top
    /// entries are the hardware a placement change must relieve.
    pub fn bottlenecks(mut self) -> Result<Vec<(ResourceKey, f64, f64, f64)>, SimError> {
        self.prepare()?;
        let mut solver = self.lower()?;
        solver.solve();
        let mut used = vec![0.0_f64; self.registry.len()];
        for (i, &rate) in solver.rates().iter().enumerate() {
            for &r in solver.resources(i) {
                used[r] += rate;
            }
        }
        let mut report: Vec<(ResourceKey, f64, f64, f64)> = (self.registry.keys().into_iter())
            .zip(solver.capacities())
            .zip(used)
            .map(|((key, &cap), used)| {
                let util = if cap > 0.0 { used / cap } else { 0.0 };
                (key, used, cap, util)
            })
            .collect();
        report.sort_by(|a, b| b.3.total_cmp(&a.3));
        Ok(report)
    }

    /// Run to completion.
    pub fn run(mut self) -> Result<SimReport, SimError> {
        self.prepare()?;
        if self.flows.is_empty() {
            return Err(SimError::NoFlows);
        }
        // Lower into the solver once; between rounds only ceilings move
        // (jitter multipliers, 0.0 for completed or not-yet-arrived flows
        // — the active mask), so a round re-solves in place instead of
        // rebuilding a MaxMinProblem. Repeats of a flow shape share a
        // solver row, so with jitter off a live set the run has already
        // solved (under the same capacities) is answered from the
        // solver's memo; only that memo allocates, on its first insert.
        let mut solver = self.lower()?;
        let n = self.flows.len();
        let bounds = self.isolated_bounds(&solver);
        let mut jitter = JitterState::new(self.jitter, n);
        let jitter_enabled = !self.jitter.is_none();

        // The event calendar yields every exogenous event: flow arrivals
        // (a sorted cursor, not heap entries), scheduled capacity changes
        // and jitter ticks. Completions stay endogenous (derived from
        // `remaining / rate` each round, since a completion time moves
        // whenever the allocation changes). A flow with a future arrival
        // is switched off in the solver, all in one pass — the same
        // deactivation used for completed flows — until its arrival
        // fires. Every per-round loop walks only `live` (arrived,
        // unfinished flows, ascending), so a round costs O(live flows),
        // not O(all flows).
        //
        // `remaining[i]` holds the gigabits flow `i` has left while it
        // runs and its finish time once it is done, so the report reads
        // finish times from the same vector.
        let mut remaining = Vec::with_capacity(n);
        let (mut live, mut arrivals) = (Vec::new(), Vec::new());
        for (i, f) in self.flows.iter().enumerate() {
            remaining.push(f.volume_gbit);
            if f.arrival_s > 0.0 {
                arrivals.push((f.arrival_s, FlowId(i as u32)));
            } else {
                live.push(i);
            }
        }
        let mut pending = arrivals.len();
        // An arriving flow comes back at its base ceiling, which switching
        // it off erases; a closed-loop run keeps none.
        let base_ceilings: Vec<f64> = if pending > 0 {
            (0..n).map(|i| solver.ceiling(i)).collect()
        } else {
            Vec::new()
        };
        solver.switch_off(|i| self.flows[i].arrival_s > 0.0);
        // Scheduled capacity changes are already in the calendar; same-time
        // entries keep insertion order, so seeded fault plans replay
        // exactly.
        let mut calendar = std::mem::take(&mut self.calendar);
        calendar.set_arrivals(arrivals);
        if jitter_enabled {
            calendar.push(jitter.refresh_s(), Event::JitterTick);
        }

        let mut t = 0.0_f64;

        for _event in 0..MAX_EVENTS {
            if live.is_empty() && pending == 0 {
                break;
            }
            // Allocate rates for the live set.
            if jitter_enabled {
                for &i in &live {
                    solver.set_ceiling(i, bounds[i] * jitter.multiplier(i));
                }
            }
            let alloc_span = self.obs.as_ref().map(|o| o.span("engine.alloc_round"));
            let rates = solver.solve();
            drop(alloc_span);
            if let Some(o) = &self.obs {
                o.counter("numio_alloc_rounds_total", &[("component", "engine")])
                    .inc();
                o.event(
                    "alloc_round",
                    t,
                    &[
                        ("component", "engine".into()),
                        ("flows", numa_obs::Value::from(live.len())),
                    ],
                );
            }

            // Time to the next completion.
            let mut dt_complete = f64::INFINITY;
            for &i in &live {
                if rates[i] > 1e-12 {
                    dt_complete = dt_complete.min(remaining[i] / rates[i]);
                }
            }
            // The calendar's head is the earliest of every pending jitter
            // tick, arrival, and capacity change.
            let next_event = calendar.peek_s().unwrap_or(f64::INFINITY);
            // A flow at zero rate is only starved if nothing scheduled can
            // still change the allocation — a pending heal event means the
            // flow is waiting, not dead. An empty calendar means every
            // flow has arrived, so `live[0]` is the lowest-index stuck flow.
            if dt_complete.is_infinite() && next_event.is_infinite() {
                return Err(SimError::Starved {
                    flow: FlowId(live[0] as u32),
                });
            }
            let dt = dt_complete.min(next_event - t).max(0.0);

            // Integrate.
            for &i in &live {
                remaining[i] -= rates[i] * dt;
            }
            t += dt;
            live.retain(|&i| {
                if remaining[i] <= 1e-9 {
                    remaining[i] = t;
                    // Completed flows drop out of the allocation: a zero
                    // ceiling deactivates the flow in the solver.
                    solver.set_ceiling(i, 0.0);
                    if let Some(o) = &self.obs {
                        o.counter("numio_flow_completions_total", &[("component", "engine")])
                            .inc();
                        o.event(
                            "flow_finished",
                            t,
                            &[
                                ("flow", numa_obs::Value::from(i)),
                                ("label", numa_obs::Value::from(&*self.flows[i].label)),
                            ],
                        );
                        o.histogram(
                            "numio_fct_seconds",
                            &[("component", "engine")],
                            numa_obs::buckets::FCT_SECONDS,
                        )
                        .observe(t - self.flows[i].arrival_s);
                    }
                    false
                } else {
                    true
                }
            });
            // Fire every calendar entry due at (or before) the new time,
            // in deterministic `(time, kind, insertion)` order.
            while let Some(entry) = calendar.pop_due(t, 1e-12) {
                match entry.event {
                    Event::JitterTick => {
                        jitter.refresh();
                        calendar.push(entry.at_s + jitter.refresh_s(), Event::JitterTick);
                        if let Some(o) = &self.obs {
                            o.event("jitter_refresh", t, &[]);
                        }
                    }
                    Event::FlowArrival { flow } => {
                        let i = flow.index();
                        pending -= 1;
                        let at = live.binary_search(&i).expect_err("a flow arrives once");
                        live.insert(at, i);
                        // Reactivate at the base ceiling; a jitter-enabled
                        // run retunes it at the top of the next round.
                        solver.set_ceiling(i, base_ceilings[i]);
                        if let Some(o) = &self.obs {
                            o.counter("numio_flow_arrivals_total", &[("component", "engine")])
                                .inc();
                            o.event(
                                "flow_arrived",
                                t,
                                &[
                                    ("flow", numa_obs::Value::from(i)),
                                    ("label", numa_obs::Value::from(&*self.flows[i].label)),
                                ],
                            );
                        }
                    }
                    Event::CapacityChange {
                        resource,
                        cap_gbps,
                        tag,
                    } => {
                        // The solver holds the live capacities and
                        // retunes incrementally without a rebuild.
                        solver.set_capacity(resource.index(), cap_gbps);
                        if let Some(o) = &self.obs {
                            o.counter("numio_capacity_events_total", &[("component", "engine")])
                                .inc();
                            o.event(
                                tag,
                                t,
                                &[
                                    (
                                        "resource",
                                        format!("{:?}", self.registry.key(resource)).into(),
                                    ),
                                    ("cap_gbps", numa_obs::Value::from(cap_gbps)),
                                ],
                            );
                        }
                    }
                }
            }
        }
        if !live.is_empty() || pending > 0 {
            return Err(SimError::EventLimit);
        }
        // Free the solver (and its memo) before the report is built, so
        // the two never hold memory at once.
        drop(solver);

        let finish = remaining;
        let total_gbit: f64 = self.flows.iter().map(|f| f.volume_gbit).sum();
        let makespan = finish.iter().cloned().fold(0.0, f64::max);
        let flows: Vec<FlowResult> = std::mem::take(&mut self.flows)
            .into_iter()
            .enumerate()
            .map(|(i, f)| {
                let fct = finish[i] - f.arrival_s;
                // Isolated lower bound: the rate the flow would see alone
                // on an idle fabric — the denominator of the slowdown.
                let ideal = bounds[i];
                FlowResult {
                    id: FlowId(i as u32),
                    label: f.label,
                    volume_gbit: f.volume_gbit,
                    start_s: f.arrival_s,
                    finish_s: finish[i],
                    fct_s: fct,
                    mean_gbps: if fct > 0.0 { f.volume_gbit / fct } else { 0.0 },
                    slowdown: if fct > 0.0 && ideal > 0.0 && ideal.is_finite() {
                        fct / (f.volume_gbit / ideal)
                    } else {
                        1.0
                    },
                }
            })
            .collect();
        // The bounds are spent: their buffer sorts the FCTs.
        let mut fct = bounds;
        fct.clear();
        fct.extend(flows.iter().map(|f| f.fct_s));
        Ok(SimReport {
            fct: FctStats::summarize(fct, flows.iter().map(|f| f.slowdown)),
            flows,
            makespan_s: makespan,
            aggregate_gbps: if makespan > 0.0 {
                total_gbit / makespan
            } else {
                0.0
            },
            total_gbit,
        })
    }
}

/// Everything lowering reads from a flow that charges no extra handles,
/// in two words. Flows of one shape get the same solver row and base
/// ceiling (the weight is passed per flow, so it is not part of the
/// shape).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Shape {
    /// Endpoints, class and copy charges.
    ends: u64,
    /// The ceiling's bits.
    ceiling: u64,
}

impl Shape {
    fn of(spec: &FlowSpec) -> Self {
        let ends = u64::from(spec.src.0) << 32
            | u64::from(spec.dst.0) << 16
            | (spec.class as u64) << 2
            | u64::from(spec.charge_src_copy) << 1
            | u64::from(spec.charge_dst_copy);
        Shape {
            ends,
            ceiling: spec.ceiling_gbps.to_bits(),
        }
    }
}

/// Folds a [`Shape`]'s words through `mix64`: a lookup costs a few
/// nanoseconds, where SipHash would cost about what the route walk it
/// saves does.
#[derive(Default)]
struct ShapeHasher(u64);

impl Hasher for ShapeHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u64(&mut self, w: u64) {
        self.0 = mix64(self.0 ^ w);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The preconditions every flow meets before it is lowered.
fn check_flow(spec: &FlowSpec) {
    assert!(spec.volume_gbit > 0.0, "flow volume must be positive");
    assert!(
        spec.arrival_s.is_finite() && spec.arrival_s >= 0.0,
        "flow arrival must be finite and >= 0"
    );
}

impl std::fmt::Debug for Simulation<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("flows", &self.flows.len())
            .field("workloads", &self.workloads)
            .field("fault_sources", &self.faults.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_fabric::calibration::dl585_fabric;

    fn fabric() -> Fabric {
        dl585_fabric()
    }

    #[test]
    fn single_flow_runs_at_min_cut() {
        let f = fabric();
        let mut sim = Simulation::new(&f);
        sim.add_flow(FlowSpec::dma(NodeId(3), NodeId(7)).gbytes(26.0));
        let r = sim.run().unwrap();
        // Table IV: node 3 writes at the 26.0 Gbps min-cut.
        assert!(
            (r.aggregate_gbps - 26.0).abs() < 1e-6,
            "{}",
            r.aggregate_gbps
        );
        assert!((r.makespan_s - 8.0).abs() < 1e-6); // 208 Gbit / 26 Gbps
    }

    #[test]
    fn local_flow_uses_node_copy_cap() {
        let f = fabric();
        let mut sim = Simulation::new(&f);
        sim.add_flow(FlowSpec::dma(NodeId(7), NodeId(7)).gbits(53.5));
        let r = sim.run().unwrap();
        assert!((r.aggregate_gbps - 53.5).abs() < 1e-6);
        assert!((r.makespan_s - 1.0).abs() < 1e-6);
    }

    #[test]
    fn two_flows_share_a_common_edge() {
        let f = fabric();
        let mut sim = Simulation::new(&f);
        // Both 4->7 and 6->7 traverse edge 6->7 (46.5).
        sim.add_flow(FlowSpec::dma(NodeId(4), NodeId(7)).gbits(100.0));
        sim.add_flow(FlowSpec::dma(NodeId(6), NodeId(7)).gbits(100.0));
        let rates = sim.steady_rates().unwrap();
        assert!((rates[0] - 23.25).abs() < 1e-6, "{rates:?}");
        assert!((rates[1] - 23.25).abs() < 1e-6);
    }

    #[test]
    fn disjoint_flows_do_not_interfere() {
        let f = fabric();
        let mut sim = Simulation::new(&f);
        sim.add_flow(FlowSpec::dma(NodeId(3), NodeId(7)).gbits(100.0)); // 26.0 path
        sim.add_flow(FlowSpec::dma(NodeId(0), NodeId(1)).gbits(100.0)); // intra-package
        let rates = sim.steady_rates().unwrap();
        assert!((rates[0] - 26.0).abs() < 1e-6);
        assert!((rates[1] - 51.2).abs() < 1e-6);
    }

    #[test]
    fn ceiling_caps_flow() {
        let f = fabric();
        let mut sim = Simulation::new(&f);
        sim.add_flow(FlowSpec::dma(NodeId(6), NodeId(7)).gbits(10.0).ceiling(5.0));
        let r = sim.run().unwrap();
        assert!((r.aggregate_gbps - 5.0).abs() < 1e-6);
    }

    #[test]
    fn custom_resource_shared_by_flows() {
        let f = fabric();
        let mut sim = Simulation::new(&f);
        let port = sim.register(ResourceKey::Custom(0), 20.0);
        sim.add_flow(
            FlowSpec::dma(NodeId(6), NodeId(7))
                .gbits(100.0)
                .charge(port),
        );
        sim.add_flow(
            FlowSpec::dma(NodeId(5), NodeId(7))
                .gbits(100.0)
                .charge(port),
        );
        let rates = sim.steady_rates().unwrap();
        assert!((rates[0] + rates[1] - 20.0).abs() < 1e-6, "{rates:?}");
    }

    #[test]
    fn duplicate_extra_charges_count_once() {
        let f = fabric();
        let build = || {
            let mut sim = Simulation::new(&f);
            let port = sim.register(ResourceKey::Custom(0), 20.0);
            // The same handle charged twice: lowering canonicalizes the
            // resource list, so the flow is billed once per unit of rate
            // (the raw solver contract is charge-per-listing).
            sim.add_flow(
                FlowSpec::dma(NodeId(6), NodeId(7))
                    .gbits(100.0)
                    .charge(port)
                    .charge(port),
            );
            sim
        };
        let rates = build().steady_rates().unwrap();
        assert!((rates[0] - 20.0).abs() < 1e-9, "{rates:?}");
        // The usage report agrees: the port is exactly saturated, not
        // accounted at twice the flow rate.
        let report = build().bottlenecks().unwrap();
        let (key, used, cap, util) = report[0];
        assert_eq!(key, ResourceKey::Custom(0));
        assert!((used - 20.0).abs() < 1e-9);
        assert!((cap - 20.0).abs() < 1e-9);
        assert!((util - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pio_flow_obeys_matrix_ceiling() {
        let f = fabric();
        let mut sim = Simulation::new(&f);
        sim.add_flow(FlowSpec::pio(NodeId(7), NodeId(4)).gbits(21.34));
        let r = sim.run().unwrap();
        assert!((r.aggregate_gbps - 21.34).abs() < 1e-6);
        assert!((r.makespan_s - 1.0).abs() < 1e-6);
    }

    #[test]
    fn staggered_completion_changes_rates() {
        let f = fabric();
        let mut sim = Simulation::new(&f);
        // Same shared edge 6->7; first flow is half the size, so after it
        // finishes, the second speeds up.
        sim.add_flow(FlowSpec::dma(NodeId(4), NodeId(7)).gbits(23.25));
        sim.add_flow(FlowSpec::dma(NodeId(6), NodeId(7)).gbits(46.5));
        let r = sim.run().unwrap();
        // Flow 0 finishes at t=1 (23.25 Gbps fair share). Flow 1 then has
        // 23.25 Gbit left, running alone at 46.5 => finishes at 1.5.
        assert!((r.flows[0].finish_s - 1.0).abs() < 1e-6, "{:?}", r.flows[0]);
        assert!((r.flows[1].finish_s - 1.5).abs() < 1e-6, "{:?}", r.flows[1]);
        assert!((r.aggregate_gbps - 46.5).abs() < 1e-6);
    }

    #[test]
    fn no_flows_is_an_error() {
        let f = fabric();
        let sim = Simulation::new(&f);
        assert_eq!(sim.run().unwrap_err(), SimError::NoFlows);
    }

    #[test]
    fn starved_flow_is_detected() {
        let f = fabric();
        let mut sim = Simulation::new(&f);
        let dead = sim.register(ResourceKey::Custom(9), 0.0);
        sim.add_flow(FlowSpec::dma(NodeId(6), NodeId(7)).gbits(1.0).charge(dead));
        assert!(matches!(sim.run().unwrap_err(), SimError::Starved { .. }));
    }

    #[test]
    fn device_side_flow_outside_the_fabric_is_a_typed_error() {
        // Neither endpoint charges a node table, so only the route lookup
        // would see node 9, and the flat route index would alias it to a
        // real pair instead of failing.
        let f = fabric();
        let mut sim = Simulation::new(&f);
        sim.add_flow(FlowSpec::dma(NodeId(6), NodeId(7)).gbits(1.0));
        sim.add_flow(
            FlowSpec::dma(NodeId(1), NodeId(9))
                .gbits(1.0)
                .device_src()
                .device_dst(),
        );
        assert_eq!(
            sim.run().unwrap_err(),
            SimError::UnknownNode {
                flow: FlowId(1),
                node: NodeId(9)
            }
        );
    }

    #[test]
    fn jitter_is_reproducible_and_bounded() {
        let f = fabric();
        let run = |seed| {
            let mut sim = Simulation::new(&f).jitter(JitterCfg {
                amplitude: 0.05,
                refresh_s: 0.5,
                seed,
            });
            sim.add_flow(FlowSpec::dma(NodeId(6), NodeId(7)).gbits(100.0));
            sim.run().unwrap().aggregate_gbps
        };
        let a = run(1);
        let b = run(1);
        let c = run(2);
        assert_eq!(a, b, "same seed, same result");
        assert_ne!(a, c, "different seed perturbs");
        // Bounded around the no-jitter value 46.5.
        assert!((a - 46.5).abs() < 46.5 * 0.06, "{a}");
    }

    #[test]
    #[should_panic(expected = "volume must be positive")]
    fn zero_volume_rejected() {
        let f = fabric();
        let mut sim = Simulation::new(&f);
        sim.add_flow(FlowSpec::dma(NodeId(0), NodeId(1)).gbits(0.0));
    }

    #[test]
    fn invalid_solver_input_is_a_typed_error() {
        let f = fabric();
        for cap in [-1.0, f64::NAN] {
            let build = || {
                let mut sim = Simulation::new(&f);
                let port = sim.register(ResourceKey::Custom(0), cap);
                sim.add_flow(FlowSpec::dma(NodeId(6), NodeId(7)).gbits(1.0).charge(port));
                sim
            };
            let bad_port = |e: SimError| match e {
                SimError::Alloc(AllocError::BadCapacity(0, c)) => c.total_cmp(&cap).is_eq(),
                _ => false,
            };
            assert!(bad_port(build().run().unwrap_err()));
            assert!(bad_port(build().steady_rates().unwrap_err()));
            assert!(bad_port(build().bottlenecks().unwrap_err()));
        }
        let err = Simulation::new(&f)
            .flows([FlowSpec::dma(NodeId(6), NodeId(7))
                .gbits(1.0)
                .ceiling(-2.0)
                .arrival(1.0)])
            .run()
            .unwrap_err();
        assert_eq!(err, SimError::Alloc(AllocError::BadCeiling(0, -2.0)));
        assert!(
            err.to_string().contains("flow 0 has negative ceiling"),
            "{err}"
        );
    }

    #[test]
    fn bottleneck_report_finds_the_shared_edge() {
        let f = fabric();
        let mut sim = Simulation::new(&f);
        // Both flows cross edge 6->7 (46.5): it saturates; their private
        // first hops do not.
        sim.add_flow(FlowSpec::dma(NodeId(4), NodeId(7)).gbits(10.0));
        sim.add_flow(FlowSpec::dma(NodeId(6), NodeId(7)).gbits(10.0));
        let report = sim.bottlenecks().unwrap();
        let (key, used, cap, util) = report[0];
        assert_eq!(
            key,
            ResourceKey::Edge(numa_topology::DirectedEdge::new(NodeId(6), NodeId(7)))
        );
        assert!((used - 46.5).abs() < 1e-6);
        assert!((cap - 46.5).abs() < 1e-6);
        assert!((util - 1.0).abs() < 1e-9);
        // Every other resource is strictly below saturation.
        for &(_, _, _, u) in &report[1..] {
            assert!(u < 1.0 - 1e-9, "{report:?}");
        }
    }

    #[test]
    fn observed_run_records_rounds_and_finishes() {
        let f = fabric();
        let obs = numa_obs::Obs::new();
        let mut sim = Simulation::new(&f).observe(obs.clone());
        sim.add_flow(FlowSpec::dma(NodeId(4), NodeId(7)).gbits(23.25));
        sim.add_flow(FlowSpec::dma(NodeId(6), NodeId(7)).gbits(46.5));
        let report = sim.run().unwrap();
        // Two allocation rounds: both active at t=0, then flow 1 alone
        // from flow 0's finish.
        let events = obs.events();
        let rounds: Vec<_> = events.iter().filter(|e| e.name == "alloc_round").collect();
        assert_eq!(rounds.len(), 2);
        assert_eq!(rounds[1].time_s, report.flows[0].finish_s);
        let finishes: Vec<f64> = events
            .iter()
            .filter(|e| e.name == "flow_finished")
            .map(|e| e.time_s)
            .collect();
        assert_eq!(
            finishes,
            [report.flows[0].finish_s, report.flows[1].finish_s]
        );
        // Fair share while contended (flow 0's 23.25 Gbit take 1 s), then
        // full rate: flow 1's last 23.25 Gbit take 0.5 s at 46.5.
        assert!((report.flows[0].mean_gbps - 23.25).abs() < 1e-9);
        assert!((report.flows[1].finish_s - report.flows[0].finish_s - 0.5).abs() < 1e-9);
    }

    #[test]
    fn observed_run_emits_events_and_metrics() {
        let f = fabric();
        let obs = numa_obs::Obs::new();
        let mut sim = Simulation::new(&f).observe(obs.clone());
        sim.add_flow(FlowSpec::dma(NodeId(4), NodeId(7)).gbits(23.25).label("a"));
        sim.add_flow(FlowSpec::dma(NodeId(6), NodeId(7)).gbits(46.5).label("b"));
        let r = sim.run().unwrap();
        assert_eq!(
            obs.counter("numio_alloc_rounds_total", &[("component", "engine")])
                .get(),
            2
        );
        assert_eq!(
            obs.counter("numio_flow_completions_total", &[("component", "engine")])
                .get(),
            2
        );
        let jsonl = obs.jsonl();
        assert!(jsonl.contains("\"ev\":\"alloc_round\""), "{jsonl}");
        assert!(jsonl.contains("\"label\":\"b\""), "{jsonl}");
        // Event timestamps are simulation time, not wall time.
        let last = obs.events().last().unwrap().clone();
        assert_eq!(last.name, "flow_finished");
        assert!((last.time_s - r.makespan_s).abs() < 1e-9);
        // Profiling off by default: no wall-clock series pollute the snapshot.
        assert!(!obs.prometheus().contains("numio_op_seconds"));
    }

    #[test]
    fn observed_run_matches_unobserved() {
        let f = fabric();
        let build = || {
            let mut sim = Simulation::new(&f);
            sim.add_flow(FlowSpec::dma(NodeId(0), NodeId(7)).gbits(30.0));
            sim.add_flow(FlowSpec::dma(NodeId(3), NodeId(7)).gbits(30.0));
            sim
        };
        let plain = build().run().unwrap();
        let observed = build().observe(numa_obs::Obs::new()).run().unwrap();
        assert_eq!(plain, observed);
    }

    #[test]
    fn fully_device_side_flow_is_bounded_by_its_path() {
        // Both endpoints marked device-side with no extra resources and no
        // ceiling: the engine falls back to the path min-cut so the
        // allocator's no-unbounded-flow invariant holds.
        let f = fabric();
        let mut sim = Simulation::new(&f);
        sim.add_flow(
            FlowSpec::dma(NodeId(3), NodeId(7))
                .gbits(26.0)
                .device_src()
                .device_dst(),
        );
        let r = sim.run().unwrap();
        assert!(
            (r.aggregate_gbps - 26.0).abs() < 1e-9,
            "{}",
            r.aggregate_gbps
        );
    }

    #[test]
    fn weighted_flows_split_shared_hardware_proportionally() {
        let f = fabric();
        let mut sim = Simulation::new(&f);
        // Two flows over the same 6->7 edge (46.5): weight 3 vs weight 1.
        sim.add_flow(FlowSpec::dma(NodeId(6), NodeId(7)).gbits(100.0).weight(3.0));
        sim.add_flow(FlowSpec::dma(NodeId(6), NodeId(7)).gbits(100.0));
        let rates = sim.steady_rates().unwrap();
        assert!((rates[0] - 34.875).abs() < 1e-9, "{rates:?}");
        assert!((rates[1] - 11.625).abs() < 1e-9);
        assert!((rates[0] / rates[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn non_positive_weight_rejected_at_build() {
        let _ = FlowSpec::dma(NodeId(0), NodeId(1)).weight(0.0);
    }

    #[test]
    fn scheduled_throttle_changes_completion_time() {
        let f = fabric();
        let mut sim = Simulation::new(&f);
        let e = numa_topology::DirectedEdge::new(NodeId(6), NodeId(7));
        let h = sim.register(ResourceKey::Edge(e), 46.5);
        // Full rate for 1 s (46.5 Gbit done), then half rate for the
        // remaining 46.5 Gbit => finishes at 3 s.
        sim.schedule_capacity(h, 1.0, 23.25);
        sim.add_flow(FlowSpec::dma(NodeId(6), NodeId(7)).gbits(93.0));
        let r = sim.run().unwrap();
        assert!((r.makespan_s - 3.0).abs() < 1e-9, "{}", r.makespan_s);
    }

    #[test]
    fn scheduled_heal_revives_stalled_flow() {
        let f = fabric();
        let mut sim = Simulation::new(&f);
        let dead = sim.register(ResourceKey::Custom(9), 0.0);
        sim.schedule_capacity_as(dead, 2.0, 10.0, "fault_healed");
        sim.add_flow(FlowSpec::dma(NodeId(6), NodeId(7)).gbits(10.0).charge(dead));
        // Stalled until the heal at t=2, then 10 Gbit at 10 Gbps.
        let r = sim.run().unwrap();
        assert!((r.makespan_s - 3.0).abs() < 1e-9, "{}", r.makespan_s);
    }

    #[test]
    fn unhealed_zero_capacity_still_starves() {
        let f = fabric();
        let mut sim = Simulation::new(&f);
        let dead = sim.register(ResourceKey::Custom(9), 0.0);
        // The only event is another throttle, not a heal: still starved
        // once the schedule drains.
        sim.schedule_capacity(dead, 1.0, 0.0);
        sim.add_flow(FlowSpec::dma(NodeId(6), NodeId(7)).gbits(1.0).charge(dead));
        assert!(matches!(sim.run().unwrap_err(), SimError::Starved { .. }));
    }

    #[test]
    fn capacity_events_emit_tagged_obs_events() {
        let f = fabric();
        let obs = numa_obs::Obs::new();
        let mut sim = Simulation::new(&f).observe(obs.clone());
        let e = numa_topology::DirectedEdge::new(NodeId(6), NodeId(7));
        let h = sim.register(ResourceKey::Edge(e), 46.5);
        sim.schedule_capacity_as(h, 0.5, 10.0, "fault_injected");
        sim.schedule_capacity_as(h, 1.5, 46.5, "fault_healed");
        sim.add_flow(FlowSpec::dma(NodeId(6), NodeId(7)).gbits(60.0));
        sim.run().unwrap();
        assert_eq!(
            obs.counter("numio_capacity_events_total", &[("component", "engine")])
                .get(),
            2
        );
        let jsonl = obs.jsonl();
        assert!(jsonl.contains("\"ev\":\"fault_injected\""), "{jsonl}");
        assert!(jsonl.contains("\"ev\":\"fault_healed\""), "{jsonl}");
    }

    #[test]
    fn same_instant_events_fire_jitter_then_arrival_then_capacity() {
        let f = fabric();
        let obs = numa_obs::Obs::new();
        let mut sim = Simulation::new(&f)
            .jitter(JitterCfg {
                amplitude: 0.05,
                refresh_s: 0.5,
                seed: 1,
            })
            .observe(obs.clone());
        let e = numa_topology::DirectedEdge::new(NodeId(6), NodeId(7));
        let h = sim.register(ResourceKey::Edge(e), 46.5);
        // Scheduled before the flows and the jitter tick, and "second"
        // before "first": only the kind rank and then insertion order
        // decide.
        sim.schedule_capacity_as(h, 0.5, 20.0, "second");
        sim.schedule_capacity_as(h, 0.5, 30.0, "first");
        sim.add_flow(FlowSpec::dma(NodeId(6), NodeId(7)).gbits(100.0));
        sim.add_flow(FlowSpec::dma(NodeId(4), NodeId(7)).gbits(10.0).arrival(0.5));
        sim.run().unwrap();
        let at_half: Vec<String> = obs
            .events()
            .iter()
            .filter(|e| e.time_s == 0.5 && e.name != "alloc_round")
            .map(|e| e.name.clone())
            .collect();
        assert_eq!(
            at_half,
            ["jitter_refresh", "flow_arrived", "second", "first"]
        );
    }

    #[test]
    fn scheduled_runs_are_deterministic() {
        let f = fabric();
        let run = || {
            let mut sim = Simulation::new(&f);
            let e = numa_topology::DirectedEdge::new(NodeId(6), NodeId(7));
            let h = sim.register(ResourceKey::Edge(e), 46.5);
            sim.schedule_capacity(h, 0.75, 20.0);
            sim.schedule_capacity(h, 2.0, 46.5);
            sim.add_flow(FlowSpec::dma(NodeId(6), NodeId(7)).gbits(80.0));
            sim.add_flow(FlowSpec::dma(NodeId(4), NodeId(7)).gbits(40.0));
            sim.run().unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn resource_lookup_finds_registered_keys() {
        let f = fabric();
        let mut sim = Simulation::new(&f);
        let h = sim.register(ResourceKey::Custom(3), 5.0);
        assert_eq!(sim.resource(ResourceKey::Custom(3)), Some(h));
        assert_eq!(sim.resource(ResourceKey::Custom(4)), None);
    }

    #[test]
    fn report_renders_flows_and_aggregate() {
        let f = fabric();
        let mut sim = Simulation::new(&f);
        sim.add_flow(
            FlowSpec::dma(NodeId(3), NodeId(7))
                .gbits(26.0)
                .label("slowpath"),
        );
        let r = sim.run().unwrap();
        let s = r.render();
        assert!(s.contains("slowpath"));
        assert!(s.contains("aggregate: 26.00 Gbit/s"));
        assert!(s.contains("F0"));
    }

    #[test]
    fn empty_report_mean_flow_gbps_is_zero_not_nan() {
        // Regression (same family as the Summary::empty fix): an empty
        // report used to divide by zero and yield NaN.
        let r = SimReport {
            flows: Vec::new(),
            makespan_s: 0.0,
            aggregate_gbps: 0.0,
            total_gbit: 0.0,
            fct: FctStats::empty(),
        };
        assert_eq!(r.mean_flow_gbps(), 0.0);
        assert!(!r.mean_flow_gbps().is_nan());
        assert_eq!(r.fct_stats(), FctStats::empty());
    }

    #[test]
    fn report_carries_fct_percentiles_and_digest() {
        let f = fabric();
        let mut sim = Simulation::new(&f);
        sim.add_flow(FlowSpec::dma(NodeId(4), NodeId(7)).gbits(23.25));
        sim.add_flow(FlowSpec::dma(NodeId(6), NodeId(7)).gbits(46.5));
        let r = sim.run().unwrap();
        // Finishes at 1.0 and 1.5 s (staggered completion case): the
        // nearest-rank p50 over {1.0, 1.5} is 1.0, p99 is 1.5.
        assert!((r.fct.p50_s - 1.0).abs() < 1e-9, "{}", r.fct.p50_s);
        assert!((r.fct.p99_s - 1.5).abs() < 1e-9, "{}", r.fct.p99_s);
        assert!(r.fct.mean_slowdown >= 1.0);
        assert_eq!(r.fct_stats(), FctStats::from_flows(&r.flows));
        assert_eq!(r.fct_digest(), crate::fct::fct_digest(&r.flows));
    }

    #[test]
    fn report_totals_consistent() {
        let f = fabric();
        let mut sim = Simulation::new(&f);
        sim.add_flow(FlowSpec::dma(NodeId(5), NodeId(7)).gbytes(1.0).label("a"));
        sim.add_flow(FlowSpec::dma(NodeId(3), NodeId(7)).gbytes(2.0).label("b"));
        let r = sim.run().unwrap();
        assert_eq!(r.total_gbit, 24.0);
        assert_eq!(r.flows.len(), 2);
        assert_eq!(&*r.flows[0].label, "a");
        let slowest = r.flows.iter().map(|x| x.finish_s).fold(0.0, f64::max);
        assert_eq!(r.makespan_s, slowest);
        assert!(r.mean_flow_gbps() > 0.0);
    }

    #[test]
    fn batch_workload_matches_explicit_flows_bitwise() {
        let f = fabric();
        let specs = vec![
            FlowSpec::dma(NodeId(4), NodeId(7)).gbits(23.25).label("a"),
            FlowSpec::dma(NodeId(6), NodeId(7)).gbits(46.5).label("b"),
        ];
        let explicit = Simulation::new(&f).flows(specs.clone()).run().unwrap();
        let batch = Simulation::new(&f)
            .workload(Workload::batch(specs))
            .run()
            .unwrap();
        assert_eq!(explicit, batch, "same flows, same bits");
        assert_eq!(explicit.fct_digest(), batch.fct_digest());
    }

    #[test]
    fn arrivals_stagger_completion() {
        let f = fabric();
        // Two identical flows over the 6->7 edge (46.5): the second
        // arrives exactly when the first finishes, so neither ever
        // shares the edge.
        let report = Simulation::new(&f)
            .flows([
                FlowSpec::dma(NodeId(6), NodeId(7)).gbits(46.5),
                FlowSpec::dma(NodeId(6), NodeId(7)).gbits(46.5).arrival(1.0),
            ])
            .run()
            .unwrap();
        assert!(
            (report.flows[0].finish_s - 1.0).abs() < 1e-9,
            "{:?}",
            report.flows[0]
        );
        assert!(
            (report.flows[1].finish_s - 2.0).abs() < 1e-9,
            "{:?}",
            report.flows[1]
        );
        assert!((report.flows[1].fct_s - 1.0).abs() < 1e-9);
        assert!((report.flows[1].start_s - 1.0).abs() < 1e-12);
        // Full rate both times: no contention, slowdown 1.0.
        assert!((report.flows[1].mean_gbps - 46.5).abs() < 1e-6);
        assert!(
            (report.fct.mean_slowdown - 1.0).abs() < 1e-9,
            "{}",
            report.fct.mean_slowdown
        );
        assert!((report.makespan_s - 2.0).abs() < 1e-9);
    }

    #[test]
    fn contended_batch_reports_slowdown() {
        let f = fabric();
        // Two equal flows sharing the 6->7 edge: each takes twice its
        // isolated time.
        let report = Simulation::new(&f)
            .flows([
                FlowSpec::dma(NodeId(6), NodeId(7)).gbits(46.5),
                FlowSpec::dma(NodeId(6), NodeId(7)).gbits(46.5),
            ])
            .run()
            .unwrap();
        assert!(
            (report.fct.mean_slowdown - 2.0).abs() < 1e-9,
            "{}",
            report.fct.mean_slowdown
        );
        assert!((report.fct.p50_s - 2.0).abs() < 1e-9);
        assert!((report.fct.p99_s - 2.0).abs() < 1e-9);
    }

    #[test]
    fn explicit_flows_keep_the_low_ids() {
        // Workload flows materialize at run time, after every explicit
        // flow, whichever builder call came first.
        let f = fabric();
        let report = Simulation::new(&f)
            .workload(Workload::batch(vec![
                FlowSpec::dma(NodeId(6), NodeId(7)).label("w")
            ]))
            .flows([FlowSpec::dma(NodeId(4), NodeId(7)).label("x")])
            .run()
            .unwrap();
        let labels: Vec<&str> = report.flows.iter().map(|r| &*r.label).collect();
        assert_eq!(labels, ["x", "w"]);
    }

    #[test]
    fn same_seed_open_loop_is_bit_identical() {
        let f = fabric();
        let run = || {
            let template = FlowSpec::dma(NodeId(6), NodeId(7)).gbits(2.0).label("w");
            Simulation::new(&f)
                .workload(Workload::poisson(vec![template], 200, 50.0, 42))
                .run()
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(a.fct_digest(), b.fct_digest());
        assert_eq!(a.flows.len(), 200);
    }

    #[test]
    fn observe_emits_arrival_events() {
        let f = fabric();
        let obs = numa_obs::Obs::new();
        let template = FlowSpec::dma(NodeId(6), NodeId(7)).gbits(1.0).label("open");
        Simulation::new(&f)
            .workload(Workload::poisson(vec![template], 5, 100.0, 1))
            .observe(obs.clone())
            .run()
            .unwrap();
        assert_eq!(
            obs.counter("numio_flow_arrivals_total", &[("component", "engine")])
                .get(),
            5
        );
        assert_eq!(
            obs.counter("numio_flow_completions_total", &[("component", "engine")])
                .get(),
            5
        );
        let arrived = obs
            .events()
            .iter()
            .filter(|e| e.name == "flow_arrived")
            .count();
        assert_eq!(arrived, 5);
    }

    #[test]
    fn workload_outside_the_fabric_is_a_typed_error() {
        // The DL585 has nodes 0-7; lowering would index node 8's tables.
        let f = fabric();
        let w = Workload::parse("poisson:n=3,dst=8").unwrap();
        let want = SimError::UnknownNode {
            flow: FlowId(0),
            node: NodeId(8),
        };
        assert_eq!(
            Simulation::new(&f).workload(w.clone()).run().unwrap_err(),
            want
        );
        assert_eq!(
            Simulation::new(&f)
                .workload(w.clone())
                .steady_rates()
                .unwrap_err(),
            want
        );
        assert_eq!(
            Simulation::new(&f).workload(w).bottlenecks().unwrap_err(),
            want
        );
    }

    #[test]
    fn analysis_views_reject_a_flow_outside_the_fabric() {
        let f = fabric();
        let build = || {
            let mut sim = Simulation::new(&f);
            sim.add_flow(FlowSpec::dma(NodeId(0), NodeId(9)));
            sim
        };
        let want = SimError::UnknownNode {
            flow: FlowId(0),
            node: NodeId(9),
        };
        assert_eq!(build().steady_rates().unwrap_err(), want);
        assert_eq!(build().bottlenecks().unwrap_err(), want);
    }

    #[test]
    fn overflowing_arrivals_are_a_typed_error() {
        let f = fabric();
        let w = Workload::parse("poisson:n=3,rate=1e-320").unwrap();
        assert_eq!(
            Simulation::new(&f).workload(w).run().unwrap_err(),
            SimError::ArrivalOverflow { index: 0 }
        );
        // Every gap is finite, but the second arrival sums past f64::MAX.
        let t = FlowSpec::dma(NodeId(6), NodeId(7)).gbits(1.0);
        let w = Workload::bounded_pareto(vec![t], 3, 1.5, 1e308, 1.7e308, 1);
        assert_eq!(
            Simulation::new(&f).workload(w).steady_rates().unwrap_err(),
            SimError::ArrivalOverflow { index: 1 }
        );
    }

    #[test]
    fn failing_fault_source_is_typed() {
        struct Broken;
        impl FaultSource for Broken {
            fn arm_scenario(&self, _sim: &mut Simulation<'_>) -> Result<usize, String> {
                Err("no such device".to_string())
            }
        }
        let f = fabric();
        let err = Simulation::new(&f)
            .flows([FlowSpec::dma(NodeId(6), NodeId(7)).gbits(1.0)])
            .faults(Broken)
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            SimError::Faults {
                reason: "no such device".to_string()
            }
        );
        assert!(err.to_string().contains("no such device"));
    }

    #[test]
    fn working_fault_source_schedules_capacity_events() {
        struct Throttle;
        impl FaultSource for Throttle {
            fn arm_scenario(&self, sim: &mut Simulation<'_>) -> Result<usize, String> {
                let e = numa_topology::DirectedEdge::new(NodeId(6), NodeId(7));
                let cap = sim.fabric().edge_capacity(e, TrafficClass::Dma);
                let h = sim.register(ResourceKey::Edge(e), cap);
                sim.schedule_capacity(h, 1.0, cap / 2.0);
                Ok(1)
            }
        }
        let f = fabric();
        // 93 Gbit over 6->7: 46.5 for 1 s, then 23.25 => done at 3 s.
        let report = Simulation::new(&f)
            .flows([FlowSpec::dma(NodeId(6), NodeId(7)).gbits(93.0)])
            .faults(Throttle)
            .run()
            .unwrap();
        assert!(
            (report.makespan_s - 3.0).abs() < 1e-9,
            "{}",
            report.makespan_s
        );
    }

    #[test]
    fn steady_rates_and_bottlenecks_cover_workload_flows() {
        let f = fabric();
        let flows = vec![
            FlowSpec::dma(NodeId(4), NodeId(7)).gbits(10.0),
            FlowSpec::dma(NodeId(6), NodeId(7)).gbits(10.0),
        ];
        let rates = Simulation::new(&f)
            .workload(Workload::batch(flows.clone()))
            .steady_rates()
            .unwrap();
        assert!((rates[0] - 23.25).abs() < 1e-6, "{rates:?}");
        let report = Simulation::new(&f)
            .workload(Workload::batch(flows))
            .bottlenecks()
            .unwrap();
        let (key, _, _, util) = report[0];
        assert_eq!(
            key,
            ResourceKey::Edge(numa_topology::DirectedEdge::new(NodeId(6), NodeId(7)))
        );
        assert!((util - 1.0).abs() < 1e-9);
    }
}
