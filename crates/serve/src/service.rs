//! The request handler: one [`ModelService`] per backend, shared across
//! worker threads, answering every protocol op from the characterization
//! cache.

use crate::cache::{CacheKey, Cached, CharacterizationCache, DriftOutcome, ModelKey};
use crate::error::ServeError;
use crate::proto::{self, LatencySummary, Request, Response, WireMode};
use numa_faults::{FaultKind, FaultPlan};
use numa_fio::Workload;
use numa_iodev::NicOp;
use numa_obs::{buckets, Counter, FlightRecorder, Histogram, Obs};
use numa_sched::fleet::{self, ClusterScheduler, Fleet, FleetPolicy, StreamSpec};
use numa_sched::{ClassRanked, IoTask};
use numa_topology::NodeId;
use numio_core::{Atlas, DeviceSelector, IoModeler, IoPerfModel, Platform, TransferMode};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Default drift tolerance before a cached key is evicted (10%, roughly
/// three times the paper's reported Eq. 1 prediction error).
pub const DEFAULT_DRIFT_THRESHOLD: f64 = 0.10;

/// Histogram family every request's wall-clock latency lands in, labelled
/// `{op, backend, outcome}`.
pub const SERVE_SECONDS_METRIC: &str = "numio_serve_request_seconds";

/// Histogram family recording how many mixes each `predict_batch` request
/// carried, labelled `{backend}`.
pub const BATCH_SIZE_METRIC: &str = "numio_serve_batch_size";

/// The active fault view plus its **precomputed** cache key. Deriving the
/// key costs a full topology serialization + FNV pass, which used to run
/// once per request; the view only changes on `set_faults`/`clear_faults`,
/// so the key is derived once per swap instead.
struct FaultState {
    kinds: Vec<FaultKind>,
    key: CacheKey,
}

/// Pre-resolved metric handles for the ops that dominate a warmed-up
/// server. A registry lookup is a shard lock + label sort per call; the
/// hot loop pays it once here (and once more per `with_obs` swap) instead
/// of once per request. Cold ops keep the lazy per-call lookup.
struct HotMetrics {
    predict_requests: Counter,
    predict_ok_seconds: Histogram,
    batch_requests: Counter,
    batch_ok_seconds: Histogram,
    batch_size: Histogram,
    classify_requests: Counter,
    classify_ok_seconds: Histogram,
}

impl HotMetrics {
    fn resolve(obs: &Obs, backend: &str) -> Self {
        let counter = |op| {
            obs.counter(
                "numio_serve_requests_total",
                &[("op", op), ("backend", backend)],
            )
        };
        let ok_seconds = |op| {
            obs.histogram(
                SERVE_SECONDS_METRIC,
                &[("op", op), ("backend", backend), ("outcome", "ok")],
                buckets::SERVE_SECONDS,
            )
        };
        HotMetrics {
            predict_requests: counter("predict"),
            predict_ok_seconds: ok_seconds("predict"),
            batch_requests: counter("predict_batch"),
            batch_ok_seconds: ok_seconds("predict_batch"),
            batch_size: obs.histogram(
                BATCH_SIZE_METRIC,
                &[("backend", backend)],
                buckets::BATCH_SIZE,
            ),
            classify_requests: counter("classify"),
            classify_ok_seconds: ok_seconds("classify"),
        }
    }
}

/// A long-lived prediction service over one backend.
///
/// `handle` never panics: every failure becomes a typed [`ServeError`]
/// and, on the wire, an `error` reply. All state is interior-mutable so
/// one `Arc<ModelService<_>>` serves every connection thread.
pub struct ModelService<P: Platform> {
    platform: P,
    modeler: IoModeler,
    cache: CharacterizationCache,
    faults: RwLock<FaultState>,
    drift_threshold: f64,
    requests: AtomicU64,
    invalid: AtomicU64,
    errors: AtomicU64,
    /// Aggregate wall-clock latency over every request, independent of
    /// the registry (survives `with_obs` swaps, cheap to digest).
    latency: Histogram,
    flight: FlightRecorder,
    obs: Obs,
    hot: HotMetrics,
}

impl<P: Platform> ModelService<P> {
    /// Serve `platform` with the default modeler (the same probe plan
    /// `iomodel record` captures, so replay fixtures line up).
    pub fn new(platform: P) -> Self {
        let key = CacheKey::new(&platform, &[], 0);
        let obs = Obs::new();
        let hot = HotMetrics::resolve(&obs, platform.backend_kind());
        ModelService {
            modeler: IoModeler::new(),
            cache: CharacterizationCache::new(),
            faults: RwLock::new(FaultState {
                kinds: Vec::new(),
                key,
            }),
            drift_threshold: DEFAULT_DRIFT_THRESHOLD,
            requests: AtomicU64::new(0),
            invalid: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            latency: Histogram::with_buckets(buckets::SERVE_SECONDS),
            flight: FlightRecorder::default(),
            obs,
            hot,
            platform,
        }
    }

    /// Replace the modeler (probe reps, thread counts).
    pub fn with_modeler(mut self, modeler: IoModeler) -> Self {
        self.modeler = modeler;
        self
    }

    /// Set the drift tolerance used by [`Self::check_drift`].
    pub fn with_drift_threshold(mut self, threshold: f64) -> Self {
        self.drift_threshold = threshold;
        self
    }

    /// Resize the flight recorder (most recent `capacity` events kept).
    pub fn with_flight_capacity(mut self, capacity: usize) -> Self {
        self.flight = FlightRecorder::new(capacity);
        self
    }

    /// Share an obs pipeline: `serve_request` events plus the
    /// `numio_serve_*` counters (cache events ride the same handle).
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.obs = obs.clone();
        self.cache = std::mem::take(&mut self.cache).with_obs(obs);
        self.hot = HotMetrics::resolve(&self.obs, self.platform.backend_kind());
        self
    }

    /// The backend answers come from.
    pub fn platform(&self) -> &P {
        &self.platform
    }

    /// The underlying cache (counters, targeted invalidation).
    pub fn cache(&self) -> &CharacterizationCache {
        &self.cache
    }

    /// Requests handled so far.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Unreadable request lines rejected so far.
    pub fn invalid_requests(&self) -> u64 {
        self.invalid.load(Ordering::Relaxed)
    }

    /// Error replies sent so far (bad requests, backend failures,
    /// unreadable lines, refused connections).
    pub fn error_replies(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// The bounded ring of recent events (dumped by the `dump` op).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The obs handle requests record into.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Wall-clock latency digest over requests handled so far.
    pub fn latency_summary(&self) -> LatencySummary {
        let count = self.latency.count();
        let mean_s = if count == 0 {
            0.0
        } else {
            self.latency.sum() / count as f64
        };
        LatencySummary {
            count,
            mean_s,
            p50_s: self.latency.percentile(0.50).unwrap_or(0.0),
            p90_s: self.latency.percentile(0.90).unwrap_or(0.0),
            p99_s: self.latency.percentile(0.99).unwrap_or(0.0),
        }
    }

    /// The fault kinds currently applied to answers.
    pub fn fault_view(&self) -> Vec<FaultKind> {
        self.read_faults().kinds.clone()
    }

    /// Serve the full atlas for the current fault view (cold path
    /// characterizes whatever the view hasn't cached yet). Needs the
    /// backend to cover every `(target, mode)` — partial replay fixtures
    /// answer single-model ops but fail this one with a typed error.
    pub fn atlas(&self) -> Result<Arc<Atlas>, ServeError> {
        let (view, faults) = {
            let state = self.read_faults();
            (state.key.clone(), state.kinds.clone())
        };
        let key = ModelKey::atlas(view);
        match self
            .cache
            .get(&key, &self.platform, &self.modeler, &faults)?
        {
            Cached::Atlas(atlas) => Ok(atlas),
            Cached::Model(_) => unreachable!("the atlas slot holds the atlas"),
        }
    }

    /// Resolve the model a request addresses under the current fault view:
    /// the probe path model by default, or — when a `device` selector names
    /// the storage tier — the SSD model at the named operating point, whose
    /// `target` is moot (the SSDs' attach node is the target by
    /// construction). Unknown selectors and out-of-range probe targets are
    /// a [`ServeError::BadRequest`]; storage against a fabric-less backend
    /// surfaces the typed [`ServeError::Storage`] error.
    ///
    /// The key is built from the fault view's precomputed [`CacheKey`], so
    /// a warm request is one [`CharacterizationCache::peek`] (no topology
    /// rehash, no stage span, no event); a miss falls back to the traced
    /// [`CharacterizationCache::get`], which characterizes exactly that
    /// model. This is what `predict`/`classify`/`place` run on, so a replay
    /// fixture recorded for a single target and direction still serves
    /// those requests.
    fn resolve(
        &self,
        target: u16,
        mode: WireMode,
        device: Option<&str>,
    ) -> Result<Arc<IoPerfModel>, ServeError> {
        let device = match device {
            None => DeviceSelector::Probe,
            Some(s) => DeviceSelector::parse(s).ok_or_else(|| ServeError::BadRequest {
                reason: format!(
                    "unknown device '{s}' (expected 'probe', 'ssd0', or \
                     'ssd0:<engine>-<access>', e.g. 'ssd0:sync-buffered')"
                ),
            })?,
        };
        let nodes = self.platform.num_nodes() as u16;
        if device == DeviceSelector::Probe && target >= nodes {
            return Err(ServeError::BadRequest {
                reason: format!("target {target} out of range (backend has {nodes} nodes)"),
            });
        }
        // Key and fault kinds come from one read of the view, so a
        // concurrent swap can never cache one view's model under another.
        let (key, faults) = {
            let state = self.read_faults();
            let key = ModelKey::model(state.key.clone(), device, NodeId(target), mode.into());
            if let Some(Cached::Model(model)) = self.cache.peek(&key) {
                return Ok(model);
            }
            (key, state.kinds.clone())
        };
        match self
            .cache
            .get(&key, &self.platform, &self.modeler, &faults)?
        {
            Cached::Model(model) => Ok(model),
            Cached::Atlas(_) => unreachable!("a model slot holds a model"),
        }
    }

    /// Arm a fault plan: answers now reflect the degraded view. The *old*
    /// view's cache key is invalidated — targeted, never a full flush.
    /// Returns `(active fault kinds, whether a key was evicted)`.
    pub fn set_fault_plan(&self, plan: &FaultPlan) -> Result<(usize, bool), ServeError> {
        plan.validate()?;
        Ok(self.swap_fault_view(canonical_kinds(&plan.kinds())))
    }

    /// Drop the fault view (evicts the faulted key, keeps the base one).
    pub fn clear_faults(&self) -> (usize, bool) {
        self.swap_fault_view(Vec::new())
    }

    fn swap_fault_view(&self, new: Vec<FaultKind>) -> (usize, bool) {
        let new_key = CacheKey::new(&self.platform, &new, 0);
        let old = {
            let mut guard = self.write_faults();
            if guard.kinds == new {
                return (new.len(), false);
            }
            std::mem::replace(
                &mut *guard,
                FaultState {
                    kinds: new.clone(),
                    key: new_key,
                },
            )
        };
        // The old view's key was precomputed at the previous swap.
        let invalidated = self.cache.invalidate(&old.key);
        (new.len(), invalidated)
    }

    /// Re-measure one model against the live backend; evict the current
    /// view's key if drift exceeds the configured threshold.
    pub fn check_drift(&self) -> Result<DriftOutcome, ServeError> {
        let faults = self.fault_view();
        self.cache
            .check_drift(&self.platform, &self.modeler, &faults, self.drift_threshold)
    }

    /// Answer one request. Infallible at this layer: errors become
    /// [`Response::Error`] so the connection survives bad input.
    pub fn handle(&self, req: &Request) -> Response {
        self.handle_on(req, 0)
    }

    /// Answer one raw wire line from connection `conn`: decode failures
    /// become a typed `error` reply counted under `op="invalid"`. The
    /// bool asks the caller to shut the server down.
    pub fn handle_line(&self, conn: u64, line: &str) -> (Response, bool) {
        match proto::decode_request(line) {
            Ok(req) => {
                let shutdown = matches!(req, Request::Shutdown);
                (self.handle_on(&req, conn), shutdown)
            }
            Err(e) => (self.reject(conn, e), false),
        }
    }

    /// Answer one raw wire line straight into `out` (appending the reply
    /// JSON plus the trailing newline). This is the worker loop's
    /// zero-allocation framing path: the request is decoded from the
    /// connection's read buffer slice and the reply is serialized into its
    /// reusable write buffer — no intermediate `String` per line in either
    /// direction. Returns the shutdown flag.
    pub fn handle_line_into(&self, conn: u64, line: &str, out: &mut Vec<u8>) -> bool {
        let (resp, shutdown) = self.handle_line(conn, line);
        write_response(&resp, out);
        shutdown
    }

    /// Reject input that never decoded into a request (a read error, a
    /// line that was not one). Counted under `op="invalid"`.
    pub fn note_unreadable(&self, conn: u64, reason: &str) -> Response {
        self.reject(
            conn,
            ServeError::Protocol {
                reason: format!("unreadable request line: {reason}"),
            },
        )
    }

    /// Refuse a connection over the configured limit: an `error` reply
    /// carrying [`ServeError::Overloaded`], plus an incident snapshot.
    pub fn note_overload(&self, conn: u64, limit: usize) -> Response {
        let seq = self.requests.fetch_add(1, Ordering::Relaxed) + 1;
        self.errors.fetch_add(1, Ordering::Relaxed);
        self.count_op("overload");
        self.obs.event(
            "serve_request",
            seq as f64,
            &[
                ("op", "overload".into()),
                ("backend", self.platform.label().as_str().into()),
                ("conn", conn.into()),
            ],
        );
        self.flight.record(
            "overload",
            seq as f64,
            &[("conn", conn.into()), ("limit", (limit as u64).into())],
        );
        self.flight
            .capture_incident(&format!("connection {conn} refused: limit {limit} reached"));
        Response::Error {
            message: ServeError::Overloaded { limit }.to_string(),
        }
    }

    /// Mint a request id, open the root trace span, run the request.
    fn handle_on(&self, req: &Request, conn: u64) -> Response {
        let seq = self.requests.fetch_add(1, Ordering::Relaxed) + 1;
        let _root = self.obs.request_span(seq, seq as f64, "accept");
        let t0 = self.obs.clock_s();
        let op = req.op();
        self.count_op(op);
        self.obs.event(
            "serve_request",
            seq as f64,
            &[
                ("op", op.into()),
                ("backend", self.platform.label().as_str().into()),
                ("conn", conn.into()),
            ],
        );
        let result = {
            let _svc = self.obs.stage_span("service");
            self.dispatch(req, seq)
        };
        let outcome = if result.is_ok() { "ok" } else { "error" };
        self.record_latency(op, outcome, (self.obs.clock_s() - t0).max(0.0));
        self.flight.record(
            "req",
            seq as f64,
            &[("op", op.into()), ("outcome", outcome.into())],
        );
        result.unwrap_or_else(|e| {
            let message = e.to_string();
            self.errors.fetch_add(1, Ordering::Relaxed);
            self.flight.record(
                "error",
                seq as f64,
                &[("op", op.into()), ("message", message.as_str().into())],
            );
            self.flight
                .capture_incident(&format!("error reply to request {seq} ({op})"));
            Response::Error { message }
        })
    }

    /// The `op="invalid"` path: input that never became a [`Request`].
    fn reject(&self, conn: u64, err: ServeError) -> Response {
        let seq = self.requests.fetch_add(1, Ordering::Relaxed) + 1;
        let _root = self.obs.request_span(seq, seq as f64, "accept");
        let t0 = self.obs.clock_s();
        self.invalid.fetch_add(1, Ordering::Relaxed);
        self.errors.fetch_add(1, Ordering::Relaxed);
        self.count_op("invalid");
        self.obs.event(
            "serve_request",
            seq as f64,
            &[
                ("op", "invalid".into()),
                ("backend", self.platform.label().as_str().into()),
                ("conn", conn.into()),
            ],
        );
        let message = err.to_string();
        self.record_latency("invalid", "error", (self.obs.clock_s() - t0).max(0.0));
        self.flight.record(
            "error",
            seq as f64,
            &[
                ("op", "invalid".into()),
                ("message", message.as_str().into()),
            ],
        );
        self.flight
            .capture_incident(&format!("unreadable request line on connection {conn}"));
        Response::Error { message }
    }

    fn count_op(&self, op: &str) {
        match op {
            "predict" => self.hot.predict_requests.inc(),
            "predict_batch" => self.hot.batch_requests.inc(),
            "classify" => self.hot.classify_requests.inc(),
            _ => self
                .obs
                .counter(
                    "numio_serve_requests_total",
                    &[("op", op), ("backend", self.platform.backend_kind())],
                )
                .inc(),
        }
    }

    fn record_latency(&self, op: &str, outcome: &str, dur_s: f64) {
        self.latency.observe(dur_s);
        let hot = match (op, outcome) {
            ("predict", "ok") => Some(&self.hot.predict_ok_seconds),
            ("predict_batch", "ok") => Some(&self.hot.batch_ok_seconds),
            ("classify", "ok") => Some(&self.hot.classify_ok_seconds),
            _ => None,
        };
        match hot {
            Some(h) => h.observe(dur_s),
            None => self
                .obs
                .histogram(
                    SERVE_SECONDS_METRIC,
                    &[
                        ("op", op),
                        ("backend", self.platform.backend_kind()),
                        ("outcome", outcome),
                    ],
                    buckets::SERVE_SECONDS,
                )
                .observe(dur_s),
        }
    }

    fn dispatch(&self, req: &Request, seq: u64) -> Result<Response, ServeError> {
        match req {
            Request::Ping => Ok(Response::Pong),
            Request::Shutdown => Ok(Response::ShuttingDown),
            Request::Stats => {
                let s = self.cache.stats();
                Ok(Response::Stats {
                    requests: seq,
                    invalid: self.invalid.load(Ordering::Relaxed),
                    errors: self.errors.load(Ordering::Relaxed),
                    hits: s.hits,
                    misses: s.misses,
                    invalidations: s.invalidations,
                    entries: s.entries,
                    series: self.obs.registry().len(),
                    backend: self.platform.label(),
                    active_faults: self.read_faults().kinds.len(),
                    latency: self.latency_summary(),
                    shards: self.cache.shard_stats(),
                })
            }
            Request::Dump => {
                let (reason, events) = match self.flight.incident() {
                    Some(inc) => (Some(inc.reason), inc.events),
                    None => (None, self.flight.events()),
                };
                Ok(Response::Dump {
                    reason,
                    events: events.iter().map(|e| e.to_json_line()).collect(),
                })
            }
            Request::Atlas => Ok(Response::Atlas {
                atlas: (*self.atlas()?).clone(),
            }),
            Request::Predict {
                target,
                mode,
                device,
                mix,
            } => {
                let model = self.resolve(*target, *mode, device.as_deref())?;
                Ok(Response::Predict {
                    predicted_gbps: predict_pairs(&model, mix)?,
                    target: *target,
                    mode: *mode,
                })
            }
            Request::PredictBatch {
                target,
                mode,
                device,
                mixes,
            } => {
                if mixes.is_empty() {
                    return Err(ServeError::BadRequest {
                        reason: "empty batch".into(),
                    });
                }
                let model = self.resolve(*target, *mode, device.as_deref())?;
                self.hot.batch_size.observe(mixes.len() as f64);
                let mut predicted = Vec::with_capacity(mixes.len());
                for (i, mix) in mixes.iter().enumerate() {
                    let p = predict_pairs(&model, mix).map_err(|e| match e {
                        ServeError::BadRequest { reason } => ServeError::BadRequest {
                            reason: format!("mix {i}: {reason}"),
                        },
                        other => other,
                    })?;
                    predicted.push(p);
                }
                Ok(Response::PredictBatch {
                    predicted_gbps: predicted,
                    target: *target,
                    mode: *mode,
                })
            }
            Request::Classify {
                node,
                target,
                mode,
                device,
            } => {
                let model = self.resolve(*target, *mode, device.as_deref())?;
                let class =
                    model
                        .try_class_of(NodeId(*node))
                        .ok_or_else(|| ServeError::BadRequest {
                            reason: format!("node {node} is not covered by the model"),
                        })?;
                let c = &model.classes()[class];
                Ok(Response::Classify {
                    node: *node,
                    class,
                    classes: model.classes().len(),
                    class_nodes: c.nodes.iter().map(|n| n.0).collect(),
                    avg_gbps: c.avg_gbps,
                })
            }
            Request::Place {
                target,
                tasks,
                to_device,
            } => {
                let fabric = self.platform.fabric().ok_or_else(|| ServeError::NoFabric {
                    label: self.platform.label(),
                })?;
                if *tasks == 0 {
                    return Err(ServeError::BadRequest {
                        reason: "place needs at least one task".into(),
                    });
                }
                if *tasks as usize > fleet::MAX_STREAMS {
                    return Err(ServeError::BadRequest {
                        reason: format!(
                            "place takes at most {} tasks, got {tasks}",
                            fleet::MAX_STREAMS
                        ),
                    });
                }
                let write_model = self.resolve(*target, WireMode::Write, None)?;
                let read_model = self.resolve(*target, WireMode::Read, None)?;
                let mut policy = ClassRanked::from_models(&write_model, &read_model);
                let op = if *to_device {
                    NicOp::RdmaWrite
                } else {
                    NicOp::RdmaRead
                };
                let task = IoTask::new(0.0, Workload::Nic(op), 1, 1.0);
                let nodes = policy.place_n(&task, *tasks, fabric);
                Ok(Response::Place {
                    nodes: nodes.iter().map(|n| n.0).collect(),
                })
            }
            Request::Simulate { workload } => {
                let fabric = self.platform.fabric().ok_or_else(|| ServeError::NoFabric {
                    label: self.platform.label(),
                })?;
                let workload = numa_engine::Workload::parse(workload)
                    .map_err(|reason| ServeError::BadRequest { reason })?;
                // Simulation always runs against the healthy fabric: the
                // fault view degrades *characterizations*, while timed
                // fault plans are armed by the caller inside the workload
                // spec's own world (CLI `run --faults`).
                let report = numa_engine::Simulation::new(fabric)
                    .workload(workload)
                    .run()
                    .map_err(|e| ServeError::BadRequest {
                        reason: e.to_string(),
                    })?;
                let stats = report.fct_stats();
                Ok(Response::Simulate {
                    flows: report.flows.len(),
                    makespan_s: report.makespan_s,
                    aggregate_gbps: report.aggregate_gbps,
                    fct_p50_s: stats.p50_s,
                    fct_p99_s: stats.p99_s,
                    mean_slowdown: stats.mean_slowdown,
                    fct_digest: format!("{:016x}", report.fct_digest()),
                })
            }
            Request::FleetPlace {
                hosts,
                streams,
                policy,
                seed,
            } => {
                let bad = |e: numa_sched::SchedError| ServeError::BadRequest {
                    reason: e.to_string(),
                };
                // Check the bounds and resolve the policy first: a bad
                // input must not pay for fleet generation.
                fleet::check_bounds(*hosts, *streams).map_err(bad)?;
                let mut policy = FleetPolicy::by_name(policy, *hosts).map_err(bad)?;
                let fleet = Fleet::generate(*hosts, *seed).map_err(bad)?;
                // Warm each generated host's write model under its own
                // cache shard: a same-seed repeat of this request turns
                // every shard's miss into a hit, which `fleet_stats`
                // (and the `stats` reply's `shards` block) surfaces.
                for host in fleet.hosts() {
                    let key = ModelKey::model(
                        CacheKey::new(host.platform(), &[], host.id as u64 + 1),
                        DeviceSelector::Probe,
                        host.io_node(),
                        TransferMode::Write,
                    );
                    self.cache.get(&key, host.platform(), &self.modeler, &[])?;
                }
                let report = ClusterScheduler::new(&fleet)
                    .run(&StreamSpec::workload(*streams, *seed), &mut policy)
                    .map_err(bad)?;
                Ok(Response::FleetPlace {
                    policy: report.policy,
                    hosts: report.hosts,
                    streams: report.streams,
                    aggregate_gbps: report.aggregate_gbps,
                    jain_fairness: report.jain_fairness,
                    p99_slowdown: report.p99_slowdown,
                    fct_digest: format!("{:016x}", report.digest),
                })
            }
            Request::FleetStats => Ok(Response::FleetStats {
                shards: self.cache.shard_stats(),
            }),
            Request::SetFaults { plan } => {
                let (active, invalidated) = self.set_fault_plan(plan)?;
                Ok(Response::Faults {
                    active,
                    invalidated,
                })
            }
            Request::ClearFaults => {
                let (active, invalidated) = self.clear_faults();
                Ok(Response::Faults {
                    active,
                    invalidated,
                })
            }
        }
    }

    fn read_faults(&self) -> std::sync::RwLockReadGuard<'_, FaultState> {
        self.faults.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_faults(&self) -> std::sync::RwLockWriteGuard<'_, FaultState> {
        self.faults.write().unwrap_or_else(|e| e.into_inner())
    }
}

/// Serialize one reply into `out` as a JSONL line (terminated by `\n`).
pub fn write_response(resp: &Response, out: &mut Vec<u8>) {
    numa_par::json::write(resp, out);
    out.push(b'\n');
}

/// Canonical order for a fault view: sorted by serialized form, deduped —
/// the same canonicalization [`crate::cache::fault_view_hash`] applies.
fn canonical_kinds(kinds: &[FaultKind]) -> Vec<FaultKind> {
    let mut tagged: Vec<(String, FaultKind)> = kinds
        .iter()
        .map(|k| (numa_par::json::to_string(k), *k))
        .collect();
    tagged.sort_by(|a, b| a.0.cmp(&b.0));
    tagged.dedup_by(|a, b| a.0 == b.0);
    tagged.into_iter().map(|(_, k)| k).collect()
}

/// Eq. 1 straight off the wire's `(node, count)` pairs: the wire checks,
/// then [`numio_core::predict_for_mix`] over the pairs, with no mix
/// allocated per request.
fn predict_pairs(model: &IoPerfModel, mix: &[(u16, u32)]) -> Result<f64, ServeError> {
    if mix.is_empty() {
        return Err(ServeError::BadRequest {
            reason: "empty mix".into(),
        });
    }
    for &(node, count) in mix {
        if count == 0 {
            return Err(ServeError::BadRequest {
                reason: format!("zero-count entry for node {node}"),
            });
        }
        if model.try_class_of(NodeId(node)).is_none() {
            return Err(ServeError::BadRequest {
                reason: format!("node {node} is not covered by the model"),
            });
        }
    }
    let pairs = mix.iter().map(|&(node, count)| (NodeId(node), count));
    Ok(numio_core::predict_for_mix(model, pairs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::WireMode;
    use numio_core::SimPlatform;

    fn service() -> ModelService<SimPlatform> {
        ModelService::new(SimPlatform::dl585()).with_modeler(IoModeler::new().reps(3))
    }

    fn classify(node: u16, target: u16, mode: WireMode, device: Option<&str>) -> Request {
        let device = device.map(String::from);
        Request::Classify {
            node,
            target,
            mode,
            device,
        }
    }

    fn predict(target: u16, mode: WireMode, device: Option<&str>, mix: Vec<(u16, u32)>) -> Request {
        let device = device.map(String::from);
        Request::Predict {
            target,
            mode,
            device,
            mix,
        }
    }

    fn batch(mode: WireMode, mixes: Vec<Vec<(u16, u32)>>) -> Request {
        Request::PredictBatch {
            target: 7,
            mode,
            device: None,
            mixes,
        }
    }

    /// The prediction a `predict` reply carries.
    fn gbps(resp: &Response) -> f64 {
        match resp {
            Response::Predict { predicted_gbps, .. } => *predicted_gbps,
            other => panic!("unexpected reply: {other:?}"),
        }
    }

    /// `(hits, misses)` so far: what the `stats` reply reports.
    fn counts(svc: &ModelService<SimPlatform>) -> (u64, u64) {
        let s = svc.cache().stats();
        (s.hits, s.misses)
    }

    #[test]
    fn classify_reproduces_table_iv_from_the_cache() {
        let svc = service();
        let cold = svc.handle(&classify(2, 7, WireMode::Write, None));
        assert_eq!(counts(&svc), (0, 1), "the first classify pays the miss");
        let warm = svc.handle(&classify(2, 7, WireMode::Write, None));
        assert_eq!(counts(&svc), (1, 1), "the repeat is a hit");
        match (&cold, &warm) {
            (
                Response::Classify {
                    class: c0,
                    classes: n0,
                    class_nodes: k0,
                    ..
                },
                Response::Classify {
                    class: c1,
                    classes: n1,
                    class_nodes: k1,
                    ..
                },
            ) => {
                assert_eq!((c0, n0, k0), (c1, n1, k1));
                assert_eq!(*c0, 2, "Table IV: node 2 sits in the starved class");
                assert_eq!(*n0, 3);
                assert_eq!(k0, &vec![2, 3]);
            }
            other => panic!("unexpected replies: {other:?}"),
        }
    }

    #[test]
    fn classify_with_a_storage_device_reshapes_the_classes() {
        let svc = service();
        // Probe model: node 0 sits in the middle class {0, 1, 4, 5}?
        // No — in Table IV's probe partition node 0 is class 1 of 3; the
        // storage view keeps the same partition shape on the dl585, so
        // pin the storage-specific read view instead: node 4 alone at the
        // bottom (Table V analogue), which the probe read model does NOT
        // show as a singleton bottom class.
        let resp = svc.handle(&classify(4, 7, WireMode::Read, Some("ssd0")));
        let Response::Classify {
            class,
            classes,
            class_nodes,
            ..
        } = &resp
        else {
            panic!("unexpected reply: {resp:?}");
        };
        assert_eq!(counts(&svc), (0, 1));
        assert_eq!(*class, classes - 1, "node 4 is the bottom storage class");
        assert_eq!(class_nodes, &vec![4]);
        // The repeat serves from the one storage slot, whatever its
        // target: the SSDs' attach node is the target by construction.
        let warm = svc.handle(&classify(4, 3, WireMode::Read, Some("ssd0")));
        assert_eq!(warm, resp);
        assert_eq!(counts(&svc), (1, 1), "one miss, then one hit");
        let view = CacheKey::new(svc.platform(), &[], 0);
        assert_eq!(svc.cache().models_cached(&view), 1, "one slot");
        // `device: "probe"` is the default path, bit-identical to None.
        let mix = vec![(6, 1), (2, 1)];
        let explicit = gbps(&svc.handle(&predict(7, WireMode::Write, Some("probe"), mix.clone())));
        let implicit = gbps(&svc.handle(&predict(7, WireMode::Write, None, mix)));
        assert_eq!(explicit.to_bits(), implicit.to_bits());
    }

    #[test]
    fn unknown_devices_are_error_replies() {
        let svc = service();
        for device in ["ssd9", "ssd0:warp9", "nvme0", ""] {
            let resp = svc.handle(&classify(0, 7, WireMode::Write, Some(device)));
            let Response::Error { message } = resp else {
                panic!("device '{device}' should fail, got {resp:?}");
            };
            assert!(message.contains("unknown device"), "{message}");
        }
    }

    #[test]
    fn storage_predictions_follow_the_device_stall_view() {
        let svc = service();
        let mix = vec![(6u16, 1u32), (0, 1)];
        let base = gbps(&svc.handle(&predict(7, WireMode::Write, Some("ssd0"), mix.clone())));
        let plan = FaultPlan::new(5).with(numa_faults::FaultWindow::permanent(
            FaultKind::DeviceStall {
                device: 1,
                factor: 0.5,
            },
        ));
        svc.handle(&Request::SetFaults { plan });
        let stalled = gbps(&svc.handle(&predict(7, WireMode::Write, Some("ssd0"), mix)));
        let ratio = stalled / base;
        assert!(
            (ratio - 0.75).abs() < 1e-9,
            "one card of two at 50%: {ratio}"
        );
    }

    #[test]
    fn simulate_answers_with_fct_stats_and_a_stable_digest() {
        let svc = service();
        let req = Request::Simulate {
            workload: "poisson:n=50,rate=100,seed=7".into(),
        };
        let a = svc.handle(&req);
        let b = svc.handle(&req);
        assert_eq!(a, b, "seeded simulation replies bit-identically");
        let Response::Simulate {
            flows,
            makespan_s,
            fct_p99_s,
            mean_slowdown,
            fct_digest,
            ..
        } = a
        else {
            panic!("unexpected reply: {a:?}");
        };
        assert_eq!(flows, 50);
        assert!(makespan_s > 0.0);
        assert!(fct_p99_s > 0.0);
        assert!(mean_slowdown >= 1.0 - 1e-9, "{mean_slowdown}");
        assert_eq!(fct_digest.len(), 16, "{fct_digest}");
        // A malformed spec is an error reply, not a panic.
        let bad = svc.handle(&Request::Simulate {
            workload: "uniform:n=1".into(),
        });
        assert!(matches!(bad, Response::Error { .. }), "{bad:?}");
    }

    #[test]
    fn predict_is_bit_identical_and_cached_on_repeat() {
        let svc = service();
        let req = predict(7, WireMode::Read, None, vec![(2, 2), (0, 2)]);
        let a = gbps(&svc.handle(&req));
        assert_eq!(counts(&svc), (0, 1));
        let b = gbps(&svc.handle(&req));
        assert_eq!(counts(&svc), (1, 1));
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn predict_counts_sum_without_wrapping() {
        // Summed in u32, these totals wrap to 0 and 1, and the answers
        // read inf (`null` on the wire) and 2.1e11 Gbit/s. The answer is
        // node 2's class average, give or take the extra accesses.
        let svc = service();
        let read = |mix| gbps(&svc.handle(&predict(7, WireMode::Read, None, mix)));
        let class2 = read(vec![(2, 1)]);
        for extra in [1, 2] {
            let p = read(vec![(2, u32::MAX), (0, extra)]);
            assert!((p - class2).abs() < 1e-6, "{p} vs {class2}");
        }
    }

    #[test]
    fn predict_batch_is_bit_identical_to_sequential_predicts() {
        let svc = service();
        let mixes = vec![
            vec![(2u16, 2u32), (0, 2)],
            vec![(6, 1)],
            vec![(0, 1), (2, 1), (6, 2)],
        ];
        // Warm the (7, read) model so the batch is one cache hit.
        svc.handle(&predict(7, WireMode::Read, None, mixes[0].clone()));
        let resp = svc.handle(&batch(WireMode::Read, mixes.clone()));
        assert_eq!(counts(&svc), (1, 1), "the whole batch is one lookup");
        let Response::PredictBatch { predicted_gbps, .. } = resp else {
            panic!("unexpected reply: {resp:?}");
        };
        assert_eq!(predicted_gbps.len(), mixes.len());
        for (mix, batch_p) in mixes.iter().zip(&predicted_gbps) {
            let p = gbps(&svc.handle(&predict(7, WireMode::Read, None, mix.clone())));
            assert_eq!(p.to_bits(), batch_p.to_bits(), "{mix:?}");
        }
        // One characterization served the whole batch.
        assert_eq!(svc.cache().stats().misses, 1);
    }

    #[test]
    fn predict_batch_rejects_bad_batches_with_the_mix_index() {
        let svc = service();
        let resp = svc.handle(&batch(WireMode::Write, vec![]));
        let Response::Error { message } = resp else {
            panic!("unexpected reply: {resp:?}");
        };
        assert!(message.contains("empty batch"), "{message}");
        let resp = svc.handle(&batch(WireMode::Write, vec![vec![(0, 1)], vec![(99, 1)]]));
        let Response::Error { message } = resp else {
            panic!("unexpected reply: {resp:?}");
        };
        assert!(
            message.contains("mix 1: node 99 is not covered"),
            "{message}"
        );
    }

    #[test]
    fn handle_line_into_frames_replies_without_intermediate_strings() {
        let svc = service();
        let mut out = Vec::new();
        let shutdown = svc.handle_line_into(1, r#"{"op":"ping"}"#, &mut out);
        assert!(!shutdown);
        let shutdown = svc.handle_line_into(1, "not json", &mut out);
        assert!(!shutdown);
        let shutdown = svc.handle_line_into(1, r#"{"op":"shutdown"}"#, &mut out);
        assert!(shutdown);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert_eq!(lines[0], r#"{"reply":"pong"}"#);
        assert!(lines[1].contains(r#""reply":"error""#), "{text}");
        assert_eq!(lines[2], r#"{"reply":"shutting_down"}"#);
    }

    #[test]
    fn bad_requests_are_error_replies_not_panics() {
        let svc = service();
        for req in [
            predict(7, WireMode::Write, None, vec![]),
            predict(7, WireMode::Write, None, vec![(0, 0)]),
            predict(7, WireMode::Write, None, vec![(99, 1)]),
            classify(99, 7, WireMode::Write, None),
            classify(0, 99, WireMode::Write, None),
            Request::Place {
                target: 7,
                tasks: 0,
                to_device: true,
            },
            // u32::MAX tasks would ask `place_n` for 51.5 GB up front.
            Request::Place {
                target: 7,
                tasks: u32::MAX,
                to_device: true,
            },
        ] {
            match svc.handle(&req) {
                Response::Error { .. } => {}
                other => panic!("{req:?} should fail, got {other:?}"),
            }
        }
    }

    #[test]
    fn place_spreads_across_the_top_classes() {
        let svc = service();
        let resp = svc.handle(&Request::Place {
            target: 7,
            tasks: 4,
            to_device: true,
        });
        let Response::Place { nodes, .. } = resp else {
            panic!("unexpected reply: {resp:?}");
        };
        assert_eq!(nodes.len(), 4);
        // Table IV's top class is {6, 7}: the first placements stay there.
        assert!(
            nodes.iter().take(2).all(|n| *n == 6 || *n == 7),
            "{nodes:?}"
        );
    }

    #[test]
    fn fleet_place_is_deterministic_and_shards_the_cache() {
        let svc = service();
        let req = Request::FleetPlace {
            hosts: 2,
            streams: 8,
            policy: "class-ranked".into(),
            seed: 42,
        };
        let a = svc.handle(&req);
        let b = svc.handle(&req);
        assert_eq!(a, b, "same-seed fleet episodes reply bit-identically");
        let Response::FleetPlace {
            policy,
            hosts,
            streams,
            aggregate_gbps,
            jain_fairness,
            p99_slowdown,
            fct_digest,
        } = a
        else {
            panic!("unexpected reply: {a:?}");
        };
        assert_eq!(policy, "class-ranked");
        assert_eq!((hosts, streams), (2, 8));
        assert!(aggregate_gbps > 0.0);
        assert!((0.0..=1.0 + 1e-12).contains(&jain_fairness));
        assert!(p99_slowdown >= 1.0);
        assert_eq!(fct_digest.len(), 16, "{fct_digest}");
        // Each generated host warmed its own cache shard: a miss on the
        // first request, a hit on the repeat.
        let resp = svc.handle(&Request::FleetStats);
        let Response::FleetStats { shards } = resp else {
            panic!("unexpected reply: {resp:?}");
        };
        assert_eq!(
            shards.iter().map(|s| s.host).collect::<Vec<_>>(),
            vec![1, 2]
        );
        for s in &shards {
            assert_eq!((s.hits, s.misses), (1, 1), "shard {}", s.host);
        }
        // The stats reply carries the same shard block.
        let resp = svc.handle(&Request::Stats);
        let Response::Stats {
            shards: in_stats, ..
        } = resp
        else {
            panic!("unexpected reply: {resp:?}");
        };
        assert_eq!(in_stats, shards);
    }

    #[test]
    fn fleet_place_rejects_bad_parameters() {
        let svc = service();
        for req in [
            Request::FleetPlace {
                hosts: 0,
                streams: 8,
                policy: "class-ranked".into(),
                seed: 0,
            },
            Request::FleetPlace {
                hosts: numa_sched::fleet::MAX_HOSTS + 1,
                streams: 8,
                policy: "class-ranked".into(),
                seed: 0,
            },
            Request::FleetPlace {
                hosts: 2,
                streams: 0,
                policy: "class-ranked".into(),
                seed: 0,
            },
            Request::FleetPlace {
                hosts: 2,
                streams: 8,
                policy: "mystery-policy".into(),
                seed: 0,
            },
        ] {
            match svc.handle(&req) {
                Response::Error { .. } => {}
                other => panic!("{req:?} should fail, got {other:?}"),
            }
        }
    }

    #[test]
    fn arming_faults_invalidates_only_the_old_view() {
        let svc = service();
        // Warm the base view.
        svc.handle(&Request::Atlas);
        let plan = FaultPlan::demo(42);
        let resp = svc.handle(&Request::SetFaults { plan: plan.clone() });
        let Response::Faults {
            active,
            invalidated,
        } = resp
        else {
            panic!("unexpected reply: {resp:?}");
        };
        assert!(active > 0);
        assert!(invalidated, "base key must be evicted on view change");
        // Same plan again: view unchanged, nothing else evicted.
        let resp = svc.handle(&Request::SetFaults { plan });
        assert_eq!(
            resp,
            Response::Faults {
                active,
                invalidated: false
            }
        );
        // The faulted view characterizes fresh (a miss), then hits.
        let before = counts(&svc);
        let cold = svc.handle(&Request::Atlas);
        assert_eq!(counts(&svc), (before.0, before.1 + 1));
        let warm = svc.handle(&Request::Atlas);
        assert_eq!(counts(&svc), (before.0 + 1, before.1 + 1));
        assert!(matches!(cold, Response::Atlas { .. }), "{cold:?}");
        assert_eq!(cold, warm);
    }

    #[test]
    fn stats_and_ping_round_out_the_surface() {
        let obs = Obs::new();
        let svc = ModelService::new(SimPlatform::dl585())
            .with_modeler(IoModeler::new().reps(3))
            .with_obs(&obs);
        assert_eq!(svc.handle(&Request::Ping), Response::Pong);
        svc.handle(&classify(6, 7, WireMode::Write, None));
        let resp = svc.handle(&Request::Stats);
        let Response::Stats {
            requests,
            misses,
            backend,
            ..
        } = resp
        else {
            panic!("unexpected reply: {resp:?}");
        };
        assert_eq!(requests, 3);
        assert_eq!(misses, 1);
        assert_eq!(backend, "sim:dl585-g7");
        assert_eq!(
            obs.counter(
                "numio_serve_requests_total",
                &[("op", "ping"), ("backend", "sim")]
            )
            .get(),
            1
        );
    }

    #[test]
    fn unreadable_lines_get_typed_errors_and_the_invalid_label() {
        let obs = Obs::new();
        let svc = ModelService::new(SimPlatform::dl585())
            .with_modeler(IoModeler::new().reps(3))
            .with_obs(&obs);
        let (resp, shutdown) = svc.handle_line(1, "this is not json");
        assert!(!shutdown);
        let Response::Error { message } = resp else {
            panic!("unexpected reply: {resp:?}");
        };
        assert!(message.starts_with("protocol:"), "{message}");
        svc.note_unreadable(1, "connection reset by peer");
        assert_eq!(svc.invalid_requests(), 2);
        assert_eq!(svc.error_replies(), 2);
        assert_eq!(
            obs.counter(
                "numio_serve_requests_total",
                &[("op", "invalid"), ("backend", "sim")]
            )
            .get(),
            2
        );
        // Well-formed lines still dispatch (and report the shutdown flag).
        let (resp, shutdown) = svc.handle_line(1, r#"{"op":"shutdown"}"#);
        assert_eq!(resp, Response::ShuttingDown);
        assert!(shutdown);
    }

    #[test]
    fn stats_is_a_one_shot_health_view() {
        let svc = service();
        svc.handle(&classify(6, 7, WireMode::Write, None));
        svc.handle_line(3, "{broken");
        let resp = svc.handle(&Request::Stats);
        let Response::Stats {
            requests,
            invalid,
            errors,
            misses,
            entries,
            series,
            latency,
            ..
        } = resp
        else {
            panic!("unexpected reply: {resp:?}");
        };
        assert_eq!(requests, 3);
        assert_eq!(invalid, 1);
        assert_eq!(errors, 1);
        assert_eq!(misses, 1);
        assert_eq!(entries, 1);
        // At least the request counter + latency families are registered.
        assert!(series >= 2, "{series}");
        // The in-flight stats request is not digested yet: 2 of 3.
        assert_eq!(latency.count, 2);
        assert!(latency.p50_s <= latency.p99_s);
    }

    #[test]
    fn error_replies_freeze_an_incident_for_dump() {
        let svc = service();
        svc.handle(&Request::Ping);
        // A live-ring dump first: no incident yet.
        let resp = svc.handle(&Request::Dump);
        let Response::Dump {
            reason: None,
            events,
        } = resp
        else {
            panic!("unexpected reply: {resp:?}");
        };
        assert!(
            events.iter().any(|l| l.contains(r#""op":"ping""#)),
            "{events:?}"
        );
        // Now an error reply captures the incident.
        svc.handle(&predict(7, WireMode::Write, None, vec![]));
        let resp = svc.handle(&Request::Dump);
        let Response::Dump {
            reason: Some(reason),
            events,
        } = resp
        else {
            panic!("unexpected reply: {resp:?}");
        };
        assert!(
            reason.contains("error reply to request 3 (predict)"),
            "{reason}"
        );
        assert!(
            events.iter().any(|l| l.contains(r#""ev":"error""#)),
            "incident snapshot carries the error event: {events:?}"
        );
    }

    #[test]
    fn requests_emit_a_deterministic_span_tree() {
        use numa_obs::ManualClock;
        let run = || {
            let obs = Obs::with_clock(Box::new(ManualClock::new()));
            let svc = ModelService::new(SimPlatform::dl585())
                .with_modeler(IoModeler::new().reps(3))
                .with_obs(&obs);
            svc.handle(&classify(2, 7, WireMode::Write, None));
            obs.jsonl()
        };
        let trace = run();
        // Root accept span, then service -> cache -> characterize.
        assert!(trace.contains(r#"{"t":1,"ev":"span_start","req":1,"span":0,"stage":"accept"}"#));
        assert!(trace.contains(
            r#"{"t":1,"ev":"span_start","req":1,"span":1,"parent":0,"stage":"service"}"#
        ));
        assert!(trace
            .contains(r#"{"t":1,"ev":"span_start","req":1,"span":2,"parent":1,"stage":"cache"}"#));
        assert!(trace.contains(
            r#"{"t":1,"ev":"span_start","req":1,"span":3,"parent":2,"stage":"characterize"}"#
        ));
        assert_eq!(
            trace.matches(r#""ev":"span_start""#).count(),
            trace.matches(r#""ev":"span_end""#).count()
        );
        // Same-seed reruns are byte-identical.
        assert_eq!(trace, run());
    }
}
