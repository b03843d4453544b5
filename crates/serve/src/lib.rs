#![warn(missing_docs)]
//! # numa-serve
//!
//! The paper's §V contribution, production-shaped: characterize a host
//! **once**, then serve `predict` (Eq. 1), `classify` (Tables IV/V class
//! membership), `place` (class-ranked scheduling), and `atlas` requests
//! from a long-running concurrent service — the memoize-don't-remeasure
//! discipline a cluster scheduler needs when the model answers millions
//! of placement queries but the machine is only probed on cold start,
//! drift, or a fault-view change.
//!
//! ## Pieces
//!
//! * [`CharacterizationCache`] — characterizations memoized per view
//!   `(backend label, topology hash, fault-view hash, host shard)` behind
//!   an `RwLock`. One [`ModelKey`] addresses every slot of a view: a
//!   `(device, target, mode)` model, cached lazily (so partial replay
//!   fixtures serve what they cover), or the full atlas, assembled on
//!   demand. There are two lookups: the warm
//!   [`CharacterizationCache::peek`] and the traced
//!   [`CharacterizationCache::get`], whose cold misses characterize via
//!   the generic [`Platform`](numio_core::Platform) pipeline;
//!   invalidation is *targeted* (one key, or one host shard via
//!   [`CharacterizationCache::invalidate_host`]) on drift past a
//!   threshold or a fault-view swap. Hit/miss/invalidation counters are
//!   kept per host shard ([`HostShardStats`]) as well as globally, so
//!   fleet ops account per generated host.
//! * [`ModelService`] — the request handler; never panics, shares one
//!   `Arc` across every worker thread. Cold requests mint a request id,
//!   emit an `accept → service → cache → characterize` trace-span tree
//!   (deterministic, see `numa_obs::trace`), land their wall-clock latency
//!   in the `numio_serve_request_seconds{op,backend,outcome}` histogram
//!   family, and append to a bounded flight recorder dumped by the
//!   `dump` op (or frozen as an incident on error replies and overload).
//!   Every model-backed op goes through one resolve step. Warm
//!   requests take a raw-speed path: the fault view's cache key is
//!   precomputed (no per-request topology rehash), the model comes from a
//!   single shared-lock [`CharacterizationCache::peek`], Eq. 1 runs
//!   straight off the wire pairs without a `WorkloadMix` allocation, and
//!   metric handles are pre-resolved — while hit counters stay exact.
//! * [`spawn`] / [`spawn_with`] / [`ServerHandle`] — sharded worker-pool
//!   TCP server: an accept loop distributes connections across
//!   [`ServeConfig::workers`] workers (default `min(cores, 8)`), each
//!   multiplexing up to [`ServeConfig::queue_depth`] connections with
//!   nonblocking reads, so concurrent clients no longer map 1:1 onto OS
//!   threads. Requests pipeline per connection (replies in request
//!   order); overflow — past `queue_depth × workers` or
//!   [`ServeConfig::max_connections`] **live** connections — gets a typed
//!   [`ServeError::Overloaded`] reply, never unbounded thread growth.
//! * [`Client`] — blocking JSONL client; pipelining-safe
//!   ([`Client::send`]/[`Client::recv`]/[`Client::call_batch`]) with a
//!   [`Client::predict_batch`] helper for the `predict_batch` op, which
//!   resolves the cached view once and evaluates thousands of Eq. 1
//!   mixes bit-identically to sequential predicts.
//! * [`Request`] / [`Response`] — the wire vocabulary. Replies carry no
//!   hit/miss flag, so every client sees the same bytes; the `stats`
//!   reply's counters say how a request was served.
//!
//! ## Quickstart
//!
//! ```
//! use numa_serve::{spawn, Client, ModelService, Request, Response};
//! use numio_core::{IoModeler, SimPlatform};
//! use std::sync::Arc;
//!
//! let service = Arc::new(
//!     ModelService::new(SimPlatform::dl585()).with_modeler(IoModeler::new().reps(3)),
//! );
//! let server = spawn(service, "127.0.0.1:0").unwrap();
//! let mut client = Client::connect(&server.addr().to_string()).unwrap();
//! // First classify pays the characterization; the repeat is a cache hit.
//! let req = Request::Classify { device: None, node: 2, target: 7, mode: Default::default() };
//! let cold = client.call(&req).unwrap();
//! let warm = client.call(&req).unwrap();
//! assert_eq!(cold, warm);
//! match warm {
//!     // Table IV: {6,7} > {0,1,4,5} > {2,3}
//!     Response::Classify { class, .. } => assert_eq!(class, 2),
//!     other => panic!("{other:?}"),
//! }
//! match client.call(&Request::Stats).unwrap() {
//!     Response::Stats { hits, misses, .. } => assert_eq!((hits, misses), (1, 1)),
//!     other => panic!("{other:?}"),
//! }
//! server.shutdown();
//! ```

pub mod cache;
pub mod client;
pub mod error;
mod fast_hash;
pub mod proto;
pub mod server;
pub mod service;

pub use cache::{
    fault_view_hash, topology_hash, CacheKey, CacheStats, Cached, CharacterizationCache,
    DriftOutcome, HostShardStats, ModelKey,
};
pub use client::Client;
pub use error::ServeError;
pub use proto::{
    decode_request, decode_response, encode, LatencySummary, Request, Response, WireMode,
};
pub use server::{spawn, spawn_with, ServeConfig, ServerHandle};
pub use service::{
    write_response, ModelService, BATCH_SIZE_METRIC, DEFAULT_DRIFT_THRESHOLD, SERVE_SECONDS_METRIC,
};
