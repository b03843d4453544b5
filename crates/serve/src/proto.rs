//! The wire protocol: newline-delimited JSON (JSONL), one request per
//! line, one response per line, over a plain TCP stream.
//!
//! Requests are tagged with `"op"`, responses with `"reply"`:
//!
//! ```text
//! -> {"op":"classify","node":2}
//! <- {"reply":"classify","node":2,"class":2,"classes":3,"class_nodes":[2,3],"avg_gbps":26.65}
//! -> {"op":"predict","target":7,"mode":"read","mix":[[2,2],[0,2]]}
//! <- {"reply":"predict","predicted_gbps":20.017,"target":7,"mode":"read"}
//! ```
//!
//! A reply is the same bytes whichever request paid the characterization:
//! hits and misses are reported by the `stats` and `fleet_stats` counters
//! (and the `cache` trace span), not per reply. Failures come back as
//! `{"reply":"error","message":"..."}` — the connection stays usable.

use crate::cache::HostShardStats;
use crate::error::ServeError;
use numa_faults::FaultPlan;
use numa_par::json::{self, ToJson};
use numio_core::{Atlas, TransferMode};

numa_par::json_enum! {
    #[json(snake_case)]
    /// Transfer direction, as spelled on the wire.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub enum WireMode {
        /// Into the device (Table IV).
        #[default]
        Write,
        /// Out of the device (Table V).
        Read,
    }
}

impl From<WireMode> for TransferMode {
    fn from(m: WireMode) -> Self {
        match m {
            WireMode::Write => TransferMode::Write,
            WireMode::Read => TransferMode::Read,
        }
    }
}

impl WireMode {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            WireMode::Write => "write",
            WireMode::Read => "read",
        }
    }
}

fn default_target() -> u16 {
    7
}

fn default_tasks() -> u32 {
    1
}

fn default_to_device() -> bool {
    true
}

fn default_fleet_hosts() -> usize {
    4
}

fn default_fleet_streams() -> usize {
    16
}

fn default_fleet_policy() -> String {
    "class-ranked".into()
}

numa_par::json_enum! {
    #[json(tag = "op")]
    /// One client request. Unknown `op` tags decode to a protocol error (and
    /// an `error` reply), never a panic.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Request {
        /// Eq. 1 aggregate bandwidth for a `(node, access count)` mix against
        /// the `target` device node's model.
        Predict {
            /// Device node whose model to predict against (default 7, the
            /// paper's NIC/SSD node).
            #[json(default = default_target)]
            target: u16,
            /// Direction (default write).
            #[json(default)]
            mode: WireMode,
            /// Device view: absent/`"probe"` for the memcpy path model,
            /// `"ssd0"` (or `"ssd0:<engine>-<access>"`) for the storage
            /// tier. Absent in pre-storage clients, so old wire lines keep
            /// decoding.
            #[json(skip_none)]
            device: Option<String>,
            /// `(node, access count)` pairs.
            mix: Vec<(u16, u32)>,
        },
        /// Eq. 1 predictions for many mixes against **one** `(target, mode)`
        /// model, resolved from the cache once. The batch analogue of
        /// [`Request::Predict`]: result `i` is bit-identical to a sequential
        /// `predict` of `mixes[i]`, but the per-request overhead (wire round
        /// trip, cache lookup, span, latency sample) is paid once per batch.
        PredictBatch {
            /// Device node whose model to predict against (default 7).
            #[json(default = default_target)]
            target: u16,
            /// Direction (default write).
            #[json(default)]
            mode: WireMode,
            /// Device view (see [`Request::Predict::device`]).
            #[json(skip_none)]
            device: Option<String>,
            /// One `(node, access count)` mix per prediction.
            mixes: Vec<Vec<(u16, u32)>>,
        },
        /// Performance class of one node in the `target` model.
        Classify {
            /// The node to classify.
            node: u16,
            /// Device node whose model to classify against (default 7).
            #[json(default = default_target)]
            target: u16,
            /// Direction (default write).
            #[json(default)]
            mode: WireMode,
            /// Device view (see [`Request::Predict::device`]).
            #[json(skip_none)]
            device: Option<String>,
        },
        /// ClassRanked placement of `tasks` unit streams (needs a sim fabric).
        Place {
            /// Device node whose models rank the classes (default 7).
            #[json(default = default_target)]
            target: u16,
            /// How many single-stream tasks to place.
            #[json(default = default_tasks)]
            tasks: u32,
            /// Direction: into the device (default) or out of it.
            #[json(default = default_to_device)]
            to_device: bool,
        },
        /// Run a generated workload through the engine's `Simulation`
        /// and return FCT statistics (needs a sim fabric).
        Simulate {
            /// Workload spec in the shared grammar, e.g.
            /// `poisson:n=1000,rate=200,seed=42`.
            workload: String,
        },
        /// Generate a seeded heterogeneous fleet, place a seeded stream
        /// workload across it under one placement policy, and report the
        /// episode's aggregate metrics (needs a sim fabric). Each generated
        /// host's characterization lands in its own cache shard.
        FleetPlace {
            /// Fleet size (default 4 hosts).
            #[json(default = default_fleet_hosts)]
            hosts: usize,
            /// Streams in the seeded workload (default 16).
            #[json(default = default_fleet_streams)]
            streams: usize,
            /// Placement policy: `class-ranked`, `bandwidth-aware`, or
            /// `adaptive` (default `class-ranked`).
            #[json(default = default_fleet_policy)]
            policy: String,
            /// Seed for both the fleet and the workload (default 0).
            #[json(default)]
            seed: u64,
        },
        /// Per-host-shard cache counters.
        FleetStats,
        /// The full cached atlas.
        Atlas,
        /// Service + cache counters and the latency summary.
        Stats,
        /// The flight recorder's recent events (or the frozen incident
        /// snapshot, when one was captured) for a post-mortem.
        Dump,
        /// Arm a fault plan: subsequent answers reflect the degraded view and
        /// the old view's cache key is invalidated (targeted, not a flush).
        SetFaults {
            /// The plan whose fault kinds form the new view.
            plan: FaultPlan,
        },
        /// Clear the fault view (targeted invalidation of the faulted key).
        ClearFaults,
        /// Liveness probe.
        Ping,
        /// Ask the server to stop accepting connections and exit.
        Shutdown,
    }
}

impl Request {
    /// Short op label for metrics (`numio_serve_requests_total{op=...}`).
    pub fn op(&self) -> &'static str {
        match self {
            Request::Predict { .. } => "predict",
            Request::PredictBatch { .. } => "predict_batch",
            Request::Classify { .. } => "classify",
            Request::Place { .. } => "place",
            Request::Simulate { .. } => "simulate",
            Request::FleetPlace { .. } => "fleet_place",
            Request::FleetStats => "fleet_stats",
            Request::Atlas => "atlas",
            Request::Stats => "stats",
            Request::Dump => "dump",
            Request::SetFaults { .. } => "set_faults",
            Request::ClearFaults => "clear_faults",
            Request::Ping => "ping",
            Request::Shutdown => "shutdown",
        }
    }
}

numa_par::json_struct! {
    /// Wall-clock request-latency digest carried by the `stats` reply:
    /// mean over every request, exact nearest-rank percentiles over the
    /// most recent [`numa_obs::RECENT_SAMPLES`] requests.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct LatencySummary {
        /// Requests the digest covers.
        pub count: u64,
        /// Mean latency, seconds.
        pub mean_s: f64,
        /// Median latency, seconds.
        pub p50_s: f64,
        /// 90th-percentile latency, seconds.
        pub p90_s: f64,
        /// 99th-percentile latency, seconds.
        pub p99_s: f64,
    }
}

numa_par::json_enum! {
    #[json(tag = "reply")]
    /// One server reply.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Response {
        /// The request failed; the connection stays open.
        Error {
            /// Human-readable cause (the typed error's `Display`).
            message: String,
        },
        /// Eq. 1 prediction.
        Predict {
            /// Predicted aggregate bandwidth, Gbit/s.
            predicted_gbps: f64,
            /// Echo of the device node.
            target: u16,
            /// Echo of the direction.
            mode: WireMode,
        },
        /// Eq. 1 predictions for a whole batch, in mix order.
        PredictBatch {
            /// `predicted_gbps[i]` answers `mixes[i]`, bit-identical to a
            /// sequential `predict` of that mix.
            predicted_gbps: Vec<f64>,
            /// Echo of the device node.
            target: u16,
            /// Echo of the direction.
            mode: WireMode,
        },
        /// Class membership of one node.
        Classify {
            /// Echo of the node.
            node: u16,
            /// Class index, 0 = best.
            class: usize,
            /// Total class count in the model.
            classes: usize,
            /// All nodes sharing the class.
            class_nodes: Vec<u16>,
            /// Class average bandwidth, Gbit/s.
            avg_gbps: f64,
        },
        /// Placement decision: binding node per task, in order.
        Place {
            /// Chosen nodes.
            nodes: Vec<u16>,
        },
        /// Workload simulation outcome.
        Simulate {
            /// Flows completed.
            flows: usize,
            /// Completion time of the last flow, seconds.
            makespan_s: f64,
            /// Total volume over makespan, Gbit/s.
            aggregate_gbps: f64,
            /// Median flow completion time, seconds.
            fct_p50_s: f64,
            /// 99th-percentile flow completion time, seconds.
            fct_p99_s: f64,
            /// Mean slowdown against each flow's isolated lower bound.
            mean_slowdown: f64,
            /// Hex-encoded order-sensitive digest of the exact FCT bit
            /// patterns — equal digests mean bit-identical runs.
            fct_digest: String,
        },
        /// Fleet placement episode outcome.
        FleetPlace {
            /// Policy that placed the episode.
            policy: String,
            /// Hosts in the generated fleet.
            hosts: usize,
            /// Streams placed.
            streams: usize,
            /// Fleet-aggregate bandwidth, Gbit/s.
            aggregate_gbps: f64,
            /// Jain fairness over per-stream rates, in `(0, 1]`.
            jain_fairness: f64,
            /// p99 of per-stream slowdowns.
            p99_slowdown: f64,
            /// Hex-encoded order-sensitive digest of the per-stream FCT bit
            /// patterns — equal digests mean bit-identical episodes.
            fct_digest: String,
        },
        /// Per-host-shard cache counters, sorted by shard id.
        FleetStats {
            /// One counter row per touched shard (0 = the service's own
            /// backend, `i + 1` = generated fleet host `i`).
            shards: Vec<HostShardStats>,
        },
        /// The full atlas.
        Atlas {
            /// Every (target, mode) model of the host.
            atlas: Atlas,
        },
        /// Service counters.
        Stats {
            /// Requests handled (including this one).
            requests: u64,
            /// Unreadable request lines answered with a typed error.
            #[json(default)]
            invalid: u64,
            /// Error replies sent (bad requests, backend failures, overload).
            #[json(default)]
            errors: u64,
            /// Cache hits so far.
            hits: u64,
            /// Cache misses so far.
            misses: u64,
            /// Cache invalidations so far.
            invalidations: u64,
            /// Characterizations currently cached.
            entries: usize,
            /// Metric series in the registry snapshot.
            #[json(default)]
            series: usize,
            /// Backend label answers come from.
            backend: String,
            /// Fault kinds currently applied.
            active_faults: usize,
            /// Request latency distribution (zeroed before any request).
            #[json(default)]
            latency: LatencySummary,
            /// Per-host-shard cache counters (empty before any lookup, and
            /// absent in pre-shard server replies).
            #[json(default)]
            shards: Vec<HostShardStats>,
        },
        /// Flight recorder contents.
        Dump {
            /// Why an incident snapshot was frozen, when one was; `None`
            /// means the live ring is being dumped.
            reason: Option<String>,
            /// The recorded events as JSON lines, oldest first.
            events: Vec<String>,
        },
        /// Fault view updated.
        Faults {
            /// Fault kinds now applied.
            active: usize,
            /// Whether a cached key was evicted by the change.
            invalidated: bool,
        },
        /// Liveness answer.
        Pong,
        /// The server will stop accepting connections.
        ShuttingDown,
    }
}

/// Encode any wire message as one JSONL line (no trailing newline —
/// the transport adds it). Compact JSON never contains raw newlines.
pub fn encode<T: ToJson>(msg: &T) -> String {
    json::to_string(msg)
}

/// Decode one request line.
pub fn decode_request(line: &str) -> Result<Request, ServeError> {
    Ok(json::from_str(line.trim())?)
}

/// Decode one response line.
pub fn decode_response(line: &str) -> Result<Response, ServeError> {
    Ok(json::from_str(line.trim())?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Predict {
                device: None,
                target: 7,
                mode: WireMode::Read,
                mix: vec![(2, 2), (0, 2)],
            },
            Request::PredictBatch {
                device: None,
                target: 7,
                mode: WireMode::Write,
                mixes: vec![vec![(2, 2), (0, 2)], vec![(6, 1)]],
            },
            Request::Classify {
                device: None,
                node: 2,
                target: 7,
                mode: WireMode::Write,
            },
            Request::Place {
                target: 7,
                tasks: 4,
                to_device: true,
            },
            Request::Simulate {
                workload: "poisson:n=100,rate=200,seed=42".into(),
            },
            Request::FleetPlace {
                hosts: 8,
                streams: 64,
                policy: "adaptive".into(),
                seed: 42,
            },
            Request::FleetStats,
            Request::Atlas,
            Request::Stats,
            Request::Dump,
            Request::Ping,
            Request::Shutdown,
        ];
        for req in reqs {
            let line = encode(&req);
            assert!(
                !line.contains('\n'),
                "JSONL lines must be single-line: {line}"
            );
            assert_eq!(decode_request(&line).unwrap(), req);
        }
    }

    #[test]
    fn device_selector_round_trips_and_stays_off_the_wire_when_absent() {
        // Absent device never serializes — old clients and old servers see
        // exactly the pre-storage wire format.
        let req = Request::Classify {
            device: None,
            node: 2,
            target: 7,
            mode: WireMode::Write,
        };
        let line = encode(&req);
        assert!(!line.contains("device"), "{line}");
        // A storage selector round-trips verbatim.
        let req = Request::Predict {
            device: Some("ssd0:sync-buffered".into()),
            target: 7,
            mode: WireMode::Write,
            mix: vec![(6, 1)],
        };
        let line = encode(&req);
        assert!(line.contains(r#""device":"ssd0:sync-buffered""#), "{line}");
        assert_eq!(decode_request(&line).unwrap(), req);
    }

    #[test]
    fn sparse_requests_fill_paper_defaults() {
        let req = decode_request(r#"{"op":"predict","mix":[[0,1]]}"#).unwrap();
        assert_eq!(
            req,
            Request::Predict {
                device: None,
                target: 7,
                mode: WireMode::Write,
                mix: vec![(0, 1)]
            }
        );
        let req =
            decode_request(r#"{"op":"predict_batch","mixes":[[[0,1]],[[2,1],[3,2]]]}"#).unwrap();
        assert_eq!(
            req,
            Request::PredictBatch {
                device: None,
                target: 7,
                mode: WireMode::Write,
                mixes: vec![vec![(0, 1)], vec![(2, 1), (3, 2)]]
            }
        );
        let req = decode_request(r#"{"op":"classify","node":3}"#).unwrap();
        assert_eq!(
            req,
            Request::Classify {
                device: None,
                node: 3,
                target: 7,
                mode: WireMode::Write
            }
        );
        let req = decode_request(r#"{"op":"place"}"#).unwrap();
        assert_eq!(
            req,
            Request::Place {
                target: 7,
                tasks: 1,
                to_device: true
            }
        );
        let req = decode_request(r#"{"op":"fleet_place"}"#).unwrap();
        assert_eq!(
            req,
            Request::FleetPlace {
                hosts: 4,
                streams: 16,
                policy: "class-ranked".into(),
                seed: 0
            }
        );
    }

    #[test]
    fn unknown_ops_are_typed_errors() {
        let err = decode_request(r#"{"op":"mine_bitcoin"}"#).unwrap_err();
        assert!(matches!(err, ServeError::Protocol { .. }), "{err:?}");
        let err = decode_request("not json").unwrap_err();
        assert!(matches!(err, ServeError::Protocol { .. }));
    }

    #[test]
    fn responses_round_trip() {
        let resp = Response::Classify {
            node: 2,
            class: 2,
            classes: 3,
            class_nodes: vec![2, 3],
            avg_gbps: 9.7,
        };
        let line = encode(&resp);
        assert_eq!(decode_response(&line).unwrap(), resp);
        let err = Response::Error {
            message: "bad request: empty mix".into(),
        };
        assert_eq!(decode_response(&encode(&err)).unwrap(), err);
    }

    #[test]
    fn replies_from_servers_that_sent_cached_still_decode() {
        let line =
            r#"{"reply":"predict","predicted_gbps":33.4,"target":7,"mode":"write","cached":true}"#;
        assert_eq!(
            decode_response(line).unwrap(),
            Response::Predict {
                predicted_gbps: 33.4,
                target: 7,
                mode: WireMode::Write,
            }
        );
    }

    #[test]
    fn simulate_round_trips_both_ways() {
        let req = decode_request(r#"{"op":"simulate","workload":"batch:n=4"}"#).unwrap();
        assert_eq!(
            req,
            Request::Simulate {
                workload: "batch:n=4".into()
            }
        );
        let resp = Response::Simulate {
            flows: 100,
            makespan_s: 2.5,
            aggregate_gbps: 40.0,
            fct_p50_s: 0.02,
            fct_p99_s: 0.4,
            mean_slowdown: 1.7,
            fct_digest: "cbf29ce484222325".into(),
        };
        assert_eq!(decode_response(&encode(&resp)).unwrap(), resp);
    }

    #[test]
    fn op_labels_are_stable() {
        assert_eq!(Request::Atlas.op(), "atlas");
        assert_eq!(Request::Dump.op(), "dump");
        assert_eq!(Request::FleetStats.op(), "fleet_stats");
        assert_eq!(
            Request::FleetPlace {
                hosts: 4,
                streams: 16,
                policy: "class-ranked".into(),
                seed: 0
            }
            .op(),
            "fleet_place"
        );
        assert_eq!(
            Request::Simulate {
                workload: "batch:n=1".into()
            }
            .op(),
            "simulate"
        );
        assert_eq!(
            Request::PredictBatch {
                device: None,
                target: 7,
                mode: WireMode::Write,
                mixes: vec![]
            }
            .op(),
            "predict_batch"
        );
        assert_eq!(
            Request::SetFaults {
                plan: FaultPlan::demo(1)
            }
            .op(),
            "set_faults"
        );
    }

    #[test]
    fn stats_and_dump_round_trip() {
        let stats = Response::Stats {
            requests: 9,
            invalid: 1,
            errors: 2,
            hits: 4,
            misses: 2,
            invalidations: 0,
            entries: 2,
            series: 12,
            backend: "sim:dl585-g7".into(),
            active_faults: 0,
            latency: LatencySummary {
                count: 9,
                mean_s: 0.001,
                p50_s: 0.0005,
                p90_s: 0.002,
                p99_s: 0.004,
            },
            shards: vec![HostShardStats {
                host: 0,
                hits: 4,
                misses: 2,
                invalidations: 0,
            }],
        };
        assert_eq!(decode_response(&encode(&stats)).unwrap(), stats);
        let dump = Response::Dump {
            reason: Some("error reply to request 7 (predict)".into()),
            events: vec![r#"{"t":7,"ev":"req","op":"predict"}"#.into()],
        };
        assert_eq!(decode_response(&encode(&dump)).unwrap(), dump);
    }

    #[test]
    fn old_stats_replies_still_decode() {
        // A pre-latency server's stats reply (no invalid/errors/series/
        // latency fields) must stay readable by new clients.
        let line = r#"{"reply":"stats","requests":3,"hits":1,"misses":1,"invalidations":0,"entries":1,"backend":"sim:dl585-g7","active_faults":0}"#;
        let resp = decode_response(line).unwrap();
        let Response::Stats {
            requests,
            latency,
            series,
            shards,
            ..
        } = resp
        else {
            panic!("unexpected reply: {resp:?}");
        };
        assert_eq!(requests, 3);
        assert_eq!(series, 0);
        assert_eq!(latency, LatencySummary::default());
        assert!(shards.is_empty(), "pre-shard replies decode to no shards");
    }

    #[test]
    fn fleet_replies_round_trip() {
        let place = Response::FleetPlace {
            policy: "bandwidth-aware".into(),
            hosts: 8,
            streams: 64,
            aggregate_gbps: 120.5,
            jain_fairness: 0.93,
            p99_slowdown: 2.4,
            fct_digest: "cbf29ce484222325".into(),
        };
        assert_eq!(decode_response(&encode(&place)).unwrap(), place);
        let stats = Response::FleetStats {
            shards: vec![
                HostShardStats {
                    host: 1,
                    hits: 3,
                    misses: 1,
                    invalidations: 0,
                },
                HostShardStats {
                    host: 2,
                    hits: 0,
                    misses: 1,
                    invalidations: 1,
                },
            ],
        };
        assert_eq!(decode_response(&encode(&stats)).unwrap(), stats);
    }
}
