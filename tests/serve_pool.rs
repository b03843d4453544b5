//! Workspace-level worker-pool serving semantics: connections past the
//! pool's capacity get typed overload replies with exact counter
//! accounting, hung-up connections free their slots for reuse, pipelined
//! bursts answer in request order, `predict_batch` is bit-identical to
//! sequential predicts over the wire, and the OS thread count stays
//! bounded by the pool — never by the client count.

use numio::core::{IoModeler, SimPlatform};
use numio::obs::Obs;
use numio::serve::{spawn_with, Client, ModelService, Request, Response, ServeConfig, WireMode};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn service(reps: u32) -> Arc<ModelService<SimPlatform>> {
    Arc::new(ModelService::new(SimPlatform::dl585()).with_modeler(IoModeler::new().reps(reps)))
}

/// Connect and ping until the pool frees a slot (workers sweep hangups
/// asynchronously) or the deadline passes.
fn connect_when_free(addr: &str, deadline: Duration) -> Option<Client> {
    let t0 = Instant::now();
    while t0.elapsed() < deadline {
        if let Ok(mut c) = Client::connect(addr) {
            if let Ok(Response::Pong) = c.call(&Request::Ping) {
                return Some(c);
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    None
}

#[test]
fn full_queues_get_typed_overload_replies_with_exact_accounting() {
    let obs = Obs::new();
    let svc = Arc::new(
        ModelService::new(SimPlatform::dl585())
            .with_modeler(IoModeler::new().reps(3))
            .with_obs(&obs),
    );
    let server = spawn_with(
        Arc::clone(&svc),
        "127.0.0.1:0",
        ServeConfig {
            max_connections: 0,
            workers: 1,
            queue_depth: 2,
        },
    )
    .unwrap();
    let addr = server.addr().to_string();

    // Fill the pool's only worker: capacity = 1 worker x depth 2. The
    // accept loop registers synchronously, so after the second ping both
    // slots are deterministically taken.
    let mut held: Vec<Client> = (0..2)
        .map(|_| {
            let mut c = Client::connect(&addr).unwrap();
            assert_eq!(c.call(&Request::Ping).unwrap(), Response::Pong);
            c
        })
        .collect();

    // Every connection past capacity gets one typed overload reply, then
    // the server closes it — no panic, no hang, no thread.
    for i in 0..4 {
        let mut c = Client::connect(&addr).unwrap();
        // Read the refusal without sending anything: the reply is pushed
        // at accept time.
        match c.recv() {
            Ok(Response::Error { message }) => {
                assert!(message.contains("overloaded"), "refusal {i}: {message}");
                assert!(message.contains("limit 2"), "refusal {i}: {message}");
            }
            other => panic!("refusal {i}: expected a typed overload reply, got {other:?}"),
        }
    }

    // Exact accounting: 2 pings + 4 overloads, and each shows up under
    // its own op label.
    assert_eq!(svc.requests(), 6);
    assert_eq!(svc.error_replies(), 4);
    assert_eq!(
        obs.counter(
            "numio_serve_requests_total",
            &[("op", "overload"), ("backend", "sim")]
        )
        .get(),
        4
    );
    assert_eq!(
        obs.counter(
            "numio_serve_requests_total",
            &[("op", "ping"), ("backend", "sim")]
        )
        .get(),
        2
    );

    // A hangup frees its slot: drop one held client (the other stays
    // live) and the pool accepts again once the worker sweeps the dead
    // connection.
    drop(held.pop());
    let c = connect_when_free(&addr, Duration::from_secs(10));
    assert!(c.is_some(), "the freed slot never became reusable");
    drop(held);
    server.shutdown();
}

#[test]
fn connection_slots_free_on_hangup_and_are_reusable() {
    let svc = service(3);
    let server = spawn_with(
        Arc::clone(&svc),
        "127.0.0.1:0",
        ServeConfig {
            max_connections: 1,
            workers: 1,
            queue_depth: 0,
        },
    )
    .unwrap();
    let addr = server.addr().to_string();
    // max_connections counts *live* connections: each round must get its
    // slot back after the previous client hangs up.
    for round in 0..3 {
        let c = connect_when_free(&addr, Duration::from_secs(10))
            .unwrap_or_else(|| panic!("round {round}: the freed slot never became reusable"));
        drop(c);
    }
    server.shutdown();
}

#[test]
fn pipelined_bursts_answer_in_request_order() {
    let svc = service(3);
    // Warm (target 7, write) so every wire answer is a cache hit and the
    // expected values can be computed locally first.
    svc.handle(&Request::Predict {
        device: None,
        target: 7,
        mode: WireMode::Write,
        mix: vec![(0, 1)],
    });
    let reqs: Vec<Request> = (0..24)
        .map(|i| Request::Predict {
            device: None,
            target: 7,
            mode: WireMode::Write,
            mix: vec![
                ((i % 8) as u16, 1 + (i % 3) as u32),
                (((i + 5) % 8) as u16, 1 + (i % 4) as u32),
            ],
        })
        .collect();
    let expected: Vec<f64> = reqs
        .iter()
        .map(|r| match svc.handle(r) {
            Response::Predict { predicted_gbps, .. } => predicted_gbps,
            other => panic!("local predict failed: {other:?}"),
        })
        .collect();

    let server = spawn_with(
        Arc::clone(&svc),
        "127.0.0.1:0",
        ServeConfig {
            max_connections: 0,
            workers: 2,
            queue_depth: 4,
        },
    )
    .unwrap();
    let mut client = Client::connect(&server.addr().to_string()).unwrap();
    // One burst: every request is on the wire before any reply is read.
    let before = svc.cache().stats();
    let replies = client.call_batch(&reqs).unwrap();
    let after = svc.cache().stats();
    assert_eq!(
        (after.hits - before.hits, after.misses - before.misses),
        (reqs.len() as u64, 0),
        "every request must hit the warmed view"
    );
    assert_eq!(replies.len(), reqs.len());
    for (i, (reply, want)) in replies.iter().zip(&expected).enumerate() {
        match reply {
            Response::Predict { predicted_gbps, .. } => {
                assert_eq!(
                    predicted_gbps.to_bits(),
                    want.to_bits(),
                    "request {i} answered out of order ({predicted_gbps} != {want})"
                );
            }
            other => panic!("request {i}: {other:?}"),
        }
    }
    server.shutdown();
}

#[test]
fn wire_batch_predict_is_bit_identical_to_sequential_predicts() {
    let svc = service(3);
    let server = spawn_with(Arc::clone(&svc), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(&server.addr().to_string()).unwrap();
    let mixes: Vec<Vec<(u16, u32)>> = (0..64)
        .map(|i| {
            vec![
                ((i % 8) as u16, 1 + (i % 4) as u32),
                (((i + 5) % 8) as u16, 1 + ((i / 2) % 3) as u32),
            ]
        })
        .collect();
    let batched = client
        .predict_batch(7, WireMode::Write, &mixes)
        .expect("one predict_batch round trip");
    assert_eq!(batched.len(), mixes.len());
    for (i, mix) in mixes.iter().enumerate() {
        match client
            .call(&Request::Predict {
                device: None,
                target: 7,
                mode: WireMode::Write,
                mix: mix.clone(),
            })
            .unwrap()
        {
            Response::Predict { predicted_gbps, .. } => assert_eq!(
                predicted_gbps.to_bits(),
                batched[i].to_bits(),
                "mix {i}: batch {} != sequential {predicted_gbps}",
                batched[i]
            ),
            other => panic!("mix {i}: {other:?}"),
        }
    }
    // A bad mix inside the batch names its index in the typed error.
    let err = client
        .predict_batch(7, WireMode::Write, &[vec![(0, 1)], vec![]])
        .unwrap_err();
    assert!(err.to_string().contains("mix 1"), "{err}");
    server.shutdown();
}

#[cfg(target_os = "linux")]
#[test]
fn os_thread_count_is_bounded_by_the_pool_not_the_clients() {
    fn threads_now() -> usize {
        std::fs::read_to_string("/proc/self/status")
            .unwrap()
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .and_then(|v| v.trim().parse().ok())
            .expect("Threads: line in /proc/self/status")
    }
    let svc = service(3);
    // Warm so the 32 pings below never characterize.
    svc.handle(&Request::Predict {
        device: None,
        target: 7,
        mode: WireMode::Write,
        mix: vec![(0, 1)],
    });
    let before = threads_now();
    let server = spawn_with(
        Arc::clone(&svc),
        "127.0.0.1:0",
        ServeConfig {
            max_connections: 0,
            workers: 2,
            queue_depth: 16,
        },
    )
    .unwrap();
    let addr = server.addr().to_string();
    let mut held = Vec::new();
    for _ in 0..32 {
        let mut c = Client::connect(&addr).unwrap();
        assert_eq!(c.call(&Request::Ping).unwrap(), Response::Pong);
        held.push(c);
    }
    let with_conns = threads_now();
    // 32 live connections on a 2-worker pool add at most the accept
    // thread + 2 workers; the slack covers unrelated test threads. A
    // thread-per-connection server would add at least 32.
    assert!(
        with_conns.saturating_sub(before) <= 8,
        "thread count grew from {before} to {with_conns} with 32 connections on a 2-worker pool"
    );
    drop(held);
    server.shutdown();
}
