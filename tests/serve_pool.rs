//! Workspace-level worker-pool serving semantics: connections past the
//! pool's capacity get typed overload replies with exact counter
//! accounting, hung-up connections free their slots for reuse, pipelined
//! bursts answer in request order, `predict_batch` is bit-identical to
//! sequential predicts over the wire, a seeded multi-client mix against
//! a warmed pool is error-free and answers exactly as in process, and the
//! OS thread count stays bounded by the pool — never by the client count.

use numa_par::rng::SplitMix64;
use numio::core::{IoModeler, SimPlatform};
use numio::obs::Obs;
use numio::serve::{spawn_with, Client, ModelService, Request, Response, ServeConfig, WireMode};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Held by the test that counts this process's OS threads and by the one
/// that runs 16 client threads, so the second never inflates the first.
static THREAD_COUNT: Mutex<()> = Mutex::new(());

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

#[test]
fn overflowing_simulate_gets_an_error_reply_and_the_connection_lives() {
    let svc = service(3);
    let server = spawn_with(Arc::clone(&svc), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(&server.addr().to_string()).unwrap();
    let reply = client.call(&Request::Simulate {
        workload: "poisson:n=3,rate=1e-320".into(),
    });
    match reply {
        Ok(Response::Error { message }) => assert!(message.contains("non-finite"), "{message}"),
        other => panic!("{other:?}"),
    }
    assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);
    server.shutdown();
}

/// One predict mix: 1-3 distinct nodes of 8, each with 1-4 streams.
fn seeded_mix(rng: &mut SplitMix64) -> Vec<(u16, u32)> {
    let mut mix: Vec<(u16, u32)> = (0..1 + rng.below(3))
        .map(|_| (rng.below(8) as u16, 1 + rng.below(4) as u32))
        .collect();
    mix.sort();
    mix.dedup_by_key(|e| e.0);
    mix
}

/// One client's seeded requests: write and read `predict`s, `predict_batch`
/// bursts of 8 mixes, `classify` and `stats`, all against target 7, so the
/// warmed write and read models answer every one of them.
fn seeded_requests(seed: u64, n: usize) -> Vec<Request> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let roll = rng.below(100);
            let mode = if roll.is_multiple_of(2) {
                WireMode::Write
            } else {
                WireMode::Read
            };
            match roll {
                0..=74 => Request::Predict {
                    device: None,
                    target: 7,
                    mode,
                    mix: seeded_mix(&mut rng),
                },
                75..=84 => Request::PredictBatch {
                    device: None,
                    target: 7,
                    mode,
                    mixes: (0..8).map(|_| seeded_mix(&mut rng)).collect(),
                },
                85..=94 => Request::Classify {
                    device: None,
                    node: rng.below(8) as u16,
                    target: 7,
                    mode: WireMode::Write,
                },
                _ => Request::Stats,
            }
        })
        .collect()
}

#[test]
fn seeded_client_mix_over_a_warm_pool_is_clean_and_answers_as_in_process() {
    const CLIENTS: u64 = 16;
    const REQUESTS: usize = 32;
    let _threads = THREAD_COUNT.lock().unwrap_or_else(|e| e.into_inner());
    let svc = service(3);
    for mode in [WireMode::Write, WireMode::Read] {
        svc.handle(&Request::Predict {
            device: None,
            target: 7,
            mode,
            mix: vec![(0, 1)],
        });
    }
    let server = spawn_with(
        Arc::clone(&svc),
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr().to_string();
    let mixes: Vec<Vec<Request>> = (0..CLIENTS)
        .map(|c| seeded_requests(42 + c, REQUESTS))
        .collect();
    assert_eq!(
        mixes,
        (0..CLIENTS)
            .map(|c| seeded_requests(42 + c, REQUESTS))
            .collect::<Vec<_>>()
    );

    let replies: Vec<Vec<Response>> = std::thread::scope(|scope| {
        let threads: Vec<_> = mixes
            .iter()
            .map(|reqs| {
                let addr = &addr;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    reqs.iter()
                        .map(|r| client.call(r).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    server.shutdown();

    let errors: Vec<&Response> = replies
        .iter()
        .flatten()
        .filter(|r| matches!(r, Response::Error { .. }))
        .collect();
    assert!(errors.is_empty(), "error replies: {errors:?}");
    assert_eq!(
        svc.cache().stats().misses,
        2,
        "only the two warm-up characterizations miss"
    );
    // Every non-`stats` reply equals the same request answered in process;
    // Debug prints floats shortest round-trip, so equal text is equal bits.
    for (reqs, answers) in mixes.iter().zip(&replies) {
        assert_eq!(answers.len(), REQUESTS);
        for (req, reply) in reqs.iter().zip(answers) {
            if *req != Request::Stats {
                assert_eq!(
                    format!("{reply:?}"),
                    format!("{:?}", svc.handle(req)),
                    "{req:?}"
                );
            }
        }
    }
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
    let _threads = THREAD_COUNT.lock().unwrap_or_else(|e| e.into_inner());
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
