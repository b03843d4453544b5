//! `iomodel serve` / `iomodel client` — the long-running prediction
//! service over any measurement backend, plus its scripted smoke client.

use crate::backend;
use crate::opts::Opts;
use numa_par::rng::SplitMix64;
use numa_serve::{Client, ModelService, Request, Response};
use numio_core::IoModeler;
use std::fmt::Write as _;
use std::sync::Arc;

/// Default service port (no registered meaning; stays out of the
/// well-known range).
const DEFAULT_ADDR: &str = "127.0.0.1:7171";

/// `iomodel serve --backend <spec> --addr <host:port>`: bind, announce,
/// and block until a wire-side `{"op":"shutdown"}` stops the server.
///
/// `--reps N` sets the characterization probe count (default 100, the
/// same plan `iomodel record` captures, so replay fixtures line up);
/// `--drift-threshold F` tunes cache eviction; `--port-file <path>`
/// writes the actually-bound address (useful with `--addr host:0`);
/// `--flight-recorder-size N` bounds the post-mortem event ring dumped
/// by the `dump` op; `--max-connections N` refuses connections over the
/// limit with a typed overload reply (0 = unlimited, the default);
/// `--workers N` sizes the worker pool multiplexing connections (0 =
/// `min(cores, 8)`, the default) and `--queue-depth N` caps the
/// registered connections per worker (0 = 128, the default) — past
/// `workers x queue-depth` live connections the server answers with the
/// same typed overload reply instead of growing threads.
pub(crate) fn cmd_serve(opts: &Opts, obs: &numa_obs::Obs) -> Result<String, String> {
    let addr = opts.get("addr").unwrap_or(DEFAULT_ADDR).to_string();
    let reps: u32 = opts.num("reps", 100)?;
    let threshold: f64 = opts.num("drift-threshold", numa_serve::DEFAULT_DRIFT_THRESHOLD)?;
    let flight: usize = opts.num("flight-recorder-size", numa_obs::DEFAULT_FLIGHT_CAPACITY)?;
    let max_connections: usize = opts.num("max-connections", 0)?;
    let workers: usize = opts.num("workers", 0)?;
    let queue_depth: usize = opts.num("queue-depth", 0)?;
    let platform = backend::platform_for(opts)?;
    let label = numio_core::Platform::label(&platform);
    let service = Arc::new(
        ModelService::new(platform)
            .with_modeler(IoModeler::new().reps(reps))
            .with_drift_threshold(threshold)
            .with_flight_capacity(flight)
            .with_obs(obs),
    );
    let server = numa_serve::spawn_with(
        service,
        &addr,
        numa_serve::ServeConfig {
            max_connections,
            workers,
            queue_depth,
        },
    )
    .map_err(|e| format!("serve: {e}"))?;
    let bound = server.addr();
    let pool = server.workers();
    if let Some(path) = opts.get("port-file") {
        std::fs::write(path, bound.to_string()).map_err(|e| format!("--port-file {path}: {e}"))?;
    }
    // Announce before blocking so a foreground user sees liveness; the
    // final summary only prints after shutdown.
    println!("iomodel serve: listening on {bound} (backend {label}, reps {reps}, {pool} workers)");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.join();
    Ok(format!("iomodel serve: {bound} shut down"))
}

/// `iomodel client --addr <host:port>`: scripted smoke requests.
///
/// Default script pings and prints stats. `--check` gates the answers:
/// a Table-IV-consistent `classify` (node 2 in the starved class {2,3}
/// of 3), a repeated `predict` answered bit-identically with the second
/// reply a cache hit, and a hit count ≥ 1 in `stats`. `--stats` renders
/// a one-shot health view (requests, errors, cache counters, latency
/// percentiles); `--dump` prints the server's flight-recorder events
/// (or the frozen incident snapshot); `--batch N` sends one
/// `predict_batch` of N deterministic mixes and gates it bit-exactly
/// against the same N mixes as sequential predicts. `--shutdown` stops
/// the server afterwards.
pub(crate) fn cmd_client(opts: &Opts) -> Result<String, String> {
    let addr = opts.get("addr").unwrap_or(DEFAULT_ADDR);
    let batch: usize = opts.num("batch", 0)?;
    let mut client = connect_with_retry(addr)?;
    let mut out = String::new();
    if opts.flag("check") {
        run_check(&mut client, &mut out)?;
    } else if batch > 0 {
        run_batch(&mut client, batch, &mut out)?;
    } else if opts.flag("stats") || opts.flag("dump") {
        if opts.flag("stats") {
            render_health(&mut client, &mut out)?;
        }
        if opts.flag("dump") {
            render_dump(&mut client, &mut out)?;
        }
    } else {
        let pong = client.call(&Request::Ping).map_err(|e| e.to_string())?;
        let _ = writeln!(out, "ping -> {pong:?}");
        let stats = client.call(&Request::Stats).map_err(|e| e.to_string())?;
        let _ = writeln!(out, "stats -> {stats:?}");
    }
    if opts.flag("shutdown") {
        match client.call(&Request::Shutdown).map_err(|e| e.to_string())? {
            Response::ShuttingDown => {
                let _ = writeln!(out, "server shutting down");
            }
            other => return Err(format!("shutdown refused: {other:?}")),
        }
    }
    Ok(out)
}

/// One-shot health view from a single `stats` round trip — no Prometheus
/// scrape needed.
fn render_health(client: &mut Client, out: &mut String) -> Result<(), String> {
    let resp = client.call(&Request::Stats).map_err(|e| e.to_string())?;
    let Response::Stats {
        requests,
        invalid,
        errors,
        hits,
        misses,
        invalidations,
        entries,
        series,
        backend,
        active_faults,
        latency,
        shards,
    } = resp
    else {
        return Err(format!("stats failed: {resp:?}"));
    };
    let _ = writeln!(out, "backend          {backend}");
    let _ = writeln!(
        out,
        "requests         {requests} ({invalid} invalid, {errors} errors)"
    );
    let _ = writeln!(
        out,
        "cache            {hits} hits / {misses} misses / {invalidations} invalidations, \
         {entries} views cached"
    );
    let _ = writeln!(out, "metric series    {series}");
    let _ = writeln!(out, "active faults    {active_faults}");
    let _ = writeln!(
        out,
        "latency          n={} mean {:.1} us, p50 {:.1} us, p90 {:.1} us, p99 {:.1} us",
        latency.count,
        latency.mean_s * 1e6,
        latency.p50_s * 1e6,
        latency.p90_s * 1e6,
        latency.p99_s * 1e6,
    );
    // Per-host cache shards: shard 0 is the server's own backend, shard
    // i+1 is generated fleet host i (populated by `fleet_place`). Old
    // servers send no shard block; print nothing rather than zeros.
    for s in &shards {
        let who = if s.host == 0 {
            "local".to_string()
        } else {
            format!("host {:02}", s.host - 1)
        };
        let _ = writeln!(
            out,
            "cache shard {who:<8} {} hits / {} misses / {} invalidations",
            s.hits, s.misses, s.invalidations
        );
    }
    Ok(())
}

/// Print the server's flight-recorder events (incident snapshot first
/// when one is frozen).
fn render_dump(client: &mut Client, out: &mut String) -> Result<(), String> {
    let resp = client.call(&Request::Dump).map_err(|e| e.to_string())?;
    let Response::Dump { reason, events } = resp else {
        return Err(format!("dump failed: {resp:?}"));
    };
    match &reason {
        Some(r) => {
            let _ = writeln!(out, "incident: {r} ({} events at capture)", events.len());
        }
        None => {
            let _ = writeln!(
                out,
                "flight recorder: {} recent events (no incident)",
                events.len()
            );
        }
    }
    for line in &events {
        let _ = writeln!(out, "{line}");
    }
    Ok(())
}

/// The served answers change with the backend's machine, but the CI smoke
/// runs against the DL585 fixture — so the gate checks the paper's
/// Table IV partition exactly.
fn run_check(client: &mut Client, out: &mut String) -> Result<(), String> {
    // 1. Table-IV-consistent classify: node 2 sits in the starved class
    //    {2,3}, the third of three write classes.
    let classify = Request::Classify {
        device: None,
        node: 2,
        target: 7,
        mode: numa_serve::WireMode::Write,
    };
    match client.call(&classify).map_err(|e| e.to_string())? {
        Response::Classify {
            class,
            classes,
            class_nodes,
            ..
        } => {
            if classes != 3 || class != 2 || class_nodes != vec![2, 3] {
                return Err(format!(
                    "classify drifted from Table IV: class {class} of {classes}, \
                     nodes {class_nodes:?} (want class 2 of 3, nodes [2, 3])"
                ));
            }
            let _ = writeln!(out, "classify OK: node 2 in class 3/3 {{2,3}} (Table IV)");
        }
        other => return Err(format!("classify failed: {other:?}")),
    }
    // 2. Repeated predict: bit-identical lines, and the `stats` counters
    //    move by exactly one hit and no miss across the second request.
    let predict = numa_serve::encode(&Request::Predict {
        device: None,
        target: 7,
        mode: numa_serve::WireMode::Write,
        mix: vec![(6, 1), (2, 1)],
    });
    let first = client.call_raw(&predict).map_err(|e| e.to_string())?;
    let (hits0, misses0) = hit_counts(client)?;
    let second = client.call_raw(&predict).map_err(|e| e.to_string())?;
    let (hits, misses) = hit_counts(client)?;
    if first != second {
        return Err(format!(
            "repeated predict not bit-identical:\n  {first}\n  {second}"
        ));
    }
    let Response::Predict { predicted_gbps, .. } =
        numa_serve::decode_response(&second).map_err(|e| e.to_string())?
    else {
        return Err(format!("predict failed: {second}"));
    };
    if (hits - hits0, misses - misses0) != (1, 0) {
        return Err(format!(
            "second predict was not a cache hit: stats moved from \
             {hits0} hits / {misses0} misses to {hits} / {misses}"
        ));
    }
    let _ = writeln!(
        out,
        "predict OK: {predicted_gbps:.3} Gbit/s, bit-identical, second request a cache hit"
    );
    let _ = writeln!(out, "stats OK: {hits} hits / {misses} misses");
    let _ = writeln!(out, "serve check OK");
    Ok(())
}

/// The server's `(hits, misses)` cache counters, from a `stats` request.
fn hit_counts(client: &mut Client) -> Result<(u64, u64), String> {
    match client.call(&Request::Stats).map_err(|e| e.to_string())? {
        Response::Stats { hits, misses, .. } => Ok((hits, misses)),
        other => Err(format!("stats failed: {other:?}")),
    }
}

/// `--batch N`: one `predict_batch` of N deterministic mixes answered in
/// a single round trip, gated bit-exactly against the same N mixes as
/// sequential `predict`s — the wire-level proof that batching changes
/// throughput, never answers.
fn run_batch(client: &mut Client, n: usize, out: &mut String) -> Result<(), String> {
    let mut rng = SplitMix64::new(0x00c0_ffee);
    let mixes: Vec<Vec<(u16, u32)>> = (0..n)
        .map(|_| {
            let mut mix: Vec<(u16, u32)> = (0..1 + rng.below(3))
                .map(|_| (rng.below(8) as u16, 1 + rng.below(4) as u32))
                .collect();
            mix.sort();
            mix.dedup_by_key(|e| e.0);
            mix
        })
        .collect();
    let mode = numa_serve::WireMode::Write;
    let batched = client
        .predict_batch(7, mode, &mixes)
        .map_err(|e| e.to_string())?;
    if batched.len() != n {
        return Err(format!(
            "predict_batch answered {} mixes, sent {n}",
            batched.len()
        ));
    }
    for (i, mix) in mixes.iter().enumerate() {
        let req = Request::Predict {
            device: None,
            target: 7,
            mode,
            mix: mix.clone(),
        };
        match client.call(&req).map_err(|e| e.to_string())? {
            Response::Predict { predicted_gbps, .. } => {
                if predicted_gbps.to_bits() != batched[i].to_bits() {
                    return Err(format!(
                        "mix {i}: batch said {} Gbit/s, sequential said {} — must be bit-identical",
                        batched[i], predicted_gbps
                    ));
                }
            }
            other => return Err(format!("sequential predict {i} failed: {other:?}")),
        }
    }
    let _ = writeln!(
        out,
        "predict_batch OK: {n} mixes in one round trip, bit-identical to sequential predicts"
    );
    Ok(())
}

/// The server may still be binding when a scripted client starts (CI
/// backgrounds `iomodel serve`); retry briefly before giving up.
fn connect_with_retry(addr: &str) -> Result<Client, String> {
    let mut last = String::new();
    for _ in 0..25 {
        match Client::connect(addr) {
            Ok(c) => return Ok(c),
            Err(e) => last = e.to_string(),
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
    Err(format!("client: cannot connect to {addr}: {last}"))
}
