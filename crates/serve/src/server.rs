//! Sharded worker-pool TCP server speaking the JSONL protocol.
//!
//! The accept loop runs on its own thread and *distributes* connections
//! across a fixed pool of workers instead of spawning a thread per
//! connection: each worker owns a bounded run queue of registered
//! connections and multiplexes them with nonblocking reads, so 1k
//! concurrent clients cost the same OS-thread count as 1 (the accept
//! thread plus [`ServeConfig::workers`] workers). A connection that finds
//! every queue full — or pushes past `max_connections` live connections —
//! gets one typed [`ServeError::Overloaded`] reply and is closed:
//! backpressure, never unbounded thread growth.
//!
//! Within a connection the protocol is pipelined: a client may write many
//! request lines before reading; the worker parses every complete line in
//! its per-connection read buffer and appends the replies, in request
//! order, to the connection's write buffer. Framing is allocation-free on
//! the hot path — lines are decoded straight from the read buffer slice
//! and replies serialize into the reusable write buffer, no intermediate
//! `String` in either direction.
//!
//! A `{"op":"shutdown"}` request (or [`ServerHandle::shutdown`]) stops the
//! accept loop and the workers; pending replies are flushed best-effort
//! before connections close.

use crate::error::ServeError;
use crate::service::{write_response, ModelService};
use numio_core::Platform;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Cap on the default worker count (`min(available cores, this)`).
const MAX_DEFAULT_WORKERS: usize = 8;

/// Per-worker run-queue depth when `queue_depth` is left at 0.
const DEFAULT_QUEUE_DEPTH: usize = 128;

/// How many bytes one nonblocking read pulls at most.
const READ_CHUNK: usize = 16 * 1024;

/// A request line longer than this is unreadable (the connection closes):
/// compact-JSON requests are tiny, so an unbounded line is a broken or
/// hostile peer, not a big request.
const MAX_LINE: usize = 1 << 20;

/// Idle sweeps a worker spends yielding before it starts sleeping.
const SPIN_SWEEPS: u32 = 16;

/// Server-side knobs beyond the service itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeConfig {
    /// Maximum concurrently **live** connections; `0` means unlimited.
    /// Connections over the limit get one `error` reply (carrying
    /// [`ServeError::Overloaded`]) and are closed; a disconnect frees its
    /// slot, so the limit is reusable.
    pub max_connections: usize,
    /// Worker threads multiplexing connections; `0` (the default) resolves
    /// to `min(available cores, 8)`.
    pub workers: usize,
    /// Registered connections each worker accepts before refusing more;
    /// `0` (the default) resolves to 128.
    pub queue_depth: usize,
}

impl ServeConfig {
    /// The worker count `0` resolves to.
    pub fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(MAX_DEFAULT_WORKERS)
    }

    /// The per-worker queue depth `0` resolves to.
    pub fn resolved_queue_depth(&self) -> usize {
        if self.queue_depth > 0 {
            self.queue_depth
        } else {
            DEFAULT_QUEUE_DEPTH
        }
    }
}

/// A running server: its bound address plus shutdown/join control.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    workers: usize,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actually-bound address (resolves `:0` to the chosen port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The resolved worker-pool size.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Has a shutdown been requested (locally or over the wire)?
    pub fn is_stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Stop accepting connections and wait for the accept loop (and its
    /// worker pool) to exit.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        poke(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Block until a wire-side `shutdown` request stops the server.
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Unblock a listener stuck in `accept` by connecting to it once.
fn poke(addr: SocketAddr) {
    let _ = TcpStream::connect(addr);
}

/// Bind `addr` and serve `service` until shut down, with default
/// [`ServeConfig`]. Returns immediately with a [`ServerHandle`]; use
/// [`ServerHandle::join`] to block.
pub fn spawn<P>(service: Arc<ModelService<P>>, addr: &str) -> Result<ServerHandle, ServeError>
where
    P: Platform + Send + Sync + 'static,
{
    spawn_with(service, addr, ServeConfig::default())
}

/// One worker's shared half: the handoff queue the accept loop pushes
/// registered connections into, plus the registered-connection count that
/// bounds it (incremented by the accept loop, decremented by the worker on
/// hangup — so the bound tracks *live* connections, not started threads).
struct WorkerShared {
    inbox: Mutex<VecDeque<Conn>>,
    registered: AtomicUsize,
    connections_gauge: numa_obs::Gauge,
}

impl WorkerShared {
    /// Reserve a queue slot if the worker is under `depth`.
    fn try_register(&self, depth: usize) -> bool {
        self.registered
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                (v < depth).then_some(v + 1)
            })
            .is_ok()
    }
}

/// [`spawn`] with explicit server knobs.
pub fn spawn_with<P>(
    service: Arc<ModelService<P>>,
    addr: &str,
    config: ServeConfig,
) -> Result<ServerHandle, ServeError>
where
    P: Platform + Send + Sync + 'static,
{
    let sock_addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| ServeError::Io {
            reason: format!("address '{addr}' resolves to nothing"),
        })?;
    let listener = TcpListener::bind(sock_addr)?;
    let bound = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let num_workers = config.resolved_workers();
    let depth = config.resolved_queue_depth();

    let obs = service.obs();
    obs.gauge("numio_serve_workers", &[])
        .set(num_workers as f64);
    obs.gauge("numio_serve_queue_depth", &[]).set(depth as f64);

    // Spawn the pool up front; the accept thread owns the handles so
    // shutdown/join is a single join on the accept thread.
    let mut shards: Vec<Arc<WorkerShared>> = Vec::with_capacity(num_workers);
    let mut threads: Vec<JoinHandle<()>> = Vec::with_capacity(num_workers);
    for w in 0..num_workers {
        let label = w.to_string();
        let shared = Arc::new(WorkerShared {
            inbox: Mutex::new(VecDeque::new()),
            registered: AtomicUsize::new(0),
            connections_gauge: obs.gauge("numio_serve_worker_connections", &[("worker", &label)]),
        });
        shared.connections_gauge.set(0.0);
        let svc = Arc::clone(&service);
        let worker_shared = Arc::clone(&shared);
        let worker_stop = Arc::clone(&stop);
        threads.push(std::thread::spawn(move || {
            worker_loop(&svc, &worker_shared, &worker_stop, bound);
        }));
        shards.push(shared);
    }

    let accept_stop = Arc::clone(&stop);
    let accept_thread = std::thread::spawn(move || {
        let mut next_conn: u64 = 0;
        let mut scratch = Vec::new();
        for stream in listener.incoming() {
            if accept_stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            next_conn += 1;
            let conn = next_conn;
            let limit = config.max_connections;
            let live: usize = shards
                .iter()
                .map(|s| s.registered.load(Ordering::SeqCst))
                .sum();
            if limit > 0 && live >= limit {
                refuse(&service, stream, conn, limit, &mut scratch);
                continue;
            }
            // Shard by connection id, scanning forward past full queues.
            let start = (conn as usize) % num_workers;
            let slot = (0..num_workers)
                .map(|i| (start + i) % num_workers)
                .find(|&w| shards[w].try_register(depth));
            let Some(w) = slot else {
                // Every queue is full: total capacity is the honest limit.
                refuse(&service, stream, conn, num_workers * depth, &mut scratch);
                continue;
            };
            let shared = &shards[w];
            shared
                .connections_gauge
                .set(shared.registered.load(Ordering::SeqCst) as f64);
            if stream.set_nonblocking(true).is_err() {
                shared.registered.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            shared
                .inbox
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push_back(Conn::new(stream, conn));
            threads[w].thread().unpark();
        }
        // Drain the pool: wake every worker so it observes the stop flag.
        accept_stop.store(true, Ordering::SeqCst);
        for t in &threads {
            t.thread().unpark();
        }
        for t in threads {
            let _ = t.join();
        }
    });
    Ok(ServerHandle {
        addr: bound,
        stop,
        workers: num_workers,
        accept_thread: Some(accept_thread),
    })
}

/// Send the typed overload reply on a still-blocking fresh connection and
/// drop it. Best-effort: the peer may already be gone.
fn refuse<P: Platform>(
    service: &ModelService<P>,
    mut stream: TcpStream,
    conn: u64,
    limit: usize,
    scratch: &mut Vec<u8>,
) {
    let reply = service.note_overload(conn, limit);
    scratch.clear();
    write_response(&reply, scratch);
    let _ = stream.write_all(scratch);
    let _ = stream.flush();
}

/// What one pump of a connection concluded.
struct Pump {
    /// Bytes moved or requests answered this sweep.
    progress: bool,
    /// The connection is done (EOF, error, oversized line).
    close: bool,
    /// A `shutdown` request was answered on this connection.
    shutdown: bool,
}

/// One multiplexed connection: the socket plus its reusable read and
/// write buffers. Buffers grow to the connection's working set once and
/// are reused for every subsequent request (allocation-free steady state).
struct Conn {
    stream: TcpStream,
    id: u64,
    /// Unparsed request bytes (complete lines are consumed every sweep).
    buf: Vec<u8>,
    /// Pending reply bytes, `out_pos..` not yet written.
    out: Vec<u8>,
    out_pos: usize,
}

impl Conn {
    fn new(stream: TcpStream, id: u64) -> Self {
        Conn {
            stream,
            id,
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
        }
    }

    /// Write as much pending reply as the socket accepts. Returns `false`
    /// if the connection is dead.
    fn flush_pending(&mut self, progress: &mut bool) -> bool {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return false,
                Ok(n) => {
                    self.out_pos += n;
                    *progress = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        true
    }

    /// Blocking best-effort flush of whatever reply bytes are pending —
    /// used right before the connection closes (shutdown, unreadable peer)
    /// so the last reply is not lost in the write buffer.
    fn final_flush(&mut self) {
        let _ = self.stream.set_nonblocking(false);
        let _ = self
            .stream
            .set_write_timeout(Some(Duration::from_millis(250)));
        if self.out_pos < self.out.len() {
            let _ = self.stream.write_all(&self.out[self.out_pos..]);
        }
        let _ = self.stream.flush();
        self.out.clear();
        self.out_pos = 0;
    }
}

/// Pump one connection once: flush pending replies, read what the socket
/// has, answer every complete line (pipelining: many lines in, replies
/// appended in order), detect EOF.
fn pump<P: Platform>(service: &ModelService<P>, c: &mut Conn) -> Pump {
    let mut progress = false;
    let mut done = Pump {
        progress: false,
        close: false,
        shutdown: false,
    };
    if !c.flush_pending(&mut progress) {
        done.progress = progress;
        done.close = true;
        return done;
    }

    // Pull everything currently readable into the connection buffer.
    let mut eof = false;
    loop {
        let old = c.buf.len();
        c.buf.resize(old + READ_CHUNK, 0);
        match c.stream.read(&mut c.buf[old..]) {
            Ok(0) => {
                c.buf.truncate(old);
                eof = true;
                break;
            }
            Ok(n) => {
                c.buf.truncate(old + n);
                progress = true;
                if c.buf.len() > MAX_LINE && !c.buf.contains(&b'\n') {
                    let reply = service.note_unreadable(c.id, "request line exceeds 1 MiB");
                    write_response(&reply, &mut c.out);
                    c.final_flush();
                    done.progress = true;
                    done.close = true;
                    return done;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                c.buf.truncate(old);
                break;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                c.buf.truncate(old);
            }
            Err(e) => {
                c.buf.truncate(old);
                // The socket failed mid-read (reset, aborted, ...): record
                // an invalid request and tell the peer if the write half
                // still works.
                let reply = service.note_unreadable(c.id, &e.to_string());
                write_response(&reply, &mut c.out);
                c.final_flush();
                done.progress = true;
                done.close = true;
                return done;
            }
        }
    }

    // Answer every complete line in the buffer, replies in request order.
    let mut consumed = 0;
    while let Some(rel) = c.buf[consumed..].iter().position(|&b| b == b'\n') {
        let end = consumed + rel;
        let line = &c.buf[consumed..end];
        consumed = end + 1;
        progress = true;
        match std::str::from_utf8(line) {
            Ok(text) if text.trim().is_empty() => {}
            Ok(text) => {
                if service.handle_line_into(c.id, text, &mut c.out) {
                    done.shutdown = true;
                    break;
                }
            }
            Err(_) => {
                let reply = service.note_unreadable(c.id, "request line is not valid UTF-8");
                write_response(&reply, &mut c.out);
                done.close = true;
                break;
            }
        }
    }
    if consumed > 0 {
        c.buf.drain(..consumed);
    }

    if done.shutdown || done.close {
        c.final_flush();
        done.progress = true;
        done.close = true;
        return done;
    }

    if eof {
        // A half-written request with no trailing newline means the peer
        // vanished mid-line: a typed invalid request, not a panic.
        if !c.buf.is_empty() && c.buf.iter().any(|b| !b.is_ascii_whitespace()) {
            let reason = match std::str::from_utf8(&c.buf) {
                Ok(_) => "connection closed mid-request line",
                Err(_) => "connection closed mid-request line (not valid UTF-8)",
            };
            let reply = service.note_unreadable(c.id, reason);
            write_response(&reply, &mut c.out);
            c.buf.clear();
        }
        c.final_flush();
        done.close = true;
        done.progress = true;
        return done;
    }

    if !c.flush_pending(&mut progress) {
        done.close = true;
    }
    done.progress = progress;
    done
}

/// One worker: adopt connections from the inbox, sweep them round-robin,
/// and back off (yield, then micro-sleeps) when a sweep moves nothing.
/// The worker owns its connections outright — no locks on the data path.
fn worker_loop<P: Platform>(
    service: &ModelService<P>,
    shared: &WorkerShared,
    stop: &AtomicBool,
    bound: SocketAddr,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut idle_sweeps: u32 = 0;
    loop {
        {
            let mut inbox = shared.inbox.lock().unwrap_or_else(|e| e.into_inner());
            while let Some(c) = inbox.pop_front() {
                conns.push(c);
                idle_sweeps = 0;
            }
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        if conns.is_empty() {
            // Nothing to sweep: sleep until the accept loop hands over a
            // connection (unpark) or shutdown wakes everyone.
            std::thread::park_timeout(Duration::from_millis(50));
            continue;
        }
        let mut progress = false;
        let mut i = 0;
        while i < conns.len() {
            let outcome = pump(service, &mut conns[i]);
            progress |= outcome.progress;
            if outcome.shutdown {
                stop.store(true, Ordering::SeqCst);
                poke(bound);
            }
            if outcome.close {
                drop(conns.swap_remove(i));
                shared.registered.fetch_sub(1, Ordering::SeqCst);
                shared
                    .connections_gauge
                    .set(shared.registered.load(Ordering::SeqCst) as f64);
                progress = true;
            } else {
                i += 1;
            }
        }
        if progress {
            idle_sweeps = 0;
        } else {
            idle_sweeps = idle_sweeps.saturating_add(1);
            if idle_sweeps <= SPIN_SWEEPS {
                std::thread::yield_now();
            } else {
                // Exponential micro-sleep, 50 µs doubling to ~1.6 ms: keeps
                // an idle pool near-zero CPU while bounding the added
                // latency of a request that arrives mid-sleep.
                let exp = (idle_sweeps - SPIN_SWEEPS).min(5);
                std::thread::sleep(Duration::from_micros(50u64 << exp));
            }
        }
    }
    // Shutting down: flush whatever replies are pending, then drop.
    for mut c in conns.drain(..) {
        c.final_flush();
        shared.registered.fetch_sub(1, Ordering::SeqCst);
    }
    shared
        .connections_gauge
        .set(shared.registered.load(Ordering::SeqCst) as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::proto::{Request, Response, WireMode};
    use numio_core::{IoModeler, SimPlatform};

    fn start() -> (ServerHandle, Arc<ModelService<SimPlatform>>) {
        let service = Arc::new(
            ModelService::new(SimPlatform::dl585()).with_modeler(IoModeler::new().reps(3)),
        );
        let handle = spawn(Arc::clone(&service), "127.0.0.1:0").unwrap();
        (handle, service)
    }

    #[test]
    fn loopback_round_trip_and_cache_hit() {
        let (handle, service) = start();
        let addr = handle.addr().to_string();
        let mut client = Client::connect(&addr).unwrap();
        assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);
        let req = Request::Predict {
            device: None,
            target: 7,
            mode: WireMode::Write,
            mix: vec![(6, 1), (2, 1)],
        };
        let cold = client.call(&req).unwrap();
        let s = service.cache().stats();
        assert_eq!((s.hits, s.misses), (0, 1), "the cold predict misses");
        // A second client over a fresh connection hits the shared cache.
        let mut other = Client::connect(&addr).unwrap();
        let warm = other.call(&req).unwrap();
        let s = service.cache().stats();
        assert_eq!((s.hits, s.misses), (1, 1), "the second predict is a hit");
        match (cold, warm) {
            (
                Response::Predict {
                    predicted_gbps: a, ..
                },
                Response::Predict {
                    predicted_gbps: b, ..
                },
            ) => assert_eq!(a.to_bits(), b.to_bits()),
            other => panic!("unexpected replies: {other:?}"),
        }
        handle.shutdown();
    }

    #[test]
    fn malformed_lines_keep_the_connection_alive() {
        let (handle, _service) = start();
        let mut client = Client::connect(&handle.addr().to_string()).unwrap();
        let resp = client.call_raw("this is not json").unwrap();
        assert!(resp.contains("\"reply\":\"error\""), "{resp}");
        // Still serviceable afterwards.
        assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);
        handle.shutdown();
    }

    /// Poll until `pred` holds (worker threads race the assertions).
    fn eventually(pred: impl Fn() -> bool) -> bool {
        for _ in 0..200 {
            if pred() {
                return true;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        pred()
    }

    #[test]
    fn disconnect_mid_request_is_counted_not_crashed() {
        use std::io::Write as _;
        let (handle, service) = start();
        let addr = handle.addr();
        {
            // A half-written request with no trailing newline: the peer
            // vanishes mid-line. The worker surfaces the partial line at
            // EOF, which must become a typed invalid request, not a panic.
            let mut raw = TcpStream::connect(addr).unwrap();
            raw.write_all(br#"{"op":"pred"#).unwrap();
            raw.flush().unwrap();
        }
        assert!(
            eventually(|| service.invalid_requests() >= 1),
            "partial line counted as invalid, got {}",
            service.invalid_requests()
        );
        // The server is still fully serviceable afterwards.
        let mut client = Client::connect(&addr.to_string()).unwrap();
        assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);
        handle.shutdown();
    }

    #[test]
    fn connections_over_the_limit_get_a_typed_overload_reply() {
        let service = Arc::new(
            ModelService::new(SimPlatform::dl585()).with_modeler(IoModeler::new().reps(3)),
        );
        let handle = spawn_with(
            Arc::clone(&service),
            "127.0.0.1:0",
            ServeConfig {
                max_connections: 1,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let addr = handle.addr().to_string();
        let mut first = Client::connect(&addr).unwrap();
        assert_eq!(first.call(&Request::Ping).unwrap(), Response::Pong);
        // While the first connection is open, a second one is refused with
        // one parseable error line. The refusal races the accept loop's
        // bookkeeping, so poll a few fresh connections.
        let refused = eventually(|| {
            let Ok(mut second) = Client::connect(&addr) else {
                return false;
            };
            match second.call(&Request::Ping) {
                Ok(Response::Error { message }) => {
                    assert!(message.contains("connection limit 1"), "{message}");
                    true
                }
                _ => false,
            }
        });
        assert!(refused, "second connection never saw the overload reply");
        assert!(service.error_replies() >= 1);
        // Closing the first connection frees the slot.
        drop(first);
        assert!(eventually(|| {
            let Ok(mut third) = Client::connect(&addr) else {
                return false;
            };
            matches!(third.call(&Request::Ping), Ok(Response::Pong))
        }));
        handle.shutdown();
    }

    #[test]
    fn pipelined_requests_answer_in_request_order() {
        use std::io::{BufRead, BufReader, Write as _};
        let (handle, service) = start();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        // Write every request up front — no reads interleaved — then read
        // all replies: they must come back in request order. Each mix
        // weighs node 6 against node 2 differently, so each request has
        // its own answer.
        let n = 16u32;
        let reqs: Vec<Request> = (0..n)
            .map(|i| Request::Predict {
                device: None,
                target: 7,
                mode: WireMode::Write,
                mix: vec![(6, i + 1), (2, 1)],
            })
            .collect();
        for req in &reqs {
            let line = crate::proto::encode(req);
            writer.write_all(line.as_bytes()).unwrap();
            writer.write_all(b"\n").unwrap();
        }
        writer.flush().unwrap();
        let mut answers = Vec::new();
        for i in 0..n {
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            match crate::proto::decode_response(&reply).unwrap() {
                Response::Predict { predicted_gbps, .. } => answers.push(predicted_gbps),
                other => panic!("request {i}: unexpected reply {other:?}"),
            }
        }
        // Exactly one request paid the characterization; the rest of the
        // pipeline hit the model it cached.
        let s = service.cache().stats();
        assert_eq!((s.hits, s.misses), (u64::from(n) - 1, 1));
        // Reply i answers request i — request order, not completion order.
        for (i, (req, got)) in reqs.iter().zip(&answers).enumerate() {
            let Response::Predict { predicted_gbps, .. } = service.handle(req) else {
                panic!("request {i} failed locally");
            };
            assert_eq!(predicted_gbps.to_bits(), got.to_bits(), "reply {i}");
        }
        let distinct: std::collections::BTreeSet<u64> =
            answers.iter().map(|a| a.to_bits()).collect();
        assert_eq!(distinct.len(), answers.len(), "one answer per request");
        handle.shutdown();
    }

    #[test]
    fn worker_pool_size_is_bounded_and_configurable() {
        let service = Arc::new(
            ModelService::new(SimPlatform::dl585()).with_modeler(IoModeler::new().reps(3)),
        );
        let handle = spawn_with(
            Arc::clone(&service),
            "127.0.0.1:0",
            ServeConfig {
                workers: 2,
                queue_depth: 4,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        assert_eq!(handle.workers(), 2);
        assert_eq!(service.obs().gauge("numio_serve_workers", &[]).get(), 2.0);
        assert_eq!(
            service.obs().gauge("numio_serve_queue_depth", &[]).get(),
            4.0
        );
        // More connections than workers all get served concurrently.
        let addr = handle.addr().to_string();
        let mut clients: Vec<Client> = (0..6).map(|_| Client::connect(&addr).unwrap()).collect();
        for c in &mut clients {
            assert_eq!(c.call(&Request::Ping).unwrap(), Response::Pong);
        }
        handle.shutdown();
    }

    #[test]
    fn wire_shutdown_stops_the_accept_loop() {
        let (handle, _service) = start();
        let addr = handle.addr().to_string();
        let mut client = Client::connect(&addr).unwrap();
        assert_eq!(
            client.call(&Request::Shutdown).unwrap(),
            Response::ShuttingDown
        );
        handle.join();
    }
}
