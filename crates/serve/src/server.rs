//! The TCP server: accept loop, connection threads, and a supervised
//! worker pool around the [`Engine`].
//!
//! Threading model:
//!
//! - The **acceptor** (the thread calling [`Server::run`]) polls a
//!   nonblocking listener. Draining stops the accepts; the loop then
//!   waits for connections and workers to wind down before returning.
//! - One **connection thread** per client reads frames, answers control
//!   ops (`ping`, `stats`, `arm-fault`, `shutdown`) inline, and pushes
//!   heavy ops (`explain`, `lint`) through the bounded [`Queue`]. A full
//!   queue sheds with NX801 *at admission* — the client hears about
//!   overload immediately instead of timing out.
//! - A **supervisor** owns N worker threads. Each request runs inside
//!   `catch_unwind`: a panicking pipeline produces NX804 for *that
//!   request only*, quarantines the session it was using, and the worker
//!   keeps serving. If a worker thread itself dies, the supervisor
//!   respawns a replacement — a poisoned worker can never take the
//!   listener down.
//!
//! Drain (`shutdown` request): stop admitting (new pushes see NX805,
//! new connections are refused), let queued and in-flight work finish —
//! `mode=cancel` additionally fires the drain [`CancelToken`] so
//! budget-governed work interrupts cooperatively — then close the queue,
//! join the workers, and return from [`Server::run`] with the final
//! metrics. There is no signal handler (the workspace forbids `unsafe`,
//! which `signal(2)` hooks need); orchestrators should send the
//! `shutdown` op instead of SIGTERM.

use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use netexpl_core::Error;
use netexpl_obs::SharedMetrics;
use serde_json::Value;

use crate::engine::{Engine, EngineConfig};
use crate::protocol::{
    self, decode, draining, err_response, ok_response, overloaded, read_frame, worker_crashed,
    write_frame, Op, Request,
};
use crate::queue::{PushError, Queue};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port.
    pub addr: String,
    /// Worker threads executing heavy requests.
    pub workers: usize,
    /// Bounded queue capacity — pending heavy requests beyond the
    /// workers; the admission-control knob.
    pub queue_capacity: usize,
    /// Engine knobs (pool size, timeouts).
    pub engine: EngineConfig,
    /// Frame size limit.
    pub max_request_bytes: usize,
    /// Idle-client read timeout.
    pub read_timeout: Duration,
    /// Slow-client write timeout.
    pub write_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 8,
            engine: EngineConfig::default(),
            max_request_bytes: protocol::DEFAULT_MAX_REQUEST_BYTES,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
        }
    }
}

/// One queued heavy request plus the slot its worker answers into.
struct Job {
    op: Op,
    timeout_ms: Option<u64>,
    reply: Arc<Reply>,
}

/// A one-shot reply slot (the std library has no oneshot channel).
struct Reply {
    slot: Mutex<Option<Result<crate::engine::Handled, Error>>>,
    ready: Condvar,
}

impl Reply {
    fn new() -> Arc<Reply> {
        Arc::new(Reply {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    fn fulfill(&self, r: Result<crate::engine::Handled, Error>) {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        *slot = Some(r);
        self.ready.notify_all();
    }

    /// Wait up to `timeout`; `None` means the worker was lost.
    fn wait(&self, timeout: Duration) -> Option<Result<crate::engine::Handled, Error>> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(r) = slot.take() {
                return Some(r);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            let (s, _) = self
                .ready
                .wait_timeout(slot, left)
                .unwrap_or_else(|e| e.into_inner());
            slot = s;
        }
    }
}

struct Shared {
    config: ServerConfig,
    engine: Engine,
    queue: Queue<Job>,
    metrics: SharedMetrics,
    /// Set by the `shutdown` op; the acceptor polls it.
    draining: AtomicBool,
    /// Globally monotone response sequence.
    seq: AtomicU64,
    /// Live connection threads.
    connections: AtomicUsize,
    /// Requests currently inside a worker.
    in_flight: AtomicUsize,
}

impl Shared {
    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::SeqCst) + 1
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind the listener. The engine and pool are created here; nothing
    /// runs until [`Server::run`].
    pub fn bind(config: ServerConfig) -> Result<Server, Error> {
        let listener = TcpListener::bind(&config.addr).map_err(|e| Error::Io {
            path: config.addr.clone(),
            source: e,
        })?;
        listener.set_nonblocking(true).map_err(|e| Error::Io {
            path: config.addr.clone(),
            source: e,
        })?;
        let metrics = SharedMetrics::new();
        let engine = Engine::new(config.engine.clone(), metrics.clone());
        let queue = Queue::new(config.queue_capacity);
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                engine,
                queue,
                metrics,
                draining: AtomicBool::new(false),
                seq: AtomicU64::new(0),
                connections: AtomicUsize::new(0),
                in_flight: AtomicUsize::new(0),
                config,
            }),
        })
    }

    /// The bound address (with the real port when 0 was asked).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.listener
            .local_addr()
            .expect("listener has a local address")
    }

    /// The server's metrics handle (tests read counters through this).
    pub fn metrics(&self) -> SharedMetrics {
        self.shared.metrics.clone()
    }

    /// Run until drained. Blocks; returns the final metrics snapshot.
    pub fn run(self) -> netexpl_obs::MetricsRegistry {
        let shared = self.shared;
        let supervisor = spawn_supervisor(Arc::clone(&shared));

        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // Replies are single frames; never hold one back for
                    // the client's delayed ACK.
                    let _ = stream.set_nodelay(true);
                    if shared.draining.load(Ordering::SeqCst) {
                        refuse(stream, &shared);
                        continue;
                    }
                    if netexpl_faults::triggered(netexpl_faults::sites::SERVE_ACCEPT) {
                        // Injected admission failure: the connection gets
                        // a typed shed and closes; the server lives on.
                        shared.metrics.counter_add("serve.shed", 1);
                        let seq = shared.next_seq();
                        let mut s = stream;
                        let _ = s.set_write_timeout(Some(shared.config.write_timeout));
                        let _ = write_frame(
                            &mut s,
                            &err_response(
                                None,
                                seq,
                                &overloaded(
                                    shared.config.queue_capacity,
                                    shared.config.queue_capacity,
                                ),
                            ),
                        );
                        continue;
                    }
                    shared.connections.fetch_add(1, Ordering::SeqCst);
                    shared.metrics.counter_add("serve.connections", 1);
                    let conn_shared = Arc::clone(&shared);
                    std::thread::spawn(move || {
                        handle_connection(stream, &conn_shared);
                        conn_shared.connections.fetch_sub(1, Ordering::SeqCst);
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if shared.draining.load(Ordering::SeqCst) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }

        // Draining: connections stop taking requests (NX805); wait for
        // the ones mid-request, then release the workers.
        let drain_deadline = Instant::now() + shared.config.engine.max_timeout;
        while (shared.connections.load(Ordering::SeqCst) > 0
            || shared.in_flight.load(Ordering::SeqCst) > 0
            || shared.queue.depth() > 0)
            && Instant::now() < drain_deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        shared.queue.close();
        let _ = supervisor.join();
        shared.metrics.counter_add("serve.drained", 1);
        shared.metrics.snapshot()
    }
}

/// Refuse a connection accepted mid-drain with a single typed line.
fn refuse(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let seq = shared.next_seq();
    let _ = write_frame(&mut stream, &err_response(None, seq, &draining()));
}

/// The supervisor: keeps `workers` worker threads alive until the queue
/// closes. A worker that exits while work could still arrive (a panic
/// escaping the per-request envelope) is respawned.
fn spawn_supervisor(shared: Arc<Shared>) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let n = shared.config.workers.max(1);
        let mut handles: Vec<std::thread::JoinHandle<()>> =
            (0..n).map(|_| spawn_worker(Arc::clone(&shared))).collect();
        loop {
            std::thread::sleep(Duration::from_millis(10));
            let closed = shared.queue.is_closed();
            let mut alive = Vec::with_capacity(handles.len());
            for h in handles.drain(..) {
                if h.is_finished() {
                    let _ = h.join();
                    if !closed {
                        shared.metrics.counter_add("serve.worker.respawns", 1);
                        alive.push(spawn_worker(Arc::clone(&shared)));
                    }
                } else {
                    alive.push(h);
                }
            }
            handles = alive;
            if closed && handles.is_empty() {
                return;
            }
        }
    })
}

fn spawn_worker(shared: Arc<Shared>) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        while let Some(job) = shared.queue.pop() {
            shared
                .metrics
                .gauge_set("serve.queue_depth", shared.queue.depth() as i64);
            shared.in_flight.fetch_add(1, Ordering::SeqCst);
            let worker_fault = netexpl_faults::triggered(netexpl_faults::sites::SERVE_WORKER);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if worker_fault {
                    panic!("fault injected at serve.worker");
                }
                shared.engine.handle(&job.op, job.timeout_ms)
            }));
            let result = match outcome {
                Ok(r) => r,
                Err(payload) => {
                    // The pipeline panicked: this request fails typed,
                    // the session it touched is quarantined, the worker
                    // carries on. The panic payload is best-effort text.
                    let detail = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "panic".into());
                    shared.engine.quarantine_for(&job.op);
                    shared.metrics.counter_add("serve.worker.panics", 1);
                    Err(worker_crashed(&detail))
                }
            };
            job.reply.fulfill(result);
            shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        }
    })
}

/// Serve one connection until EOF, a fatal frame error, or drain.
fn handle_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);

    loop {
        let frame = match read_frame(&mut reader, shared.config.max_request_bytes) {
            Ok(Some(f)) => f,
            Ok(None) => return, // clean EOF
            Err(e) => {
                // NX802/NX803: answer typed, then close — the stream
                // position is unreliable mid-frame.
                let seq = shared.next_seq();
                shared.metrics.counter_add("serve.requests.rejected", 1);
                let _ = write_frame(&mut writer, &err_response(None, seq, &e));
                return;
            }
        };
        let request = match decode(&frame) {
            Ok(r) => r,
            Err(e) => {
                // Framing is intact: answer typed and keep serving this
                // connection.
                let seq = shared.next_seq();
                shared.metrics.counter_add("serve.requests.rejected", 1);
                let _ = write_frame(&mut writer, &err_response(None, seq, &e));
                continue;
            }
        };
        let line = respond(&request, shared);
        if write_frame(&mut writer, &line).is_err() {
            return; // slow/gone client
        }
        if matches!(request.op, Op::Shutdown { .. }) {
            return;
        }
    }
}

/// Produce the response line for one decoded request.
fn respond(request: &Request, shared: &Shared) -> String {
    let started = Instant::now();
    let id = request.id.as_deref();
    shared.metrics.counter_add("serve.requests", 1);

    match &request.op {
        Op::Ping => {
            let seq = shared.next_seq();
            ok_response(
                id,
                seq,
                false,
                ms(started),
                Value::object([("pong", Value::from(true))]),
            )
        }
        Op::Stats => {
            let seq = shared.next_seq();
            let snapshot = shared.metrics.snapshot();
            let stats = serde_json::from_str(&snapshot.to_json()).unwrap_or(Value::Null);
            let result = Value::object([
                ("pool_sessions", Value::from(shared.engine.pool_len())),
                ("queue_depth", Value::from(shared.queue.depth())),
                (
                    "draining",
                    Value::from(shared.draining.load(Ordering::SeqCst)),
                ),
                ("metrics", stats),
            ]);
            ok_response(id, seq, false, ms(started), result)
        }
        Op::ArmFault { site, shots } => {
            let seq = shared.next_seq();
            if !netexpl_faults::sites::ALL.contains(&site.as_str()) {
                return err_response(
                    id,
                    seq,
                    &protocol::malformed(format!("unknown fault site `{site}`")),
                );
            }
            netexpl_faults::arm_shots(site, *shots);
            ok_response(
                id,
                seq,
                false,
                ms(started),
                Value::object([
                    ("armed", Value::from(site.as_str())),
                    ("shots", Value::from(*shots)),
                ]),
            )
        }
        Op::Shutdown { cancel } => {
            let seq = shared.next_seq();
            shared.draining.store(true, Ordering::SeqCst);
            if *cancel {
                shared.engine.drain_token().cancel();
            }
            shared.metrics.counter_add("serve.shutdowns", 1);
            ok_response(
                id,
                seq,
                false,
                ms(started),
                Value::object([(
                    "draining",
                    Value::from(if *cancel { "cancel" } else { "drain" }),
                )]),
            )
        }
        op @ (Op::Explain { .. } | Op::Lint { .. }) => {
            if shared.draining.load(Ordering::SeqCst) {
                let seq = shared.next_seq();
                shared.metrics.counter_add("serve.shed", 1);
                return err_response(id, seq, &draining());
            }
            let reply = Reply::new();
            let job = Job {
                op: op.clone(),
                timeout_ms: request.timeout_ms,
                reply: Arc::clone(&reply),
            };
            match shared.queue.try_push(job) {
                Ok(()) => {}
                Err(PushError::Full) => {
                    let seq = shared.next_seq();
                    shared.metrics.counter_add("serve.shed", 1);
                    return err_response(
                        id,
                        seq,
                        &overloaded(shared.queue.depth(), shared.config.queue_capacity),
                    );
                }
                Err(PushError::Closed) => {
                    let seq = shared.next_seq();
                    shared.metrics.counter_add("serve.shed", 1);
                    return err_response(id, seq, &draining());
                }
            }
            shared
                .metrics
                .gauge_set("serve.queue_depth", shared.queue.depth() as i64);
            // Generous envelope: queueing + the request's own deadline.
            // Workers always fulfil (panics are caught), so an expiry
            // here means the worker thread itself was lost.
            let envelope = shared
                .config
                .engine
                .max_timeout
                .saturating_mul(2)
                .max(Duration::from_secs(1));
            let outcome = reply.wait(envelope);
            let seq = shared.next_seq();
            match outcome {
                Some(Ok(handled)) => {
                    shared.metrics.observe("serve.request_ms", ms(started));
                    ok_response(id, seq, handled.warm, ms(started), handled.result)
                }
                Some(Err(e)) => {
                    shared.metrics.counter_add("serve.requests.failed", 1);
                    err_response(id, seq, &e)
                }
                None => {
                    shared.metrics.counter_add("serve.requests.lost", 1);
                    err_response(id, seq, &worker_crashed("reply slot timed out"))
                }
            }
        }
    }
}

fn ms(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}
