//! The multi-threaded serving core: listener, bounded worker pool,
//! keep-alive connection loop and graceful shutdown.
//!
//! Architecture: one acceptor thread polls a non-blocking
//! `TcpListener` and feeds accepted connections into a **bounded**
//! channel; `workers` threads drain it, each running the keep-alive loop
//! for one connection at a time. The bound gives natural backpressure —
//! when every worker is busy and the queue is full, the acceptor sheds
//! the connection with `503 + Retry-After` (counted as `server.shed` on
//! `/metrics`) instead of buffering unbounded connections or blocking
//! the accept loop.
//!
//! Graceful shutdown is one `AtomicBool` ([`ServerHandle::shutdown`], or
//! the `POST /admin/shutdown` endpoint when enabled): the acceptor stops
//! accepting and closes the listener, workers finish their in-flight
//! request (bounded by the request deadline), answer it with
//! `Connection: close`, drain any already-accepted connections, and
//! exit. `shutdown()`/`join()` then join every thread, so when they
//! return no request is half-served — the SIGTERM-safe drain a process
//! supervisor needs (the `serve` binary wires this to stdin EOF and the
//! admin endpoint; bare `std` cannot install signal handlers).
//!
//! `/subscribe` turns a connection into a long-lived chunked push
//! stream (`stream_subscription`): the worker stays pinned to it,
//! polling the shutdown flag between frames, so a drain ends every live
//! subscription with a terminal `bye` frame within one poll interval.

use crate::backend::Backend;
use crate::http::{self, HttpError, Response};
use crate::metrics::Metrics;
use crate::routes::{self, Dispatch};
use crate::subscribe::{Subscriber, SubscriptionHub};
use expfinder_engine::ExpFinder;
use expfinder_runtime::DurableExpFinder;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serving knobs. `Default` is sized for tests and small deployments;
/// the `serve` binary exposes each field as a flag.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads handling connections (the pool bound).
    pub workers: usize,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// How long an idle keep-alive connection is held open.
    pub keep_alive: Duration,
    /// Deadline for reading one request once its first byte arrived, and
    /// for finishing in-flight work during a drain.
    pub request_deadline: Duration,
    /// Honor `POST /admin/shutdown` (the smoke harness and the shell use
    /// it; production deployments should leave it off and stop the
    /// process instead).
    pub allow_remote_shutdown: bool,
    /// Bounded per-subscriber frame queue for `/subscribe` push streams.
    /// A subscriber whose queue is full when the next batch commits is
    /// evicted as a slow consumer — the update path never blocks on a
    /// slow socket.
    pub subscriber_queue: usize,
    /// Evaluation deadline applied to queries that do not send their own
    /// `deadline_ms`. `None` (the default) leaves unbudgeted queries
    /// unbounded, exactly the pre-deadline behavior.
    pub default_deadline_ms: Option<u64>,
    /// Hard cap on any query deadline: requested budgets above it are
    /// clamped down, and when set it also bounds queries that sent no
    /// deadline at all. `None` disables the cap.
    pub max_deadline_ms: Option<u64>,
    /// Admission-control ceiling in planner work units (the same
    /// abstract scale `timings.plan` reports). When set, a query whose
    /// estimated cost exceeds the ceiling — or would push the total
    /// admitted in-flight cost past `ceiling × workers` — is rejected
    /// with `429 + Retry-After` before it consumes a worker. `None`
    /// (the default) admits everything.
    pub admission_max_cost: Option<f64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism().map_or(2, |n| n.get().clamp(2, 16)),
            max_body_bytes: 16 * 1024 * 1024,
            keep_alive: Duration::from_secs(30),
            request_deadline: Duration::from_secs(10),
            allow_remote_shutdown: false,
            subscriber_queue: 64,
            default_deadline_ms: None,
            max_deadline_ms: None,
            admission_max_cost: None,
        }
    }
}

/// Shared server state (everything a worker needs).
pub(crate) struct Inner {
    pub(crate) backend: Backend,
    pub(crate) metrics: Metrics,
    pub(crate) config: ServerConfig,
    pub(crate) shutdown: AtomicBool,
    /// Live `/subscribe` streams; fed by the backend's update hook.
    pub(crate) subs: Arc<SubscriptionHub>,
}

impl Inner {
    pub(crate) fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    pub(crate) fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }
}

/// A bound-but-not-yet-serving server (so callers can learn the
/// ephemeral port before any request is handled).
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    inner: Arc<Inner>,
}

/// Granularity of the acceptor's shutdown poll and the workers' idle
/// read timeout: the worst-case extra latency of noticing a drain.
const POLL: Duration = Duration::from_millis(25);

impl Server {
    /// Bind to `addr` (use port 0 for an ephemeral port), serving an
    /// in-memory engine.
    pub fn bind(
        engine: Arc<ExpFinder>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        Server::bind_backend(Backend::Local(engine), addr, config)
    }

    /// Bind to `addr`, serving a durable shard runtime: updates are
    /// WAL-logged, queries run on published snapshots, restarts replay.
    pub fn bind_durable(
        runtime: Arc<DurableExpFinder>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        Server::bind_backend(Backend::Durable(runtime), addr, config)
    }

    /// Bind to `addr` with an explicit [`Backend`]. Binding installs the
    /// backend's update hook, so committed batches start reaching the
    /// subscription hub before the first connection is accepted; the
    /// hook is cleared again when the server shuts down.
    pub fn bind_backend(
        backend: Backend,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let subs = Arc::new(SubscriptionHub::new(config.subscriber_queue));
        let hook_subs = Arc::clone(&subs);
        backend.install_update_hook(Some(Arc::new(
            move |graph: &str, report: &expfinder_engine::UpdateReport| {
                hook_subs.publish(graph, report);
            },
        )));
        Ok(Server {
            listener,
            addr,
            inner: Arc::new(Inner {
                backend,
                metrics: Metrics::default(),
                config,
                shutdown: AtomicBool::new(false),
                subs,
            }),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Start the acceptor and worker threads; the returned handle owns
    /// them.
    pub fn spawn(self) -> ServerHandle {
        let workers = self.inner.config.workers.max(1);
        // bound = 2× workers: enough runway to keep workers fed, small
        // enough that overload starts shedding (503) instead of queueing
        // unboundedly
        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(workers * 2);
        let rx = Arc::new(Mutex::new(rx));
        let mut threads = Vec::with_capacity(workers + 1);
        for i in 0..workers {
            let inner = Arc::clone(&self.inner);
            let rx = Arc::clone(&rx);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("expfinder-worker-{i}"))
                    .spawn(move || worker_loop(&inner, &rx))
                    .expect("spawn worker"),
            );
        }
        let inner = Arc::clone(&self.inner);
        let listener = self.listener;
        threads.push(
            std::thread::Builder::new()
                .name("expfinder-accept".into())
                .spawn(move || accept_loop(&inner, listener, tx))
                .expect("spawn acceptor"),
        );
        ServerHandle {
            addr: self.addr,
            inner: self.inner,
            threads,
        }
    }
}

/// Handle to a running server: address, metrics access, shutdown/join.
pub struct ServerHandle {
    addr: SocketAddr,
    inner: Arc<Inner>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The backend this server fronts.
    pub fn backend(&self) -> &Backend {
        &self.inner.backend
    }

    /// The in-memory engine this server fronts, when it is serving one
    /// (`None` on a durable backend).
    pub fn engine(&self) -> Option<&Arc<ExpFinder>> {
        match &self.inner.backend {
            Backend::Local(e) => Some(e),
            Backend::Durable(_) => None,
        }
    }

    /// Requests served so far (all routes).
    pub fn requests_served(&self) -> u64 {
        self.inner.metrics.total_requests()
    }

    /// The `GET /metrics` document, read in-process: observable even
    /// while every worker is pinned, which is exactly when an overload
    /// scenario needs to look at the connection and shed counters.
    pub fn metrics_json(&self) -> expfinder_graph::json::Value {
        let inner = &self.inner;
        inner.metrics.to_json(&inner.backend, inner.subs.to_json())
    }

    /// True once a drain has been requested (locally or remotely).
    pub fn is_draining(&self) -> bool {
        self.inner.draining()
    }

    /// Request a graceful drain and wait for every thread to finish its
    /// in-flight work and exit. Returns the total requests served.
    pub fn shutdown(mut self) -> u64 {
        self.inner.request_shutdown();
        self.join_threads();
        self.inner.metrics.total_requests()
    }

    /// Wait for the server to stop on its own (remote shutdown endpoint,
    /// or an acceptor failure). Returns the total requests served.
    pub fn join(mut self) -> u64 {
        self.join_threads();
        self.inner.metrics.total_requests()
    }

    fn join_threads(&mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // the backend may outlive this server (tests and the shell share
        // engines): stop feeding a hub nobody is draining
        self.inner.backend.install_update_hook(None);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // dropping the handle must not leak threads: drain and join
        self.inner.request_shutdown();
        self.join_threads();
    }
}

fn accept_loop(inner: &Inner, listener: TcpListener, tx: SyncSender<TcpStream>) {
    listener
        .set_nonblocking(true)
        .expect("nonblocking listener");
    while !inner.draining() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                inner.metrics.connection_opened();
                // a full queue sheds the connection with 503 instead of
                // blocking the acceptor: overload answers immediately and
                // tells the client when to come back
                match tx.try_send(stream) {
                    Ok(()) => {}
                    Err(std::sync::mpsc::TrySendError::Full(stream)) => {
                        shed_connection(inner, stream);
                    }
                    Err(std::sync::mpsc::TrySendError::Disconnected(_)) => break,
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => std::thread::sleep(POLL),
        }
    }
    // dropping `tx` (and the listener) lets workers drain the queue and
    // exit, and refuses new connections at the OS level
}

/// Answer one over-capacity connection with `503 + Retry-After` and
/// close it. Runs on the acceptor thread, so the write is bounded by a
/// short timeout — a peer that won't read its 503 cannot stall accepts.
fn shed_connection(inner: &Inner, mut stream: TcpStream) {
    inner.metrics.connection_shed();
    let _ = stream.set_write_timeout(Some(POLL));
    let body = crate::wire::error_body(503, "server overloaded; retry later");
    let resp = Response {
        close: true,
        retry_after: Some(1),
        ..Response::json(503, &body)
    };
    let _ = resp.write_to(&mut stream, false);
    inner.metrics.connection_closed();
}

fn worker_loop(inner: &Inner, rx: &Arc<Mutex<Receiver<TcpStream>>>) {
    loop {
        // hold the lock only for the recv itself, never while serving
        let next = {
            let rx = rx.lock().expect("rx lock");
            rx.recv_timeout(POLL)
        };
        match next {
            Ok(stream) => {
                serve_connection(inner, stream);
                inner.metrics.connection_closed();
            }
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// The keep-alive loop for one connection.
fn serve_connection(inner: &Inner, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    // a client that stops reading must not pin this worker (or a later
    // graceful drain) in write_all: bound every write by the request
    // deadline — write_to fails and the connection is dropped instead
    if stream
        .set_write_timeout(Some(inner.config.request_deadline))
        .is_err()
    {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut idle_since = Instant::now();
    loop {
        match http::read_request(
            &mut reader,
            inner.config.max_body_bytes,
            inner.config.request_deadline,
        ) {
            Ok(req) => {
                idle_since = Instant::now();
                let keep_alive = req.wants_keep_alive() && !inner.draining();
                let _guard = inner.metrics.begin_request();
                let started = Instant::now();
                match routes::dispatch(inner, &req) {
                    (key, Dispatch::Respond(mut resp)) => {
                        inner.metrics.record(key, resp.status, started.elapsed());
                        resp.close = resp.close || !keep_alive;
                        if resp.write_to(&mut writer, keep_alive).is_err() || resp.close {
                            return;
                        }
                    }
                    (key, Dispatch::Subscribe { hello, sub }) => {
                        // the latency recorded for a subscription is its
                        // setup time, not its (unbounded) stream lifetime
                        inner.metrics.record(key, 200, started.elapsed());
                        stream_subscription(inner, &mut writer, &hello, sub);
                        return;
                    }
                }
            }
            Err(HttpError::Idle) => {
                // between requests on a keep-alive connection: poll the
                // shutdown flag and the idle budget
                if inner.draining() || idle_since.elapsed() >= inner.config.keep_alive {
                    return;
                }
            }
            Err(HttpError::Closed) => return,
            Err(e) => {
                // framing failure: answer with the mapped status (best
                // effort) and close — the connection state is undefined
                let (status, msg) = match &e {
                    HttpError::Malformed(m) => (400, m.clone()),
                    HttpError::TooLarge("body") => (413, "body too large".to_owned()),
                    HttpError::TooLarge(_) => (431, "header section too large".to_owned()),
                    HttpError::Unsupported(what) => (501, format!("unsupported: {what}")),
                    HttpError::Io(_) => (408, "request read timed out".to_owned()),
                    HttpError::Idle | HttpError::Closed => unreachable!("handled above"),
                };
                let body = crate::wire::error_body(status, &msg);
                let mut resp = Response::json(status, &body);
                resp.close = true;
                inner
                    .metrics
                    .record(crate::metrics::RouteKey::Other, status, Duration::ZERO);
                let _ = resp.write_to(&mut writer, false);
                return;
            }
        }
    }
}

/// The push loop of one `/subscribe` stream: chunked head, `hello`
/// frame, then one chunk per frame the hub enqueues, until the client
/// goes away, the server drains (terminal `bye`), or the subscriber is
/// evicted as a slow consumer (terminal `error`, after flushing the
/// frames that were already queued). Frames are newline-terminated
/// (`application/x-ndjson`), one JSON document per chunk. The worker
/// thread is pinned for the lifetime of the stream — subscriptions
/// compete with request handling for the bounded pool by design.
fn stream_subscription(
    inner: &Inner,
    writer: &mut TcpStream,
    hello: &expfinder_graph::json::Value,
    sub: Subscriber,
) {
    fn push(w: &mut TcpStream, frame: &expfinder_graph::json::Value) -> bool {
        let mut line = frame.to_string_compact();
        line.push('\n');
        http::write_chunk(w, line.as_bytes()).is_ok()
    }
    if http::write_chunked_head(writer, 200, "application/x-ndjson").is_ok() && push(writer, hello)
    {
        loop {
            if inner.draining() {
                if push(writer, &crate::wire::subscription_bye("drain")) {
                    let _ = http::finish_chunked(writer);
                }
                break;
            }
            match sub.rx.recv_timeout(POLL) {
                Ok(frame) => {
                    if !push(writer, &frame) {
                        break;
                    }
                }
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => {
                    // the hub dropped our sender: evicted as a slow
                    // consumer (buffered frames were already delivered
                    // by the recv loop above)
                    if push(writer, &crate::wire::subscription_error("slow-consumer")) {
                        let _ = http::finish_chunked(writer);
                    }
                    break;
                }
            }
        }
    }
    inner.subs.remove(sub.id);
}
