//! The multi-threaded serving core: listener, one thread per
//! connection, keep-alive connection loop and graceful shutdown.
//!
//! Architecture: one acceptor thread blocks in `TcpListener::accept` and
//! gives each accepted connection its own thread, which runs the
//! keep-alive loop until the connection closes, so an idle client holds
//! only its own thread. The number of live connections is capped at
//! `3 × workers`: past it the acceptor sheds the connection with
//! `503 + Retry-After` (counted as `server.shed` on `/metrics`) instead
//! of spawning without bound or blocking the accept loop.
//!
//! Graceful shutdown is one `AtomicBool` ([`ServerHandle::shutdown`], or
//! the `POST /admin/shutdown` endpoint when enabled). Setting it also
//! opens one connection to the listener's own loopback address, because
//! std cannot interrupt a blocking `accept`: the acceptor wakes, drops
//! that connection uncounted, stops accepting and closes the listener.
//! Connection threads finish their in-flight request (bounded by the
//! request deadline), answer it with `Connection: close`, and exit. The
//! acceptor joins them all and `shutdown()`/`join()` join the acceptor, so
//! when they return no request is half-served — the SIGTERM-safe drain a
//! process supervisor needs (the `serve` binary wires this to stdin EOF and the
//! admin endpoint; bare `std` cannot install signal handlers).
//!
//! `/subscribe` turns a connection into a long-lived chunked push
//! stream (`stream_subscription`) on its own thread, which polls the
//! shutdown flag between frames, so a drain ends every live subscription
//! with a terminal `bye` frame within one poll interval.

use crate::backend::Backend;
use crate::http::{self, HttpError, Response};
use crate::metrics::Metrics;
use crate::routes::{self, Dispatch};
use crate::subscribe::{Subscriber, SubscriptionHub};
use std::io::{BufReader, ErrorKind};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serving knobs. `Default` is sized for tests and small deployments;
/// the `serve` binary exposes each field as a flag.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Sizes the server: `3 × workers` live connections, `ceiling × workers` of admitted cost.
    pub workers: usize,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// How long an idle keep-alive connection is held open.
    pub keep_alive: Duration,
    /// Deadline for reading one request once its first byte arrived, and
    /// for finishing in-flight work during a drain.
    pub request_deadline: Duration,
    /// Honor `POST /admin/shutdown` (the tests and the shell use it;
    /// production deployments should leave it off and stop the
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
    /// with `429 + Retry-After` before it is evaluated. `None`
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

/// Shared server state (everything a connection thread needs).
pub(crate) struct Inner {
    /// Where the listener is bound, for the drain's wake connection.
    addr: SocketAddr,
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

    /// Start the drain, once: set the flag, then wake the acceptor from
    /// its blocking `accept` with a connection of our own.
    pub(crate) fn request_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        // a failed connect means the acceptor is gone or has a
        // connection pending, which wakes it as well
        let _ = TcpStream::connect_timeout(&wake, POLL);
    }
}

/// A bound-but-not-yet-serving server (so callers can learn the
/// ephemeral port before any request is handled).
pub struct Server {
    listener: TcpListener,
    inner: Arc<Inner>,
}

/// A connection's idle read timeout (how late its thread may notice a drain or
/// a subscriber's hang-up), and the bound on the shed write and the wake connect.
const POLL: Duration = Duration::from_millis(25);

impl Server {
    /// Bind to `addr` (use port 0 for an ephemeral port), serving
    /// `backend` — an in-memory engine or a durable runtime. Binding
    /// installs the backend's update hook, so committed batches start
    /// reaching the subscription hub before the first connection is
    /// accepted; the hook is cleared again when the server shuts down.
    pub fn bind(
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
            inner: Arc::new(Inner {
                addr,
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
        self.inner.addr
    }

    /// Start the acceptor thread, which spawns and joins the connection
    /// threads; the returned handle owns it.
    pub fn spawn(self) -> ServerHandle {
        let inner = Arc::clone(&self.inner);
        let listener = self.listener;
        let acceptor = std::thread::Builder::new()
            .name("expfinder-accept".into())
            .spawn(move || accept_loop(&inner, listener))
            .expect("spawn acceptor");
        ServerHandle {
            inner: self.inner,
            acceptor: Some(acceptor),
        }
    }
}

/// Handle to a running server: address, metrics access, shutdown/join.
pub struct ServerHandle {
    inner: Arc<Inner>,
    acceptor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// The backend this server fronts.
    pub fn backend(&self) -> &Backend {
        &self.inner.backend
    }

    /// The `GET /metrics` document, read in-process: observable even
    /// while every connection slot is held, which is exactly when an overload
    /// scenario needs to look at the connection and shed counters.
    pub fn metrics_json(&self) -> expfinder_graph::json::Value {
        let inner = &self.inner;
        inner.metrics.to_json(&inner.backend, inner.subs.to_json())
    }

    /// A call that starts the drain from another thread (the `serve`
    /// binary's stdin watcher); [`ServerHandle::join`] then returns.
    pub fn drainer(&self) -> impl Fn() + Send + 'static {
        let inner = Arc::clone(&self.inner);
        move || inner.request_shutdown()
    }

    /// Request a graceful drain and wait for every connection to finish
    /// its in-flight work and close. Returns the total requests served.
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
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
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

fn accept_loop(inner: &Arc<Inner>, listener: TcpListener) {
    // the shed point of a pool of `workers` with `2 × workers` queued
    let cap = 3 * inner.config.workers.max(1);
    let mut live: Vec<JoinHandle<()>> = Vec::new();
    loop {
        match listener.accept() {
            // the drain's wake connection, or a client that came too late
            Ok(_) if inner.draining() => break,
            Ok((stream, _peer)) => {
                inner.metrics.connection_opened();
                live.retain(|t| !t.is_finished());
                // at the cap, shed with 503 instead of blocking: overload
                // answers at once and tells the client when to come back
                if live.len() >= cap {
                    shed_connection(inner, stream);
                    continue;
                }
                let conn = Arc::clone(inner);
                let thread = std::thread::Builder::new().name("expfinder-conn".into());
                let spawned = thread.spawn(move || {
                    serve_connection(&conn, stream);
                    conn.metrics.connection_closed();
                });
                match spawned {
                    Ok(t) => live.push(t),
                    // no thread: dropping the closure closed the stream
                    Err(_) => inner.metrics.connection_closed(),
                }
            }
            Err(_) if inner.draining() => break,
            // out of descriptors, say: back off instead of spinning
            Err(_) => std::thread::sleep(POLL),
        }
    }
    // refuse new connections at the OS level, then wait out the drain
    drop(listener);
    for t in live {
        let _ = t.join();
    }
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

/// The keep-alive loop for one connection.
fn serve_connection(inner: &Inner, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    // a client that stops reading must not pin this thread (or a later
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
/// (`application/x-ndjson`), one JSON document per chunk. The stream
/// holds its connection's own thread and slot, not request capacity; a
/// client that hangs up is seen within one poll even with no frame sent.
fn stream_subscription(inner: &Inner, writer: &mut TcpStream, hello: &str, sub: Subscriber) {
    use crate::wire::{ndjson_line, subscription_bye, subscription_error};
    fn push(w: &mut TcpStream, line: &str) -> bool {
        http::write_chunk(w, line.as_bytes()).is_ok()
    }
    if http::write_chunked_head(writer, 200, "application/x-ndjson").is_ok() && push(writer, hello)
    {
        loop {
            if inner.draining() {
                if push(writer, &ndjson_line(&subscription_bye("drain"))) {
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
                Err(RecvTimeoutError::Timeout) if hung_up(writer) => break,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => {
                    // the hub dropped our sender: evicted as a slow
                    // consumer (buffered frames were already delivered
                    // by the recv loop above)
                    if push(writer, &ndjson_line(&subscription_error("slow-consumer"))) {
                        let _ = http::finish_chunked(writer);
                    }
                    break;
                }
            }
        }
    }
    inner.subs.remove(sub.id);
}

/// Whether a subscriber closed its end: a non-blocking peek (it delays
/// no frame) reads EOF or a hard error; `WouldBlock` or bytes waiting do not.
fn hung_up(stream: &TcpStream) -> bool {
    let peeked = stream
        .set_nonblocking(true)
        .and_then(|()| stream.peek(&mut [0u8; 1]));
    let gone = match peeked {
        Ok(n) => n == 0,
        Err(e) => !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted),
    };
    stream.set_nonblocking(false).is_err() || gone
}
