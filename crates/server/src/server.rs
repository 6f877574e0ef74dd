//! The TCP front end: connection fronts (event-driven and threaded),
//! routing, and request-scoped ids.
//!
//! ```text
//!                 ┌─ event front (default on Linux) ──────────────┐
//! TcpListener ──▶ │ epoll readiness loop × event_threads:         │
//!   accept        │   nonblocking sockets, incremental parse,     │
//!                 │   callback infer, chunked writes on EPOLLOUT  │
//!                 └───────────────┬───────────────────────────────┘
//!                 ┌─ threaded front (reference / fallback) ───────┐
//!                 │ mpsc queue ──▶ N workers, blocking parse+wait │
//!                 └───────────────┬───────────────────────────────┘
//!                                 ▼  ModelRegistry.resolve()
//!                        per-model Batcher queue
//!                                 │  flush on max_batch or max_wait
//!                                 ▼
//!                  BatchRunner.run (batched, bit-identical)
//! ```
//!
//! Both fronts route through the same [`route`]/[`Reply`] code and the
//! same batcher, so responses are byte-identical between them (pinned by
//! e2e tests); they differ only in how connections are multiplexed. The
//! **event front** ([`crate::event`]) multiplexes thousands of mostly-idle
//! keep-alive connections over a few epoll threads. The **threaded
//! front** owns a connection per worker for its keep-alive lifetime, so
//! `workers` bounds concurrent *connections* — it remains as the
//! non-Linux fallback and the reference implementation the event front is
//! diffed against.

use crate::batcher::InferError;
use crate::http::{self, HttpError, Request, Status};
use crate::prometheus;
use crate::protocol::{
    ErrorResponse, HealthResponse, InferRequest, InferResponse, ModelProfileResponse,
    ModelsResponse,
};
use crate::registry::{ModelEntry, ModelRegistry, RegistryError};
use serde::Serialize;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};
use wp_engine::trace;

/// Which connection front multiplexes sockets onto threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontKind {
    /// Readiness-based epoll loop: a few event threads own all
    /// connections (Linux; silently falls back to [`FrontKind::Threaded`]
    /// elsewhere).
    Event,
    /// Thread-per-connection worker pool.
    Threaded,
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Connection front. Defaults to [`FrontKind::Event`].
    pub front: FrontKind,
    /// Event threads for the event front (each owns an epoll instance
    /// and a share of the connections).
    pub event_threads: usize,
    /// Connection worker threads (threaded front only).
    pub workers: usize,
    /// Mid-request deadline: a peer that started a request must finish
    /// sending it within this long or gets `408` and a close (the
    /// slowloris bound). The threaded front also uses it as its per-read
    /// socket timeout.
    pub read_timeout: Duration,
    /// Keep-alive idle deadline: a connection with no partial request is
    /// silently closed after this long (event front; the threaded front
    /// reaps idles at `read_timeout`, its historical behavior).
    pub idle_timeout: Duration,
    /// Unflushed-response deadline: a peer that stops draining its
    /// responses for this long is closed (event front).
    pub write_timeout: Duration,
    /// Accepted connections waiting for a worker (threaded front); when
    /// full, accepting pauses and further connects queue in the kernel
    /// backlog (bounded backpressure instead of unbounded buffering).
    pub pending_connections: usize,
    /// Whether `POST /v1/shutdown` is honored (off unless the operator
    /// opts in — a load generator's clean-shutdown hook, not a public
    /// endpoint).
    pub allow_remote_shutdown: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            front: FrontKind::Event,
            event_threads: 2,
            workers: 8,
            read_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(60),
            write_timeout: Duration::from_secs(10),
            pending_connections: 1024,
            allow_remote_shutdown: false,
        }
    }
}

/// What a running front hands back: its threads (accept + workers or
/// accept + event loops) and an optional waker that unblocks threads
/// sleeping in something other than `accept` (the event front's
/// eventfds).
pub(crate) struct FrontRuntime {
    pub(crate) threads: Vec<std::thread::JoinHandle<()>>,
    pub(crate) wake: Option<Box<dyn Fn() + Send + Sync>>,
}

/// A running server; dropping the handle shuts it down.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    front: FrontRuntime,
    registry: Arc<ModelRegistry>,
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry this server serves from.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// Whether the server has begun shutting down.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown: stop accepting, finish in-flight requests,
    /// drain the batchers, join every thread. Idempotent.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Nudge the accept loop out of its blocking accept, and wake any
        // event threads out of epoll_wait.
        let _ = TcpStream::connect(self.addr);
        if let Some(wake) = &self.front.wake {
            wake();
        }
        for t in self.front.threads.drain(..) {
            let _ = t.join();
        }
        self.registry.shutdown();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The front that will actually run: [`FrontKind::Event`] needs epoll, so
/// off Linux it falls back to the threaded front.
fn effective_front(requested: FrontKind) -> FrontKind {
    #[cfg(target_os = "linux")]
    {
        requested
    }
    #[cfg(not(target_os = "linux"))]
    {
        match requested {
            FrontKind::Event => FrontKind::Threaded,
            other => other,
        }
    }
}

/// Binds and starts serving `registry` under `config`.
///
/// # Errors
///
/// Returns any bind error, or an epoll/eventfd setup error for the event
/// front.
pub fn serve(config: ServerConfig, registry: Arc<ModelRegistry>) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let front = match effective_front(config.front) {
        #[cfg(target_os = "linux")]
        FrontKind::Event => crate::event::start(listener, &config, &registry, &shutdown)?,
        #[cfg(not(target_os = "linux"))]
        FrontKind::Event => unreachable!("effective_front maps Event to Threaded off Linux"),
        FrontKind::Threaded => start_threaded(listener, &config, &registry, &shutdown),
    };
    Ok(ServerHandle { addr, shutdown, front, registry })
}

/// Starts the thread-per-connection front: a blocking accept loop feeding
/// a worker pool through a bounded queue.
fn start_threaded(
    listener: TcpListener,
    config: &ServerConfig,
    registry: &Arc<ModelRegistry>,
    shutdown: &Arc<AtomicBool>,
) -> FrontRuntime {
    let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(config.pending_connections.max(1));
    let conn_rx = Arc::new(Mutex::new(conn_rx));

    let mut threads: Vec<_> = (0..config.workers.max(1))
        .map(|i| {
            let conn_rx = Arc::clone(&conn_rx);
            let registry = Arc::clone(registry);
            let shutdown = Arc::clone(shutdown);
            let config = config.clone();
            std::thread::Builder::new()
                .name(format!("wp-conn-{i}"))
                .spawn(move || worker_loop(&conn_rx, &registry, &shutdown, &config))
                .expect("spawn connection worker")
        })
        .collect();

    let accept_thread = {
        let shutdown = Arc::clone(shutdown);
        let metrics = Arc::clone(registry.metrics());
        std::thread::Builder::new()
            .name("wp-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    match stream {
                        // A send error means the workers are gone, which
                        // only happens at shutdown.
                        Ok(stream) => {
                            metrics.connections_accepted.fetch_add(1, Ordering::Relaxed);
                            if conn_tx.send(stream).is_err() {
                                break;
                            }
                        }
                        Err(_) => continue,
                    }
                }
                // conn_tx drops here; idle workers see the disconnect.
            })
            .expect("spawn accept loop")
    };
    threads.push(accept_thread);
    FrontRuntime { threads, wake: None }
}

/// One connection worker: pulls sockets and serves them to completion.
fn worker_loop(
    conn_rx: &Mutex<mpsc::Receiver<TcpStream>>,
    registry: &ModelRegistry,
    shutdown: &AtomicBool,
    config: &ServerConfig,
) {
    loop {
        let next = {
            let rx = conn_rx.lock().expect("connection queue poisoned");
            rx.recv_timeout(Duration::from_millis(100))
        };
        match next {
            Ok(stream) => {
                // Connection errors only affect that peer.
                let _ = serve_connection(stream, registry, shutdown, config);
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Granularity of the between-requests idle poll (bounds how long an
/// idle keep-alive connection can delay shutdown).
const IDLE_POLL: Duration = Duration::from_millis(100);

/// Serves one (possibly keep-alive) connection until close.
fn serve_connection(
    stream: TcpStream,
    registry: &ModelRegistry,
    shutdown: &AtomicBool,
    config: &ServerConfig,
) -> std::io::Result<()> {
    let metrics = Arc::clone(registry.metrics());
    metrics.connections_open.fetch_add(1, Ordering::Relaxed);
    let result = serve_connection_inner(stream, registry, shutdown, config, &metrics);
    metrics.connections_open.fetch_sub(1, Ordering::Relaxed);
    result
}

fn serve_connection_inner(
    stream: TcpStream,
    registry: &ModelRegistry,
    shutdown: &AtomicBool,
    config: &ServerConfig,
    metrics: &crate::metrics::Metrics,
) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);

    loop {
        // Idle phase: wait for the next request's first byte under a
        // short poll so shutdown is honored promptly, giving up once the
        // configured idle timeout has passed. `fill_buf` buffers nothing
        // on timeout, so retrying loses no bytes.
        writer.get_ref().set_read_timeout(Some(IDLE_POLL))?;
        let mut idle = Duration::ZERO;
        loop {
            if shutdown.load(Ordering::SeqCst) {
                return Ok(());
            }
            use std::io::BufRead;
            match reader.fill_buf() {
                Ok([]) => return Ok(()), // clean EOF
                Ok(_) => break,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    idle += IDLE_POLL;
                    if idle >= config.read_timeout {
                        metrics.connections_timed_out.fetch_add(1, Ordering::Relaxed);
                        return Ok(());
                    }
                }
                Err(_) => return Ok(()),
            }
        }
        // A request is arriving: switch to the full per-read timeout for
        // its head and body.
        writer.get_ref().set_read_timeout(Some(config.read_timeout))?;
        let request = match http::read_request(&mut reader) {
            Ok(r) => r,
            Err(HttpError::Eof) | Err(HttpError::Io(_)) => return Ok(()),
            Err(HttpError::Malformed(m)) => {
                metrics.http_requests.fetch_add(1, Ordering::Relaxed);
                metrics.responses_client_error.fetch_add(1, Ordering::Relaxed);
                respond(
                    &mut writer,
                    Status::BAD_REQUEST,
                    &ErrorResponse { error: m, request_id: None },
                    false,
                )?;
                return Ok(());
            }
            Err(HttpError::TooLarge(m)) => {
                metrics.http_requests.fetch_add(1, Ordering::Relaxed);
                metrics.responses_client_error.fetch_add(1, Ordering::Relaxed);
                respond(
                    &mut writer,
                    Status::PAYLOAD_TOO_LARGE,
                    &ErrorResponse { error: m, request_id: None },
                    false,
                )?;
                return Ok(());
            }
        };
        metrics.http_requests.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let keep_alive = request.keep_alive() && !shutdown.load(Ordering::SeqCst);
        let rid = request_id(&request);
        let reply = route(&request, registry, shutdown, config, &rid);
        let class = match reply.status.0 {
            200..=299 => &metrics.responses_ok,
            400..=499 => &metrics.responses_client_error,
            _ => &metrics.responses_server_error,
        };
        class.fetch_add(1, Ordering::Relaxed);
        metrics.request_latency.record_micros(started.elapsed());
        let retry_after = reply.retry_after.map(|s| s.to_string());
        let mut headers: Vec<(&str, &str)> = vec![("X-Request-Id", &rid)];
        if let Some(retry_after) = &retry_after {
            headers.push(("Retry-After", retry_after));
        }
        http::write_response(
            &mut writer,
            reply.status,
            reply.content_type,
            &headers,
            &reply.body,
            keep_alive,
        )?;
        if !keep_alive {
            return Ok(());
        }
    }
}

/// Ticks the fallback request-id generator.
static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

/// The request's trace id: the caller's `X-Request-Id` when present and
/// clean (printable ASCII, bounded length), else a generated `req-N`.
/// The id is echoed as a response header, stamped into error bodies, and
/// hashed ([`trace::span_id_from`]) onto the batcher's queue-wait spans.
pub(crate) fn request_id(request: &Request) -> String {
    if let Some(id) = request.header("x-request-id") {
        let clean = id.len() <= 128
            && !id.is_empty()
            && id.chars().all(|c| c.is_ascii_graphic() && c != '"' && c != '\\');
        if clean {
            return id.to_string();
        }
    }
    format!("req-{}", NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed))
}

/// Serializes and writes an early (pre-routing) error response.
fn respond<T: Serialize>(
    writer: &mut impl std::io::Write,
    status: Status,
    body: &T,
    keep_alive: bool,
) -> std::io::Result<()> {
    let body = serde_json::to_string(body).unwrap_or_else(|_| "{}".into());
    http::write_json_response(writer, status, &body, keep_alive)
}

/// One routed response: status, content type, rendered body, and an
/// optional `Retry-After` hint in seconds (set on overload 503s so
/// well-behaved clients back off instead of hammering a full queue).
pub(crate) struct Reply {
    pub(crate) status: Status,
    pub(crate) content_type: &'static str,
    pub(crate) body: String,
    pub(crate) retry_after: Option<u32>,
}

/// Routes one parsed request to its endpoint. Shared by both fronts —
/// the event front intercepts `POST /v1/infer` before calling this (its
/// infer path must not block), every other endpoint is served inline.
pub(crate) fn route(
    request: &Request,
    registry: &ModelRegistry,
    shutdown: &AtomicBool,
    config: &ServerConfig,
    rid: &str,
) -> Reply {
    let (path, query) = match request.path.split_once('?') {
        Some((p, q)) => (p, q),
        None => (request.path.as_str(), ""),
    };
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => {
            ok(&HealthResponse { status: "ok".into(), models: registry.names() }, rid)
        }
        ("GET", "/metrics") => {
            let snap = registry.metrics_snapshot();
            if wants_prometheus(request, query) {
                Reply {
                    status: Status::OK,
                    content_type: prometheus::CONTENT_TYPE,
                    body: prometheus::render(&snap),
                    retry_after: None,
                }
            } else {
                ok(&snap, rid)
            }
        }
        ("GET", "/v1/models") => ok(&ModelsResponse { models: registry.infos() }, rid),
        ("GET", path) => {
            if let Some(name) =
                path.strip_prefix("/v1/models/").and_then(|rest| rest.strip_suffix("/profile"))
            {
                return profile(name, registry, rid);
            }
            if let Some(name) =
                path.strip_prefix("/v1/models/").and_then(|rest| rest.strip_suffix("/trace"))
            {
                return export_trace(name, registry, rid);
            }
            error(Status::NOT_FOUND, &format!("no route for GET {path}"), rid)
        }
        ("POST", "/v1/infer") => infer(request, registry, rid),
        ("POST", path) => {
            if let Some(name) =
                path.strip_prefix("/v1/models/").and_then(|rest| rest.strip_suffix("/reload"))
            {
                return reload(name, registry, rid);
            }
            if let Some(name) = path
                .strip_prefix("/v1/models/")
                .and_then(|rest| rest.strip_suffix("/profile/reset"))
            {
                return reset_profile(name, registry, rid);
            }
            if path == "/v1/shutdown" {
                if !config.allow_remote_shutdown {
                    return error(
                        Status::FORBIDDEN,
                        "shutdown endpoint disabled; start the server with it enabled to use it",
                        rid,
                    );
                }
                shutdown.store(true, Ordering::SeqCst);
                return ok(&HealthResponse { status: "shutting down".into(), models: vec![] }, rid);
            }
            error(Status::NOT_FOUND, &format!("no route for POST {path}"), rid)
        }
        (method, path) => error(Status::NOT_FOUND, &format!("no route for {method} {path}"), rid),
    }
}

/// Whether `GET /metrics` should render the Prometheus text exposition
/// instead of JSON: `?format=prometheus`, or an `Accept` header asking
/// for `text/plain` (what a Prometheus scraper sends).
fn wants_prometheus(request: &Request, query: &str) -> bool {
    if query.split('&').any(|kv| kv == "format=prometheus") {
        return true;
    }
    request.header("accept").is_some_and(|a| a.to_ascii_lowercase().contains("text/plain"))
}

/// A decoded, validated `/v1/infer` request, ready to submit: the
/// resolved model, its input planes, and the trace span id derived from
/// the request id. Shared by the blocking path ([`infer`]) and the event
/// front's callback path.
pub(crate) struct InferPlan {
    pub(crate) entry: Arc<ModelEntry>,
    pub(crate) inputs: Vec<Vec<i32>>,
    pub(crate) span_id: u64,
}

/// Decodes and resolves an infer request body, without submitting
/// anything.
///
/// # Errors
///
/// The ready-to-send error [`Reply`] (bad JSON, empty inputs, unknown
/// model).
pub(crate) fn decode_infer(
    request: &Request,
    registry: &ModelRegistry,
    rid: &str,
) -> Result<InferPlan, Reply> {
    let body = match std::str::from_utf8(&request.body) {
        Ok(s) => s,
        Err(_) => return Err(error(Status::BAD_REQUEST, "body is not UTF-8", rid)),
    };
    let req: InferRequest = match serde_json::from_str(body) {
        Ok(r) => r,
        Err(e) => return Err(error(Status::BAD_REQUEST, &format!("bad request body: {e}"), rid)),
    };
    if req.inputs.is_empty() {
        return Err(error(Status::BAD_REQUEST, "inputs must not be empty", rid));
    }
    let entry = match registry.resolve(req.model.as_deref()) {
        Ok(e) => e,
        Err(e) => return Err(registry_error(&e, rid)),
    };
    // The span id ties this request's queue-wait spans back to its
    // X-Request-Id.
    let span_id = trace::span_id_from(rid);
    Ok(InferPlan { entry, inputs: req.inputs, span_id })
}

/// `POST /v1/infer`, blocking flavor (threaded front): decode, submit
/// every plane, await them all.
fn infer(request: &Request, registry: &ModelRegistry, rid: &str) -> Reply {
    let plan = match decode_infer(request, registry, rid) {
        Ok(p) => p,
        Err(reply) => return reply,
    };
    // Two-phase so one request's planes can share a batch: enqueue all,
    // then wait for all.
    let submitted = Instant::now();
    let mut tickets = Vec::with_capacity(plan.inputs.len());
    for input in plan.inputs {
        match plan.entry.batcher().submit_traced(input, plan.span_id) {
            Ok(t) => tickets.push(t),
            Err(e) => return infer_error(&e, rid),
        }
    }
    let mut outputs = Vec::with_capacity(tickets.len());
    for ticket in tickets {
        match ticket.wait() {
            Ok(out) => outputs.push(out),
            Err(e) => return infer_error(&e, rid),
        }
    }
    plan.entry.metrics().request_latency.record_micros(submitted.elapsed());
    ok(&InferResponse { model: plan.entry.name().to_string(), outputs }, rid)
}

/// `POST /v1/models/{name}/reload`.
fn reload(name: &str, registry: &ModelRegistry, rid: &str) -> Reply {
    match registry.reload(name) {
        Ok(()) => match registry.get(name) {
            Ok(entry) => ok(&entry.info(), rid),
            Err(e) => registry_error(&e, rid),
        },
        Err(e) => registry_error(&e, rid),
    }
}

/// `GET /v1/models/{name}/profile`: the deployed plan's per-layer
/// latency profile.
fn profile(name: &str, registry: &ModelRegistry, rid: &str) -> Reply {
    match registry.get(name) {
        Ok(entry) => ok(
            &ModelProfileResponse {
                model: entry.name().to_string(),
                backend: entry.net().backend_kind().name().to_string(),
                profile: entry.profile_snapshot(),
            },
            rid,
        ),
        Err(e) => registry_error(&e, rid),
    }
}

/// `POST /v1/models/{name}/profile/reset`: zero the per-layer counters
/// and return the freshly zeroed profile.
fn reset_profile(name: &str, registry: &ModelRegistry, rid: &str) -> Reply {
    match registry.get(name) {
        Ok(entry) => {
            entry.reset_profile();
            ok(
                &ModelProfileResponse {
                    model: entry.name().to_string(),
                    backend: entry.net().backend_kind().name().to_string(),
                    profile: entry.profile_snapshot(),
                },
                rid,
            )
        }
        Err(e) => registry_error(&e, rid),
    }
}

/// `GET /v1/models/{name}/trace`: the model's trace ring as Chrome
/// `trace_event` JSON (load into `chrome://tracing` or Perfetto).
fn export_trace(name: &str, registry: &ModelRegistry, rid: &str) -> Reply {
    let entry = match registry.get(name) {
        Ok(e) => e,
        Err(e) => return registry_error(&e, rid),
    };
    let Some(buffer) = entry.trace() else {
        return error(
            Status::CONFLICT,
            "event tracing is disabled; restart the server with a trace buffer (--trace-events)",
            rid,
        );
    };
    let net = entry.net();
    let events = buffer.snapshot();
    Reply {
        status: Status::OK,
        content_type: "application/json",
        body: wp_engine::chrome_trace_json(&events, &net.layer_kinds(), entry.name()),
        retry_after: None,
    }
}

pub(crate) fn ok<T: Serialize>(body: &T, rid: &str) -> Reply {
    match serde_json::to_string(body) {
        Ok(s) => Reply {
            status: Status::OK,
            content_type: "application/json",
            body: s,
            retry_after: None,
        },
        Err(e) => error(Status::INTERNAL, &format!("serialization failed: {e}"), rid),
    }
}

pub(crate) fn error(status: Status, message: &str, rid: &str) -> Reply {
    let body = serde_json::to_string(&ErrorResponse {
        error: message.to_string(),
        request_id: Some(rid.to_string()),
    })
    .unwrap_or_else(|_| "{\"error\":\"error\"}".into());
    Reply { status, content_type: "application/json", body, retry_after: None }
}

pub(crate) fn registry_error(e: &RegistryError, rid: &str) -> Reply {
    let status = match e {
        RegistryError::UnknownModel(_) => Status::NOT_FOUND,
        RegistryError::NotFileBacked(_) => Status::CONFLICT,
        RegistryError::LoadFailed(_) => Status::INTERNAL,
    };
    error(status, &e.to_string(), rid)
}

pub(crate) fn infer_error(e: &InferError, rid: &str) -> Reply {
    let status = match e {
        InferError::BadInput(_) => Status::BAD_REQUEST,
        InferError::Overloaded | InferError::ShuttingDown => Status::UNAVAILABLE,
    };
    let mut reply = error(status, &e.to_string(), rid);
    if matches!(e, InferError::Overloaded) {
        // The queue drains within a flush interval; 1s is a safe floor
        // for the minimum Retry-After granularity HTTP allows.
        reply.retry_after = Some(1);
    }
    reply
}
