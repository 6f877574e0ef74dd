//! The TCP front end: server configuration, routing, and request-scoped
//! ids.
//!
//! ```text
//!                 ┌─ event front (crate::event) ──────────────────┐
//! TcpListener ──▶ │ epoll readiness loop × event_threads:         │
//!   accept        │   nonblocking sockets, incremental parse,     │
//!                 │   callback infer, chunked writes on EPOLLOUT  │
//!                 └───────────────┬───────────────────────────────┘
//!                                 ▼  ModelRegistry.resolve()
//!                        per-model Batcher queue
//!                                 │  flush on max_batch or max_wait
//!                                 ▼
//!                  BatchRunner.run (batched, bit-identical)
//! ```
//!
//! The one connection front is the **event front** ([`crate::event`]): a
//! few epoll threads multiplex thousands of mostly-idle keep-alive
//! connections. It answers `POST /v1/infer` through the batcher's
//! nonblocking callback path and every other endpoint inline through
//! this module's router. The front is epoll-based, so serving is
//! Linux-only: elsewhere [`serve`] returns an
//! [`std::io::ErrorKind::Unsupported`] error.

// Off Linux nothing starts a front, so the router is unreachable there.
#![cfg_attr(not(target_os = "linux"), allow(dead_code))]

use crate::batcher::InferError;
use crate::http::{Request, Status};
use crate::prometheus;
use crate::protocol::{
    ErrorResponse, HealthResponse, InferRequest, ModelProfileResponse, ModelsResponse,
};
use crate::registry::{ModelEntry, ModelRegistry, RegistryError};
use serde::Serialize;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use wp_engine::trace;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Event threads (each owns an epoll instance and a share of the
    /// connections).
    pub event_threads: usize,
    /// Mid-request deadline: a peer that started a request must finish
    /// sending it within this long or gets `408` and a close (the
    /// slowloris bound).
    pub read_timeout: Duration,
    /// Keep-alive idle deadline: a connection with no partial request is
    /// silently closed after this long.
    pub idle_timeout: Duration,
    /// Unflushed-response deadline: a peer that stops draining its
    /// responses for this long is closed.
    pub write_timeout: Duration,
    /// Whether `POST /v1/shutdown` is honored (off unless the operator
    /// opts in — a load generator's clean-shutdown hook, not a public
    /// endpoint).
    pub allow_remote_shutdown: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            event_threads: 2,
            read_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(60),
            write_timeout: Duration::from_secs(10),
            allow_remote_shutdown: false,
        }
    }
}

/// What the running front hands back: its threads (accept + event
/// loops) and a waker that kicks the event threads out of `epoll_wait`.
pub(crate) struct FrontRuntime {
    pub(crate) threads: Vec<std::thread::JoinHandle<()>>,
    pub(crate) wake: Box<dyn Fn() + Send + Sync>,
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
        // Nudge the accept loop out of its blocking accept, and wake the
        // event threads out of epoll_wait.
        let _ = TcpStream::connect(self.addr);
        (self.front.wake)();
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

/// Binds and starts serving `registry` under `config`.
///
/// # Errors
///
/// Returns any bind or epoll/eventfd setup error, and
/// [`std::io::ErrorKind::Unsupported`] off Linux (the event front needs
/// epoll).
pub fn serve(config: ServerConfig, registry: Arc<ModelRegistry>) -> std::io::Result<ServerHandle> {
    #[cfg(target_os = "linux")]
    {
        let listener = std::net::TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let front = crate::event::start(listener, &config, &registry, &shutdown)?;
        Ok(ServerHandle { addr, shutdown, front, registry })
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (config, registry);
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "serving needs the epoll event front, which is Linux-only",
        ))
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

/// One routed response: status, content type, rendered body, and an
/// optional `Retry-After` hint in seconds (set on overload 503s so
/// well-behaved clients back off instead of hammering a full queue).
pub(crate) struct Reply {
    pub(crate) status: Status,
    pub(crate) content_type: &'static str,
    pub(crate) body: String,
    pub(crate) retry_after: Option<u32>,
}

/// Routes one parsed request to a synchronous endpoint. The event front
/// intercepts `POST /v1/infer` before calling this (its infer path must
/// not block); every other endpoint is served inline.
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
/// the request id. The event front submits it through the batcher's
/// callback path.
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
