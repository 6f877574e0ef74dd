//! The event-driven connection front: a thin std-only `epoll` FFI layer
//! and a small pool of event threads, each owning an epoll instance and a
//! share of the server's connections.
//!
//! ```text
//!  accept thread ──round robin──▶ event thread 0..N
//!                                  ├── epoll_wait(100ms)       ◀─ eventfd wake
//!                                  ├── readiness: nonblocking read → RequestParser
//!                                  │     sync endpoints: route() inline
//!                                  │     POST /v1/infer: Batcher::submit_callback
//!                                  │        (flusher thread → completion queue → eventfd)
//!                                  ├── completions: encode response → WriteBuf
//!                                  │     (chunked transfer encoding ≥ 32 KiB)
//!                                  └── deadline wheel sweep: idle reap /
//!                                        slowloris 408 / dead-peer close
//! ```
//!
//! Design choices, and why:
//!
//! * **No crates**: the build environment is offline, so `epoll` is bound
//!   directly with `extern "C"` declarations — std already links libc on
//!   Linux, the symbols are there. The module is `cfg(target_os =
//!   "linux")`; elsewhere [`crate::server::serve`] returns `Unsupported`,
//!   so serving is Linux-only.
//! * **Level-triggered** events: simpler invariants than edge-triggered
//!   (a missed wakeup self-heals on the next `epoll_wait`), and the
//!   syscall savings of edge mode are noise next to inference work.
//! * **Blocking is banned on event threads.** Inference hands off through
//!   [`crate::batcher::Batcher::submit_callback`]; the completion path
//!   (flusher thread) pushes onto this thread's completion queue and
//!   writes its eventfd. A connection with an inference in flight parses
//!   no further pipelined requests, which is what guarantees in-order
//!   responses on a pipelined connection.
//! * **One wheel entry per connection** ([`DeadlineWheel`] lazy
//!   semantics): deadlines rearm by rewriting `Connection::deadline`;
//!   the wheel entry is only re-filed when a deadline moves *earlier*
//!   (idle → mid-request), so the hot request path does no wheel work.
//! * The `epoll_wait` timeout doubles as the deadline-wheel tick — no
//!   separate timer machinery.

#![cfg(target_os = "linux")]

use crate::batcher::InferError;
use crate::conn::{Connection, DeadlinePhase, DeadlineWheel, Slab, Timeouts, Token};
use crate::http::{self, HttpError, Request, Status};
use crate::metrics::{LatencyHistogram, Metrics};
use crate::protocol::{ErrorResponse, InferResponse};
use crate::registry::{ModelEntry, ModelRegistry};
use crate::server::{self, FrontRuntime, Reply, ServerConfig};
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The vendored epoll/eventfd surface — exactly the constants and calls
/// the loop needs, values from the Linux UAPI headers.
mod ffi {
    /// Mirrors `struct epoll_event`. x86_64 is the one ABI where the
    /// kernel declares it packed.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    impl EpollEvent {
        pub fn zeroed() -> Self {
            Self { events: 0, data: 0 }
        }
    }

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn eventfd(initval: u32, flags: i32) -> i32;
        pub fn close(fd: i32) -> i32;
        pub fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLL_CLOEXEC: i32 = 0x8_0000;

    pub const EFD_CLOEXEC: i32 = 0x8_0000;
    pub const EFD_NONBLOCK: i32 = 0x800;
}

pub use ffi::EpollEvent;

/// Readiness bits that mean "the read side has something for us" —
/// includes error/hangup states, which surface as EOF or an error from
/// `read` and are handled on that path.
const READABLE: u32 = ffi::EPOLLIN | ffi::EPOLLERR | ffi::EPOLLHUP | ffi::EPOLLRDHUP;

/// Interest set every connection always has registered.
const BASE_INTEREST: u32 = ffi::EPOLLIN | ffi::EPOLLRDHUP;

/// The epoll user-data value reserved for the thread's wakeup eventfd.
/// Slab tokens can't collide with it: their high word is a generation
/// counter that would take 2^32 reuses of slot `u32::MAX` to reach.
const WAKE_TOKEN: u64 = u64::MAX;

/// `epoll_wait` timeout = deadline wheel tick.
const WAIT_MS: i32 = 100;

/// Wheel geometry: 64 slots × 100ms tick = 6.4s per revolution. Longer
/// deadlines (the 60s idle default) alias around the wheel and get
/// lazily reinserted a handful of times — bounded, cheap churn.
const WHEEL_SLOTS: usize = 64;

/// How long a shutting-down event thread keeps flushing in-flight
/// responses before exiting regardless.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(3);

/// A minimal epoll instance wrapper (closes on drop).
pub struct Epoll {
    fd: i32,
}

impl Epoll {
    /// Creates an epoll instance.
    ///
    /// # Errors
    ///
    /// The `epoll_create1` errno.
    pub fn new() -> io::Result<Self> {
        let fd = unsafe { ffi::epoll_create1(ffi::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self { fd })
    }

    fn ctl(&self, op: i32, fd: i32, events: u32, data: u64) -> io::Result<()> {
        let mut ev = ffi::EpollEvent { events, data };
        let rc = unsafe { ffi::epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` for `events`, tagging readiness with `data`.
    ///
    /// # Errors
    ///
    /// The `epoll_ctl` errno.
    pub fn add(&self, fd: i32, events: u32, data: u64) -> io::Result<()> {
        self.ctl(ffi::EPOLL_CTL_ADD, fd, events, data)
    }

    /// Replaces `fd`'s interest set.
    ///
    /// # Errors
    ///
    /// The `epoll_ctl` errno.
    pub fn modify(&self, fd: i32, events: u32, data: u64) -> io::Result<()> {
        self.ctl(ffi::EPOLL_CTL_MOD, fd, events, data)
    }

    /// Deregisters `fd`.
    ///
    /// # Errors
    ///
    /// The `epoll_ctl` errno.
    pub fn delete(&self, fd: i32) -> io::Result<()> {
        // The event argument is ignored for DEL (and only allowed to be
        // NULL on kernels ≥ 2.6.9); pass a zeroed one for portability.
        self.ctl(ffi::EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits up to `timeout_ms` for readiness, filling `events`; retries
    /// `EINTR` internally.
    ///
    /// # Errors
    ///
    /// The `epoll_wait` errno.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            let n = unsafe {
                ffi::epoll_wait(
                    self.fd,
                    events.as_mut_ptr(),
                    i32::try_from(events.len()).unwrap_or(i32::MAX),
                    timeout_ms,
                )
            };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { ffi::close(self.fd) };
    }
}

/// A nonblocking eventfd used to wake an event thread out of
/// `epoll_wait` from other threads (the acceptor, batcher flushers, the
/// shutdown path). Closes on drop.
pub struct EventFd {
    fd: i32,
}

impl EventFd {
    /// Creates a nonblocking eventfd.
    ///
    /// # Errors
    ///
    /// The `eventfd` errno.
    pub fn new() -> io::Result<Self> {
        let fd = unsafe { ffi::eventfd(0, ffi::EFD_CLOEXEC | ffi::EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self { fd })
    }

    /// The raw fd (for epoll registration).
    pub fn raw_fd(&self) -> i32 {
        self.fd
    }

    /// Wakes the owning loop. Safe from any thread; coalesces (the
    /// counter saturates, readiness stays level until drained).
    pub fn wake(&self) {
        let one: u64 = 1;
        let _ = unsafe { ffi::write(self.fd, std::ptr::addr_of!(one).cast(), 8) };
    }

    /// Consumes all pending wakes.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        // Nonblocking: one read empties the counter; loop in case of
        // EINTR-style partial behavior.
        while unsafe { ffi::read(self.fd, buf.as_mut_ptr(), 8) } > 0 {}
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        unsafe { ffi::close(self.fd) };
    }
}

// ---------------------------------------------------------------------------
// Cross-thread plumbing
// ---------------------------------------------------------------------------

/// One completed (or synchronously failed) `/v1/infer` request coming
/// back to its event thread.
struct Completion {
    token: Token,
    reply: Reply,
    rid: String,
    keep_alive: bool,
    /// When the request was parsed, for whole-request latency.
    started: Instant,
}

/// The mailbox other threads use to hand work to one event thread.
struct ThreadShared {
    /// Freshly accepted sockets from the acceptor.
    incoming: Mutex<Vec<TcpStream>>,
    /// Finished inference requests from batcher flusher threads.
    completions: Mutex<Vec<Completion>>,
    /// Kicks the thread out of `epoll_wait` when either queue fills.
    wake: EventFd,
}

/// Aggregates one infer request's plane callbacks back into a single
/// [`Reply`]; the last plane to complete (success or failure) builds the
/// reply on the flusher thread and mails it to the owning event thread.
struct InferJob {
    state: Mutex<JobState>,
    entry: Arc<ModelEntry>,
    shared: Arc<ThreadShared>,
    token: Token,
    rid: String,
    keep_alive: bool,
    started: Instant,
    submitted: Instant,
}

struct JobState {
    outputs: Vec<Option<Vec<i32>>>,
    error: Option<InferError>,
    remaining: usize,
}

impl InferJob {
    fn complete(&self, index: usize, result: Result<Vec<i32>, InferError>) {
        let reply = {
            let mut st = self.state.lock().expect("infer job poisoned");
            match result {
                Ok(out) => st.outputs[index] = Some(out),
                Err(e) => {
                    // First error wins: the reply reports the first
                    // plane that failed.
                    if st.error.is_none() {
                        st.error = Some(e);
                    }
                }
            }
            st.remaining -= 1;
            if st.remaining > 0 {
                return;
            }
            match &st.error {
                Some(e) => server::infer_error(e, &self.rid),
                None => {
                    self.entry.metrics().request_latency.record_micros(self.submitted.elapsed());
                    let outputs: Vec<Vec<i32>> = st
                        .outputs
                        .drain(..)
                        .map(|o| o.expect("all planes completed without error"))
                        .collect();
                    server::ok(
                        &InferResponse { model: self.entry.name().to_string(), outputs },
                        &self.rid,
                    )
                }
            }
        };
        self.shared.completions.lock().expect("completion queue poisoned").push(Completion {
            token: self.token,
            reply,
            rid: self.rid.clone(),
            keep_alive: self.keep_alive,
            started: self.started,
        });
        self.shared.wake.wake();
    }
}

// ---------------------------------------------------------------------------
// Front startup
// ---------------------------------------------------------------------------

/// Starts the event front: `config.event_threads` epoll loops plus one
/// accept thread distributing connections round-robin.
///
/// # Errors
///
/// Any epoll/eventfd creation error.
pub(crate) fn start(
    listener: TcpListener,
    config: &ServerConfig,
    registry: &Arc<ModelRegistry>,
    shutdown: &Arc<AtomicBool>,
) -> io::Result<FrontRuntime> {
    let n_threads = config.event_threads.max(1);
    let metrics = Arc::clone(registry.metrics());
    let timeouts = Timeouts {
        idle: config.idle_timeout,
        read: config.read_timeout,
        write: config.write_timeout,
    };

    let mut shareds = Vec::with_capacity(n_threads);
    let mut threads = Vec::with_capacity(n_threads + 1);
    for i in 0..n_threads {
        let shared = Arc::new(ThreadShared {
            incoming: Mutex::new(Vec::new()),
            completions: Mutex::new(Vec::new()),
            wake: EventFd::new()?,
        });
        let epoll = Epoll::new()?;
        epoll.add(shared.wake.raw_fd(), ffi::EPOLLIN, WAKE_TOKEN)?;
        let looper = EventLoop {
            epoll,
            slab: Slab::new(),
            wheel: DeadlineWheel::new(
                WHEEL_SLOTS,
                Duration::from_millis(WAIT_MS as u64),
                Instant::now(),
            ),
            shared: Arc::clone(&shared),
            registry: Arc::clone(registry),
            metrics: Arc::clone(&metrics),
            shutdown: Arc::clone(shutdown),
            timeouts,
            config: config.clone(),
            hist: metrics.register_event_loop(),
        };
        shareds.push(shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("wp-event-{i}"))
                .spawn(move || looper.run())
                .expect("spawn event thread"),
        );
    }

    let accept_thread = {
        let shutdown = Arc::clone(shutdown);
        let metrics = Arc::clone(&metrics);
        let shareds = shareds.clone();
        std::thread::Builder::new()
            .name("wp-accept".into())
            .spawn(move || {
                let mut next = 0usize;
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    metrics.connections_accepted.fetch_add(1, Ordering::Relaxed);
                    let shared = &shareds[next % shareds.len()];
                    next = next.wrapping_add(1);
                    shared.incoming.lock().expect("incoming queue poisoned").push(stream);
                    shared.wake.wake();
                }
            })
            .expect("spawn accept loop")
    };
    threads.push(accept_thread);

    let wake: Box<dyn Fn() + Send + Sync> = Box::new(move || {
        for s in &shareds {
            s.wake.wake();
        }
    });
    Ok(FrontRuntime { threads, wake })
}

// ---------------------------------------------------------------------------
// The loop
// ---------------------------------------------------------------------------

/// Everything one event thread owns.
struct EventLoop {
    epoll: Epoll,
    slab: Slab<Connection>,
    wheel: DeadlineWheel,
    shared: Arc<ThreadShared>,
    registry: Arc<ModelRegistry>,
    metrics: Arc<Metrics>,
    shutdown: Arc<AtomicBool>,
    timeouts: Timeouts,
    config: ServerConfig,
    /// This thread's loop-iteration busy-time histogram.
    hist: Arc<LatencyHistogram>,
}

/// What a fired wheel candidate needs done, decided while the connection
/// is borrowed, executed after.
enum Sweep {
    Fire(DeadlinePhase),
    Reinsert(Instant),
}

impl EventLoop {
    fn run(mut self) {
        let mut events = vec![EpollEvent::zeroed(); 1024];
        let mut draining_since: Option<Instant> = None;
        loop {
            let n = self.epoll.wait(&mut events, WAIT_MS).unwrap_or(0);
            let busy_start = Instant::now();
            for ev in &events[..n] {
                // Copy out of the (possibly packed) struct before use.
                let data = ev.data;
                let flags = ev.events;
                if data == WAKE_TOKEN {
                    self.shared.wake.drain();
                    continue;
                }
                self.on_ready(Token(data), flags, busy_start);
            }
            let now = Instant::now();
            self.drain_incoming(now);
            self.drain_completions(now);
            self.sweep(now);

            if self.shutdown.load(Ordering::SeqCst) {
                let since = *draining_since.get_or_insert(now);
                // Reap everything with nothing left to deliver; keep
                // flushing the rest under the grace period.
                for token in self.slab.tokens() {
                    let reapable =
                        self.slab.get(token).is_some_and(|c| !c.inflight && c.out.is_empty());
                    if reapable {
                        self.close(token, false);
                    }
                }
                if self.slab.is_empty() || now.duration_since(since) > SHUTDOWN_GRACE {
                    self.hist.record_micros(busy_start.elapsed());
                    return;
                }
            }
            self.hist.record_micros(busy_start.elapsed());
        }
    }

    /// Handles readiness on one connection: read whatever arrived, then
    /// make request progress and flush.
    fn on_ready(&mut self, token: Token, flags: u32, now: Instant) {
        if flags & READABLE != 0 {
            let Some(conn) = self.slab.get_mut(token) else { return };
            let mut buf = [0u8; 16 * 1024];
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        conn.peer_closed = true;
                        break;
                    }
                    Ok(n) => {
                        conn.parser.feed(&buf[..n]);
                        if n < buf.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        conn.peer_closed = true;
                        break;
                    }
                }
            }
        }
        self.process(token, now);
    }

    /// Parses and dispatches as many buffered requests as allowed (stops
    /// at an in-flight inference to keep pipelined responses in order),
    /// then flushes output and rearms deadlines.
    fn process(&mut self, token: Token, now: Instant) {
        loop {
            let parsed = {
                let Some(conn) = self.slab.get_mut(token) else { return };
                if conn.inflight || conn.close_after_flush {
                    break;
                }
                conn.parser.try_parse()
            };
            match parsed {
                Ok(Some(request)) => self.dispatch(token, request),
                Ok(None) => break,
                Err(e) => {
                    self.enqueue_parse_error(token, &e);
                    break;
                }
            }
        }
        self.finish_io(token, now);
    }

    /// Routes one request. Sync endpoints answer inline; `/v1/infer`
    /// submits to the batcher and leaves the connection in-flight.
    fn dispatch(&mut self, token: Token, request: Request) {
        let started = Instant::now();
        self.metrics.http_requests.fetch_add(1, Ordering::Relaxed);
        // Evaluated before routing, so a /v1/shutdown request's own
        // response still says keep-alive.
        let keep_alive = request.keep_alive() && !self.shutdown.load(Ordering::SeqCst);
        let rid = server::request_id(&request);

        let path = request.path.split_once('?').map_or(request.path.as_str(), |(p, _)| p);
        if request.method == "POST" && path == "/v1/infer" {
            match server::decode_infer(&request, &self.registry, &rid) {
                Err(reply) => self.enqueue_reply(token, &reply, &rid, keep_alive, started),
                Ok(plan) => {
                    if let Some(conn) = self.slab.get_mut(token) {
                        conn.inflight = true;
                    }
                    let job = Arc::new(InferJob {
                        state: Mutex::new(JobState {
                            outputs: vec![None; plan.inputs.len()],
                            error: None,
                            remaining: plan.inputs.len(),
                        }),
                        entry: plan.entry,
                        shared: Arc::clone(&self.shared),
                        token,
                        rid,
                        keep_alive,
                        started,
                        submitted: Instant::now(),
                    });
                    for (i, input) in plan.inputs.into_iter().enumerate() {
                        let cb = Arc::clone(&job);
                        job.entry
                            .batcher()
                            .submit_callback(input, plan.span_id, move |r| cb.complete(i, r));
                    }
                }
            }
        } else {
            let reply = server::route(&request, &self.registry, &self.shutdown, &self.config, &rid);
            self.enqueue_reply(token, &reply, &rid, keep_alive, started);
        }
    }

    /// Records response metrics and queues the encoded response bytes.
    fn enqueue_reply(
        &mut self,
        token: Token,
        reply: &Reply,
        rid: &str,
        keep_alive: bool,
        started: Instant,
    ) {
        let class = match reply.status.0 {
            200..=299 => &self.metrics.responses_ok,
            400..=499 => &self.metrics.responses_client_error,
            _ => &self.metrics.responses_server_error,
        };
        class.fetch_add(1, Ordering::Relaxed);
        self.metrics.request_latency.record_micros(started.elapsed());
        let retry_after = reply.retry_after.map(|s| s.to_string());
        let mut headers: Vec<(&str, &str)> = vec![("X-Request-Id", rid)];
        if let Some(retry_after) = &retry_after {
            headers.push(("Retry-After", retry_after));
        }
        let bytes = http::encode_response(
            reply.status,
            reply.content_type,
            &headers,
            reply.body.as_bytes(),
            keep_alive,
        );
        let Some(conn) = self.slab.get_mut(token) else { return };
        conn.out.push(bytes);
        if !keep_alive {
            conn.close_after_flush = true;
        }
    }

    /// Answers a protocol violation with a 400 (malformed) or 413 (too
    /// large), then closes after flushing.
    fn enqueue_parse_error(&mut self, token: Token, err: &HttpError) {
        let (status, message) = match err {
            HttpError::Malformed(m) => (Status::BAD_REQUEST, m.clone()),
            HttpError::TooLarge(m) => (Status::PAYLOAD_TOO_LARGE, m.clone()),
            // Only an EOF mid-body yields Io: there is no request to
            // answer.
            HttpError::Io(_) => return,
        };
        self.metrics.http_requests.fetch_add(1, Ordering::Relaxed);
        self.metrics.responses_client_error.fetch_add(1, Ordering::Relaxed);
        let body = serde_json::to_string(&ErrorResponse { error: message, request_id: None })
            .unwrap_or_else(|_| "{}".into());
        let bytes = http::encode_response(status, "application/json", &[], body.as_bytes(), false);
        if let Some(conn) = self.slab.get_mut(token) {
            conn.out.push(bytes);
            conn.close_after_flush = true;
        }
    }

    /// Flushes queued output, closes if the connection is finished, and
    /// otherwise rearms its deadline, EPOLLOUT interest, and (when the
    /// deadline moved earlier) its wheel entry.
    fn finish_io(&mut self, token: Token, now: Instant) {
        // A peer that half-closed mid-head gets a 400
        // ([`RequestParser::eof_error`]; mid-body EOFs stay silent —
        // there is no request to answer).
        let eof_err = {
            let Some(conn) = self.slab.get_mut(token) else { return };
            if conn.peer_closed && !conn.close_after_flush && !conn.inflight {
                conn.parser.eof_error()
            } else {
                None
            }
        };
        if let Some(err) = eof_err {
            self.enqueue_parse_error(token, &err);
        }
        let mut close = false;
        {
            let Some(conn) = self.slab.get_mut(token) else { return };
            let mut wrote = false;
            if !conn.out.is_empty() {
                match conn.out.write_to(&mut conn.stream) {
                    Ok(n) => wrote = n > 0,
                    Err(_) => close = true,
                }
            }
            if !close {
                let drained = conn.out.is_empty();
                if drained && conn.close_after_flush {
                    close = true;
                } else if conn.peer_closed && drained && !conn.inflight {
                    // Clean EOF (or a dead socket) with nothing left to
                    // send: reap silently.
                    close = true;
                }
            }
            if !close {
                conn.rearm_deadline(now, &self.timeouts, wrote);
            }
        }
        if close {
            self.close(token, false);
            return;
        }
        self.update_interest(token);
        // Re-file the wheel entry only when the governing deadline moved
        // earlier than where the entry sits (e.g. idle 60s → read 5s).
        let refile = {
            let Some(conn) = self.slab.get_mut(token) else { return };
            if conn.deadline < conn.wheel_at {
                conn.wheel_at = conn.deadline;
                Some(conn.deadline)
            } else {
                None
            }
        };
        if let Some(deadline) = refile {
            self.wheel.insert(token, deadline);
        }
    }

    /// Toggles EPOLLOUT registration to match whether output is queued —
    /// one `epoll_ctl` per transition, not per event.
    fn update_interest(&mut self, token: Token) {
        let Some(conn) = self.slab.get_mut(token) else { return };
        let want_out = !conn.out.is_empty();
        if want_out == conn.interest_out {
            return;
        }
        let events = BASE_INTEREST | if want_out { ffi::EPOLLOUT } else { 0 };
        if self.epoll.modify(conn.stream.as_raw_fd(), events, token.0).is_ok() {
            conn.interest_out = want_out;
        }
    }

    /// Registers freshly accepted sockets handed over by the acceptor.
    fn drain_incoming(&mut self, now: Instant) {
        let streams: Vec<TcpStream> = {
            let mut q = self.shared.incoming.lock().expect("incoming queue poisoned");
            if q.is_empty() {
                return;
            }
            q.drain(..).collect()
        };
        for stream in streams {
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            stream.set_nodelay(true).ok();
            let fd = stream.as_raw_fd();
            let token = self.slab.insert(Connection::new(stream, now, self.timeouts.idle));
            if self.epoll.add(fd, BASE_INTEREST, token.0).is_err() {
                self.slab.remove(token);
                continue;
            }
            self.metrics.connections_open.fetch_add(1, Ordering::Relaxed);
            self.wheel.insert(token, now + self.timeouts.idle);
        }
    }

    /// Delivers finished inference replies, then resumes any pipelined
    /// requests the connection buffered while in flight.
    fn drain_completions(&mut self, now: Instant) {
        let completions: Vec<Completion> = {
            let mut q = self.shared.completions.lock().expect("completion queue poisoned");
            if q.is_empty() {
                return;
            }
            q.drain(..).collect()
        };
        for c in completions {
            // The connection may have been reaped (write timeout, peer
            // reset) while the batch ran; the generation check makes the
            // stale completion a no-op.
            let Some(conn) = self.slab.get_mut(c.token) else { continue };
            conn.inflight = false;
            self.enqueue_reply(c.token, &c.reply, &c.rid, c.keep_alive, c.started);
            self.process(c.token, now);
        }
    }

    /// Checks fired wheel candidates against their authoritative
    /// deadlines: reinsert the not-yet-due, act on the expired.
    fn sweep(&mut self, now: Instant) {
        for token in self.wheel.expired(now) {
            let verdict = {
                let Some(conn) = self.slab.get_mut(token) else { continue };
                if now >= conn.deadline {
                    Sweep::Fire(conn.phase)
                } else {
                    conn.wheel_at = conn.deadline;
                    Sweep::Reinsert(conn.deadline)
                }
            };
            match verdict {
                Sweep::Reinsert(deadline) => self.wheel.insert(token, deadline),
                Sweep::Fire(DeadlinePhase::Idle) => {
                    // Keep-alive connection with nothing pending: reap.
                    self.close(token, true);
                }
                Sweep::Fire(DeadlinePhase::Read) => {
                    // Slowloris: a request has been trickling in longer
                    // than the read deadline. 408, then close.
                    self.metrics.connections_timed_out.fetch_add(1, Ordering::Relaxed);
                    self.metrics.http_requests.fetch_add(1, Ordering::Relaxed);
                    self.metrics.responses_client_error.fetch_add(1, Ordering::Relaxed);
                    let body = serde_json::to_string(&ErrorResponse {
                        error: "request timed out waiting for the rest of the request".into(),
                        request_id: None,
                    })
                    .unwrap_or_else(|_| "{}".into());
                    let bytes = http::encode_response(
                        Status::REQUEST_TIMEOUT,
                        "application/json",
                        &[],
                        body.as_bytes(),
                        false,
                    );
                    if let Some(conn) = self.slab.get_mut(token) {
                        conn.out.push(bytes);
                        conn.close_after_flush = true;
                    }
                    self.finish_io(token, now);
                }
                Sweep::Fire(DeadlinePhase::Write) => {
                    // Dead peer: queued output it never drained.
                    self.close(token, true);
                }
            }
        }
    }

    /// Deregisters and drops a connection. `timed_out` closes are the
    /// deadline wheel's (idle reap / slowloris / dead peer) and counted
    /// as such.
    fn close(&mut self, token: Token, timed_out: bool) {
        let Some(conn) = self.slab.remove(token) else { return };
        let _ = self.epoll.delete(conn.stream.as_raw_fd());
        self.metrics.connections_open.fetch_sub(1, Ordering::Relaxed);
        if timed_out {
            self.metrics.connections_timed_out.fetch_add(1, Ordering::Relaxed);
        }
        // Socket closes when `conn` drops here.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    /// The FFI layer end-to-end: register a loopback socket, observe
    /// EPOLLIN with the right token when bytes arrive.
    #[test]
    fn epoll_reports_readiness_with_token() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let epoll = Epoll::new().unwrap();
        epoll.add(server_side.as_raw_fd(), ffi::EPOLLIN, 42).unwrap();

        let mut events = [EpollEvent::zeroed(); 8];
        // Nothing yet.
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);

        client.write_all(b"ping").unwrap();
        let n = epoll.wait(&mut events, 2000).unwrap();
        assert_eq!(n, 1);
        let data = events[0].data;
        let flags = events[0].events;
        assert_eq!(data, 42);
        assert_ne!(flags & ffi::EPOLLIN, 0);

        epoll.delete(server_side.as_raw_fd()).unwrap();
        client.write_all(b"more").unwrap();
        assert_eq!(epoll.wait(&mut events, 50).unwrap(), 0, "deleted fd must not report");
    }

    /// EPOLLOUT interest via modify: a connected socket is immediately
    /// writable.
    #[test]
    fn epoll_modify_toggles_writable_interest() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let epoll = Epoll::new().unwrap();
        epoll.add(server_side.as_raw_fd(), ffi::EPOLLIN, 7).unwrap();
        let mut events = [EpollEvent::zeroed(); 8];
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0, "no read interest satisfied");

        epoll.modify(server_side.as_raw_fd(), ffi::EPOLLIN | ffi::EPOLLOUT, 7).unwrap();
        let n = epoll.wait(&mut events, 2000).unwrap();
        assert_eq!(n, 1);
        let flags = events[0].events;
        assert_ne!(flags & ffi::EPOLLOUT, 0);
    }

    /// The eventfd wakes an epoll_wait from another thread and drains.
    #[test]
    fn eventfd_wakes_and_drains() {
        let epoll = Epoll::new().unwrap();
        let efd = Arc::new(EventFd::new().unwrap());
        epoll.add(efd.raw_fd(), ffi::EPOLLIN, WAKE_TOKEN).unwrap();

        let waker = Arc::clone(&efd);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
            waker.wake(); // coalesces
        });
        let mut events = [EpollEvent::zeroed(); 4];
        let n = epoll.wait(&mut events, 5000).unwrap();
        assert_eq!(n, 1);
        let data = events[0].data;
        assert_eq!(data, WAKE_TOKEN);
        efd.drain();
        // Level-triggered: drained counter must not re-report.
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
        t.join().unwrap();
    }
}
