//! Deploying a fabricated workload into `wp_server` and driving it over
//! real HTTP: two keep-alive connections, one client thread each, both
//! closed loop (a connection sends its next request when the previous
//! response has been read and checked).

use crate::client::{is_timeout, Conn, Response};
use crate::spans::ClientSpan;
use crate::stats::{median, percentile, slice_rates, tail_percentile, Outcome, Tally};
use crate::workload::{Class, ConnPlan, Fabricated};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};
use wp_engine::trace::now_ns;
use wp_server::batcher::BatcherConfig;
use wp_server::metrics::Metrics;
use wp_server::protocol::InferResponse;
use wp_server::registry::ModelRegistry;
use wp_server::server::{serve, ServerConfig, ServerHandle};

/// Client read/write timeout: a request with no response by then counts
/// as timed out.
pub const TIMEOUT: Duration = Duration::from_secs(10);

/// Reloads timed before and again after the window on workloads that do
/// not reload under load, spaced so that one burst of outside load
/// cannot cover them all.
const IDLE_RELOADS: usize = 8;
const IDLE_RELOAD_GAP: Duration = Duration::from_millis(100);

/// Deploys every model of `fab` from its WPB file into a fresh registry
/// and serves it on an ephemeral port. Returns the running server and
/// the set-up time: from the first bundle file read to the first `200`
/// from `GET /healthz` (decode, plan compile, bind).
///
/// # Errors
///
/// A bundle failed to load, the port could not be bound, or the server
/// never answered `/healthz`.
pub fn deploy(fab: &Fabricated, trace_capacity: usize) -> Result<(ServerHandle, Duration), String> {
    let started = Instant::now();
    let registry = Arc::new(
        ModelRegistry::new(BatcherConfig::default(), Arc::new(Metrics::new()))
            .with_trace_capacity(trace_capacity),
    );
    for m in fab.models() {
        registry.insert_file(&m.name, &m.path, m.opts.clone()).map_err(|e| e.to_string())?;
    }
    let handle = serve(ServerConfig::default(), registry).map_err(|e| e.to_string())?;
    let deadline = Instant::now() + TIMEOUT;
    loop {
        let healthy = Conn::connect(handle.addr(), TIMEOUT)
            .and_then(|mut c| c.request("GET", "/healthz", "pb-health", b""))
            .is_ok_and(|r| r.status == 200);
        if healthy {
            return Ok((handle, started.elapsed()));
        }
        if Instant::now() > deadline {
            return Err("server never answered /healthz".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One request a client sent inside the measured window.
#[derive(Debug, Clone)]
pub struct Record {
    /// The request as a span.
    pub span: ClientSpan,
    /// Which connection plan's class it belongs to.
    pub class: Class,
    /// Index of the body sent (into the connection's body list).
    pub body: usize,
    /// A reload rather than an inference.
    pub reload: bool,
    /// How it ended.
    pub outcome: Outcome,
}

impl Record {
    /// Client-observed latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.span.end_ns.saturating_sub(self.span.start_ns) as f64 / 1e6
    }
}

/// Completion slices a window is cut into; throughput is their median
/// rate.
const SLICES: usize = 21;

/// Requests per tail window: each reports p95, the highest ladder
/// percentile that leaves at least ten of 200 samples beyond it.
const TAIL_WINDOW: usize = 200;

/// A tail latency and how it was taken.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// Median over the windows of each window's tail, milliseconds.
    pub value_ms: f64,
    /// The lowest percentile a window reported (all report the same
    /// one unless the last window's remainder lifts it).
    pub percentile: f64,
    /// Windows the requests were cut into.
    pub windows: usize,
    /// Requests per window.
    pub per_window: usize,
}

/// What one load phase observed.
pub struct Load {
    /// Requests started inside the window, both connections.
    pub records: Vec<Record>,
    /// Window bounds, `now_ns` timebase.
    pub window_start_ns: u64,
    /// See `window_start_ns`.
    pub window_end_ns: u64,
    /// The first response that did not match the oracle, if any.
    pub mismatch: Option<String>,
    /// Per connection and body, the first `200` response body seen.
    pub responses: [Vec<Option<Vec<u8>>>; 2],
}

impl Load {
    /// Outcome counts of every request in the window.
    pub fn tally(&self) -> Tally {
        let mut t = Tally::default();
        for r in &self.records {
            t.record(r.outcome);
        }
        t
    }

    /// Inference records (reloads excluded).
    pub fn inferences(&self) -> impl Iterator<Item = &Record> {
        self.records.iter().filter(|r| !r.reload)
    }

    /// Successful inferences that completed inside the window, in
    /// completion order.
    fn completed(&self) -> Vec<&Record> {
        let mut done: Vec<&Record> = self
            .inferences()
            .filter(|r| r.outcome == Outcome::Ok && r.span.end_ns <= self.window_end_ns)
            .collect();
        done.sort_by_key(|r| r.span.end_ns);
        done
    }

    /// Verified images per second: the median rate of the window's
    /// completion slices (see [`slice_rates`]), so that a burst of
    /// outside load moves a few slices and not the result.
    pub fn throughput_ips(&self) -> f64 {
        let completions: Vec<(f64, u64)> = self
            .completed()
            .iter()
            .map(|r| {
                let t = (r.span.end_ns - self.window_start_ns) as f64 / 1e9;
                (t, u64::from(r.span.planes))
            })
            .collect();
        median(&slice_rates(&completions, SLICES))
    }

    /// Median latency of the requests that completed in the window.
    pub fn latency_p50_ms(&self) -> f64 {
        median(&self.completed().iter().map(|r| r.latency_ms()).collect::<Vec<_>>())
    }

    /// Latencies of successful inference requests, optionally of one
    /// class only.
    pub fn latencies_ms(&self, class: Option<Class>) -> Vec<f64> {
        self.inferences()
            .filter(|r| r.outcome == Outcome::Ok && class.is_none_or(|c| r.class == c))
            .map(Record::latency_ms)
            .collect()
    }

    /// The tail latency of the requests that completed in the window:
    /// in start order they are cut into windows of
    /// [`TAIL_WINDOW`] (the last window absorbs the remainder, and fewer
    /// requests make one window), each window reports its
    /// [`tail_percentile`], and the median window wins. The percentile
    /// stays fixed however many requests a run completes.
    pub fn tail_latency_ms(&self) -> Tail {
        let mut ok = self.completed();
        ok.sort_by_key(|r| r.span.start_ns);
        let windows = (ok.len() / TAIL_WINDOW).max(1);
        let per_window = ok.len() / windows;
        let tails: Vec<(f64, f64)> = (0..windows)
            .map(|w| {
                let end = if w + 1 == windows { ok.len() } else { (w + 1) * per_window };
                let lat: Vec<f64> =
                    ok[w * per_window..end].iter().map(|r| r.latency_ms()).collect();
                let p = tail_percentile(lat.len()).unwrap_or(100.0);
                (percentile(&lat, p), p)
            })
            .collect();
        let values: Vec<f64> = tails.iter().map(|t| t.0).collect();
        let percentile = tails.iter().map(|t| t.1).fold(100.0, f64::min);
        Tail { value_ms: median(&values), percentile, windows, per_window }
    }

    /// Latencies of the successful reloads in the window.
    pub fn reload_latencies_ms(&self) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.reload && r.outcome == Outcome::Ok)
            .map(Record::latency_ms)
            .collect()
    }
}

/// Checks a `200` body against the expected outputs.
fn verify(body: &[u8], model: &str, expected: &[Vec<i32>]) -> Result<(), String> {
    let text = std::str::from_utf8(body).map_err(|_| "response is not UTF-8".to_string())?;
    let resp: InferResponse =
        serde_json::from_str(text).map_err(|e| format!("unparseable response: {e}"))?;
    if resp.model != model {
        return Err(format!("served by {:?}, expected {model:?}", resp.model));
    }
    if resp.outputs != expected {
        return Err(format!(
            "outputs differ from the oracle: got {:?}, expected {:?}",
            resp.outputs.first(),
            expected.first()
        ));
    }
    Ok(())
}

/// One client connection that reconnects after a transport failure.
struct Client {
    addr: SocketAddr,
    conn: Option<Conn>,
}

impl Client {
    /// Sends a request; `Err(outcome)` when no response arrived.
    fn send(
        &mut self,
        method: &str,
        path: &str,
        rid: &str,
        body: &[u8],
    ) -> Result<Response, Outcome> {
        if self.conn.is_none() {
            self.conn = Some(Conn::connect(self.addr, TIMEOUT).map_err(|_| Outcome::Refused)?);
        }
        let conn = self.conn.as_mut().expect("connected above");
        conn.request(method, path, rid, body).map_err(|e| {
            self.conn = None;
            if is_timeout(&e) {
                Outcome::TimedOut
            } else {
                Outcome::Failed
            }
        })
    }
}

/// One connection's records and its first response body per request body.
type ConnResult = (Vec<Record>, Vec<Option<Vec<u8>>>);

/// What every connection's closed loop shares.
struct Shared<'a> {
    fab: &'a Fabricated,
    addr: SocketAddr,
    /// Load start (reload schedule origin), `now_ns` timebase.
    epoch: u64,
    window_start_ns: u64,
    window_end_ns: u64,
    /// `POST` path that reloads the unserved model, if there is one.
    reload_path: Option<String>,
    /// Set on the first mismatch: the run has failed, stop sending.
    stop: AtomicBool,
    mismatch: Mutex<Option<String>>,
}

impl Shared<'_> {
    /// Connection `c`'s closed loop until the window ends.
    fn conn_loop(&self, c: usize, plan: ConnPlan) -> ConnResult {
        let bodies = &self.fab.bodies[c];
        let mut client = Client { addr: self.addr, conn: None };
        let mut records = Vec::new();
        let mut responses: Vec<Option<Vec<u8>>> = vec![None; bodies.len()];
        let mut next_reload = plan.reload_every.map(|d| self.epoch + d.as_nanos() as u64);
        let mut seq = 0usize;
        while now_ns() < self.window_end_ns && !self.stop.load(Ordering::Relaxed) {
            let reload_due = next_reload.is_some_and(|t| now_ns() >= t);
            let j = seq % bodies.len();
            let (path, json, planes) = match (reload_due, self.reload_path.as_deref()) {
                (true, Some(p)) => (p, &[][..], 0),
                _ => ("/v1/infer", &bodies[j].json[..], plan.planes),
            };
            let reload = planes == 0;
            if let (true, Some(every)) = (reload, plan.reload_every) {
                next_reload = next_reload.map(|t| t + every.as_nanos() as u64);
            }
            let rid = format!("pb{c}-{seq}");
            seq += 1;
            let start_ns = now_ns();
            let result = client.send("POST", path, &rid, json);
            let end_ns = now_ns();
            let mut mismatched = false;
            let (status, outcome) = match result {
                Ok(resp) if resp.status == 200 && reload => (200, Outcome::Ok),
                Ok(resp) if resp.status == 200 => {
                    match verify(&resp.body, &self.fab.served.name, &bodies[j].expected) {
                        Ok(()) => {
                            responses[j].get_or_insert(resp.body);
                            (200, Outcome::Ok)
                        }
                        Err(e) => {
                            self.fail(format!("request {rid}: {e}"));
                            mismatched = true;
                            (200, Outcome::Failed)
                        }
                    }
                }
                Ok(resp) if resp.status == 503 => (503, Outcome::Refused),
                Ok(resp) => (resp.status, Outcome::Failed),
                Err(outcome) => (0, outcome),
            };
            // A mismatch during warm-up still counts: it fails the run.
            if start_ns < self.window_start_ns && !mismatched {
                continue;
            }
            let name = match (reload, plan.class) {
                (true, _) => "reload",
                (false, Class::Single) => "infer single",
                (false, Class::Bulk) => "infer bulk",
            };
            let span = ClientSpan {
                request_id: rid,
                conn: c as u16,
                name,
                start_ns,
                end_ns,
                planes: planes as u32,
                status,
            };
            records.push(Record { span, class: plan.class, body: j, reload, outcome });
        }
        (records, responses)
    }

    /// Records the run's first mismatch and stops every connection.
    fn fail(&self, why: String) {
        self.stop.store(true, Ordering::Relaxed);
        self.mismatch.lock().expect("mismatch slot poisoned").get_or_insert(why);
    }
}

/// Drives `fab`'s two connections against `addr` for `warmup` (not
/// recorded) and then `window`, checking every response.
pub fn drive(fab: &Fabricated, addr: SocketAddr, warmup: Duration, window: Duration) -> Load {
    let epoch = now_ns();
    let window_start_ns = epoch + warmup.as_nanos() as u64;
    let shared = Shared {
        fab,
        addr,
        epoch,
        window_start_ns,
        window_end_ns: window_start_ns + window.as_nanos() as u64,
        reload_path: fab.unserved.as_ref().map(|m| format!("/v1/models/{}/reload", m.name)),
        stop: AtomicBool::new(false),
        mismatch: Mutex::new(None),
    };
    let plans = fab.workload.connections();
    let barrier = Barrier::new(plans.len());
    let per_conn: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(c, &plan)| {
                let (shared, barrier) = (&shared, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    shared.conn_loop(c, plan)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });

    let mut records = Vec::new();
    let mut responses: [Vec<Option<Vec<u8>>>; 2] = [Vec::new(), Vec::new()];
    for (c, (r, resp)) in per_conn.into_iter().enumerate() {
        records.extend(r);
        responses[c] = resp;
    }
    Load {
        records,
        window_start_ns,
        window_end_ns: shared.window_end_ns,
        mismatch: shared.mismatch.into_inner().expect("mismatch slot poisoned"),
        responses,
    }
}

/// One load phase and the reload timings taken with it.
pub struct Phase {
    /// The load.
    pub load: Load,
    /// Reload latencies (ms): the unserved model's reloads under load,
    /// or, when asked for, idle reloads of the served model before and
    /// after the window.
    pub reloads_ms: Vec<f64>,
    /// Outcomes of the load and of the reloads.
    pub tally: Tally,
    /// The first output mismatch, if any.
    pub mismatch: Option<String>,
}

/// Runs [`drive`]; with `idle_reloads_too`, a workload that does not
/// reload under load also times reloads of its served model around the
/// window (checking the reloaded plan's outputs).
pub fn phase(
    fab: &Fabricated,
    addr: SocketAddr,
    warmup: Duration,
    window: Duration,
    idle_reloads_too: bool,
) -> Phase {
    let idle = || {
        (idle_reloads_too && fab.unserved.is_none())
            .then(|| idle_reloads(fab, addr, &fab.served.name))
    };
    let before = idle();
    let load = drive(fab, addr, warmup, window);
    let after = idle();
    let mut tally = load.tally();
    let mut mismatch = load.mismatch.clone();
    let mut reloads_ms = load.reload_latencies_ms();
    for (times, t, m) in before.into_iter().chain(after) {
        reloads_ms.extend(times);
        tally.merge(&t);
        mismatch = mismatch.or(m);
    }
    Phase { load, reloads_ms, tally, mismatch }
}

/// Reloads model `name` [`IDLE_RELOADS`] times over one connection,
/// [`IDLE_RELOAD_GAP`] apart, then checks that every connection's first
/// body still gets the oracle's outputs. Returns the reload latencies
/// (ms), the outcome tally, and the first mismatch, if any.
fn idle_reloads(
    fab: &Fabricated,
    addr: SocketAddr,
    name: &str,
) -> (Vec<f64>, Tally, Option<String>) {
    let mut client = Client { addr, conn: None };
    let mut tally = Tally::default();
    let mut latencies = Vec::new();
    let path = format!("/v1/models/{name}/reload");
    for i in 0..IDLE_RELOADS {
        std::thread::sleep(IDLE_RELOAD_GAP);
        let t = Instant::now();
        let outcome = client.send("POST", &path, &format!("pb-reload-{i}"), b"").map_or_else(
            |o| o,
            |r| match r.status {
                200 => Outcome::Ok,
                503 => Outcome::Refused,
                _ => Outcome::Failed,
            },
        );
        if outcome == Outcome::Ok {
            latencies.push(t.elapsed().as_secs_f64() * 1e3);
        }
        tally.record(outcome);
    }
    let mut mismatch = None;
    for (c, bodies) in fab.bodies.iter().enumerate() {
        let outcome = match client.send(
            "POST",
            "/v1/infer",
            &format!("pb-after-reload-{c}"),
            &bodies[0].json,
        ) {
            Ok(r) if r.status == 200 => {
                if let Err(e) = verify(&r.body, &fab.served.name, &bodies[0].expected) {
                    mismatch.get_or_insert(format!("after reload: {e}"));
                }
                Outcome::Ok
            }
            Ok(r) if r.status == 503 => Outcome::Refused,
            Ok(_) => Outcome::Failed,
            Err(o) => o,
        };
        tally.record(outcome);
    }
    (latencies, tally, mismatch)
}
