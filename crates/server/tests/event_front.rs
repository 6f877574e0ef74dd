//! The event front's own end-to-end suite: deadline behavior (slowloris
//! 408, dead-peer write timeout), overload 503 + `Retry-After`, hostile
//! framing (trickled heads, pipelining, mid-body disconnects), and
//! bit-identity of chunked and `Content-Length` responses against direct
//! engine execution.
//!
//! Everything here drives a real server over real loopback sockets.

#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wp_server::batcher::BatcherConfig;
use wp_server::demo::{demo_deployment, DemoSize};
use wp_server::metrics::Metrics;
use wp_server::protocol::{InferRequest, InferResponse};
use wp_server::registry::ModelRegistry;
use wp_server::server::{serve, ServerConfig, ServerHandle};
use wp_server::MetricsSnapshot;

fn demo_registry(batcher: BatcherConfig) -> Arc<ModelRegistry> {
    let registry = Arc::new(ModelRegistry::new(batcher, Arc::new(Metrics::new())));
    let (bundle, opts) = demo_deployment(DemoSize::Tiny, 3);
    registry.insert_bundle("demo", &bundle, opts);
    registry
}

fn quick_batcher() -> BatcherConfig {
    BatcherConfig { max_batch: 8, max_wait: Duration::from_millis(2), ..BatcherConfig::default() }
}

fn start(config: ServerConfig, batcher: BatcherConfig) -> ServerHandle {
    serve(config, demo_registry(batcher)).expect("bind")
}

/// A pipelining-safe response reader: bytes past one response stay
/// buffered for the next call instead of being dropped.
struct RespReader {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl RespReader {
    fn connect(handle: &ServerHandle) -> Self {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        Self { stream, buf: Vec::new() }
    }

    fn fill(&mut self) {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk).expect("read response");
        assert!(
            n > 0,
            "EOF mid-response; buffered: {:?}",
            String::from_utf8_lossy(&self.buf[..self.buf.len().min(200)])
        );
        self.buf.extend_from_slice(&chunk[..n]);
    }

    /// Reads one full response, decoding `Content-Length` or chunked
    /// framing. Returns `(status, headers, body, was_chunked)`.
    fn read_response(&mut self) -> (u16, Vec<(String, String)>, Vec<u8>, bool) {
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            self.fill();
        };
        let head = String::from_utf8(self.buf[..head_end].to_vec()).expect("utf-8 head");
        self.buf.drain(..head_end);
        let mut lines = head.lines();
        let status: u16 = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad status line in {head:?}"));
        let headers: Vec<(String, String)> = lines
            .filter_map(|l| l.split_once(':'))
            .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
            .collect();
        let header = |name: &str| {
            headers.iter().find(|(k, _)| k.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
        };

        if header("transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked")) {
            let mut body = Vec::new();
            loop {
                let line_end = loop {
                    if let Some(i) = self.buf.windows(2).position(|w| w == b"\r\n") {
                        break i;
                    }
                    self.fill();
                };
                let size = usize::from_str_radix(
                    std::str::from_utf8(&self.buf[..line_end]).expect("chunk size utf-8").trim(),
                    16,
                )
                .expect("chunk size hex");
                self.buf.drain(..line_end + 2);
                if size == 0 {
                    while self.buf.len() < 2 {
                        self.fill();
                    }
                    assert_eq!(&self.buf[..2], b"\r\n", "chunked epilogue");
                    self.buf.drain(..2);
                    return (status, headers, body, true);
                }
                while self.buf.len() < size + 2 {
                    self.fill();
                }
                body.extend_from_slice(&self.buf[..size]);
                assert_eq!(&self.buf[size..size + 2], b"\r\n", "chunk terminator");
                self.buf.drain(..size + 2);
            }
        }

        let len: usize = header("content-length").expect("framing header").parse().unwrap();
        while self.buf.len() < len {
            self.fill();
        }
        let body = self.buf[..len].to_vec();
        self.buf.drain(..len);
        (status, headers, body, false)
    }
}

fn post_infer(stream: &mut TcpStream, req: &InferRequest) {
    let body = serde_json::to_string(req).unwrap();
    write!(
        stream,
        "POST /v1/infer HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
}

fn infer_roundtrip(
    handle: &ServerHandle,
    req: &InferRequest,
) -> (u16, Vec<(String, String)>, Vec<u8>, bool) {
    let mut client = RespReader::connect(handle);
    post_infer(&mut client.stream, req);
    client.read_response()
}

fn metrics_snapshot(handle: &ServerHandle) -> MetricsSnapshot {
    let mut client = RespReader::connect(handle);
    write!(client.stream, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let (status, _, body, _) = client.read_response();
    assert_eq!(status, 200);
    serde_json::from_str(&String::from_utf8(body).unwrap()).expect("metrics json")
}

/// Reads to EOF (bounded by the socket read timeout), returning all bytes.
fn drain_to_eof(stream: &mut TcpStream) -> Vec<u8> {
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return out,
            Ok(n) => out.extend_from_slice(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                panic!("server hung: connection neither answered nor closed")
            }
            // A reset still proves the server closed.
            Err(_) => return out,
        }
    }
}

/// Slowloris: a client trickling a request one byte at a time keeps the
/// parser "making progress" forever; the anchored read deadline must
/// still fire, answer `408 Request Timeout`, and close the connection.
#[test]
fn slowloris_trickler_gets_408_and_closed() {
    let mut handle = start(
        ServerConfig { read_timeout: Duration::from_millis(600), ..ServerConfig::default() },
        quick_batcher(),
    );
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(15))).unwrap();

    // Trickle bytes more often than the read deadline, for longer than
    // the read deadline: a refresh-per-byte bug would never fire.
    let head = b"GET /healthz HTTP/1.1\r\nHost: slow\r\nX-Pad: aaaaaaaaaaaaaaaa\r\n";
    let started = Instant::now();
    for byte in head.iter() {
        if stream.write_all(std::slice::from_ref(byte)).is_err() {
            break; // server already closed on us — expected eventually
        }
        std::thread::sleep(Duration::from_millis(40));
        if started.elapsed() > Duration::from_secs(3) {
            break;
        }
    }

    let response = drain_to_eof(&mut stream);
    let text = String::from_utf8_lossy(&response);
    assert!(
        text.starts_with("HTTP/1.1 408 Request Timeout"),
        "expected 408 then close, got: {text:?}"
    );
    assert!(text.contains("Connection: close"), "{text}");

    let snap = metrics_snapshot(&handle);
    assert!(snap.connections_timed_out >= 1, "timeout counted: {snap:?}");
    handle.shutdown();
}

/// A peer that stops draining its responses: pipeline more requests
/// (without ever reading) than the kernel's socket buffers can absorb;
/// the write deadline must close the connection instead of parking the
/// response bytes forever.
#[test]
fn dead_peer_write_timeout_closes() {
    let mut handle = start(
        ServerConfig {
            write_timeout: Duration::from_millis(500),
            // Generous other deadlines so the *write* phase is what fires.
            read_timeout: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        },
        quick_batcher(),
    );
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(15))).unwrap();

    // 20k pipelined requests => ~14MB of responses, far beyond what the
    // kernel will buffer (tcp_wmem caps sndbuf at a few MB), so the
    // server's write queue jams and the write deadline governs.
    let one = b"GET /v1/models HTTP/1.1\r\nHost: dead\r\n\r\n";
    let batch: Vec<u8> = one.iter().copied().cycle().take(one.len() * 20_000).collect();
    // The server may close mid-write once the deadline fires; that's the
    // scenario, not an error.
    let _ = stream.write_all(&batch);

    // Never read a byte. The close must be counted within a few deadline
    // periods.
    let started = Instant::now();
    loop {
        let snap = metrics_snapshot(&handle);
        if snap.connections_timed_out >= 1 {
            break;
        }
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "write deadline never fired: {snap:?}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    // And the socket really is closed: draining ends in EOF/reset, not
    // 20k responses' worth of bytes.
    let drained = drain_to_eof(&mut stream);
    assert!(
        drained.len() < 8 * 1024 * 1024,
        "far more than kernel-buffered bytes arrived ({}); was the connection kept?",
        drained.len()
    );
    handle.shutdown();
}

/// Queue saturation answers `503` with a `Retry-After` header instead of
/// wedging the request.
#[test]
fn overload_gets_503_with_retry_after() {
    // max_queue 2 with a single 4-plane request: planes 3 and 4 are
    // rejected at submit, deterministically.
    let batcher = BatcherConfig {
        max_batch: 64,
        max_wait: Duration::from_millis(50),
        max_queue: 2,
        ..BatcherConfig::default()
    };
    let mut handle = start(ServerConfig::default(), batcher);
    let net = handle.registry().get("demo").unwrap().net();
    let inputs = net.fabricate_inputs(4, 7);

    let (status, headers, body, _) =
        infer_roundtrip(&handle, &InferRequest { model: None, inputs });
    assert_eq!(status, 503, "{}", String::from_utf8_lossy(&body));
    let retry = headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("retry-after"))
        .map(|(_, v)| v.as_str());
    assert_eq!(retry, Some("1"), "Retry-After missing: {headers:?}");
    assert!(String::from_utf8_lossy(&body).contains("queue full"));

    // The server recovers once the stranded planes flush (≤ max_wait
    // later): a sane request must succeed again.
    let ok_input = handle.registry().get("demo").unwrap().net().fabricate_inputs(1, 8);
    let recovered = Instant::now();
    loop {
        let (status, _, _, _) =
            infer_roundtrip(&handle, &InferRequest { model: None, inputs: ok_input.clone() });
        if status == 200 {
            break;
        }
        assert_eq!(status, 503, "unexpected status {status}");
        assert!(recovered.elapsed() < Duration::from_secs(5), "did not recover after overload");
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.shutdown();
}

/// An infer target with a query string still reaches the batcher's
/// callback path: the synchronous router has no infer endpoint.
#[test]
fn infer_with_a_query_string_is_served() {
    let mut handle = start(ServerConfig::default(), quick_batcher());
    let net = handle.registry().get("demo").unwrap().net();
    let input = net.fabricate_inputs(1, 9).pop().unwrap();
    let expected = net.run_one(&input);

    let body = serde_json::to_string(&InferRequest { model: None, inputs: vec![input] }).unwrap();
    let mut client = RespReader::connect(&handle);
    write!(
        client.stream,
        "POST /v1/infer?debug=1 HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let (status, _, resp_body, _) = client.read_response();
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&resp_body));
    let resp: InferResponse = serde_json::from_str(&String::from_utf8(resp_body).unwrap()).unwrap();
    assert_eq!(resp.outputs, vec![expected]);
    handle.shutdown();
}

/// A request head split across dozens of tiny writes parses to exactly
/// the same answer as a single-write request.
#[test]
fn partial_heads_across_many_writes_parse_correctly() {
    let mut handle = start(ServerConfig::default(), quick_batcher());
    let net = handle.registry().get("demo").unwrap().net();
    let input = net.fabricate_inputs(1, 5).pop().unwrap();
    let expected = net.run_one(&input);

    let body = serde_json::to_string(&InferRequest { model: None, inputs: vec![input] }).unwrap();
    let request = format!(
        "POST /v1/infer HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );

    let mut client = RespReader::connect(&handle);
    // 7-byte fragments, flushed individually — the head terminator and
    // the body boundary both land mid-fragment somewhere.
    for fragment in request.as_bytes().chunks(7) {
        client.stream.write_all(fragment).unwrap();
        client.stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    let (status, _, resp_body, _) = client.read_response();
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&resp_body));
    let resp: InferResponse = serde_json::from_str(&String::from_utf8(resp_body).unwrap()).unwrap();
    assert_eq!(resp.outputs, vec![expected]);
    handle.shutdown();
}

/// Three pipelined requests in one write — a sync route, an inference,
/// another sync route — come back in order on one connection.
#[test]
fn interleaved_pipelined_requests_answer_in_order() {
    let mut handle = start(ServerConfig::default(), quick_batcher());
    let net = handle.registry().get("demo").unwrap().net();
    let input = net.fabricate_inputs(1, 11).pop().unwrap();
    let expected = net.run_one(&input);

    let infer_body =
        serde_json::to_string(&InferRequest { model: None, inputs: vec![input] }).unwrap();
    let pipelined = format!(
        "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n\
         POST /v1/infer HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{infer_body}\
         GET /v1/models HTTP/1.1\r\nHost: t\r\n\r\n",
        infer_body.len()
    );
    let mut client = RespReader::connect(&handle);
    client.stream.write_all(pipelined.as_bytes()).unwrap();

    let (s1, _, b1, _) = client.read_response();
    assert_eq!(s1, 200);
    assert!(String::from_utf8_lossy(&b1).contains("\"ok\""), "healthz first");
    let (s2, _, b2, _) = client.read_response();
    assert_eq!(s2, 200);
    let resp: InferResponse = serde_json::from_str(&String::from_utf8(b2).unwrap()).unwrap();
    assert_eq!(resp.outputs, vec![expected], "infer second, bit-identical");
    let (s3, _, b3, _) = client.read_response();
    assert_eq!(s3, 200);
    assert!(String::from_utf8_lossy(&b3).contains("\"input_len\""), "models last");
    handle.shutdown();
}

/// A client that dies mid-body: the server must drop the connection
/// without a response and stay healthy — no stuck event-thread slot.
#[test]
fn mid_body_disconnect_is_reaped_cleanly() {
    let mut handle = start(ServerConfig::default(), quick_batcher());

    for _ in 0..8 {
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream
            .write_all(b"POST /v1/infer HTTP/1.1\r\nHost: t\r\nContent-Length: 1000\r\n\r\n{\"par")
            .unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        // EOF mid-body: silent close (there is no request to answer).
        let leftovers = drain_to_eof(&mut stream);
        assert!(leftovers.is_empty(), "unexpected response to a dead request: {leftovers:?}");
    }

    // All eight slots were reclaimed and the server still serves.
    let snap = metrics_snapshot(&handle);
    assert_eq!(snap.connections_open, 1, "only the metrics probe itself open: {snap:?}");
    assert!(snap.connections_accepted >= 9, "{snap:?}");
    handle.shutdown();
}

/// A response that crosses the chunked-encoding threshold de-chunks to
/// exactly the JSON built from direct `PreparedNet::run_batch` outputs,
/// and a small response is the same JSON under `Content-Length` framing.
#[test]
fn chunked_responses_are_bit_identical_to_direct_execution() {
    let mut handle = start(
        ServerConfig::default(),
        BatcherConfig {
            max_batch: 64,
            max_wait: Duration::from_millis(2),
            ..BatcherConfig::default()
        },
    );
    let net = handle.registry().get("demo").unwrap().net();
    // Enough planes that the response JSON crosses CHUNK_THRESHOLD.
    let big = InferRequest { model: None, inputs: net.fabricate_inputs(4000, 21) };
    let small = InferRequest { model: None, inputs: net.fabricate_inputs(1, 22) };

    let fetch = |req: &InferRequest| {
        let (status, _, body, chunked) = infer_roundtrip(&handle, req);
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body[..body.len().min(300)]));
        (body, chunked)
    };
    let direct = |req: &InferRequest| {
        let refs: Vec<&[i32]> = req.inputs.iter().map(|x| x.as_slice()).collect();
        let outputs = net.run_batch(&refs);
        serde_json::to_string(&InferResponse { model: "demo".into(), outputs })
            .unwrap()
            .into_bytes()
    };

    let (served_big, big_chunked) = fetch(&big);
    assert!(served_big.len() > 32 * 1024, "test must cross the chunk threshold");
    assert!(big_chunked, "large response must use chunked framing");
    assert_eq!(served_big, direct(&big), "de-chunked body must be bit-identical");

    let (served_small, small_chunked) = fetch(&small);
    assert!(!small_chunked, "small responses keep Content-Length framing");
    assert_eq!(served_small, direct(&small));

    handle.shutdown();
}

/// The event front surfaces its own observability: connection counters
/// and per-event-thread loop histograms, in JSON and Prometheus, with
/// the per-model rows untouched.
#[test]
fn event_front_metrics_are_exposed() {
    let mut handle =
        start(ServerConfig { event_threads: 2, ..ServerConfig::default() }, quick_batcher());
    let net = handle.registry().get("demo").unwrap().net();
    let input = net.fabricate_inputs(1, 3).pop().unwrap();

    let mut client = RespReader::connect(&handle);
    post_infer(&mut client.stream, &InferRequest { model: None, inputs: vec![input] });
    let (status, _, _, _) = client.read_response();
    assert_eq!(status, 200);

    let snap = metrics_snapshot(&handle);
    assert!(snap.connections_accepted >= 2, "{snap:?}");
    assert!(snap.connections_open >= 1, "{snap:?}");
    assert_eq!(snap.event_loops.len(), 2, "one histogram per event thread: {snap:?}");
    assert!(snap.event_loops.iter().any(|h| h.count > 0), "loop iterations recorded: {snap:?}");
    assert_eq!(snap.models.len(), 1, "per-model rows untouched");
    assert_eq!(snap.models[0].inferences, 1);

    let mut client = RespReader::connect(&handle);
    write!(client.stream, "GET /metrics?format=prometheus HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let (status, _, body, _) = client.read_response();
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("wp_connections_accepted_total"), "{text}");
    assert!(text.contains("wp_open_connections"), "{text}");
    assert!(text.contains("wp_connections_timed_out_total"), "{text}");
    assert!(text.contains("wp_event_loop_iteration_seconds_bucket{thread=\"0\""), "{text}");
    assert!(text.contains("wp_event_loop_iteration_seconds_bucket{thread=\"1\""), "{text}");
    assert!(text.contains("wp_model_inferences_total{model=\"demo\"} 1"), "{text}");
    handle.shutdown();
}
