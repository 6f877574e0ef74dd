//! Joining the benchmark's client request spans with the server's own
//! spans (batcher queue waits, engine runs and layers) by request id,
//! and what the traced run derives from the join.
//!
//! Client and server share one process and so one clock
//! (`wp_engine::trace::now_ns`), which makes the join a matter of ids
//! and intervals:
//!
//! * each plane a request submits leaves one queue-wait span carrying
//!   the FNV hash of the request's `X-Request-Id`; the span ends when
//!   the plane's batch starts;
//! * one flusher runs batches one after another, so the engine run
//!   spans that start between one batch start and the next belong to
//!   that batch, and the batch's engine time ends with the last of them.

use crate::stats::median;
use std::collections::HashMap;
use wp_engine::trace::{span_id_from, SpanKind, TraceEvent};

/// One request as the client saw it.
#[derive(Debug, Clone)]
pub struct ClientSpan {
    /// The `X-Request-Id` sent.
    pub request_id: String,
    /// Connection index (the trace's thread track).
    pub conn: u16,
    /// Span name, e.g. `infer single`.
    pub name: &'static str,
    /// Send start, `now_ns` timebase.
    pub start_ns: u64,
    /// Response fully read.
    pub end_ns: u64,
    /// Planes the request carried (0 for non-inference requests).
    pub planes: u32,
    /// HTTP status (0 when the request failed without one).
    pub status: u16,
}

/// One flusher batch reconstructed from the server's spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Batch {
    /// When the flusher took the batch off the queue.
    pub start_ns: u64,
    /// When its last engine run ended (`start_ns` if none was seen).
    pub engine_end_ns: u64,
    /// Planes in the batch.
    pub size: u64,
}

/// Reconstructs the flusher's batches from queue-wait and run spans.
pub fn batches(events: &[TraceEvent]) -> Vec<Batch> {
    let mut by_start: HashMap<u64, u64> = HashMap::new();
    for e in events.iter().filter(|e| e.kind == SpanKind::QueueWait) {
        *by_start.entry(e.start_ns + e.dur_ns).or_default() += 1;
    }
    let mut out: Vec<Batch> = by_start
        .into_iter()
        .map(|(start_ns, size)| Batch { start_ns, engine_end_ns: start_ns, size })
        .collect();
    out.sort_by_key(|b| b.start_ns);
    for run in events.iter().filter(|e| e.kind == SpanKind::Run) {
        // The batch this run belongs to: the last one started at or
        // before it.
        let i = out.partition_point(|b| b.start_ns <= run.start_ns);
        if let Some(b) = i.checked_sub(1).map(|i| &mut out[i]) {
            b.engine_end_ns = b.engine_end_ns.max(run.start_ns + run.dur_ns);
        }
    }
    out
}

/// One client request joined with the server spans its id tags.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Joined {
    /// Client-observed latency.
    pub client_ms: f64,
    /// From the first plane's enqueue to the last plane's batch start.
    pub queue_ms: f64,
    /// From the last plane's batch start to its engine end.
    pub engine_ms: f64,
    /// Client latency minus queue wait and engine time: parse, decode,
    /// submit, encode, write and the socket round trip.
    pub self_ms: f64,
}

/// Joins each successful client span with the queue-wait spans its
/// request id hashed onto, skipping requests whose planes are not all
/// in the ring (dropped by a wrap, or never submitted).
pub fn join(client: &[ClientSpan], events: &[TraceEvent]) -> Vec<Joined> {
    let batches = batches(events);
    let engine_end = |batch_start: u64| {
        let i = batches.partition_point(|b| b.start_ns < batch_start);
        batches
            .get(i)
            .filter(|b| b.start_ns == batch_start)
            .map_or(batch_start, |b| b.engine_end_ns)
    };
    let mut waits: HashMap<u64, Vec<&TraceEvent>> = HashMap::new();
    for e in events.iter().filter(|e| e.kind == SpanKind::QueueWait && e.id != 0) {
        waits.entry(e.id).or_default().push(e);
    }
    client
        .iter()
        .filter(|c| c.status == 200 && c.planes > 0)
        .filter_map(|c| {
            let planes = waits.get(&span_id_from(&c.request_id))?;
            if planes.len() != c.planes as usize {
                return None;
            }
            let first_enqueue = planes.iter().map(|e| e.start_ns).min()?;
            let last_start = planes.iter().map(|e| e.start_ns + e.dur_ns).max()?;
            let server_end = planes.iter().map(|e| engine_end(e.start_ns + e.dur_ns)).max()?;
            let ms = |ns: u64| ns as f64 / 1e6;
            let client_ms = ms(c.end_ns.saturating_sub(c.start_ns));
            let queue_ms = ms(last_start - first_enqueue);
            let engine_ms = ms(server_end - last_start);
            Some(Joined {
                client_ms,
                queue_ms,
                engine_ms,
                self_ms: client_ms - queue_ms - engine_ms,
            })
        })
        .collect()
}

/// Per-layer engine time summed from layer spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Total span time, nanoseconds.
    pub ns: u64,
    /// Images those spans processed (sum of their batch sizes).
    pub images: u64,
    /// Trace tier code of the last span seen (the path taken).
    pub tier: u8,
}

/// Layer totals for layers `0..layers`, plus the summed run-span time
/// the layer shares divide by.
pub fn layer_times(events: &[TraceEvent], layers: usize) -> (Vec<LayerTime>, u64) {
    let mut out = vec![LayerTime::default(); layers];
    let mut run_ns = 0;
    for e in events {
        match e.kind {
            SpanKind::Layer => {
                if let Some(l) = out.get_mut(e.layer as usize) {
                    l.ns += e.dur_ns;
                    l.images += u64::from(e.batch);
                    l.tier = e.tier;
                }
            }
            SpanKind::Run => run_ns += e.dur_ns,
            _ => {}
        }
    }
    (out, run_ns)
}

/// Median queue wait of every plane, in milliseconds.
pub fn queue_wait_p50_ms(events: &[TraceEvent]) -> f64 {
    let waits: Vec<f64> = events
        .iter()
        .filter(|e| e.kind == SpanKind::QueueWait)
        .map(|e| e.dur_ns as f64 / 1e6)
        .collect();
    median(&waits)
}

/// One Chrome `trace_event` document: the server's spans (process 1,
/// rendered by the engine's own exporter) followed by the client's
/// request spans (process 2, one track per connection). Matching spans
/// carry the same `span_id` argument.
pub fn chrome_trace(
    events: &[TraceEvent],
    layer_kinds: &[String],
    client: &[ClientSpan],
) -> String {
    let server = wp_engine::chrome_trace_json(events, layer_kinds, "wp_server");
    let mut out = server.strip_suffix("]}").expect("chrome trace ends its event list").to_string();
    out.push_str(
        ",{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,\
         \"args\":{\"name\":\"perfbench client\"}}",
    );
    for c in client {
        out.push_str(&format!(
            ",{{\"name\":\"{}\",\"cat\":\"client\",\"ph\":\"X\",\"pid\":2,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"request_id\":\"{}\",\
             \"span_id\":\"{:016x}\",\"planes\":{},\"status\":{}}}}}",
            c.name,
            c.conn,
            c.start_ns as f64 / 1000.0,
            c.end_ns.saturating_sub(c.start_ns) as f64 / 1000.0,
            c.request_id,
            span_id_from(&c.request_id),
            c.planes,
            c.status,
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        kind: SpanKind,
        id: u64,
        start_ns: u64,
        dur_ns: u64,
        layer: u16,
        batch: u16,
    ) -> TraceEvent {
        TraceEvent { kind, track: 1, layer, batch, tier: 1, id, start_ns, dur_ns }
    }

    fn client(id: &str, start_ns: u64, end_ns: u64, planes: u32) -> ClientSpan {
        ClientSpan {
            request_id: id.into(),
            conn: 0,
            name: "infer",
            start_ns,
            end_ns,
            planes,
            status: 200,
        }
    }

    /// Two batches: batch A starts at 1000 ns with request `a` (2 planes)
    /// and one plane of `b`; batch B starts at 5000 ns with `b`'s second
    /// plane. Two workers run each batch.
    fn synthetic() -> (Vec<ClientSpan>, Vec<TraceEvent>) {
        let (a, b) = (span_id_from("a"), span_id_from("b"));
        let events = vec![
            span(SpanKind::QueueWait, a, 600, 400, 0, 3),
            span(SpanKind::QueueWait, a, 700, 300, 0, 3),
            span(SpanKind::QueueWait, b, 900, 100, 0, 3),
            span(SpanKind::Run, 0, 1100, 2000, 0, 2),
            span(SpanKind::Layer, 0, 1150, 1200, 0, 2),
            span(SpanKind::Layer, 0, 2350, 700, 1, 2),
            span(SpanKind::Run, 0, 1120, 2400, 0, 1),
            span(SpanKind::Layer, 0, 1130, 1500, 0, 1),
            span(SpanKind::Layer, 0, 2630, 800, 1, 1),
            span(SpanKind::QueueWait, b, 950, 4050, 0, 1),
            span(SpanKind::Run, 0, 5050, 950, 0, 1),
            span(SpanKind::Layer, 0, 5060, 600, 0, 1),
            span(SpanKind::Layer, 0, 5660, 300, 1, 1),
            // A request whose id never reached the server.
            span(SpanKind::QueueWait, span_id_from("lost"), 9000, 10, 0, 1),
        ];
        let clients =
            vec![client("a", 500, 3700, 2), client("b", 800, 6200, 2), client("c", 100, 200, 1)];
        (clients, events)
    }

    #[test]
    fn batches_group_queue_waits_and_take_the_last_run_end() {
        let (_, events) = synthetic();
        assert_eq!(
            batches(&events),
            vec![
                Batch { start_ns: 1000, engine_end_ns: 3520, size: 3 },
                Batch { start_ns: 5000, engine_end_ns: 6000, size: 1 },
                Batch { start_ns: 9010, engine_end_ns: 9010, size: 1 },
            ]
        );
    }

    #[test]
    fn join_matches_by_request_id_and_splits_client_time() {
        let (clients, events) = synthetic();
        let joined = join(&clients, &events);
        assert_eq!(joined.len(), 2, "`c` has no server spans");
        let close = |x: f64, y: f64| (x - y).abs() < 1e-9;
        // a: client 3200 ns; enqueued at 600, batch at 1000, engine end 3520.
        let a = joined[0];
        assert!(close(a.client_ms, 3200e-6) && close(a.queue_ms, 400e-6));
        assert!(close(a.engine_ms, 2520e-6) && close(a.self_ms, 280e-6));
        // b: client 5400 ns; enqueued at 900, last batch at 5000, end 6000.
        let b = joined[1];
        assert!(close(b.queue_ms, 4100e-6) && close(b.engine_ms, 1000e-6));
        assert!(close(b.self_ms, 300e-6));
    }

    #[test]
    fn partial_requests_are_not_joined() {
        let (mut clients, events) = synthetic();
        clients[0].planes = 3;
        clients[1].status = 503;
        assert!(join(&clients, &events).is_empty());
    }

    #[test]
    fn layer_times_sum_layers_and_runs() {
        let (_, events) = synthetic();
        let (layers, run_ns) = layer_times(&events, 2);
        assert_eq!((layers[0].ns, layers[0].images), (1200 + 1500 + 600, 4));
        assert_eq!((layers[1].ns, layers[1].images), (700 + 800 + 300, 4));
        assert_eq!(run_ns, 2000 + 2400 + 950);
        assert!(close_enough(queue_wait_p50_ms(&events), 300e-6));
    }

    fn close_enough(x: f64, y: f64) -> bool {
        (x - y).abs() < 1e-9
    }

    #[test]
    fn chrome_trace_carries_both_sides_under_one_span_id() {
        let (clients, events) = synthetic();
        let json = chrome_trace(&events, &["dense".into(), "dense".into()], &clients);
        serde_json::value_from_str(&json).expect("valid JSON");
        let a = format!("{:016x}", span_id_from("a"));
        assert!(json.matches(&a).count() >= 3, "client span plus two queue waits");
        assert!(json.contains("\"perfbench client\"") && json.contains("\"wp_server\""));
    }
}
