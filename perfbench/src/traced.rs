//! The traced run: per-layer metrics for one workload.
//!
//! Layers are timed from outside, by timing calls into their public
//! functions (WPB decode, plan compile, calibration, the JSON and HTTP
//! codecs on the workload's exact bytes), and from the spans the engine
//! and batcher already emit (a server deployed with a trace ring). The
//! load runs twice for half the run each — untraced, then traced — and
//! the throughput difference is the tracing overhead.

use crate::host::{ns_per_call, Ceilings};
use crate::report::Metrics;
use crate::runner::{deploy, phase, Load};
use crate::spans;
use crate::stats::{median, quiet_median, Tally};
use crate::work::{layer_work, popcount_path, Unit};
use crate::workload::{Class, Fabricated};
use std::path::Path;
use std::time::Duration;
use wp_core::deploy::DeployBundle;
use wp_engine::trace::{tier_name, TraceEvent};
use wp_engine::PreparedNet;
use wp_server::http::{encode_response, RequestParser, Status};
use wp_server::protocol::{InferRequest, InferResponse};

/// Engine layers reported for every workload; layers a model does not
/// have report 0 (the deepest demo, demo-stem, plans eight).
pub const MAX_LAYERS: usize = 8;

/// Trace ring capacity (40 bytes an event). A run warns when the ring
/// wraps; requests whose spans were overwritten are left out of the join.
const TRACE_EVENTS: usize = 1 << 19;

const WARMUP: Duration = Duration::from_millis(500);

/// What the traced run returns besides its metrics.
pub struct Traced {
    /// Per-layer metrics.
    pub metrics: Metrics,
    /// Outcomes of both load phases.
    pub tally: Tally,
    /// The first output mismatch, if any.
    pub mismatch: Option<String>,
}

/// Runs the traced measurement for `window` in all (half untraced, half
/// traced) and writes the joined Chrome trace to `trace_path`.
///
/// # Errors
///
/// Deploying the workload failed, or the trace file could not be
/// written.
pub fn run(fab: &Fabricated, window: Duration, trace_path: &Path) -> Result<Traced, String> {
    let ceilings = Ceilings::measure();
    let mut m = Metrics::default();

    // Engine spans under load (traced server), after an untraced phase
    // of the same length for the overhead comparison.
    let (mut server, _) = deploy(fab, 0)?;
    let plain_phase = phase(fab, server.addr(), WARMUP, window / 2, true);
    server.shutdown();
    let (mut server, _) = deploy(fab, TRACE_EVENTS)?;
    let traced_phase = phase(fab, server.addr(), WARMUP, window / 2, false);
    let (plain, traced) = (&plain_phase.load, &traced_phase.load);
    let entry = server.registry().get(&fab.served.name).map_err(|e| e.to_string())?;
    let ring = entry.trace().expect("deployed with a trace ring");
    if ring.recorded() > ring.capacity() as u64 {
        eprintln!(
            "warning: trace ring wrapped ({} of {} events kept); requests with lost spans are \
             not joined",
            ring.capacity(),
            ring.recorded()
        );
    }
    let events: Vec<TraceEvent> = ring
        .snapshot()
        .into_iter()
        .filter(|e| e.start_ns + e.dur_ns >= traced.window_start_ns)
        .collect();
    let layer_kinds = entry.net().layer_kinds();
    server.shutdown();

    engine_metrics(fab, &events, &ceilings, &mut m);
    batcher_metrics(&events, plain, traced, &mut m);
    codec_metrics(fab, plain, &mut m);

    let client: Vec<spans::ClientSpan> = traced.records.iter().map(|r| r.span.clone()).collect();
    let joined = spans::join(&client, &events);
    let self_ms: Vec<f64> = joined.iter().map(|j| j.self_ms).collect();
    m.push("front.self_ms_p50", median(&self_ms), "ms");
    let infers = traced.inferences().filter(|r| r.span.status == 200).count();
    println!("joined {} of {infers} traced inference requests by X-Request-Id", joined.len());

    setup_layer_metrics(fab, &mut m);
    let reloads: Vec<f64> =
        plain_phase.reloads_ms.iter().chain(&traced_phase.reloads_ms).copied().collect();
    m.push("reload_ms", quiet_median(&reloads), "ms");
    m.push("client.single_p50_ms", median(&plain.latencies_ms(Some(Class::Single))), "ms");
    m.push("client.bulk_p50_ms", median(&plain.latencies_ms(Some(Class::Bulk))), "ms");
    m.push("host.popcnt_gword_s", ceilings.popcnt_gword_s, "Gword/s");
    m.push("host.int8_gmac_s", ceilings.int8_gmac_s, "GMAC/s");
    m.push("host.memcpy_gb_s", ceilings.memcpy_gb_s, "GB/s");
    let (untraced_ips, traced_ips) = (plain.throughput_ips(), traced.throughput_ips());
    m.push("trace.overhead_pct", 100.0 * (1.0 - traced_ips / untraced_ips), "%");

    std::fs::write(trace_path, spans::chrome_trace(&events, &layer_kinds, &client))
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    println!("wrote Chrome trace {} ({} server spans)", trace_path.display(), events.len());

    let mut tally = plain_phase.tally;
    tally.merge(&traced_phase.tally);
    Ok(Traced { metrics: m, tally, mismatch: plain_phase.mismatch.or(traced_phase.mismatch) })
}

/// `engine.l{k}.*` from layer spans and static work, plus
/// `engine.run_ms_per_batch`.
fn engine_metrics(fab: &Fabricated, events: &[TraceEvent], ceilings: &Ceilings, m: &mut Metrics) {
    let net = &fab.served.oracle;
    let act_bits = net.act_bits();
    let popcount = popcount_path(act_bits, net.backend_kind(), net.backend().popcount_max_bits());
    let work = layer_work(&fab.served.bundle, act_bits, popcount);
    let (times, run_ns) = spans::layer_times(events, work.len());
    let mut share_sum = 0.0;
    println!(
        "layer  kind             path             work/image          unit    ns/image  share"
    );
    for k in 0..MAX_LAYERS {
        let (ns_per_image, share, per_image, achieved, frac) = match (work.get(k), times.get(k)) {
            (Some(w), Some(t)) if t.images > 0 && run_ns > 0 => {
                let ns = t.ns as f64 / t.images as f64;
                let share = t.ns as f64 / run_ns as f64;
                let achieved = w.per_image as f64 / ns;
                share_sum += share;
                println!(
                    "l{k:<5} {:<16} {:<16} {:>10} {:>14} {:>11.0} {:>6.3}",
                    w.kind,
                    tier_name(t.tier),
                    w.per_image,
                    w.unit.name(),
                    ns,
                    share
                );
                let observed_popcount = t.tier >= 3;
                let counts_popcount = w.unit == Unit::PopcountWords;
                if matches!(w.kind, "direct_conv" | "dense") && observed_popcount != counts_popcount
                {
                    eprintln!(
                        "warning: l{k} ran on {} but its work was counted as {}",
                        tier_name(t.tier),
                        w.unit.name()
                    );
                }
                (ns, share, w.per_image as f64, achieved, achieved / ceilings.for_unit(w.unit))
            }
            _ => (0.0, 0.0, 0.0, 0.0, 0.0),
        };
        m.push(format!("engine.l{k}.ns_per_image"), ns_per_image, "ns");
        m.push(format!("engine.l{k}.share"), share, "fraction");
        m.push(format!("engine.l{k}.work_per_image"), per_image, "ops");
        m.push(format!("engine.l{k}.achieved_gops"), achieved, "Gop/s");
        m.push(format!("engine.l{k}.ceiling_frac"), frac, "fraction");
    }
    println!("engine layer shares sum to {share_sum:.4} of engine run time");
    let batches = spans::batches(events);
    let per_batch: Vec<f64> =
        batches.iter().map(|b| (b.engine_end_ns - b.start_ns) as f64 / 1e6).collect();
    m.push("engine.run_ms_per_batch", median(&per_batch), "ms");
}

/// Batch size, queue wait and overload refusals.
fn batcher_metrics(events: &[TraceEvent], plain: &Load, traced: &Load, m: &mut Metrics) {
    let batches = spans::batches(events);
    let planes: u64 = batches.iter().map(|b| b.size).sum();
    m.push("batcher.batch_size_mean", planes as f64 / batches.len().max(1) as f64, "planes");
    m.push("batcher.queue_wait_ms_p50", spans::queue_wait_p50_ms(events), "ms");
    let refused = plain.tally().refused + traced.tally().refused;
    m.push("batcher.overloaded", refused as f64, "count");
}

/// The JSON and HTTP codecs timed on the exact request and response
/// bytes of the untraced phase, averaged over its request mix.
fn codec_metrics(fab: &Fabricated, plain: &Load, m: &mut Metrics) {
    // Per connection and body: (request bytes, response bytes, decode,
    // encode, parse, render) with times in microseconds.
    let costs: Vec<Vec<Option<[f64; 6]>>> = (0..2)
        .map(|c| {
            fab.bodies[c]
                .iter()
                .zip(&plain.responses[c])
                .enumerate()
                .map(|(j, (body, resp))| {
                    let resp = resp.as_ref()?;
                    Some(body_costs(&format!("pb{c}-{j}"), &body.json, resp))
                })
                .collect()
        })
        .collect();
    let mut sums = [0.0; 6];
    let mut n = 0usize;
    for r in plain.inferences() {
        if let Some(c) = costs[r.span.conn as usize][r.body] {
            for (s, v) in sums.iter_mut().zip(c) {
                *s += v;
            }
            n += 1;
        }
    }
    let mean = |i: usize| sums[i] / n.max(1) as f64;
    m.push("protocol.decode_us_per_req", mean(2), "us");
    m.push("protocol.encode_us_per_resp", mean(3), "us");
    m.push("http.parse_us_per_req", mean(4), "us");
    m.push("http.encode_us_per_resp", mean(5), "us");
    m.push("protocol.request_bytes_mean", mean(0), "bytes");
    m.push("protocol.response_bytes_mean", mean(1), "bytes");
}

/// Sizes and codec times of one request/response pair.
fn body_costs(rid: &str, json: &[u8], resp_body: &[u8]) -> [f64; 6] {
    let us = |ns: f64| ns / 1e3;
    let decode = ns_per_call(2, || {
        let text = std::str::from_utf8(json).expect("request bodies are UTF-8");
        serde_json::from_str::<InferRequest>(text).expect("request bodies parse").inputs.len()
    });
    let resp: InferResponse =
        serde_json::from_str(std::str::from_utf8(resp_body).expect("verified responses are UTF-8"))
            .expect("verified responses parse");
    let encode = ns_per_call(2, || serde_json::to_string(&resp).expect("serializes").len());
    let mut raw = format!(
        "POST /v1/infer HTTP/1.1\r\nHost: 127.0.0.1\r\nX-Request-Id: {rid}\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        json.len()
    )
    .into_bytes();
    raw.extend_from_slice(json);
    let parse = ns_per_call(2, || {
        let mut parser = RequestParser::new();
        parser.feed(&raw);
        parser.try_parse().expect("well-formed").expect("complete").body.len()
    });
    let render = ns_per_call(2, || {
        encode_response(Status(200), "application/json", &[("X-Request-Id", rid)], resp_body, true)
            .len()
    });
    [json.len() as f64, resp_body.len() as f64, us(decode), us(encode), us(parse), us(render)]
}

/// `deploy.decode_ms`, `plan.compile_ms` and `plan.calibrate_ms`, each
/// summed over every model the workload deploys.
fn setup_layer_metrics(fab: &Fabricated, m: &mut Metrics) {
    let (mut decode, mut compile, mut calibrate) = (0.0, 0.0, 0.0);
    for model in fab.models() {
        decode += ns_per_call(20, || {
            DeployBundle::from_reader_with_stats(model.wpb.as_slice()).expect("decodes").1.sections
        });
        compile += ns_per_call(20, || {
            PreparedNet::from_bundle(&model.bundle, &model.opts).layer_kinds().len()
        });
        calibrate += ns_per_call(20, || model.calibrate().len());
    }
    m.push("deploy.decode_ms", decode / 1e6, "ms");
    m.push("plan.compile_ms", compile / 1e6, "ms");
    m.push("plan.calibrate_ms", calibrate / 1e6, "ms");
}
