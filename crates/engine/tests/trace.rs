//! Tracing contract tests: observation must never change execution.
//!
//! * Traced runs (profile attached, sink attached, both) are
//!   bit-identical to untraced runs, solo and batched, across backends.
//! * The aggregate profile and the trace ring survive heavy concurrent
//!   recording with exact aggregate counts (profile) and well-formed
//!   events (ring).

use rand::{Rng, SeedableRng};
use std::sync::Arc;
use wp_core::deploy::{ConvPayload, DeployBundle};
use wp_core::netspec::{ConvSpec, LayerSpec, NetSpec};
use wp_core::{LookupTable, LutOrder, WeightPool};
use wp_engine::trace::{current_track, madd_tier_code, tier_name, SpanKind, TraceEvent};
use wp_engine::{
    BackendKind, BatchRunner, EngineOptions, NetProfile, PreparedNet, TraceBuffer, TraceSink,
};

/// Direct stem + pooled conv + pooling + dense head: every kernel family
/// the executor traces.
fn bundle() -> DeployBundle {
    let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
    let vectors: Vec<Vec<f32>> =
        (0..8).map(|_| (0..8).map(|_| rng.gen_range(-0.5f32..0.5)).collect()).collect();
    let pool = WeightPool::from_vectors(vectors);
    let lut = LookupTable::build(&pool, 8, LutOrder::InputOriented);
    let spec = NetSpec {
        name: "trace-toy".into(),
        input: (3, 8, 8),
        classes: 5,
        layers: vec![
            LayerSpec::Conv(ConvSpec {
                in_ch: 3,
                out_ch: 8,
                kernel: 3,
                stride: 1,
                pad: 1,
                compressed: false,
            }),
            LayerSpec::Conv(ConvSpec {
                in_ch: 8,
                out_ch: 8,
                kernel: 3,
                stride: 1,
                pad: 1,
                compressed: true,
            }),
            LayerSpec::MaxPool { size: 2 },
            LayerSpec::GlobalAvgPool,
            LayerSpec::Dense { in_features: 8, out_features: 5, compressed: false },
        ],
    };
    let direct: Vec<i8> = (0..8 * 3 * 9).map(|_| rng.gen_range(-127i32..=127) as i8).collect();
    let indices: Vec<u8> = (0..8 * 9).map(|_| rng.gen_range(0..8) as u8).collect();
    DeployBundle {
        spec,
        pool,
        lut,
        convs: vec![
            ConvPayload::Direct { weights: direct, scale: 0.01 },
            ConvPayload::Pooled { indices },
        ],
        act_bits: 8,
    }
}

/// Satellite pin: attaching a profile, a sink, or both must leave every
/// output bit-identical to the untraced plan — solo, batched, and
/// through the threaded runner, on both the scalar and auto tiers.
#[test]
fn traced_execution_is_bit_identical_to_untraced() {
    let bundle = bundle();
    for backend in [BackendKind::Auto, BackendKind::Scalar] {
        let opts = EngineOptions::new().with_backend(backend);
        let plain = PreparedNet::from_bundle(&bundle, &opts);
        let inputs = plain.fabricate_inputs(9, 7);
        let refs: Vec<&[i32]> = inputs.iter().map(|x| x.as_slice()).collect();
        let solo: Vec<Vec<i32>> = inputs.iter().map(|x| plain.run_one(x)).collect();
        let batched = plain.run_batch(&refs);
        assert_eq!(batched, solo);

        let mut traced = PreparedNet::from_bundle(&bundle, &opts);
        let profile = Arc::new(traced.make_profile());
        let sink = Arc::new(TraceBuffer::new(256));
        traced.set_profile(Some(Arc::clone(&profile)));
        traced.set_trace_sink(Some(sink.clone()));
        let traced_solo: Vec<Vec<i32>> = inputs.iter().map(|x| traced.run_one(x)).collect();
        assert_eq!(traced_solo, solo, "{backend:?}: traced solo diverged");
        assert_eq!(traced.run_batch(&refs), batched, "{backend:?}: traced batch diverged");
        let runner_out = BatchRunner::new(3).run(&traced, &refs);
        assert_eq!(runner_out, batched, "{backend:?}: traced threaded run diverged");

        // And the observation actually happened: 9 solo + batch chunks.
        assert!(profile.runs() >= 10, "profile recorded {} runs", profile.runs());
        let events = sink.snapshot();
        assert!(events.iter().any(|e| e.kind == SpanKind::Layer));
        assert!(events.iter().any(|e| e.kind == SpanKind::Run));
    }
}

/// A demo-stem-shaped network: direct convs, depthwise, max pooling,
/// global pooling and a two-layer dense head, no pooled conv.
fn stem_bundle() -> DeployBundle {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x57E);
    let vectors: Vec<Vec<f32>> =
        (0..8).map(|_| (0..8).map(|_| rng.gen_range(-0.5f32..0.5)).collect()).collect();
    let pool = WeightPool::from_vectors(vectors);
    let lut = LookupTable::build(&pool, 8, LutOrder::InputOriented);
    let conv = |in_ch: usize, out_ch: usize| {
        LayerSpec::Conv(ConvSpec { in_ch, out_ch, kernel: 3, stride: 1, pad: 1, compressed: false })
    };
    let spec = NetSpec {
        name: "stem-toy".into(),
        input: (8, 6, 6),
        classes: 10,
        layers: vec![
            conv(8, 16),
            LayerSpec::DwConv { channels: 16, kernel: 3, stride: 1, pad: 1 },
            conv(16, 24),
            LayerSpec::MaxPool { size: 2 },
            conv(24, 24),
            LayerSpec::GlobalAvgPool,
            LayerSpec::Dense { in_features: 24, out_features: 64, compressed: false },
            LayerSpec::Dense { in_features: 64, out_features: 10, compressed: false },
        ],
    };
    let convs = [(8, 16), (16, 24), (24, 24)]
        .into_iter()
        .map(|(i, o)| {
            let weights = (0..o * i * 9).map(|_| rng.gen_range(-127i32..=127) as i8).collect();
            ConvPayload::Direct { weights, scale: 0.01 }
        })
        .collect();
    DeployBundle { spec, pool, lut, convs, act_bits: 8 }
}

/// A batched stem-shaped run at 2-bit activations executes its
/// direct-conv and dense layers on the pair-madd tiles, and their spans
/// say so (`swar+madd` / `avx2+madd`, never `unknown` or a popcount
/// code); the run's solo reference still carries the popcount code.
#[cfg(target_arch = "x86_64")]
#[test]
fn batched_stem_spans_carry_the_madd_tier() {
    let bundle = stem_bundle();
    let mut kinds = vec![BackendKind::Swar];
    if wp_engine::avx2_available() {
        kinds.push(BackendKind::Avx2);
    }
    for kind in kinds {
        let opts = EngineOptions::new().with_act_bits(2).with_backend(kind);
        let mut net = PreparedNet::from_bundle(&bundle, &opts);
        let madd = madd_tier_code(kind == BackendKind::Avx2);
        let want = if kind == BackendKind::Avx2 { "avx2+madd" } else { "swar+madd" };
        assert_eq!(tier_name(madd), want);
        let sink = Arc::new(TraceBuffer::new(256));
        net.set_trace_sink(Some(sink.clone()));
        let inputs = net.fabricate_inputs(16, 11);
        let refs: Vec<&[i32]> = inputs.iter().map(|x| x.as_slice()).collect();
        let batched = net.run_batch(&refs);
        let layer_kinds = net.layer_kinds();
        let spans: Vec<TraceEvent> =
            sink.snapshot().into_iter().filter(|e| e.kind == SpanKind::Layer).collect();
        for (l, layer_kind) in layer_kinds.iter().enumerate() {
            let span = spans.iter().find(|e| e.layer as usize == l).expect("every layer traced");
            assert_eq!(span.batch, 16);
            if matches!(layer_kind.as_str(), "direct_conv" | "dense") {
                assert_eq!(
                    tier_name(span.tier),
                    want,
                    "{kind:?}: l{l} {layer_kind} span carries the wrong tier"
                );
            } else {
                assert_ne!(span.tier, madd, "{kind:?}: l{l} {layer_kind} did not run madd");
            }
        }

        sink.clear();
        assert_eq!(net.run_one(refs[0]), batched[0]);
        let solo = sink.snapshot();
        let first = solo.iter().find(|e| e.kind == SpanKind::Layer && e.layer == 0).expect("l0");
        assert!(
            tier_name(first.tier).ends_with("+popcount"),
            "solo l0 ran {}",
            tier_name(first.tier)
        );
    }
}

#[test]
fn profile_snapshot_covers_every_layer_with_exact_counts() {
    let bundle = bundle();
    let mut net = PreparedNet::from_bundle(&bundle, &EngineOptions::default());
    let profile = Arc::new(net.make_profile());
    net.set_profile(Some(Arc::clone(&profile)));
    let kinds = net.layer_kinds();
    assert_eq!(kinds.len(), 5);

    let runs = 17usize;
    for input in net.fabricate_inputs(runs, 3) {
        net.run_one(&input);
    }
    let snap = profile.snapshot();
    assert_eq!(snap.runs, runs as u64);
    assert_eq!(snap.layers.len(), kinds.len());
    for (layer, kind) in snap.layers.iter().zip(&kinds) {
        assert_eq!(&layer.kind, kind);
        assert_eq!(layer.latency.count, runs as u64, "layer {} miscounted", layer.index);
    }
    // Shares are each layer's fraction of whole-run time: they sum to
    // ~1.0, short only by inter-layer plumbing.
    let share_sum: f64 = snap.layers.iter().map(|l| l.share).sum();
    assert!(share_sum > 0.5 && share_sum <= 1.0 + 1e-9, "share sum {share_sum} out of range");
}

/// N threads x M records into one profile: snapshot sums must be exact
/// (the aggregate mode is plain atomics — nothing may be lost).
#[test]
fn net_profile_concurrent_recording_sums_exactly() {
    let profile = Arc::new(NetProfile::new(vec!["a".into(), "b".into(), "c".into()]));
    let threads = 8u64;
    let per_thread = 5_000u64;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let profile = Arc::clone(&profile);
            scope.spawn(move || {
                for i in 0..per_thread {
                    let v = 1 + (t * per_thread + i) % 1000;
                    profile.record_layer(0, v);
                    profile.record_layer(1, 2 * v);
                    profile.record_layer(2, 3 * v);
                    profile.record_run(6 * v);
                }
            });
        }
    });
    let snap = profile.snapshot();
    let n = threads * per_thread;
    assert_eq!(snap.runs, n);
    assert_eq!(snap.total.count, n);
    let expected_sum: u64 = (0..threads)
        .flat_map(|t| (0..per_thread).map(move |i| 1 + (t * per_thread + i) % 1000))
        .sum();
    assert_eq!(snap.layers[0].latency.count, n);
    assert_eq!(snap.layers[0].latency.sum, expected_sum);
    assert_eq!(snap.layers[1].latency.sum, 2 * expected_sum);
    assert_eq!(snap.layers[2].latency.sum, 3 * expected_sum);
    assert_eq!(snap.total.sum, 6 * expected_sum);
}

/// N threads x M records into one ring: every surviving event must be
/// well-formed (the seqlock must never surface a torn record), the
/// claim counter must be exact, and a snapshot taken mid-storm must
/// not block or crash writers.
#[test]
fn trace_ring_concurrent_recording_stays_consistent() {
    let buf = Arc::new(TraceBuffer::new(1024));
    let threads = 8u64;
    let per_thread = 10_000u64;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let buf = Arc::clone(&buf);
            scope.spawn(move || {
                let track = current_track();
                for i in 0..per_thread {
                    // Self-checking payload: id encodes (start_ns, dur_ns)
                    // so a torn slot (words from different writers) is
                    // detectable.
                    let start = t * per_thread + i;
                    let dur = start ^ 0xABCD;
                    buf.record_span(&TraceEvent {
                        kind: SpanKind::Layer,
                        track,
                        layer: (start % 7) as u16,
                        batch: 1,
                        tier: 1,
                        id: start.wrapping_mul(31) ^ dur,
                        start_ns: start,
                        dur_ns: dur,
                    });
                }
            });
        }
        // Concurrent readers during the storm.
        for _ in 0..4 {
            let buf = Arc::clone(&buf);
            scope.spawn(move || {
                for _ in 0..50 {
                    for e in buf.snapshot() {
                        assert_eq!(e.dur_ns, e.start_ns ^ 0xABCD, "torn event surfaced");
                        assert_eq!(e.id, e.start_ns.wrapping_mul(31) ^ e.dur_ns);
                    }
                }
            });
        }
    });
    assert_eq!(buf.recorded(), threads * per_thread);
    let final_events = buf.snapshot();
    assert!(!final_events.is_empty());
    assert!(final_events.len() <= buf.capacity());
    for e in &final_events {
        assert_eq!(e.dur_ns, e.start_ns ^ 0xABCD);
        assert_eq!(e.kind, SpanKind::Layer);
    }
}
