//! The direct-conv and dense fast paths — the solo bit-plane popcount
//! kernels and the batched pair-madd tiles — are bit-identical to the
//! scalar reference at every bitwidth they run at.
//!
//! Three levels of pinning:
//!
//! * **Kernels** — property tests fuzz dense and direct-conv shapes and
//!   require the solo popcount kernels (`swar::dense_acc` /
//!   `swar::conv_direct`, portable and, where the CPU has it, AVX2) at
//!   activation bitwidths `1..=4`, and the batched tiles
//!   (`backend::dense_acc_batch` / `backend::conv_direct_batch`, pair-madd
//!   on x86-64) at `1..=8` under both encodings, odd reduction lengths,
//!   strides 1–2, padding 0–2, kernels 1/3/5 and batch sizes 1–19 (solo
//!   tails included), to reproduce the reference kernels exactly. A tile
//!   holding a code outside `i16` must take the generic tile and still
//!   match.
//! * **Networks** — direct-conv + dense networks run identically across
//!   the scalar/swar/avx2 tiers, batched and solo, at bitwidths on both
//!   sides of the solo popcount threshold (`swar::POPCOUNT_MAX_BITS`) —
//!   routing must never change the integers — and a fuzzed network's
//!   batched run matches `run_one` at every `act_bits` on both madd
//!   widths.
//! * **Blocked dense** — dense heads on both sides of the blocked-kernel
//!   threshold (`in × out ≥ 16K` weights) at batches deep enough to
//!   engage it (≥ 2 full tiles) match solo execution.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use wp_core::deploy::{ConvPayload, DeployBundle};
use wp_core::netspec::{ConvSpec, LayerSpec, NetSpec};
use wp_core::reference::{direct_conv_acc, ActEncoding, PooledConvShape};
use wp_core::{LookupTable, LutOrder, WeightPool};
use wp_engine::{avx2_available, backend, swar, BackendKind, EngineOptions, PreparedNet};

fn codes(rng: &mut impl Rng, n: usize, enc: ActEncoding, bits: u8) -> Vec<i32> {
    let (lo, hi) = enc.code_range(bits);
    (0..n).map(|_| rng.gen_range(lo..=hi)).collect()
}

fn encoding(signed: bool) -> ActEncoding {
    if signed {
        ActEncoding::SignedTwosComplement
    } else {
        ActEncoding::Unsigned
    }
}

fn int8_weights(rng: &mut impl Rng, n: usize) -> Vec<i8> {
    (0..n).map(|_| rng.gen_range(-128i32..=127) as i8).collect()
}

fn avx2_flags() -> Vec<bool> {
    if avx2_available() {
        vec![false, true]
    } else {
        vec![false]
    }
}

/// The swar tier, plus avx2 where the CPU has it: the 128-bit and
/// 256-bit madd tiles.
fn simd_kinds() -> Vec<BackendKind> {
    let mut kinds = vec![BackendKind::Swar];
    if avx2_available() {
        kinds.push(BackendKind::Avx2);
    }
    kinds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dense_popcount_solo_and_batched_match_scalar(
        out_features in 1usize..12,
        in_features in 1usize..48,
        batch_n in prop::sample::select(vec![1usize, 2, 7, 16]),
        bits in 1u8..=swar::POPCOUNT_MAX_BITS,
        signed in prop::sample::select(vec![false, true]),
        seed in 0u64..1_000_000,
    ) {
        let enc = encoding(signed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let weights = int8_weights(&mut rng, out_features * in_features);
        let packed = swar::PackedWeights::pack(&weights, out_features, in_features);
        let batch: Vec<Vec<i32>> =
            (0..batch_n).map(|_| codes(&mut rng, in_features, enc, bits)).collect();
        let scalar: Vec<Vec<i32>> =
            batch.iter().map(|c| backend::dense_acc(c, &weights, out_features)).collect();
        for use_avx2 in avx2_flags() {
            for (c, want) in batch.iter().zip(&scalar) {
                prop_assert_eq!(&swar::dense_acc(c, &packed, use_avx2), want, "solo avx2={}", use_avx2);
            }
        }
        prop_assert_eq!(&backend::dense_acc_batch(&batch, &weights, out_features), &scalar);
    }

    #[test]
    fn conv_popcount_solo_and_batched_match_scalar(
        in_ch in 1usize..4,
        out_ch in 1usize..5,
        k_idx in 0usize..2,
        stride in 1usize..3,
        pad in 0usize..2,
        in_h in 3usize..8,
        in_w in 3usize..8,
        batch_n in prop::sample::select(vec![1usize, 2, 7, 16]),
        bits in 1u8..=swar::POPCOUNT_MAX_BITS,
        signed in prop::sample::select(vec![false, true]),
        seed in 0u64..1_000_000,
    ) {
        let kernel = [1usize, 3][k_idx];
        prop_assume!(in_h + 2 * pad >= kernel && in_w + 2 * pad >= kernel);
        let shape = PooledConvShape { in_ch, out_ch, kernel, stride, pad, in_h, in_w };
        let enc = encoding(signed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let weights = int8_weights(&mut rng, out_ch * in_ch * kernel * kernel);
        let packed = swar::PackedWeights::pack(&weights, out_ch, in_ch * kernel * kernel);
        let batch: Vec<Vec<i32>> =
            (0..batch_n).map(|_| codes(&mut rng, in_ch * in_h * in_w, enc, bits)).collect();
        let scalar: Vec<Vec<i32>> =
            batch.iter().map(|c| backend::conv_direct(c, &shape, &weights)).collect();
        for use_avx2 in avx2_flags() {
            for (c, want) in batch.iter().zip(&scalar) {
                prop_assert_eq!(
                    &swar::conv_direct(c, &shape, &packed, use_avx2),
                    want,
                    "solo avx2={}", use_avx2
                );
            }
        }
        prop_assert_eq!(&backend::conv_direct_batch(&batch, &shape, &weights), &scalar);
    }

    /// The batched direct-conv tiles against the reference kernel across
    /// geometry, bitwidth, encoding and batch size (odd channel counts
    /// exercise the zero-padded last pair, odd filter counts the
    /// register-block tail, non-multiple-of-8 batches the solo tail).
    #[test]
    fn madd_direct_tiles_match_reference(
        in_ch in 1usize..8,
        out_ch in 1usize..10,
        kernel in prop::sample::select(vec![1usize, 3, 5]),
        stride in 1usize..=2,
        pad in 0usize..=2,
        in_h in 3usize..8,
        in_w in 3usize..8,
        batch_n in 1usize..=19,
        bits in 1u8..=8,
        signed in prop::sample::select(vec![false, true]),
        seed in 0u64..1_000_000,
    ) {
        prop_assume!(in_h + 2 * pad >= kernel && in_w + 2 * pad >= kernel);
        let shape = PooledConvShape { in_ch, out_ch, kernel, stride, pad, in_h, in_w };
        let enc = encoding(signed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let weights = int8_weights(&mut rng, out_ch * in_ch * kernel * kernel);
        let batch: Vec<Vec<i32>> =
            (0..batch_n).map(|_| codes(&mut rng, in_ch * in_h * in_w, enc, bits)).collect();
        let batched = backend::conv_direct_batch(&batch, &shape, &weights);
        prop_assert_eq!(batched.len(), batch_n);
        for (i, (c, out)) in batch.iter().zip(&batched).enumerate() {
            prop_assert_eq!(out, &direct_conv_acc(c, &shape, &weights), "image {}", i);
        }
    }

    /// The batched dense tiles against the solo kernel, odd and even
    /// input-feature counts, every bitwidth and encoding.
    #[test]
    fn madd_dense_tiles_match_solo(
        in_features in 1usize..40,
        out_features in 1usize..12,
        batch_n in 1usize..=19,
        bits in 1u8..=8,
        signed in prop::sample::select(vec![false, true]),
        seed in 0u64..1_000_000,
    ) {
        let enc = encoding(signed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let weights = int8_weights(&mut rng, out_features * in_features);
        let batch: Vec<Vec<i32>> =
            (0..batch_n).map(|_| codes(&mut rng, in_features, enc, bits)).collect();
        let batched = backend::dense_acc_batch(&batch, &weights, out_features);
        prop_assert_eq!(batched.len(), batch_n);
        for (i, (c, out)) in batch.iter().zip(&batched).enumerate() {
            prop_assert_eq!(out, &backend::dense_acc(c, &weights, out_features), "image {}", i);
        }
    }
}

/// Dense heads just below and just above the blocked-kernel threshold
/// (`16 × 1024` weights; the larger heads have odd input-feature
/// counts, and the widest spans two input blocks and a ragged output
/// block) at batches of one tile, two tiles plus a tail and a partial
/// tile, every bitwidth and encoding.
#[test]
fn madd_dense_heads_straddling_the_blocked_threshold_match_solo() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xB10C);
    for (in_features, out_features) in [(127usize, 128usize), (129, 128), (301, 57)] {
        let weights = int8_weights(&mut rng, in_features * out_features);
        for bits in 1u8..=8 {
            for signed in [false, true] {
                let enc = encoding(signed);
                for batch_n in [8usize, 19, 5] {
                    let batch: Vec<Vec<i32>> =
                        (0..batch_n).map(|_| codes(&mut rng, in_features, enc, bits)).collect();
                    let batched = backend::dense_acc_batch(&batch, &weights, out_features);
                    for (c, out) in batch.iter().zip(&batched) {
                        assert_eq!(
                            out,
                            &backend::dense_acc(c, &weights, out_features),
                            "{in_features}x{out_features} bits={bits} {enc:?} batch={batch_n}"
                        );
                    }
                }
            }
        }
    }
}

/// A tile holding one code outside `i16` cannot ride the madd tile
/// (its halves would truncate the code), so it must take the generic
/// tile — while the batch's other, in-range tile takes the madd tile —
/// and both still match solo execution exactly.
#[test]
fn tile_with_a_code_outside_i16_takes_the_generic_path_and_matches() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x1616);
    let shape =
        PooledConvShape { in_ch: 3, out_ch: 6, kernel: 3, stride: 1, pad: 1, in_h: 5, in_w: 5 };
    let conv_w = int8_weights(&mut rng, 6 * 3 * 9);
    let mut images: Vec<Vec<i32>> =
        (0..16).map(|_| codes(&mut rng, 3 * 25, ActEncoding::Unsigned, 8)).collect();
    images[3][7] = 40_000;
    images[5][0] = -40_000;
    let batched = backend::conv_direct_batch(&images, &shape, &conv_w);
    for (img, out) in images.iter().zip(&batched) {
        assert_eq!(out, &direct_conv_acc(img, &shape, &conv_w));
    }

    let (in_features, out_features) = (33usize, 7usize);
    let dense_w = int8_weights(&mut rng, in_features * out_features);
    let mut images: Vec<Vec<i32>> =
        (0..16).map(|_| codes(&mut rng, in_features, ActEncoding::Unsigned, 8)).collect();
    images[12][32] = 32_768;
    let batched = backend::dense_acc_batch(&images, &dense_w, out_features);
    for (img, out) in images.iter().zip(&batched) {
        assert_eq!(out, &backend::dense_acc(img, &dense_w, out_features));
    }
}

/// A network with a direct-conv stem (`(kernel, stride, pad)`), global
/// pooling and two dense layers (`head_features` wide, then 5 classes)
/// over an `in_ch × 8 × 8` input.
fn popcount_bundle_with(
    in_ch: usize,
    (kernel, stride, pad): (usize, usize, usize),
    head_features: usize,
) -> DeployBundle {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x90C);
    let vectors: Vec<Vec<f32>> =
        (0..4).map(|_| (0..8).map(|_| rng.gen_range(-0.5f32..0.5)).collect()).collect();
    let pool = WeightPool::from_vectors(vectors);
    let lut = LookupTable::build(&pool, 8, LutOrder::InputOriented);
    let spec = NetSpec {
        name: "popcount-parity".into(),
        input: (in_ch, 8, 8),
        classes: 5,
        layers: vec![
            LayerSpec::Conv(ConvSpec {
                in_ch,
                out_ch: head_features,
                kernel,
                stride,
                pad,
                compressed: false,
            }),
            LayerSpec::GlobalAvgPool,
            LayerSpec::Dense {
                in_features: head_features,
                out_features: head_features,
                compressed: false,
            },
            LayerSpec::Dense { in_features: head_features, out_features: 5, compressed: false },
        ],
    };
    let direct: Vec<i8> = (0..head_features * in_ch * kernel * kernel)
        .map(|_| rng.gen_range(-127i32..=127) as i8)
        .collect();
    DeployBundle {
        spec,
        pool,
        lut,
        convs: vec![ConvPayload::Direct { weights: direct, scale: 0.01 }],
        act_bits: 8,
    }
}

/// [`popcount_bundle_with`] at a 3-channel, 3×3 same-padded stem.
fn popcount_bundle(head_features: usize) -> DeployBundle {
    popcount_bundle_with(3, (3, 1, 1), head_features)
}

/// Popcount routing never changes a network's outputs: at bitwidths up
/// to the solo threshold (popcount) and above it (MAC loop), every tier
/// agrees with the scalar reference, solo and batched.
#[test]
fn network_agrees_across_tiers_and_popcount_thresholds() {
    let bundle = popcount_bundle(16);
    for bits in [1u8, 2, swar::POPCOUNT_MAX_BITS, swar::POPCOUNT_MAX_BITS + 1, 8] {
        let opts =
            |backend: BackendKind| EngineOptions::new().with_act_bits(bits).with_backend(backend);
        let scalar = PreparedNet::from_bundle(&bundle, &opts(BackendKind::Scalar));
        let inputs = scalar.fabricate_inputs(16, 0x5EED + bits as u64);
        let refs: Vec<&[i32]> = inputs.iter().map(|x| x.as_slice()).collect();
        let want: Vec<Vec<i32>> = inputs.iter().map(|x| scalar.run_one(x)).collect();
        for kind in simd_kinds() {
            let net = PreparedNet::from_bundle(&bundle, &opts(kind));
            for (input, want) in inputs.iter().zip(&want) {
                assert_eq!(&net.run_one(input), want, "solo bits={bits} kind={kind:?}");
            }
            for batch in [1usize, 2, 7, 16] {
                assert_eq!(
                    net.run_batch(&refs[..batch]),
                    want[..batch],
                    "batch={batch} bits={bits} kind={kind:?}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A fuzzed direct-conv + dense network: the batched run (madd tiles
    /// at both widths, solo tails) matches `run_one` at every `act_bits`
    /// under both encodings, with dense heads on both sides of the
    /// blocked-kernel threshold (`132 × 132` is past it).
    #[test]
    fn prop_madd_network_matches_run_one(
        in_ch in 1usize..6,
        kernel in prop::sample::select(vec![1usize, 3, 5]),
        stride in 1usize..=2,
        pad in 0usize..=2,
        head_features in prop::sample::select(vec![7usize, 132]),
        batch_n in 1usize..=19,
        bits in 1u8..=8,
        signed in prop::sample::select(vec![false, true]),
        seed in 0u64..1_000_000,
    ) {
        let bundle = popcount_bundle_with(in_ch, (kernel, stride, pad), head_features);
        for kind in simd_kinds() {
            let opts = EngineOptions::new()
                .with_act_bits(bits)
                .with_encoding(encoding(signed))
                .with_backend(kind);
            let net = PreparedNet::from_bundle(&bundle, &opts);
            let inputs = net.fabricate_inputs(batch_n, seed);
            let refs: Vec<&[i32]> = inputs.iter().map(|x| x.as_slice()).collect();
            let want: Vec<Vec<i32>> = inputs.iter().map(|x| net.run_one(x)).collect();
            prop_assert_eq!(net.run_batch(&refs), want, "kind={:?}", kind);
        }
    }
}

/// A head big enough for the blocked dense tile path (128×128 = 16K
/// weights) at a batch with ≥ 2 full tiles matches solo execution.
#[test]
fn blocked_dense_network_matches_solo() {
    let bundle = popcount_bundle(128);
    for bits in [2u8, 8] {
        let opts = EngineOptions::new().with_act_bits(bits).with_backend(BackendKind::Swar);
        let net = PreparedNet::from_bundle(&bundle, &opts);
        let inputs = net.fabricate_inputs(17, 0xB10C);
        let refs: Vec<&[i32]> = inputs.iter().map(|x| x.as_slice()).collect();
        let want: Vec<Vec<i32>> = inputs.iter().map(|x| net.run_one(x)).collect();
        assert_eq!(net.run_batch(&refs), want, "bits={bits}");
    }
}
