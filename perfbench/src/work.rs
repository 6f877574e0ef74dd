//! Static per-layer work, counted from a bundle's `NetSpec`.
//!
//! Each planned layer does one kind of work, in the unit its kernel path
//! spends time on:
//!
//! * pooled conv: **LUT lookups** — the phase-1 LUT slab reads (one
//!   `pool_size` slab per group, input position and activation bit) plus
//!   the phase-2 partial gathers (one per output position, filter, group
//!   and tap);
//! * direct conv and dense on the int8 path, and depthwise conv:
//!   **MACs**;
//! * direct conv and dense on the bit-plane popcount path: **popcount
//!   words** — `8 × act_bits` AND+popcount word ops per output and
//!   64-element slice of its weight row;
//! * pooling and residual layers: **bytes** of `i32` codes read plus
//!   written.
//!
//! Padding taps count as work: the kernels visit them.

use wp_core::deploy::{ConvPayload, DeployBundle};
use wp_core::netspec::LayerSpec;
use wp_engine::ResolvedBackend;

/// What a layer's work is counted in, and which host ceiling bounds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Table reads of the pooled-conv LUT path (bounded by the int8 MAC
    /// ceiling: each is a load plus an accumulate).
    LutLookups,
    /// Int8 multiply-accumulates.
    Macs,
    /// 64-bit AND+popcount word ops.
    PopcountWords,
    /// Bytes read and written.
    Bytes,
}

impl Unit {
    /// Short reporting name.
    pub fn name(self) -> &'static str {
        match self {
            Unit::LutLookups => "lut_lookups",
            Unit::Macs => "macs",
            Unit::PopcountWords => "popcount_words",
            Unit::Bytes => "bytes",
        }
    }
}

/// One planned layer's static work for a single image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerWork {
    /// Kernel name, as `PreparedNet::layer_kinds` reports it.
    pub kind: &'static str,
    /// Unit of `per_image`.
    pub unit: Unit,
    /// Work per image.
    pub per_image: u64,
}

/// Whether batched direct-conv and dense layers take the bit-plane
/// popcount path: the engine routes them there on the non-scalar tiers
/// at activation widths up to the backend's popcount threshold, capped
/// by the batched kernels' own limit.
pub fn popcount_path(act_bits: u8, tier: ResolvedBackend, popcount_max_bits: u8) -> bool {
    tier != ResolvedBackend::Scalar
        && act_bits <= popcount_max_bits.min(wp_engine::swar::POPCOUNT_BATCH_MAX_BITS)
}

/// Static work of every planned layer of `bundle` executed at
/// `act_bits`, with direct-conv and dense layers on the popcount path
/// when `popcount` is set.
pub fn layer_work(bundle: &DeployBundle, act_bits: u8, popcount: bool) -> Vec<LayerWork> {
    let group = bundle.pool.group_size() as u64;
    let pool_size = bundle.pool.len() as u64;
    let bits = u64::from(act_bits);
    let mut payloads = bundle.convs.iter();
    bundle
        .spec
        .resolve()
        .iter()
        .map(|l| {
            let (in_ch, in_h, in_w) = (l.in_ch as u64, l.in_h as u64, l.in_w as u64);
            let (out_ch, out_h, out_w) = (l.out_ch as u64, l.out_h as u64, l.out_w as u64);
            let in_elems = in_ch * in_h * in_w;
            let out_elems = out_ch * out_h * out_w;
            let bytes = |kind, read_planes: u64| LayerWork {
                kind,
                unit: Unit::Bytes,
                per_image: 4 * (read_planes * in_elems + out_elems),
            };
            // One dot product of `len` int8 weights against `len` codes,
            // counted in its path's unit.
            let dot = |len: u64| {
                if popcount {
                    (Unit::PopcountWords, 8 * bits * len.div_ceil(64))
                } else {
                    (Unit::Macs, len)
                }
            };
            match l.spec {
                LayerSpec::Conv(cs) => {
                    let taps = (cs.kernel * cs.kernel) as u64;
                    match payloads.next().expect("spec has more convs than payloads") {
                        ConvPayload::Pooled { .. } => {
                            let groups = in_ch / group;
                            LayerWork {
                                kind: "pooled_conv",
                                unit: Unit::LutLookups,
                                per_image: groups * in_h * in_w * bits * pool_size
                                    + out_h * out_w * out_ch * groups * taps,
                            }
                        }
                        ConvPayload::Direct { .. } => {
                            let (unit, per_dot) = dot(in_ch * taps);
                            LayerWork {
                                kind: "direct_conv",
                                unit,
                                per_image: out_h * out_w * out_ch * per_dot,
                            }
                        }
                    }
                }
                LayerSpec::DwConv { kernel, .. } => LayerWork {
                    kind: "dw_conv",
                    unit: Unit::Macs,
                    per_image: out_elems * (kernel * kernel) as u64,
                },
                LayerSpec::Dense { in_features, out_features, .. } => {
                    let (unit, per_dot) = dot(in_features as u64);
                    LayerWork { kind: "dense", unit, per_image: out_features as u64 * per_dot }
                }
                LayerSpec::MaxPool { .. } => bytes("max_pool", 1),
                LayerSpec::AvgPool { .. } => bytes("avg_pool", 1),
                LayerSpec::GlobalAvgPool => bytes("global_avg_pool", 1),
                LayerSpec::ResidualAdd => bytes("residual_add", 2),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_server::demo::{demo_bundle, DemoSize};

    /// demo-tiny: input 8x6x6; direct conv 8->8 3x3 pad 1; pooled conv
    /// 8->16 3x3 pad 1 (group 8, pool 16); global average pool; dense
    /// 16->4.
    #[test]
    fn demo_tiny_matches_hand_counts() {
        let bundle = demo_bundle(DemoSize::Tiny, 1);

        let int8 = layer_work(&bundle, 8, false);
        let kinds: Vec<&str> = int8.iter().map(|w| w.kind).collect();
        assert_eq!(kinds, ["direct_conv", "pooled_conv", "global_avg_pool", "dense"]);
        // 36 positions x 8 filters x (8 ch x 9 taps).
        assert_eq!((int8[0].unit, int8[0].per_image), (Unit::Macs, 36 * 8 * 72));
        // 1 group x 36 positions x 8 bits x 16 pool vectors, plus
        // 36 positions x 16 filters x 1 group x 9 taps.
        assert_eq!((int8[1].unit, int8[1].per_image), (Unit::LutLookups, 4608 + 5184));
        // Reads 16x6x6 codes, writes 16, four bytes each.
        assert_eq!((int8[2].unit, int8[2].per_image), (Unit::Bytes, 4 * (576 + 16)));
        assert_eq!((int8[3].unit, int8[3].per_image), (Unit::Macs, 64));

        let popcount = layer_work(&bundle, 2, true);
        // 72-element patch -> 2 words; 8 weight planes x 2 activation
        // planes per word.
        assert_eq!(
            (popcount[0].unit, popcount[0].per_image),
            (Unit::PopcountWords, 36 * 8 * 8 * 2 * 2)
        );
        // The LUT path scales with the activation bits it unpacks.
        assert_eq!(popcount[1].per_image, 36 * 2 * 16 + 5184);
        assert_eq!(popcount[2], int8[2]);
        // 4 rows x 8 x 2 planes x 1 word.
        assert_eq!((popcount[3].unit, popcount[3].per_image), (Unit::PopcountWords, 64));
    }

    #[test]
    fn kinds_match_the_compiled_plan() {
        for size in [DemoSize::Tiny, DemoSize::Serve, DemoSize::Stem] {
            let net = wp_server::demo::demo_prepared(size, 3);
            let work = layer_work(&demo_bundle(size, 3), 8, false);
            let kinds: Vec<String> = work.iter().map(|w| w.kind.to_string()).collect();
            assert_eq!(kinds, net.layer_kinds(), "{size:?}");
        }
    }

    #[test]
    fn popcount_path_follows_the_engine_threshold() {
        assert!(popcount_path(2, ResolvedBackend::Swar, 4));
        assert!(!popcount_path(8, ResolvedBackend::Swar, 4));
        assert!(!popcount_path(2, ResolvedBackend::Scalar, 4));
        assert!(!popcount_path(2, ResolvedBackend::Avx2, 0));
    }
}
