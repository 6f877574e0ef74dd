//! Bit-plane kernels for **solo** execution: int8×intM dot products as
//! `u64` popcounts.
//!
//! The direct-conv and dense kernels multiply int8 weights by small
//! integer activation codes. Decompose both sides into bit planes and
//! the whole dot product collapses into AND+popcount over packed `u64`
//! lanes — 64 multiply-accumulates per word-op pair:
//!
//! Shift every weight by +128 so it is a *positive* 8-bit value
//! `w' = w + 128`, and every activation by its (data-derived) minimum
//! `lo` so `d = a - lo >= 0`. Then with `W'ₖ` the k-th weight bit plane
//! and `Dⱼ` the j-th activation bit plane of one weight row / activation
//! vector pair,
//!
//! ```text
//! Σᵢ wᵢ·aᵢ = Σₖ Σⱼ 2^(k+j) · popcount(W'ₖ & Dⱼ)
//!          + lo·Σᵢw'ᵢ − 128·Σᵢdᵢ − 128·lo·n
//! ```
//!
//! an **exact integer identity** — no approximation anywhere, so the
//! result is bit-for-bit the scalar kernel's accumulator (pinned by the
//! differential tests below and in `tests/popcount_parity.rs`). The row
//! sums `Σw'` are precomputed at pack time; `Σd` costs one popcount
//! sweep per activation vector.
//!
//! The weight side always has 8 planes; the activation side has
//! `bits(max − lo)` planes, so the popcount work scales with the
//! *activation* bitwidth — the same bit-serial scaling the paper's MCU
//! kernels get, which is why the solo kernels engage this path at low
//! `act_bits` and fall back to the scalar MAC loops at high widths
//! (where a multiplier beats 8×8 plane passes).
//!
//! Full batch tiles do not come here: the weight-stationary pair-madd
//! tiles ([`crate::backend`]) beat an 8-lane popcount tile at every
//! activation bitwidth, so this module serves solo calls only (which
//! include a batch's tail of fewer than eight images).
//!
//! `and_popcount` is the only inner loop: portable SWAR `count_ones` by
//! default, or an AVX2 nibble-shuffle popcount (`_mm256_shuffle_epi8` +
//! `_mm256_sad_epu8`) when the resolved backend is `avx2` — both count
//! the same bits, so tier choice cannot change a single output.

use crate::scratch::Scratch;
use wp_core::reference::PooledConvShape;
use wp_tensor::Conv2dGeometry;

/// Int8 weights packed into 8 bit planes per row, `u64`-lane major,
/// plus the per-row sums the offset correction needs. Built once at
/// plan-compile time (weights are static).
#[derive(Debug, Clone)]
pub struct PackedWeights {
    rows: usize,
    cols: usize,
    /// `u64` words per plane: `ceil(cols / 64)`.
    words: usize,
    /// Plane `k` of row `r` occupies `words` words at
    /// `(r * 8 + k) * words`.
    planes: Vec<u64>,
    /// `Σᵢ (wᵢ + 128)` per row.
    row_sums: Vec<i64>,
}

impl PackedWeights {
    /// Packs a `[rows, cols]` int8 weight matrix (row-major, the same
    /// layout the scalar kernels read).
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != rows * cols`.
    pub fn pack(weights: &[i8], rows: usize, cols: usize) -> Self {
        assert_eq!(weights.len(), rows * cols, "weight size mismatch");
        let words = cols.div_ceil(64).max(1);
        let mut planes = vec![0u64; rows * 8 * words];
        let mut row_sums = vec![0i64; rows];
        for r in 0..rows {
            let row_planes = &mut planes[r * 8 * words..(r + 1) * 8 * words];
            for (i, &w) in weights[r * cols..(r + 1) * cols].iter().enumerate() {
                let shifted = (w as i32 + 128) as u64; // 1..=255
                row_sums[r] += shifted as i64;
                let (word, bit) = (i / 64, i % 64);
                for k in 0..8 {
                    if (shifted >> k) & 1 == 1 {
                        row_planes[k * words + word] |= 1u64 << bit;
                    }
                }
            }
        }
        Self { rows, cols, words, planes, row_sums }
    }

    /// Row count (output features / filters).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count (reduction length).
    pub fn cols(&self) -> usize {
        self.cols
    }
}

/// One activation vector decomposed into bit planes over its own value
/// range. Reusable across repacks (the per-pixel im2col loop repacks
/// into the same allocation).
#[derive(Debug, Clone, Default)]
pub struct BitPlanes {
    words: usize,
    plane_count: usize,
    /// Plane `j` occupies `words` words at `j * words`.
    planes: Vec<u64>,
    /// Offset subtracted from every value: `min(0, min(vals))`, so the
    /// shifted values are non-negative and an all-zero (padding) slot
    /// shifts to exactly `-lo`.
    lo: i64,
    /// `Σᵢ (vᵢ - lo)`.
    sum_shifted: i64,
    len: usize,
}

impl BitPlanes {
    /// An empty pack (repack with [`BitPlanes::pack`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Decomposes `vals` into bit planes, reusing this pack's storage.
    /// The plane count is derived from the values' actual span, so any
    /// `i32` input is represented exactly (at most 32 planes).
    pub fn pack(&mut self, vals: &[i32]) {
        let lo = vals.iter().copied().min().unwrap_or(0).min(0) as i64;
        let hi = vals.iter().copied().max().unwrap_or(0).max(0) as i64;
        let span = (hi - lo) as u64;
        let plane_count = (64 - span.leading_zeros()) as usize;
        let words = vals.len().div_ceil(64).max(1);
        self.words = words;
        self.plane_count = plane_count;
        self.lo = lo;
        self.len = vals.len();
        self.planes.clear();
        self.planes.resize(plane_count * words, 0);
        let mut sum = 0i64;
        for (i, &v) in vals.iter().enumerate() {
            let d = (v as i64 - lo) as u64;
            sum += d as i64;
            let (word, bit) = (i / 64, i % 64);
            for (j, plane) in self.planes.chunks_mut(words).enumerate() {
                if (d >> j) & 1 == 1 {
                    plane[word] |= 1u64 << bit;
                }
            }
        }
        self.sum_shifted = sum;
    }

    /// Activation bit planes in use (`bits(max - lo)`).
    pub fn plane_count(&self) -> usize {
        self.plane_count
    }
}

/// `popcount(Σ a & b)` over two equal-length word runs — the single
/// inner loop of every bit-plane kernel. Portable SWAR by default
/// (`u64::count_ones` lowers to the Hacker's Delight bit-parallel count
/// or a POPCNT instruction, whichever the target has); AVX2 when the
/// caller resolved that tier at plan-compile time.
#[inline]
fn and_popcount(a: &[u64], b: &[u64], use_avx2: bool) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if use_avx2 {
        // SAFETY: `use_avx2` is only ever true for a plan whose backend
        // resolved to `Avx2`, which requires runtime AVX2 detection.
        return unsafe { avx2::and_popcount(a, b) };
    }
    let _ = use_avx2;
    a.iter().zip(b).map(|(&x, &y)| (x & y).count_ones() as u64).sum()
}

/// The exact dot product of packed weight row `r` with a packed
/// activation vector (see the module docs for the identity).
///
/// # Panics
///
/// Panics (in debug) if the pack lengths disagree.
fn dot(w: &PackedWeights, r: usize, a: &BitPlanes, use_avx2: bool) -> i64 {
    debug_assert_eq!(w.cols, a.len, "reduction length mismatch");
    debug_assert_eq!(w.words, a.words);
    let words = w.words;
    let row_planes = &w.planes[r * 8 * words..(r + 1) * 8 * words];
    let mut weighted = 0i64;
    for k in 0..8 {
        let wrow = &row_planes[k * words..(k + 1) * words];
        for j in 0..a.plane_count {
            let arow = &a.planes[j * words..(j + 1) * words];
            let c = and_popcount(wrow, arow, use_avx2);
            weighted += (c as i64) << (k + j);
        }
    }
    weighted + a.lo * w.row_sums[r] - 128 * a.sum_shifted - 128 * a.lo * (w.cols as i64)
}

/// Bit-plane dense accumulators: bit-identical to
/// [`crate::backend::dense_acc`] with the weights `packed` was built
/// from (same values, same `i32` narrowing check).
///
/// # Panics
///
/// Panics if `codes.len() != packed.cols()`, or on `i32` accumulator
/// overflow exactly where the scalar kernel would.
pub fn dense_acc(codes: &[i32], packed: &PackedWeights, use_avx2: bool) -> Vec<i32> {
    dense_acc_scratch(codes, packed, use_avx2, &mut Scratch::new())
}

/// [`dense_acc`] drawing its working set (bit-plane pack, output buffer)
/// from a scratch arena — the allocation-free form the kernels call. The
/// returned buffer comes from the arena; callers on the hot path return
/// it with [`Scratch::put_i32`] when done.
pub(crate) fn dense_acc_scratch(
    codes: &[i32],
    packed: &PackedWeights,
    use_avx2: bool,
    scratch: &mut Scratch,
) -> Vec<i32> {
    assert_eq!(codes.len(), packed.cols, "weight size mismatch");
    let mut a = scratch.take_bitplanes();
    a.pack(codes);
    let mut out = scratch.take_i32(packed.rows);
    for (r, slot) in out.iter_mut().enumerate() {
        *slot = i32::try_from(dot(packed, r, &a, use_avx2)).expect("accumulator overflow");
    }
    scratch.put_bitplanes(a);
    out
}

/// Bit-plane direct convolution: per output pixel, gather the receptive
/// field im2col-style — **padding taps as literal zero activations**,
/// which contribute exactly nothing to the sum, the same as the scalar
/// kernel skipping them — then run every filter as a packed dot
/// product. `packed` must hold the `[K, C·R·S]` filter matrix in the
/// scalar `[K, C, R, S]` weight order.
///
/// Bit-identical to [`crate::backend::conv_direct`] on the same weights
/// (pinned by test), including the per-pixel `i32` narrowing panic.
///
/// # Panics
///
/// Panics on shape mismatches or `i32` accumulator overflow.
pub fn conv_direct(
    codes: &[i32],
    shape: &PooledConvShape,
    packed: &PackedWeights,
    use_avx2: bool,
) -> Vec<i32> {
    conv_direct_scratch(codes, shape, packed, use_avx2, &mut Scratch::new())
}

/// Copies one output pixel's receptive field into `gather` in the
/// `[C, R, S]` im2col order the packed filter matrix expects, with
/// padding taps as literal zeros.
#[inline]
#[allow(clippy::too_many_arguments)]
fn gather_window(
    codes: &[i32],
    in_ch: usize,
    in_h: usize,
    in_w: usize,
    k_sz: usize,
    geo: &Conv2dGeometry,
    oy: usize,
    ox: usize,
    gather: &mut [i32],
) {
    for ky in 0..k_sz {
        let iy = geo.input_row(oy, ky);
        for kx in 0..k_sz {
            let src = iy.and_then(|iy| geo.input_col(ox, kx).map(|ix| iy * in_w + ix));
            for c in 0..in_ch {
                gather[(c * k_sz + ky) * k_sz + kx] = match src {
                    Some(sp) => codes[c * in_h * in_w + sp],
                    None => 0,
                };
            }
        }
    }
}

/// [`conv_direct`] drawing its working set (gather window, bit-plane
/// pack, output buffer) from a scratch arena — the allocation-free form
/// the kernels call. The returned buffer comes from the arena.
pub(crate) fn conv_direct_scratch(
    codes: &[i32],
    shape: &PooledConvShape,
    packed: &PackedWeights,
    use_avx2: bool,
    scratch: &mut Scratch,
) -> Vec<i32> {
    let (in_ch, in_h, in_w) = (shape.in_ch, shape.in_h, shape.in_w);
    let k_sz = shape.kernel;
    assert_eq!(codes.len(), in_ch * in_h * in_w, "activation size mismatch");
    assert_eq!(packed.rows, shape.out_ch, "filter count mismatch");
    assert_eq!(packed.cols, in_ch * k_sz * k_sz, "weight size mismatch");
    let geo = shape.geometry();
    let (oh, ow) = (geo.out_h(), geo.out_w());

    let mut gather = scratch.take_i32(packed.cols);
    let mut a = scratch.take_bitplanes();
    let mut out = scratch.take_i32(shape.out_ch * oh * ow);
    for oy in 0..oh {
        for ox in 0..ow {
            gather_window(codes, in_ch, in_h, in_w, k_sz, &geo, oy, ox, &mut gather);
            a.pack(&gather);
            for k in 0..shape.out_ch {
                out[(k * oh + oy) * ow + ox] =
                    i32::try_from(dot(packed, k, &a, use_avx2)).expect("accumulator overflow");
            }
        }
    }
    scratch.put_i32(gather);
    scratch.put_bitplanes(a);
    out
}

/// Largest activation bitwidth at which the kernels route solo
/// direct/dense work through the bit-plane path: the popcount work is
/// `8 × plane_count` word-ops per 64 lanes, so at 4 bits and below it
/// beats the scalar MAC loop; above, the multiplier wins and the
/// kernels use the scalar path (still bit-identical — the tiers differ
/// only in speed).
pub const POPCOUNT_MAX_BITS: u8 = 4;

/// The activation bitwidth up to which batched direct/dense work *used*
/// to run on 8-lane bit-plane popcount tiles. The engine no longer
/// routes by it — every batch tile runs the pair-madd int8 tiles, which
/// beat popcount at every bitwidth — and it survives only for the
/// benchmark's per-layer work model, which still counts sub-byte
/// batched direct/dense work in popcount words up to this width.
pub const POPCOUNT_BATCH_MAX_BITS: u8 = 4;

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// AVX2 `Σ popcount(a & b)`: the nibble-shuffle population count
    /// (Muła et al.) — each byte split into two 4-bit halves counted via
    /// `_mm256_shuffle_epi8` table lookup, byte counts folded into
    /// 64-bit lane sums with `_mm256_sad_epu8`. Counts exactly the same
    /// bits as the portable loop.
    ///
    /// # Safety
    ///
    /// Callers must have verified AVX2 support at run time.
    #[target_feature(enable = "avx2")]
    pub unsafe fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
        let n = a.len().min(b.len());
        let chunks = n / 4;
        #[rustfmt::skip]
        let table = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let mut sums = _mm256_setzero_si256();
        for c in 0..chunks {
            let va = _mm256_loadu_si256(a.as_ptr().add(c * 4) as *const __m256i);
            let vb = _mm256_loadu_si256(b.as_ptr().add(c * 4) as *const __m256i);
            let v = _mm256_and_si256(va, vb);
            let lo = _mm256_and_si256(v, low_mask);
            let hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
            let counts =
                _mm256_add_epi8(_mm256_shuffle_epi8(table, lo), _mm256_shuffle_epi8(table, hi));
            sums = _mm256_add_epi64(sums, _mm256_sad_epu8(counts, _mm256_setzero_si256()));
        }
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, sums);
        let mut total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
        for i in chunks * 4..n {
            total += (a[i] & b[i]).count_ones() as u64;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend;
    use crate::options::avx2_available;

    /// Deterministic LCG, same constants as the backend's test fuzzer.
    fn lcg(state: &mut u64, m: i32) -> i32 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((*state >> 33) as i32).rem_euclid(m)
    }

    /// The AVX2 flags to exercise: always the portable path, plus the
    /// `std::arch` path when this CPU has it.
    fn avx2_flags() -> Vec<bool> {
        if avx2_available() {
            vec![false, true]
        } else {
            vec![false]
        }
    }

    #[test]
    fn dense_matches_scalar_across_bitwidths() {
        let mut s = 0xB17;
        let (rows, cols) = (13usize, 100usize);
        let weights: Vec<i8> = (0..rows * cols).map(|_| (lcg(&mut s, 255) - 127) as i8).collect();
        let packed = PackedWeights::pack(&weights, rows, cols);
        for bits in 1..=8u32 {
            let hi = (1i32 << bits) - 1;
            // Unsigned-style codes and signed-style codes both pack
            // exactly (lo is derived from the data).
            let unsigned: Vec<i32> = (0..cols).map(|_| lcg(&mut s, hi + 1)).collect();
            let signed: Vec<i32> = (0..cols).map(|_| lcg(&mut s, hi + 1) - (hi + 1) / 2).collect();
            for codes in [unsigned, signed] {
                let expect = backend::dense_acc(&codes, &weights, rows);
                for avx2 in avx2_flags() {
                    assert_eq!(dense_acc(&codes, &packed, avx2), expect, "bits={bits} avx2={avx2}");
                }
            }
        }
    }

    #[test]
    fn dense_matches_scalar_on_huge_codes() {
        // Dense inputs are arbitrary i32 (e.g. after global pooling of a
        // wide range); the pack derives its plane count from the data, so
        // even ±200k values are exact.
        let mut s = 0x806E;
        let (rows, cols) = (5usize, 70usize);
        let weights: Vec<i8> = (0..rows * cols).map(|_| (lcg(&mut s, 255) - 127) as i8).collect();
        let packed = PackedWeights::pack(&weights, rows, cols);
        let codes: Vec<i32> = (0..cols).map(|_| lcg(&mut s, 400_001) - 200_000).collect();
        let expect = backend::dense_acc(&codes, &weights, rows);
        for avx2 in avx2_flags() {
            assert_eq!(dense_acc(&codes, &packed, avx2), expect, "avx2={avx2}");
        }
    }

    #[test]
    fn direct_conv_matches_scalar_with_padding_and_stride() {
        let mut s = 0xC04Fu64;
        for (stride, pad, in_h, in_w) in [(1, 1, 6, 5), (2, 0, 7, 7), (2, 1, 5, 9)] {
            let shape = PooledConvShape { in_ch: 5, out_ch: 7, kernel: 3, stride, pad, in_h, in_w };
            let weights: Vec<i8> = (0..shape.out_ch * shape.in_ch * 9)
                .map(|_| (lcg(&mut s, 255) - 127) as i8)
                .collect();
            let packed = PackedWeights::pack(&weights, shape.out_ch, shape.in_ch * 9);
            for bits in [1u32, 3, 8] {
                let hi = (1i32 << bits) - 1;
                let codes: Vec<i32> =
                    (0..shape.in_ch * in_h * in_w).map(|_| lcg(&mut s, hi + 1)).collect();
                let expect = backend::conv_direct(&codes, &shape, &weights);
                for avx2 in avx2_flags() {
                    assert_eq!(
                        conv_direct(&codes, &shape, &packed, avx2),
                        expect,
                        "stride={stride} pad={pad} bits={bits} avx2={avx2}"
                    );
                }
            }
        }
    }

    #[test]
    fn direct_conv_matches_scalar_on_signed_codes() {
        let shape =
            PooledConvShape { in_ch: 3, out_ch: 4, kernel: 3, stride: 1, pad: 1, in_h: 4, in_w: 4 };
        let mut s = 0x51;
        let weights: Vec<i8> = (0..4 * 3 * 9).map(|_| (lcg(&mut s, 255) - 127) as i8).collect();
        let packed = PackedWeights::pack(&weights, 4, 3 * 9);
        // Signed codes make the padding slots (exact zero) sit strictly
        // inside the data range — the case the `lo` offset handles.
        let codes: Vec<i32> = (0..3 * 4 * 4).map(|_| lcg(&mut s, 256) - 128).collect();
        let expect = backend::conv_direct(&codes, &shape, &weights);
        for avx2 in avx2_flags() {
            assert_eq!(conv_direct(&codes, &shape, &packed, avx2), expect, "avx2={avx2}");
        }
    }

    #[test]
    fn all_zero_and_all_negative_activations_pack_exactly() {
        let weights: Vec<i8> = vec![-128, -1, 0, 1, 127, 64, -64, 3];
        let packed = PackedWeights::pack(&weights, 1, 8);
        for codes in [vec![0i32; 8], vec![-5i32; 8], vec![-3, -3, -3, -1, -1, -1, -2, -2]] {
            let expect = backend::dense_acc(&codes, &weights, 1);
            assert_eq!(dense_acc(&codes, &packed, false), expect, "codes={codes:?}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_popcount_counts_the_same_bits() {
        if !avx2_available() {
            return;
        }
        let mut s = 0xAB5;
        // Lengths straddling the 4-word vector width, including the
        // scalar tail.
        for len in [0usize, 1, 3, 4, 5, 8, 17, 64] {
            let a: Vec<u64> = (0..len)
                .map(|_| (lcg(&mut s, i32::MAX) as u64) << 32 | lcg(&mut s, i32::MAX) as u64)
                .collect();
            let b: Vec<u64> = (0..len)
                .map(|_| (lcg(&mut s, i32::MAX) as u64) << 32 | lcg(&mut s, i32::MAX) as u64)
                .collect();
            let portable: u64 = a.iter().zip(&b).map(|(&x, &y)| (x & y).count_ones() as u64).sum();
            assert_eq!(unsafe { avx2::and_popcount(&a, &b) }, portable, "len={len}");
        }
    }
}
