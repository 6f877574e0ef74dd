//! The native per-layer kernels.
//!
//! [`NativeBackend::conv_pooled`] restructures the reference bit-serial
//! loop for host speed while keeping the integer arithmetic untouched. It
//! runs in two phases: an **input-stationary** pass bit-unpacks each
//! activation group once (§4.1 input reuse, hoisted across the overlapping
//! windows that revisit it) and computes every pool vector's `M`-bit
//! partial dot product per input position as dense sweeps over the
//! pattern-major [`LutCache`] slabs (§4.3 precomputation taken to its
//! host-side limit); a **scatter** pass then sums each output pixel's taps
//! through the per-filter index map. Because all of this merely
//! reassociates an integer sum, the accumulators are bit-identical to
//! [`wp_core::reference::bitserial_conv_acc`] — a property pinned down by
//! the parity tests in `tests/parity.rs`.
//!
//! The int8 layers (direct conv, depthwise, dense) have solo loops and
//! weight-stationary **batched tiles** over batch-minor columns. On
//! x86-64 the batched direct-conv and dense tiles are the pair-madd
//! kernels (`madd`): two reduction terms per `i32` lane as `i16`
//! halves, multiplied and added by `pmaddwd` — the batched path at every
//! activation bitwidth. Tiles whose codes do not fit `i16` (and every
//! tile on other architectures) run the generic `TileAcc` tiles. Every
//! path sums the same integers, so batched outputs are bit-identical to
//! solo ones.

use crate::options::{BackendKind, ResolvedBackend};
use crate::scratch::Scratch;
use crate::swar::POPCOUNT_MAX_BITS;
use wp_core::reference::{ActEncoding, PooledConvShape};
use wp_core::LookupTable;
use wp_kernels::OutputQuant;

/// The lookup table flattened into contiguous pattern-major blocks — the
/// host analogue of the paper's §4.2 SRAM-cached LUT blocks.
///
/// Entry `(s, m)` lives at `m * S + s` regardless of the source table's
/// [`wp_core::LutOrder`]: all pool vectors' results for one bit pattern
/// are adjacent, exactly the input-oriented layout the paper picks so a
/// bit row's block can be streamed as one contiguous run. The native
/// kernel exploits this the same way the MCU kernel does — each activation
/// bit row selects one contiguous slab, which the partial-dot sweep walks
/// linearly (and the compiler vectorizes). [`crate::BatchRunner`] gives
/// each worker thread its own copy (one "SRAM" per core).
#[derive(Debug, Clone, PartialEq)]
pub struct LutCache {
    pool_size: usize,
    patterns: usize,
    group: usize,
    codes: Vec<i32>,
    max_abs_code: i64,
}

impl LutCache {
    /// Flattens `lut` into pattern-major order.
    pub fn new(lut: &LookupTable) -> Self {
        let pool_size = lut.pool_size();
        let patterns = lut.num_patterns();
        let mut codes = vec![0i32; pool_size * patterns];
        for (m, block) in codes.chunks_mut(pool_size).enumerate() {
            for (s, slot) in block.iter_mut().enumerate() {
                *slot = lut.code(s, m);
            }
        }
        let max_abs_code = codes.iter().map(|&c| (c as i64).abs()).max().unwrap_or(0);
        Self { pool_size, patterns, group: lut.group_size(), codes, max_abs_code }
    }

    /// Largest absolute code in the table (used to prove accumulator
    /// width bounds at execution time).
    pub fn max_abs_code(&self) -> i64 {
        self.max_abs_code
    }

    /// Pool size `S`.
    pub fn pool_size(&self) -> usize {
        self.pool_size
    }

    /// Group (vector) size `G`.
    pub fn group_size(&self) -> usize {
        self.group
    }

    /// Number of bit patterns, `2^G`.
    pub fn num_patterns(&self) -> usize {
        self.patterns
    }

    /// The code of entry `(s, m)` (same value as the source table's
    /// `LookupTable::code`, independent of its memory order).
    ///
    /// # Panics
    ///
    /// Panics if `s` or `m` is out of range.
    #[inline]
    pub fn code(&self, s: usize, m: usize) -> i32 {
        assert!(s < self.pool_size && m < self.patterns, "lut entry ({s}, {m}) out of range");
        self.codes[m * self.pool_size + s]
    }

    /// The contiguous block of all pool vectors' codes for pattern `m`.
    #[inline]
    fn block(&self, m: usize) -> &[i32] {
        &self.codes[m * self.pool_size..(m + 1) * self.pool_size]
    }
}

/// A layer's pool-index map transposed to tap-major order by
/// [`NativeBackend::prepare_indices`], ready for repeated
/// [`NativeBackend::conv_pooled_prepared`] calls with no per-call setup.
#[derive(Debug, Clone)]
pub struct PreparedIndices {
    k_count: usize,
    idx_stride: usize,
    /// `[g][r][s][k]` order: the **solo** scatter iterates taps outermost
    /// and reads one tap's indices for every filter as a contiguous run.
    tap_major: Vec<u8>,
    /// The canonical `[k][g][r][s]` order, kept alongside the transpose —
    /// both layouts are load-bearing: the **batched** scatter iterates
    /// filters outermost (so each filter's accumulator row stays in
    /// registers across all of its taps) and walks that filter's taps
    /// contiguously in this layout, while the solo scatter streams
    /// `tap_major`. Dropping either would force one path through a
    /// strided walk of the other's layout; the duplicate costs one byte
    /// per index, paid once at prepare time.
    canonical: Vec<u8>,
}

/// Host-speed executor of the bit-serial weight-pool arithmetic.
#[derive(Debug, Clone)]
pub struct NativeBackend {
    lut: LutCache,
    act_bits: u8,
    encoding: ActEncoding,
    /// `bit_weight(j, act_bits)` for `j < act_bits`, hoisted out of the
    /// inner loops. Magnitudes are at most `2^(M-1) <= 128`, so `i32` is
    /// exact, and a whole partial (`|code| * (2^M - 1) <= 32767 * 255`)
    /// stays far inside `i32`.
    bit_weights: [i32; 8],
    /// The resolved kernel tier. `Scalar` keeps every op on the
    /// per-element reference loops (generic bit-unpack, per-image
    /// batching); `Swar`/`Avx2` engage the SWAR bit-matrix fill, the
    /// solo bit-plane popcount kernels and the batched tile kernels
    /// (`Avx2` runs the pair-madd tiles 256 bits wide). Every tier
    /// computes identical integers.
    simd: ResolvedBackend,
}

impl NativeBackend {
    /// Largest number of images a batched conv processes per internal tile
    /// (outputs are identical for any tiling because images are
    /// independent). Sized so the batched scatter's accumulator block
    /// (`out_ch × BATCH_TILE × 8` bytes) stays L1-resident for typical
    /// filter counts — larger tiles push it to L2 and lose more to memory
    /// traffic than the wider sweeps gain.
    pub const BATCH_TILE: usize = 8;

    /// Builds a backend executing at `act_bits`-bit activations under
    /// `encoding`, caching `lut` in pattern-major order.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= act_bits <= 8`.
    pub fn new(lut: &LookupTable, act_bits: u8, encoding: ActEncoding) -> Self {
        Self::from_cache(LutCache::new(lut), act_bits, encoding)
    }

    /// [`NativeBackend::new`] with an explicit kernel-tier selection
    /// (resolved here; see [`BackendKind::resolve`] for the `Auto` rules).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= act_bits <= 8`.
    pub fn new_with(
        lut: &LookupTable,
        act_bits: u8,
        encoding: ActEncoding,
        backend: BackendKind,
    ) -> Self {
        Self::from_cache_with(LutCache::new(lut), act_bits, encoding, backend)
    }

    /// Builds a backend around an already-flattened [`LutCache`] (used by
    /// the batch engine to hand each worker its own copy).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= act_bits <= 8`.
    pub fn from_cache(lut: LutCache, act_bits: u8, encoding: ActEncoding) -> Self {
        Self::from_cache_with(lut, act_bits, encoding, BackendKind::Auto)
    }

    /// [`NativeBackend::from_cache`] with an explicit kernel-tier
    /// selection.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= act_bits <= 8`.
    pub fn from_cache_with(
        lut: LutCache,
        act_bits: u8,
        encoding: ActEncoding,
        backend: BackendKind,
    ) -> Self {
        assert!((1..=8).contains(&act_bits), "activation bits must be 1..=8, got {act_bits}");
        let mut bit_weights = [0i32; 8];
        for (j, w) in bit_weights.iter_mut().enumerate().take(act_bits as usize) {
            *w = encoding.bit_weight(j as u8, act_bits) as i32;
        }
        Self { lut, act_bits, encoding, bit_weights, simd: backend.resolve() }
    }

    /// The resolved kernel tier this backend executes with.
    pub fn simd(&self) -> ResolvedBackend {
        self.simd
    }

    /// The activation bitwidth at or below which swar/avx2 backends route
    /// **solo** direct/dense calls through the bit-plane popcount kernels:
    /// always [`crate::swar::POPCOUNT_MAX_BITS`]. Batches do not route by
    /// it, and every path computes identical integers.
    pub fn popcount_max_bits(&self) -> u8 {
        POPCOUNT_MAX_BITS
    }

    /// Activation bitwidth `M`.
    pub fn act_bits(&self) -> u8 {
        self.act_bits
    }

    /// Activation bit decomposition.
    pub fn encoding(&self) -> ActEncoding {
        self.encoding
    }

    /// The cached LUT blocks.
    pub fn lut(&self) -> &LutCache {
        &self.lut
    }

    /// A fresh backend sharing nothing with `self` (deep-copies the LUT
    /// cache) — one per worker thread in [`crate::BatchRunner`].
    pub fn clone_for_worker(&self) -> Self {
        self.clone()
    }

    /// Accumulates one bit row's weighted LUT block into the per-position
    /// partials (Algorithm 1 lines 11–13, reassociated into a dense sweep
    /// over the pattern's contiguous pool-vector slab).
    #[inline]
    fn sweep_row(&self, dst: &mut [i32], row: usize, weight: i32) {
        for (d, &c) in dst.iter_mut().zip(self.lut.block(row)) {
            *d += weight * c;
        }
    }

    /// Transposes a canonical `[k][g][r][s]` index map into the tap-major
    /// `[g][r][s][k]` layout the scatter pass reads sequentially. The
    /// transpose depends only on the layer's static index map, so callers
    /// executing a layer repeatedly (e.g. [`crate::PreparedNet`]) do it
    /// once and pass the result to [`NativeBackend::conv_pooled_prepared`].
    ///
    /// # Panics
    ///
    /// Panics if the index count does not match the shape at the backend's
    /// group size.
    pub fn prepare_indices(&self, shape: &PooledConvShape, indices: &[u8]) -> PreparedIndices {
        let g = self.lut.group;
        let groups = shape.groups(g);
        assert_eq!(indices.len(), shape.index_count(g), "index count mismatch");
        let k_count = shape.out_ch;
        let idx_stride = groups * shape.kernel * shape.kernel;
        let mut tap_major = vec![0u8; indices.len()];
        for k in 0..k_count {
            for t in 0..idx_stride {
                tap_major[t * k_count + k] = indices[k * idx_stride + t];
            }
        }
        PreparedIndices { k_count, idx_stride, tap_major, canonical: indices.to_vec() }
    }

    /// Native bit-serial LUT convolution: returns `[K, OH, OW]` raw
    /// accumulators in units of `lut_scale × act_scale`, bit-identical to
    /// [`wp_core::reference::bitserial_conv_acc`] on the same inputs.
    ///
    /// `codes` is the `[C, H, W]` quantized activation plane; `indices` the
    /// canonical-order pool indices (see `wp_core::grouping`). One-shot
    /// convenience over [`NativeBackend::conv_pooled_prepared`].
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch or if a code is outside the encoding's
    /// range for the backend's activation bitwidth.
    pub fn conv_pooled(&self, codes: &[i32], shape: &PooledConvShape, indices: &[u8]) -> Vec<i32> {
        self.conv_pooled_prepared(codes, shape, &self.prepare_indices(shape, indices))
    }

    /// Validates one image's activations and prepared indices against
    /// `shape`, returning the group count.
    fn check_pooled_args(
        &self,
        codes: &[i32],
        shape: &PooledConvShape,
        prep: &PreparedIndices,
    ) -> usize {
        let groups = shape.groups(self.lut.group);
        assert_eq!(codes.len(), shape.in_ch * shape.in_h * shape.in_w, "activation size mismatch");
        assert_eq!(
            (prep.k_count, prep.idx_stride),
            (shape.out_ch, groups * shape.kernel * shape.kernel),
            "prepared indices do not match shape"
        );
        let (lo, hi) = self.encoding.code_range(self.act_bits);
        assert!(
            codes.iter().all(|&c| (lo..=hi).contains(&c)),
            "activation code outside [{lo}, {hi}]"
        );
        groups
    }

    /// Phase 1 — input-stationary precomputation: for every (group, input
    /// position), bit-unpack the activation group once (§4.1) and compute
    /// every pool vector's M-bit partial dot product once (§4.3
    /// precomputation, hoisted out of the output loop entirely: a 3x3
    /// kernel revisits each input position up to nine times, and every
    /// filter sharing a pool vector reuses the same partial). Each bit row
    /// selects one contiguous pattern-major LUT slab, so the inner sweep is
    /// a dense multiply-accumulate the compiler can vectorize. Partials are
    /// exact in `i32` (see `bit_weights`). Table layout: partial of vector
    /// `s` at `(grp, iy, ix)` lives at
    /// `((grp * in_h + iy) * in_w + ix) * s_count + s`.
    fn fill_partials(&self, codes: &[i32], shape: &PooledConvShape, partials: &mut [i32]) {
        let g = self.lut.group;
        let groups = shape.groups(g);
        let (in_h, in_w) = (shape.in_h, shape.in_w);
        let m_bits = self.act_bits as usize;
        partials.fill(0);
        let mut chunks = partials.chunks_mut(self.lut.pool_size);
        for grp in 0..groups {
            let base = grp * g;
            for iy in 0..in_h {
                for ix in 0..in_w {
                    let mut rows = [0usize; 8];
                    if g == 8 && self.simd != ResolvedBackend::Scalar {
                        // SWAR bit-unpack: all eight codes at once — pack
                        // their low bytes into a u64 and transpose the 8x8
                        // bit matrix, so byte `j` of the result is bit row
                        // `j`. Identical to the scalar loop below (only
                        // bits `j < m_bits` are read, and in-range codes
                        // agree with their low byte on those bits under
                        // both encodings).
                        let mut x = 0u64;
                        for i in 0..8 {
                            let code = codes[((base + i) * in_h + iy) * in_w + ix];
                            x |= ((code as u8) as u64) << (8 * i);
                        }
                        let t = transpose8(x);
                        for (j, row) in rows.iter_mut().enumerate().take(m_bits) {
                            *row = ((t >> (8 * j)) & 0xFF) as usize;
                        }
                    } else {
                        for i in 0..g {
                            let code = codes[((base + i) * in_h + iy) * in_w + ix];
                            for (j, row) in rows.iter_mut().enumerate().take(m_bits) {
                                *row |= (((code >> j) & 1) as usize) << i;
                            }
                        }
                    }
                    let dst = chunks.next().expect("partial table sized to positions");
                    for (&row, &w) in rows.iter().zip(&self.bit_weights).take(m_bits) {
                        self.sweep_row(dst, row, w);
                    }
                }
            }
        }
    }

    /// [`NativeBackend::conv_pooled`] with the index transpose hoisted out:
    /// `prep` must come from [`NativeBackend::prepare_indices`] for the
    /// same shape.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch (including `prep` built for a different
    /// shape) or if a code is outside the encoding's range for the
    /// backend's activation bitwidth.
    pub fn conv_pooled_prepared(
        &self,
        codes: &[i32],
        shape: &PooledConvShape,
        prep: &PreparedIndices,
    ) -> Vec<i32> {
        self.conv_pooled_prepared_scratch(codes, shape, prep, &mut Scratch::new())
    }

    /// [`NativeBackend::conv_pooled_prepared`] drawing its working set
    /// (partial table, accumulator row, output buffer) from a scratch
    /// arena — the allocation-free form the prepared-plan executor calls.
    /// The returned buffer comes from the arena.
    pub(crate) fn conv_pooled_prepared_scratch(
        &self,
        codes: &[i32],
        shape: &PooledConvShape,
        prep: &PreparedIndices,
        scratch: &mut Scratch,
    ) -> Vec<i32> {
        let groups = self.check_pooled_args(codes, shape, prep);

        let geo = shape.geometry();
        let (oh, ow) = (geo.out_h(), geo.out_w());
        let (in_h, in_w) = (shape.in_h, shape.in_w);
        let k_count = shape.out_ch;
        let s_count = self.lut.pool_size;
        let kernel = shape.kernel;

        let mut partials = scratch.take_i32(groups * in_h * in_w * s_count);
        self.fill_partials(codes, shape, &mut partials);

        // Phase 2 — scatter: each output pixel sums its taps' precomputed
        // partials, selected per filter by the index map. Padding taps
        // contribute pattern 0 whose LUT entry is exactly 0, so skipping
        // them is bit-exact.
        let mut out = scratch.take_i32(k_count * oh * ow);
        let mut acc = scratch.take_i64(k_count);
        for oy in 0..oh {
            for ox in 0..ow {
                acc.fill(0);
                for ky in 0..kernel {
                    let Some(iy) = geo.input_row(oy, ky) else { continue };
                    for kx in 0..kernel {
                        let Some(ix) = geo.input_col(ox, kx) else { continue };
                        for grp in 0..groups {
                            let block_at = ((grp * in_h + iy) * in_w + ix) * s_count;
                            let block = &partials[block_at..block_at + s_count];
                            let idx_base = (grp * kernel + ky) * kernel + kx;
                            let taps =
                                &prep.tap_major[idx_base * k_count..(idx_base + 1) * k_count];
                            for (a, &idx) in acc.iter_mut().zip(taps) {
                                *a += block[idx as usize] as i64;
                            }
                        }
                    }
                }
                for (k, &a) in acc.iter().enumerate() {
                    out[(k * oh + oy) * ow + ox] = i32::try_from(a).expect("accumulator overflow");
                }
            }
        }
        scratch.put_i32(partials);
        scratch.put_i64(acc);
        out
    }

    /// Batched [`NativeBackend::conv_pooled_prepared`]: executes every
    /// image of `batch` through the same prepared layer, bit-identical to
    /// running each image solo (each image's accumulation order is
    /// unchanged; the batch dimension only reassociates *independent*
    /// sums).
    ///
    /// This is where the paper's shared-weight arithmetic amortizes across
    /// a batch (the SWIS observation): the tap index map and the scatter
    /// loop bookkeeping are identical for every image, so the batched
    /// scatter decodes each tap once and applies it to the whole batch as a
    /// dense sweep over a batch-minor partial column — turning the
    /// per-image random gather into contiguous vectorizable adds. Images
    /// are processed in tiles of at most [`NativeBackend::BATCH_TILE`] to
    /// bound scratch memory.
    ///
    /// # Panics
    ///
    /// Panics on any per-image shape mismatch or out-of-range code, exactly
    /// as the solo path does.
    pub fn conv_pooled_prepared_batch<S: AsRef<[i32]>>(
        &self,
        batch: &[S],
        shape: &PooledConvShape,
        prep: &PreparedIndices,
    ) -> Vec<Vec<i32>> {
        let mut outs = Vec::with_capacity(batch.len());
        self.conv_pooled_prepared_batch_core(
            batch,
            shape,
            prep,
            &RawOut,
            &mut Scratch::new(),
            &mut outs,
        );
        outs
    }

    /// The batched pooled-conv engine: finished output planes (written
    /// through `w_out`) are appended to `outs` from arena buffers, and
    /// every intermediate (partial tables, batch-minor columns, tile
    /// accumulators, tap lists) is drawn from `scratch` — zero heap
    /// allocations once the arena is warm.
    pub(crate) fn conv_pooled_prepared_batch_core<S: AsRef<[i32]>>(
        &self,
        batch: &[S],
        shape: &PooledConvShape,
        prep: &PreparedIndices,
        w_out: &impl WriteOut,
        scratch: &mut Scratch,
        outs: &mut Vec<Vec<i32>>,
    ) {
        let (in_h, in_w) = (shape.in_h, shape.in_w);
        let s_count = self.lut.pool_size;
        let kernel = shape.kernel;
        let geo = shape.geometry();
        let out_plane = geo.out_h() * geo.out_w();

        for tile in batch.chunks(Self::BATCH_TILE) {
            let b_count = tile.len();
            if b_count < Self::BATCH_TILE {
                // Partial tail tile: the batch-minor layout only pays for
                // itself at full width, so run the remainder solo (the
                // outputs are identical either way).
                for codes in tile {
                    let mut acc =
                        self.conv_pooled_prepared_scratch(codes.as_ref(), shape, prep, scratch);
                    w_out.finish_solo_in_place(&mut acc, out_plane);
                    outs.push(acc);
                }
                continue;
            }
            let mut groups = 0;
            for codes in tile {
                groups = self.check_pooled_args(codes.as_ref(), shape, prep);
            }

            // Phase 1 per image (activations differ, nothing to share),
            // then transpose to batch-minor columns: the partial of pool
            // vector `s` for image `b` at input position `pos` lives at
            // `(pos * s_count + s) * b_count + b`, so one `(pos, s)` pair's
            // values for the whole tile are contiguous.
            let mut partials = scratch.take_i32(groups * in_h * in_w * s_count);
            let mut columns = scratch.take_i32(groups * in_h * in_w * s_count * b_count);
            for (b, codes) in tile.iter().enumerate() {
                self.fill_partials(codes.as_ref(), shape, &mut partials);
                for (ps, &v) in partials.iter().enumerate() {
                    columns[ps * b_count + b] = v;
                }
            }

            // Phase 2 — batched scatter: per output pixel and tap, decode
            // the pool index once and add its contiguous batch column into
            // every image's accumulator row. Per image this sums the same
            // taps in the same order as the solo path. Full tiles go
            // through a const-width kernel so the row updates compile to
            // fixed-size vector adds — in `i32` when the worst case
            // (every tap at the largest LUT code and the largest
            // activation) provably fits, which doubles the SIMD width and
            // is exact precisely because it cannot overflow.
            let taps_total = (kernel * kernel * groups) as i64;
            let act_max = (1i64 << self.act_bits) - 1;
            let fits_i32 = taps_total
                .checked_mul(act_max)
                .and_then(|v| v.checked_mul(self.lut.max_abs_code))
                .is_some_and(|v| v <= i32::MAX as i64);
            let base = outs.len();
            for _ in 0..Self::BATCH_TILE {
                outs.push(scratch.take_i32(shape.out_ch * out_plane));
            }
            let mut taps = scratch.take_pairs();
            if fits_i32 {
                scatter_tile::<i32, { Self::BATCH_TILE }>(
                    &columns,
                    shape,
                    prep,
                    groups,
                    s_count,
                    w_out,
                    &mut taps,
                    &mut outs[base..],
                );
            } else {
                scatter_tile::<i64, { Self::BATCH_TILE }>(
                    &columns,
                    shape,
                    prep,
                    groups,
                    s_count,
                    w_out,
                    &mut taps,
                    &mut outs[base..],
                );
            }
            scratch.put_pairs(taps);
            scratch.put_i32(partials);
            scratch.put_i32(columns);
        }
    }
}

/// Transposes an 8x8 bit matrix: bit `c` of input byte `r` moves to bit
/// `r` of output byte `c` (three delta-swap rounds, Hacker's Delight
/// §7-3).
#[inline]
fn transpose8(mut x: u64) -> u64 {
    let mut t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^= t ^ (t << 28);
    x
}

/// Collects the in-bounds taps of one output pixel as
/// `(canonical tap index, partial-column base)` pairs, in the solo
/// scatter's `(ky, kx, grp)` visit order (padding taps contribute exactly
/// zero and are skipped by both paths).
fn valid_taps(
    geo: &wp_tensor::Conv2dGeometry,
    shape: &PooledConvShape,
    groups: usize,
    s_count: usize,
    oy: usize,
    ox: usize,
    out: &mut Vec<(usize, usize)>,
) {
    out.clear();
    for ky in 0..shape.kernel {
        let Some(iy) = geo.input_row(oy, ky) else { continue };
        for kx in 0..shape.kernel {
            let Some(ix) = geo.input_col(ox, kx) else { continue };
            for grp in 0..groups {
                let t = (grp * shape.kernel + ky) * shape.kernel + kx;
                let pos = (grp * shape.in_h + iy) * shape.in_w + ix;
                out.push((t, pos * s_count));
            }
        }
    }
}

/// The batched scatter pass at compile-time batch width `B`: `columns`
/// holds batch-minor partials (`(pos * s_count + s) * B + b`). Filters are
/// outermost so each filter's accumulator row lives in registers across
/// all of its taps; per image the taps are still summed in the solo
/// scatter's `(ky, kx, grp)` order, so outputs are bit-identical. The
/// `i32` accumulator instantiation requires the caller to have proven
/// that `taps × max_activation × max_abs_code` fits in `i32`, in which
/// case no intermediate sum can overflow and it matches the widened path
/// exactly.
#[allow(clippy::too_many_arguments)]
fn scatter_tile<A: TileAcc, const B: usize>(
    columns: &[i32],
    shape: &PooledConvShape,
    prep: &PreparedIndices,
    groups: usize,
    s_count: usize,
    w_out: &impl WriteOut,
    taps: &mut Vec<(usize, usize)>,
    tile_outs: &mut [Vec<i32>],
) {
    let geo = shape.geometry();
    let (oh, ow) = (geo.out_h(), geo.out_w());
    let k_count = shape.out_ch;
    let (cols, rest) = columns.as_chunks::<B>();
    debug_assert!(rest.is_empty());
    debug_assert_eq!(tile_outs.len(), B);

    for oy in 0..oh {
        for ox in 0..ow {
            valid_taps(&geo, shape, groups, s_count, oy, ox, taps);
            for k in 0..k_count {
                let krow = &prep.canonical[k * prep.idx_stride..(k + 1) * prep.idx_stride];
                let mut row = [A::default(); B];
                for &(t, base) in taps.iter() {
                    let col = &cols[base + krow[t] as usize];
                    for (a, &p) in row.iter_mut().zip(col) {
                        *a = a.add(p);
                    }
                }
                let o = (k * oh + oy) * ow + ox;
                for (out, &a) in tile_outs.iter_mut().zip(&row) {
                    out[o] = w_out.emit(k, a.widen());
                }
            }
        }
    }
}

/// Native direct int8 convolution accumulators, loop-for-loop the
/// arithmetic of [`wp_core::reference::direct_conv_acc`] (pinned by the
/// parity suites).
///
/// # Panics
///
/// Panics on shape mismatches.
pub fn conv_direct(codes: &[i32], shape: &PooledConvShape, weights: &[i8]) -> Vec<i32> {
    conv_direct_scratch(codes, shape, weights, &mut Scratch::new())
}

/// [`conv_direct`] writing into an arena buffer (returned to the caller).
pub(crate) fn conv_direct_scratch(
    codes: &[i32],
    shape: &PooledConvShape,
    weights: &[i8],
    scratch: &mut Scratch,
) -> Vec<i32> {
    let (in_ch, in_h, in_w) = (shape.in_ch, shape.in_h, shape.in_w);
    let k_sz = shape.kernel;
    assert_eq!(codes.len(), in_ch * in_h * in_w, "activation size mismatch");
    assert_eq!(weights.len(), shape.out_ch * in_ch * k_sz * k_sz, "weight size mismatch");
    let geo = shape.geometry();
    let (oh, ow) = (geo.out_h(), geo.out_w());
    let mut out = scratch.take_i32(shape.out_ch * oh * ow);
    for k in 0..shape.out_ch {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0i64;
                for c in 0..in_ch {
                    for ky in 0..k_sz {
                        let Some(iy) = geo.input_row(oy, ky) else { continue };
                        for kx in 0..k_sz {
                            let Some(ix) = geo.input_col(ox, kx) else { continue };
                            acc += codes[(c * in_h + iy) * in_w + ix] as i64
                                * weights[((k * in_ch + c) * k_sz + ky) * k_sz + kx] as i64;
                        }
                    }
                }
                out[(k * oh + oy) * ow + ox] = i32::try_from(acc).expect("accumulator overflow");
            }
        }
    }
    out
}

/// Native depthwise int8 convolution: `[C, OH, OW]` accumulators from a
/// `[C, H, W]` plane and `[C, R, S]` weights (one kernel per channel).
///
/// # Panics
///
/// Panics on shape mismatches (`shape.out_ch` must equal `shape.in_ch`).
pub fn dwconv_acc(codes: &[i32], shape: &PooledConvShape, weights: &[i8]) -> Vec<i32> {
    dwconv_acc_scratch(codes, shape, weights, &mut Scratch::new())
}

/// [`dwconv_acc`] writing into an arena buffer (returned to the caller).
pub(crate) fn dwconv_acc_scratch(
    codes: &[i32],
    shape: &PooledConvShape,
    weights: &[i8],
    scratch: &mut Scratch,
) -> Vec<i32> {
    assert_eq!(shape.out_ch, shape.in_ch, "depthwise conv requires in_ch == out_ch");
    let (c, k_sz) = (shape.in_ch, shape.kernel);
    assert_eq!(codes.len(), c * shape.in_h * shape.in_w, "activation size mismatch");
    assert_eq!(weights.len(), c * k_sz * k_sz, "weight size mismatch");
    let geo = shape.geometry();
    let (oh, ow) = (geo.out_h(), geo.out_w());
    let mut out = scratch.take_i32(c * oh * ow);
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0i64;
                for ky in 0..k_sz {
                    let Some(iy) = geo.input_row(oy, ky) else { continue };
                    for kx in 0..k_sz {
                        let Some(ix) = geo.input_col(ox, kx) else { continue };
                        let a = codes[(ch * shape.in_h + iy) * shape.in_w + ix] as i64;
                        let w = weights[(ch * k_sz + ky) * k_sz + kx] as i64;
                        acc += a * w;
                    }
                }
                out[(ch * oh + oy) * ow + ox] = i32::try_from(acc).expect("accumulator overflow");
            }
        }
    }
    out
}

/// Native dense accumulators: `out[o] = Σ_i w[o][i] · code[i]` (bias is
/// added by the caller alongside requantization).
///
/// # Panics
///
/// Panics on size mismatches.
pub fn dense_acc(codes: &[i32], weights: &[i8], out_features: usize) -> Vec<i32> {
    dense_acc_scratch(codes, weights, out_features, &mut Scratch::new())
}

/// [`dense_acc`] writing into an arena buffer (returned to the caller).
pub(crate) fn dense_acc_scratch(
    codes: &[i32],
    weights: &[i8],
    out_features: usize,
    scratch: &mut Scratch,
) -> Vec<i32> {
    let in_features = codes.len();
    assert_eq!(weights.len(), in_features * out_features, "weight size mismatch");
    let mut out = scratch.take_i32(out_features);
    for (o, slot) in out.iter_mut().enumerate() {
        let row = &weights[o * in_features..(o + 1) * in_features];
        let mut acc = 0i64;
        for (&w, &a) in row.iter().zip(codes) {
            acc += w as i64 * a as i64;
        }
        *slot = i32::try_from(acc).expect("accumulator overflow");
    }
    out
}

/// Accumulator element for the weight-stationary batched tile kernels.
/// `i64` is the always-exact path; `i32` is selected only when the caller
/// has proven (from the tile's largest activation magnitude and the
/// layer's term count) that no per-pixel sum can leave `i32`, in which
/// case the two produce the same integers — the fast path halves the
/// accumulator footprint and doubles the SIMD width.
trait TileAcc: Copy + Default {
    fn madd(self, w: i32, a: i32) -> Self;
    fn add(self, a: i32) -> Self;
    fn widen(self) -> i64;
    /// Checks a zeroed accumulator buffer out of the arena (the blocked
    /// dense kernel keeps a whole output block of accumulators live).
    fn take_buf(scratch: &mut Scratch, len: usize) -> Vec<Self>;
    /// Returns an accumulator buffer to the arena.
    fn put_buf(scratch: &mut Scratch, buf: Vec<Self>);
}

impl TileAcc for i64 {
    #[inline(always)]
    fn madd(self, w: i32, a: i32) -> Self {
        self + w as i64 * a as i64
    }

    #[inline(always)]
    fn add(self, a: i32) -> Self {
        self + a as i64
    }

    #[inline(always)]
    fn widen(self) -> i64 {
        self
    }

    fn take_buf(scratch: &mut Scratch, len: usize) -> Vec<Self> {
        scratch.take_i64(len)
    }

    fn put_buf(scratch: &mut Scratch, buf: Vec<Self>) {
        scratch.put_i64(buf);
    }
}

impl TileAcc for i32 {
    #[inline(always)]
    fn madd(self, w: i32, a: i32) -> Self {
        self + w * a
    }

    #[inline(always)]
    fn add(self, a: i32) -> Self {
        self + a
    }

    #[inline(always)]
    fn widen(self) -> i64 {
        self as i64
    }

    fn take_buf(scratch: &mut Scratch, len: usize) -> Vec<Self> {
        scratch.take_i32(len)
    }

    fn put_buf(scratch: &mut Scratch, buf: Vec<Self>) {
        scratch.put_i32(buf);
    }
}

/// How a batched tile kernel writes a finished accumulator out: raw
/// checked narrowing (the public raw `*_batch` functions), or the bias +
/// requant arithmetic fused in as the value leaves registers (the
/// [`crate::Kernel::run_batch`] overrides) — dropping the separate finish
/// pass that used to re-walk every output plane.
///
/// `emit` must be arithmetic-identical — **including the panics** — to
/// the raw narrowing followed by [`OutputQuant::apply_plane`]:
/// [`FusedOut`] reproduces that path's exact checked-narrow, widening
/// bias add, second checked-narrow and requant sequence per element, so
/// fusion cannot change (or silently skip) a single output or overflow
/// check.
pub(crate) trait WriteOut {
    /// Finishes one accumulator belonging to output channel `k`.
    fn emit(&self, k: usize, acc: i64) -> i32;

    /// Finishes a whole raw solo-path accumulator plane in place (tail
    /// tiles run through the solo kernels, which produce raw
    /// accumulators into arena buffers).
    fn finish_solo_in_place(&self, acc: &mut [i32], plane: usize);
}

/// Raw accumulators out — the historical behavior.
pub(crate) struct RawOut;

impl WriteOut for RawOut {
    #[inline(always)]
    fn emit(&self, _k: usize, acc: i64) -> i32 {
        i32::try_from(acc).expect("accumulator overflow")
    }

    fn finish_solo_in_place(&self, _acc: &mut [i32], _plane: usize) {}
}

/// Fused bias+requant write-out (see [`WriteOut`] for the exactness
/// contract).
pub(crate) struct FusedOut<'a> {
    pub(crate) bias: &'a [i32],
    pub(crate) oq: &'a OutputQuant,
}

impl WriteOut for FusedOut<'_> {
    #[inline(always)]
    fn emit(&self, k: usize, acc: i64) -> i32 {
        let raw = i32::try_from(acc).expect("accumulator overflow");
        self.oq.apply_value(
            i32::try_from(raw as i64 + self.bias[k] as i64).expect("accumulator overflow"),
        )
    }

    fn finish_solo_in_place(&self, acc: &mut [i32], plane: usize) {
        self.oq.apply_plane_in_place(acc, self.bias, plane);
    }
}

/// Transposes a group of equally-sized activation planes (a tile, or
/// every full tile of a batch) into batch-minor columns: the value of
/// image `b` at flat position `pos` lands at `pos * lanes + b`, so one
/// position's values for the whole group are contiguous (the layout
/// every generic tile kernel sweeps). `columns` must be pre-sized to
/// `len * lanes` (every slot is written).
fn fill_columns<S: AsRef<[i32]>>(group: &[S], columns: &mut [i32]) {
    let lanes = group.len();
    debug_assert_eq!(columns.len(), group[0].as_ref().len() * lanes);
    for (b, codes) in group.iter().enumerate() {
        for (pos, &v) in codes.as_ref().iter().enumerate() {
            columns[pos * lanes + b] = v;
        }
    }
}

/// How a full tile of an int8 layer accumulates: the choice every
/// batched int8 kernel makes per tile, from the tile's largest activation
/// magnitude and the layer's term count. All three produce the same
/// integers; they differ only in how much work each instruction does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TilePath {
    /// The pair-madd tiles ([`madd`]): every sum fits `i32` and every code
    /// fits `i16`, so two reduction terms ride in one `i32` lane and
    /// `pmaddwd` does both multiplies and their add exactly.
    #[cfg(target_arch = "x86_64")]
    Madd,
    /// The generic [`TileAcc`] tile in `i32`.
    I32,
    /// The generic [`TileAcc`] tile in `i64` (always exact).
    I64,
}

/// Admission for the tile paths. `I32` (and `Madd`) require every
/// per-pixel sum of `terms` products `w · a` (with `|w| <= 128` int8
/// weights and activations drawn from `tile`) to provably fit in `i32`.
/// Conservative by construction: it bounds with the tile's largest
/// activation magnitude, so no intermediate partial sum can overflow in
/// any accumulation order — which is what lets the madd tiles add pairs
/// of terms in a different order than the solo loop. `Madd` further
/// requires every code to fit `i16` (`pmaddwd` multiplies signed 16-bit
/// halves); every activation code at `act_bits <= 8` does, under both
/// encodings.
fn tile_path<S: AsRef<[i32]>>(tile: &[S], terms: i64) -> TilePath {
    let max_abs =
        tile.iter().flat_map(|c| c.as_ref().iter()).map(|&v| (v as i64).abs()).max().unwrap_or(0);
    let fits_i32 = terms
        .checked_mul(max_abs)
        .and_then(|v| v.checked_mul(128))
        .is_some_and(|v| v <= i32::MAX as i64);
    if !fits_i32 {
        return TilePath::I64;
    }
    #[cfg(target_arch = "x86_64")]
    if max_abs <= i16::MAX as i64 {
        return TilePath::Madd;
    }
    TilePath::I32
}

/// Int8 weights compiled for the batched tile kernels, kept in two
/// forms: the `[rows, ch, inner]` matrix as given (the solo loops and
/// the generic [`TileAcc`] tiles), and packed once as **i16 pairs** for
/// the [`madd`] tiles. Pair `p` of row `r` at inner position `i` is one
/// `i32` at `(r * pairs + p) * inner + i` holding channel `2p` in its low
/// half and channel `2p + 1` in its high half; an odd `ch` pads the last
/// pair's high half with a zero weight, so the padded term contributes
/// exactly nothing.
///
/// A direct conv is `[K, C, R·S]` (pairs run over input channels); a
/// dense layer is `[O, I, 1]` (pairs run over input features).
#[derive(Debug, Clone)]
pub(crate) struct TileWeights {
    rows: usize,
    ch: usize,
    inner: usize,
    pairs: usize,
    int8: Vec<i8>,
    paired: Vec<i32>,
}

/// Two `i16` values as one `i32` lane: `lo` in the low half, `hi` in the
/// high half — the operand layout `pmaddwd` multiplies pairwise. Both
/// must fit `i16` (callers guarantee it).
#[inline(always)]
fn pair_i16(lo: i32, hi: i32) -> i32 {
    ((lo as u16 as u32) | ((hi as u16 as u32) << 16)) as i32
}

impl TileWeights {
    /// Packs a `[rows, ch, inner]` int8 weight matrix.
    ///
    /// # Panics
    ///
    /// Panics if `int8.len() != rows * ch * inner`.
    pub(crate) fn new(int8: Vec<i8>, rows: usize, ch: usize, inner: usize) -> Self {
        assert_eq!(int8.len(), rows * ch * inner, "weight size mismatch");
        let pairs = ch.div_ceil(2);
        let mut paired = Vec::with_capacity(rows * pairs * inner);
        // A row is `ch` channel runs of `inner` weights; a pair is two
        // adjacent runs (just one, past an odd `ch`).
        for row in int8.chunks((ch * inner).max(1)) {
            for pair in row.chunks(2 * inner) {
                let (lo, hi) = pair.split_at(inner);
                if hi.is_empty() {
                    paired.extend(lo.iter().map(|&l| pair_i16(l as i32, 0)));
                } else {
                    paired.extend(lo.iter().zip(hi).map(|(&l, &h)| pair_i16(l as i32, h as i32)));
                }
            }
        }
        Self { rows, ch, inner, pairs, int8, paired }
    }

    /// The weights as given, `[rows, ch, inner]`.
    pub(crate) fn int8(&self) -> &[i8] {
        &self.int8
    }
}

/// Transposes a group of equally-sized `[ch, inner]` activation planes
/// into **channel-pair interleaved** batch-minor columns for the madd
/// tiles: slot `(p * inner + i) * lanes + b` holds image `b`'s codes of
/// channels `2p` and `2p + 1` at position `i` as one [`pair_i16`] lane
/// (high half zero past an odd `ch`). `columns` must be zeroed and sized
/// `ceil(ch / 2) * inner * lanes`; every code must fit `i16`.
fn fill_pair_columns<S: AsRef<[i32]>>(group: &[S], ch: usize, inner: usize, columns: &mut [i32]) {
    let lanes = group.len();
    debug_assert_eq!(columns.len(), ch.div_ceil(2) * inner * lanes);
    for (b, codes) in group.iter().enumerate() {
        for c in 0..ch {
            let (base, shift) = ((c / 2) * inner, 16 * (c % 2));
            for (i, &v) in codes.as_ref()[c * inner..][..inner].iter().enumerate() {
                columns[(base + i) * lanes + b] |= ((v as u16 as u32) << shift) as i32;
            }
        }
    }
}

/// Batched [`conv_direct`]: weight-stationary direct int8 convolution
/// over a batch of images, bit-identical to running each image solo.
///
/// The weights and the per-pixel loop bookkeeping are the same for every
/// image, so full tiles of [`NativeBackend::BATCH_TILE`] images execute
/// through a batch-minor tile kernel: each weight is loaded once per
/// output pixel and applied to the whole tile as a dense sweep over a
/// contiguous batch column — the direct-conv analogue of the pooled
/// scatter's tap amortization. A tile whose codes fit `i16` and whose
/// sums fit `i32` (every tile at `act_bits <= 8`) runs the pair-madd
/// tile (`madd`), which multiplies two input channels per lane per
/// instruction; any other tile runs the generic `TileAcc` tile. Per
/// image the sum per output pixel is the exact integer sum the solo path
/// computes (see `tile_path` for why the order cannot matter), so
/// outputs match bit-for-bit; a partial tail tile runs solo, which is
/// identical by the same argument. The madd tiles run as wide as the
/// auto-resolved tier allows ([`BackendKind::resolve`], so `WP_BACKEND`
/// picks the 128- or 256-bit form).
///
/// # Panics
///
/// Panics on any per-image shape mismatch, exactly as the solo path does.
pub fn conv_direct_batch<S: AsRef<[i32]>>(
    batch: &[S],
    shape: &PooledConvShape,
    weights: &[i8],
) -> Vec<Vec<i32>> {
    let weights =
        TileWeights::new(weights.to_vec(), shape.out_ch, shape.in_ch, shape.kernel * shape.kernel);
    let mut outs = Vec::with_capacity(batch.len());
    let use_avx2 = BackendKind::Auto.resolve() == ResolvedBackend::Avx2;
    conv_direct_batch_core(
        batch,
        shape,
        &weights,
        use_avx2,
        &RawOut,
        &mut Scratch::new(),
        &mut outs,
    );
    outs
}

/// The batched direct-conv engine (see
/// [`NativeBackend::conv_pooled_prepared_batch_core`] for the
/// outs/scratch contract).
pub(crate) fn conv_direct_batch_core<S: AsRef<[i32]>>(
    batch: &[S],
    shape: &PooledConvShape,
    weights: &TileWeights,
    use_avx2: bool,
    w_out: &impl WriteOut,
    scratch: &mut Scratch,
    outs: &mut Vec<Vec<i32>>,
) {
    const B: usize = NativeBackend::BATCH_TILE;
    let kk = shape.kernel * shape.kernel;
    assert_eq!(
        (weights.rows, weights.ch, weights.inner),
        (shape.out_ch, shape.in_ch, kk),
        "weight size mismatch"
    );
    let geo = shape.geometry();
    let out_plane = geo.out_h() * geo.out_w();
    let plane = shape.in_h * shape.in_w;
    for tile in batch.chunks(B) {
        if tile.len() < B {
            for codes in tile {
                let mut acc = conv_direct_scratch(codes.as_ref(), shape, weights.int8(), scratch);
                w_out.finish_solo_in_place(&mut acc, out_plane);
                outs.push(acc);
            }
            continue;
        }
        for codes in tile {
            assert_eq!(codes.as_ref().len(), shape.in_ch * plane, "activation size mismatch");
        }
        let path = tile_path(tile, (shape.in_ch * kk) as i64);
        // One columns buffer serves either layout: the generic tile needs
        // `C · plane · B` slots, the madd tile the first `ceil(C/2)` of
        // those channel runs.
        let mut columns = scratch.take_i32(shape.in_ch * plane * B);
        match path {
            #[cfg(target_arch = "x86_64")]
            TilePath::Madd => {
                columns.truncate(weights.pairs * plane * B);
                fill_pair_columns(tile, shape.in_ch, plane, &mut columns);
            }
            _ => fill_columns(tile, &mut columns),
        }
        let base = outs.len();
        for _ in 0..B {
            outs.push(scratch.take_i32(shape.out_ch * out_plane));
        }
        let mut taps = scratch.take_pairs();
        let tile_outs = &mut outs[base..];
        let int8 = weights.int8();
        match path {
            #[cfg(target_arch = "x86_64")]
            TilePath::Madd => {
                madd::direct_tile(&columns, shape, weights, w_out, &mut taps, tile_outs, use_avx2)
            }
            TilePath::I32 => {
                direct_tile::<i32, B>(&columns, shape, int8, w_out, &mut taps, tile_outs)
            }
            TilePath::I64 => {
                direct_tile::<i64, B>(&columns, shape, int8, w_out, &mut taps, tile_outs)
            }
        }
        scratch.put_pairs(taps);
        scratch.put_i32(columns);
    }
}

/// The in-bounds spatial taps of one output pixel as
/// `(ky * kernel + kx, iy * in_w + ix)` pairs, in the solo kernels'
/// `(ky, kx)` visit order (padding taps contribute zero and are skipped
/// by both paths).
fn valid_spatial_taps(
    geo: &wp_tensor::Conv2dGeometry,
    kernel: usize,
    in_w: usize,
    oy: usize,
    ox: usize,
    out: &mut Vec<(usize, usize)>,
) {
    out.clear();
    for ky in 0..kernel {
        let Some(iy) = geo.input_row(oy, ky) else { continue };
        for kx in 0..kernel {
            let Some(ix) = geo.input_col(ox, kx) else { continue };
            out.push((ky * kernel + kx, iy * in_w + ix));
        }
    }
}

/// The generic direct-conv tile kernel at compile-time batch width `B`:
/// `columns` holds batch-minor activations (`pos * B + b`). Output pixels
/// are outermost and filters next, so each filter's accumulator row lives
/// in registers across all of its `C · R · S` weights, each loaded once
/// and swept across the whole tile.
fn direct_tile<A: TileAcc, const B: usize>(
    columns: &[i32],
    shape: &PooledConvShape,
    weights: &[i8],
    w_out: &impl WriteOut,
    taps: &mut Vec<(usize, usize)>,
    tile_outs: &mut [Vec<i32>],
) {
    let geo = shape.geometry();
    let (oh, ow) = (geo.out_h(), geo.out_w());
    let (k_sz, in_ch) = (shape.kernel, shape.in_ch);
    let plane = shape.in_h * shape.in_w;
    let (cols, rest) = columns.as_chunks::<B>();
    debug_assert!(rest.is_empty());
    debug_assert_eq!(tile_outs.len(), B);

    for oy in 0..oh {
        for ox in 0..ow {
            valid_spatial_taps(&geo, k_sz, shape.in_w, oy, ox, taps);
            for k in 0..shape.out_ch {
                let mut row = [A::default(); B];
                for c in 0..in_ch {
                    let wrow = &weights[(k * in_ch + c) * k_sz * k_sz..][..k_sz * k_sz];
                    for &(t, sp) in taps.iter() {
                        let w = wrow[t] as i32;
                        let col = &cols[c * plane + sp];
                        for (a, &p) in row.iter_mut().zip(col) {
                            *a = a.madd(w, p);
                        }
                    }
                }
                let o = (k * oh + oy) * ow + ox;
                for (out, &a) in tile_outs.iter_mut().zip(&row) {
                    out[o] = w_out.emit(k, a.widen());
                }
            }
        }
    }
}

/// Batched [`dwconv_acc`]: weight-stationary depthwise int8 convolution,
/// bit-identical to solo (same tiling, fast-path admission and exactness
/// argument as [`conv_direct_batch`]; a depthwise pixel sums at most
/// `R · S` terms, so the `i32` fast path almost always applies).
///
/// # Panics
///
/// Panics on any per-image shape mismatch, exactly as the solo path does.
pub fn dwconv_acc_batch<S: AsRef<[i32]>>(
    batch: &[S],
    shape: &PooledConvShape,
    weights: &[i8],
) -> Vec<Vec<i32>> {
    let mut outs = Vec::with_capacity(batch.len());
    dwconv_acc_batch_core(batch, shape, weights, &RawOut, &mut Scratch::new(), &mut outs);
    outs
}

/// The batched depthwise engine (see
/// [`NativeBackend::conv_pooled_prepared_batch_core`] for the
/// outs/scratch contract).
pub(crate) fn dwconv_acc_batch_core<S: AsRef<[i32]>>(
    batch: &[S],
    shape: &PooledConvShape,
    weights: &[i8],
    w_out: &impl WriteOut,
    scratch: &mut Scratch,
    outs: &mut Vec<Vec<i32>>,
) {
    const B: usize = NativeBackend::BATCH_TILE;
    assert_eq!(shape.out_ch, shape.in_ch, "depthwise conv requires in_ch == out_ch");
    let geo = shape.geometry();
    let out_plane = geo.out_h() * geo.out_w();
    for tile in batch.chunks(B) {
        if tile.len() < B {
            for codes in tile {
                let mut acc = dwconv_acc_scratch(codes.as_ref(), shape, weights, scratch);
                w_out.finish_solo_in_place(&mut acc, out_plane);
                outs.push(acc);
            }
            continue;
        }
        for codes in tile {
            assert_eq!(
                codes.as_ref().len(),
                shape.in_ch * shape.in_h * shape.in_w,
                "activation size mismatch"
            );
        }
        assert_eq!(
            weights.len(),
            shape.in_ch * shape.kernel * shape.kernel,
            "weight size mismatch"
        );
        let mut columns = scratch.take_i32(tile[0].as_ref().len() * B);
        fill_columns(tile, &mut columns);
        let base = outs.len();
        for _ in 0..B {
            outs.push(scratch.take_i32(shape.in_ch * out_plane));
        }
        let mut taps = scratch.take_pairs();
        let terms = (shape.kernel * shape.kernel) as i64;
        // Depthwise has no channel reduction to pair up, so an
        // i16-fitting tile runs the generic `i32` tile.
        if tile_path(tile, terms) == TilePath::I64 {
            dw_tile::<i64, B>(&columns, shape, weights, w_out, &mut taps, &mut outs[base..]);
        } else {
            dw_tile::<i32, B>(&columns, shape, weights, w_out, &mut taps, &mut outs[base..]);
        }
        scratch.put_pairs(taps);
        scratch.put_i32(columns);
    }
}

/// The depthwise tile kernel at compile-time batch width `B` (one kernel
/// per channel; each weight loaded once per output pixel and swept across
/// the tile).
fn dw_tile<A: TileAcc, const B: usize>(
    columns: &[i32],
    shape: &PooledConvShape,
    weights: &[i8],
    w_out: &impl WriteOut,
    taps: &mut Vec<(usize, usize)>,
    tile_outs: &mut [Vec<i32>],
) {
    let geo = shape.geometry();
    let (oh, ow) = (geo.out_h(), geo.out_w());
    let k_sz = shape.kernel;
    let plane = shape.in_h * shape.in_w;
    let (cols, rest) = columns.as_chunks::<B>();
    debug_assert!(rest.is_empty());
    debug_assert_eq!(tile_outs.len(), B);

    for oy in 0..oh {
        for ox in 0..ow {
            valid_spatial_taps(&geo, k_sz, shape.in_w, oy, ox, taps);
            for ch in 0..shape.in_ch {
                let wrow = &weights[ch * k_sz * k_sz..][..k_sz * k_sz];
                let mut row = [A::default(); B];
                for &(t, sp) in taps.iter() {
                    let w = wrow[t] as i32;
                    let col = &cols[ch * plane + sp];
                    for (a, &p) in row.iter_mut().zip(col) {
                        *a = a.madd(w, p);
                    }
                }
                let o = (ch * oh + oy) * ow + ox;
                for (out, &a) in tile_outs.iter_mut().zip(&row) {
                    out[o] = w_out.emit(ch, a.widen());
                }
            }
        }
    }
}

/// Batched [`dense_acc`]: weight-stationary dense matmul over a batch,
/// bit-identical to solo. Full tiles load each of the `O · I` weights
/// once and apply it to the whole tile as one dense sweep over a
/// batch-minor feature column — the regime where a dense head's weight
/// traffic amortizes (same tiling, `tile_path` admission and exactness
/// argument as [`conv_direct_batch`]; the madd tiles pair up adjacent
/// input features).
///
/// # Panics
///
/// Panics on any per-image size mismatch, exactly as the solo path does.
pub fn dense_acc_batch<S: AsRef<[i32]>>(
    batch: &[S],
    weights: &[i8],
    out_features: usize,
) -> Vec<Vec<i32>> {
    assert!(out_features > 0, "dense layer needs at least one output feature");
    let in_features = weights.len() / out_features;
    let weights = TileWeights::new(weights.to_vec(), out_features, in_features, 1);
    let mut outs = Vec::with_capacity(batch.len());
    let use_avx2 = BackendKind::Auto.resolve() == ResolvedBackend::Avx2;
    dense_acc_batch_core(batch, &weights, use_avx2, &RawOut, &mut Scratch::new(), &mut outs);
    outs
}

/// A dense head whose weight matrix is at least this many entries (16 K
/// int8 weights = one typical L1's worth) routes batches through the
/// blocked kernel: smaller heads fit in cache anyway, so re-streaming
/// them per tile costs nothing and the plain tile kernel's simpler loop
/// wins.
const DENSE_BLOCK_MIN_WEIGHTS: usize = 16 * 1024;

/// Output-feature block height of the blocked dense kernel.
const DENSE_BLOCK_OUT: usize = 32;

/// Input-feature block depth of the blocked dense kernel:
/// `DENSE_BLOCK_OUT × DENSE_BLOCK_IN` int8 weights (8 KB) plus the
/// activation column block stay cache-resident while each weight is
/// applied to **every** lane of the batch.
const DENSE_BLOCK_IN: usize = 256;

/// The batched dense engine (see
/// [`NativeBackend::conv_pooled_prepared_batch_core`] for the
/// outs/scratch contract). Full tiles run one at a time, except that a
/// 2-tile-or-larger batch on a matrix past [`DENSE_BLOCK_MIN_WEIGHTS`]
/// spans all full tiles at once in the blocked form, loading each weight
/// block **once per batch** instead of once per tile. Either way the
/// group runs the pair-madd kernel when [`tile_path`] admits it, else the
/// generic [`TileAcc`] kernels; the tail runs solo.
pub(crate) fn dense_acc_batch_core<S: AsRef<[i32]>>(
    batch: &[S],
    weights: &TileWeights,
    use_avx2: bool,
    w_out: &impl WriteOut,
    scratch: &mut Scratch,
    outs: &mut Vec<Vec<i32>>,
) {
    const B: usize = NativeBackend::BATCH_TILE;
    let (in_features, out_features) = (weights.ch, weights.rows);
    debug_assert_eq!(weights.inner, 1);
    let full = batch.len() / B * B;
    let blocked = full >= 2 * B && in_features * out_features >= DENSE_BLOCK_MIN_WEIGHTS;
    for group in batch[..full].chunks(if blocked { full } else { B }) {
        for codes in group {
            assert_eq!(codes.as_ref().len(), in_features, "activation size mismatch");
        }
        let lanes = group.len();
        let path = tile_path(group, in_features as i64);
        // One buffer serves either layout: the generic kernels'
        // `I · lanes` columns, or the madd kernel's `ceil(I/2) · lanes`
        // pair columns followed by its `DENSE_BLOCK_OUT · lanes`
        // accumulator block.
        let mut columns =
            scratch.take_i32(in_features.max(weights.pairs + DENSE_BLOCK_OUT) * lanes);
        match path {
            #[cfg(target_arch = "x86_64")]
            TilePath::Madd => {
                columns.truncate((weights.pairs + DENSE_BLOCK_OUT) * lanes);
                fill_pair_columns(group, in_features, 1, &mut columns[..weights.pairs * lanes]);
            }
            _ => {
                columns.truncate(in_features * lanes);
                fill_columns(group, &mut columns);
            }
        }
        let base = outs.len();
        for _ in 0..lanes {
            outs.push(scratch.take_i32(out_features));
        }
        let group_outs = &mut outs[base..];
        let (int8, dims) = (weights.int8(), (in_features, out_features));
        match (path, blocked) {
            #[cfg(target_arch = "x86_64")]
            (TilePath::Madd, _) => {
                let (cols, acc) = columns.split_at_mut(weights.pairs * lanes);
                madd::dense(cols, weights, w_out, acc, group_outs, use_avx2)
            }
            (TilePath::I64, true) => {
                dense_blocked::<i64>(&columns, int8, dims, w_out, scratch, group_outs)
            }
            (TilePath::I64, false) => dense_tile::<i64, B>(&columns, int8, dims, w_out, group_outs),
            (_, true) => dense_blocked::<i32>(&columns, int8, dims, w_out, scratch, group_outs),
            (_, false) => dense_tile::<i32, B>(&columns, int8, dims, w_out, group_outs),
        }
        scratch.put_i32(columns);
    }
    for codes in &batch[full..] {
        let mut acc = dense_acc_scratch(codes.as_ref(), weights.int8(), out_features, scratch);
        w_out.finish_solo_in_place(&mut acc, 1);
        outs.push(acc);
    }
}

/// The generic dense tile kernel at compile-time batch width `B`, over
/// an `(in_features, out_features)` matrix.
fn dense_tile<A: TileAcc, const B: usize>(
    columns: &[i32],
    weights: &[i8],
    (in_features, out_features): (usize, usize),
    w_out: &impl WriteOut,
    tile_outs: &mut [Vec<i32>],
) {
    let (cols, rest) = columns.as_chunks::<B>();
    debug_assert!(rest.is_empty());
    debug_assert_eq!(tile_outs.len(), B);
    for o in 0..out_features {
        let wrow = &weights[o * in_features..(o + 1) * in_features];
        let mut row = [A::default(); B];
        for (&w, col) in wrow.iter().zip(cols) {
            let w = w as i32;
            for (a, &p) in row.iter_mut().zip(col) {
                *a = a.madd(w, p);
            }
        }
        for (out, &a) in tile_outs.iter_mut().zip(&row) {
            out[o] = w_out.emit(o, a.widen());
        }
    }
}

/// The generic blocked dense kernel at run-time lane count: `columns` holds the
/// whole batch's activations batch-minor (`pos * lanes + b`), and the
/// `(out, in)` weight matrix is walked in `DENSE_BLOCK_OUT ×
/// DENSE_BLOCK_IN` blocks — each block's weights are loaded from memory
/// **once** and applied to every lane before moving on, instead of the
/// plain tile kernel's full-matrix re-stream per eight images. Per
/// `(output, lane)` pair the input features are still summed in
/// ascending order across blocks (the accumulator block persists over
/// `i`-blocks), so every output is bit-identical to the solo kernel's
/// sum.
fn dense_blocked<A: TileAcc>(
    columns: &[i32],
    weights: &[i8],
    (in_features, out_features): (usize, usize),
    w_out: &impl WriteOut,
    scratch: &mut Scratch,
    lane_outs: &mut [Vec<i32>],
) {
    let lanes = lane_outs.len();
    debug_assert_eq!(columns.len(), in_features * lanes);
    let mut acc = A::take_buf(scratch, DENSE_BLOCK_OUT * lanes);
    for o_base in (0..out_features).step_by(DENSE_BLOCK_OUT) {
        let o_count = DENSE_BLOCK_OUT.min(out_features - o_base);
        acc[..o_count * lanes].fill(A::default());
        for i_base in (0..in_features).step_by(DENSE_BLOCK_IN) {
            let i_count = DENSE_BLOCK_IN.min(in_features - i_base);
            let col_block = &columns[i_base * lanes..(i_base + i_count) * lanes];
            for o_local in 0..o_count {
                let wrow = &weights[(o_base + o_local) * in_features + i_base..][..i_count];
                let arow = &mut acc[o_local * lanes..(o_local + 1) * lanes];
                for (&w, col) in wrow.iter().zip(col_block.chunks_exact(lanes)) {
                    let w = w as i32;
                    for (a, &p) in arow.iter_mut().zip(col) {
                        *a = a.madd(w, p);
                    }
                }
            }
        }
        for o_local in 0..o_count {
            let o = o_base + o_local;
            for (out, &a) in lane_outs.iter_mut().zip(&acc[o_local * lanes..]) {
                out[o] = w_out.emit(o, a.widen());
            }
        }
    }
    A::put_buf(scratch, acc);
}

/// Max pooling over non-overlapping square windows (mirrors
/// `wp_kernels::cmsis::maxpool` arithmetic).
///
/// # Panics
///
/// Panics if the window exceeds the input.
pub fn maxpool(codes: &[i32], ch: usize, h: usize, w: usize, size: usize) -> Vec<i32> {
    maxpool_scratch(codes, ch, h, w, size, &mut Scratch::new())
}

/// [`maxpool`] writing into an arena buffer (returned to the caller).
pub(crate) fn maxpool_scratch(
    codes: &[i32],
    ch: usize,
    h: usize,
    w: usize,
    size: usize,
    scratch: &mut Scratch,
) -> Vec<i32> {
    assert!(h >= size && w >= size, "pool window larger than input");
    let (oh, ow) = (h / size, w / size);
    let mut out = scratch.take_i32(ch * oh * ow);
    for c in 0..ch {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = i32::MIN;
                for dy in 0..size {
                    for dx in 0..size {
                        best = best.max(codes[(c * h + oy * size + dy) * w + ox * size + dx]);
                    }
                }
                out[(c * oh + oy) * ow + ox] = best;
            }
        }
    }
    out
}

/// Average pooling over non-overlapping square windows: integer mean with
/// rounding, identical to `wp_kernels::cmsis::avgpool`.
///
/// # Panics
///
/// Panics if the window exceeds the input.
pub fn avgpool(codes: &[i32], ch: usize, h: usize, w: usize, size: usize) -> Vec<i32> {
    avgpool_scratch(codes, ch, h, w, size, &mut Scratch::new())
}

/// [`avgpool`] writing into an arena buffer (returned to the caller).
pub(crate) fn avgpool_scratch(
    codes: &[i32],
    ch: usize,
    h: usize,
    w: usize,
    size: usize,
    scratch: &mut Scratch,
) -> Vec<i32> {
    assert!(h >= size && w >= size, "pool window larger than input");
    let (oh, ow) = (h / size, w / size);
    let div = (size * size) as i32;
    let mut out = scratch.take_i32(ch * oh * ow);
    for c in 0..ch {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0i32;
                for dy in 0..size {
                    for dx in 0..size {
                        acc += codes[(c * h + oy * size + dy) * w + ox * size + dx];
                    }
                }
                out[(c * oh + oy) * ow + ox] = (acc + div / 2).div_euclid(div);
            }
        }
    }
    out
}

/// Global average pooling to one value per channel (rounded integer mean,
/// identical to `wp_kernels::cmsis::global_avgpool`).
pub fn global_avgpool(codes: &[i32], ch: usize, h: usize, w: usize) -> Vec<i32> {
    global_avgpool_scratch(codes, ch, h, w, &mut Scratch::new())
}

/// [`global_avgpool`] writing into an arena buffer (returned to the
/// caller).
pub(crate) fn global_avgpool_scratch(
    codes: &[i32],
    ch: usize,
    h: usize,
    w: usize,
    scratch: &mut Scratch,
) -> Vec<i32> {
    let n = (h * w) as i32;
    let mut out = scratch.take_i32(ch);
    for (c, slot) in out.iter_mut().enumerate() {
        let acc: i32 = codes[c * h * w..(c + 1) * h * w].iter().sum();
        *slot = (acc + n / 2).div_euclid(n);
    }
    out
}

/// Saturating elementwise residual add of two code planes into an
/// arbitrary code range (signed encodings clamp two-sided).
///
/// # Panics
///
/// Panics if lengths differ.
pub fn residual_add_range(a: &[i32], b: &[i32], lo: i32, hi: i32) -> Vec<i32> {
    residual_add_range_scratch(a, b, lo, hi, &mut Scratch::new())
}

/// [`residual_add_range`] writing into an arena buffer (returned to the
/// caller).
pub(crate) fn residual_add_range_scratch(
    a: &[i32],
    b: &[i32],
    lo: i32,
    hi: i32,
    scratch: &mut Scratch,
) -> Vec<i32> {
    assert_eq!(a.len(), b.len(), "residual operands must match");
    let mut out = scratch.take_i32(a.len());
    for (slot, (&x, &y)) in out.iter_mut().zip(a.iter().zip(b)) {
        *slot = (x + y).clamp(lo, hi);
    }
    out
}

/// Saturating elementwise residual add of two unsigned code planes
/// (identical to `wp_kernels::cmsis::residual_add`).
///
/// # Panics
///
/// Panics if lengths differ.
pub fn residual_add(a: &[i32], b: &[i32], out_bits: u8) -> Vec<i32> {
    residual_add_range(a, b, 0, (1i32 << out_bits) - 1)
}

/// Batched [`maxpool`]: full tiles of [`NativeBackend::BATCH_TILE`] images
/// run the window loop once with the max taken across batch-minor lanes;
/// tail images fall back to the solo kernel. Bit-identical to mapping
/// [`maxpool`] over the batch (see
/// [`NativeBackend::conv_pooled_prepared_batch_core`] for the
/// outs/scratch contract).
///
/// # Panics
///
/// Panics if the window exceeds the input or an image's size does not
/// match `ch * h * w`.
pub(crate) fn maxpool_batch_core<S: AsRef<[i32]>>(
    batch: &[S],
    ch: usize,
    h: usize,
    w: usize,
    size: usize,
    scratch: &mut Scratch,
    outs: &mut Vec<Vec<i32>>,
) {
    assert!(h >= size && w >= size, "pool window larger than input");
    const B: usize = NativeBackend::BATCH_TILE;
    let (oh, ow) = (h / size, w / size);
    for tile in batch.chunks(B) {
        if tile.len() < B {
            for codes in tile {
                outs.push(maxpool_scratch(codes.as_ref(), ch, h, w, size, scratch));
            }
            continue;
        }
        for codes in tile {
            assert_eq!(codes.as_ref().len(), ch * h * w, "activation size mismatch");
        }
        let mut columns = scratch.take_i32(ch * h * w * B);
        fill_columns(tile, &mut columns);
        let (cols, rest) = columns.as_chunks::<B>();
        debug_assert!(rest.is_empty());
        let base = outs.len();
        for _ in 0..B {
            outs.push(scratch.take_i32(ch * oh * ow));
        }
        for c in 0..ch {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = [i32::MIN; B];
                    for dy in 0..size {
                        for dx in 0..size {
                            let col = &cols[(c * h + oy * size + dy) * w + ox * size + dx];
                            for (b, &p) in best.iter_mut().zip(col) {
                                *b = (*b).max(p);
                            }
                        }
                    }
                    let o = (c * oh + oy) * ow + ox;
                    for (out, &b) in outs[base..].iter_mut().zip(&best) {
                        out[o] = b;
                    }
                }
            }
        }
        scratch.put_i32(columns);
    }
}

/// Batched [`avgpool`]: lane-parallel window sums with the same rounded
/// integer division as the solo kernel. Bit-identical to mapping
/// [`avgpool`] over the batch (see
/// [`NativeBackend::conv_pooled_prepared_batch_core`] for the
/// outs/scratch contract).
///
/// # Panics
///
/// Panics if the window exceeds the input or an image's size does not
/// match `ch * h * w`.
pub(crate) fn avgpool_batch_core<S: AsRef<[i32]>>(
    batch: &[S],
    ch: usize,
    h: usize,
    w: usize,
    size: usize,
    scratch: &mut Scratch,
    outs: &mut Vec<Vec<i32>>,
) {
    assert!(h >= size && w >= size, "pool window larger than input");
    const B: usize = NativeBackend::BATCH_TILE;
    let (oh, ow) = (h / size, w / size);
    let div = (size * size) as i32;
    for tile in batch.chunks(B) {
        if tile.len() < B {
            for codes in tile {
                outs.push(avgpool_scratch(codes.as_ref(), ch, h, w, size, scratch));
            }
            continue;
        }
        for codes in tile {
            assert_eq!(codes.as_ref().len(), ch * h * w, "activation size mismatch");
        }
        let mut columns = scratch.take_i32(ch * h * w * B);
        fill_columns(tile, &mut columns);
        let (cols, rest) = columns.as_chunks::<B>();
        debug_assert!(rest.is_empty());
        let base = outs.len();
        for _ in 0..B {
            outs.push(scratch.take_i32(ch * oh * ow));
        }
        for c in 0..ch {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = [0i32; B];
                    for dy in 0..size {
                        for dx in 0..size {
                            let col = &cols[(c * h + oy * size + dy) * w + ox * size + dx];
                            for (a, &p) in acc.iter_mut().zip(col) {
                                *a += p;
                            }
                        }
                    }
                    let o = (c * oh + oy) * ow + ox;
                    for (out, &a) in outs[base..].iter_mut().zip(&acc) {
                        out[o] = (a + div / 2).div_euclid(div);
                    }
                }
            }
        }
        scratch.put_i32(columns);
    }
}

/// The pair-madd tile kernels — the batched direct-conv and dense path
/// on x86-64 whenever [`tile_path`] admits a tile.
///
/// Each image lane of a batch-minor column holds **two** adjacent
/// reduction terms (an input-channel pair for a conv, an input-feature
/// pair for dense) as two `i16` halves of one `i32` slot
/// ([`fill_pair_columns`]), and each weight pair is one `i32` packed at
/// plan time ([`TileWeights`]). `_mm_madd_epi16` multiplies the halves
/// pairwise and adds the two products into an `i32` lane: eight exact
/// multiply-accumulates per instruction, where the generic `i32` tile
/// needs a 32-bit multiply per term (which baseline x86-64 emulates).
/// Every product (`|w| <= 128`, `|a| <= i16::MAX`) and every pair sum is
/// far inside `i32`, and [`tile_path`] proves no accumulated sum can
/// leave it, so the lanes hold exactly the integers the solo loop sums.
///
/// The base kernels are SSE2, which every x86-64 CPU has: no run-time
/// detection. Plans on the avx2 tier run the same bodies 256 bits wide
/// (`_mm256_madd_epi16`, one register per tile). A register block of
/// filters (or output features) shares each column load, so one load
/// feeds several `pmaddwd`s.
#[cfg(target_arch = "x86_64")]
mod madd {
    use super::{
        valid_spatial_taps, NativeBackend, TileWeights, WriteOut, DENSE_BLOCK_IN, DENSE_BLOCK_OUT,
    };
    use std::arch::x86_64::*;
    use wp_core::reference::PooledConvShape;

    /// Lanes per column slot run: one tile of images.
    const B: usize = NativeBackend::BATCH_TILE;

    /// Filters (or output features) accumulated per register block in the
    /// 128-bit form: each column load feeds this many `pmaddwd` pairs,
    /// and the block's accumulators (two registers each) plus the loaded
    /// column still fit the sixteen SSE registers.
    const SSE2_BLOCK: usize = 4;

    /// The register block of the 256-bit form: one register per
    /// accumulator, so twice as many filters share each column load
    /// (measured ~12–15% faster than four on the demo-stem convs).
    const AVX2_BLOCK: usize = 8;

    /// A tile's eight `i32` accumulator (or pair-column) lanes in
    /// registers — the one seam between the 128-bit and 256-bit forms.
    trait Lanes: Copy {
        fn zero() -> Self;
        fn load(slots: &[i32; B]) -> Self;
        fn store(self, slots: &mut [i32; B]);
        /// `self + pmaddwd(a, broadcast(w))` per lane: each lane gains
        /// `a.lo · w.lo + a.hi · w.hi`.
        fn madd(self, a: Self, w: i32) -> Self;
    }

    /// Eight lanes in two SSE2 registers.
    #[derive(Clone, Copy)]
    struct Sse2(__m128i, __m128i);

    impl Lanes for Sse2 {
        #[inline(always)]
        fn zero() -> Self {
            // SAFETY: SSE2 is part of the x86-64 baseline every target of
            // this module has.
            unsafe { Self(_mm_setzero_si128(), _mm_setzero_si128()) }
        }

        #[inline(always)]
        fn load(slots: &[i32; B]) -> Self {
            let p = slots.as_ptr().cast::<__m128i>();
            // SAFETY: `slots` is eight contiguous `i32`s, i.e. the two
            // 16-byte halves at `p` and `p + 1`; `loadu` has no alignment
            // requirement.
            unsafe { Self(_mm_loadu_si128(p), _mm_loadu_si128(p.add(1))) }
        }

        #[inline(always)]
        fn store(self, slots: &mut [i32; B]) {
            let p = slots.as_mut_ptr().cast::<__m128i>();
            // SAFETY: as in `load`, for the two halves of `slots`.
            unsafe {
                _mm_storeu_si128(p, self.0);
                _mm_storeu_si128(p.add(1), self.1);
            }
        }

        #[inline(always)]
        fn madd(self, a: Self, w: i32) -> Self {
            // SAFETY: SSE2 is part of the x86-64 baseline (see `zero`).
            unsafe {
                let w = _mm_set1_epi32(w);
                Self(
                    _mm_add_epi32(self.0, _mm_madd_epi16(a.0, w)),
                    _mm_add_epi32(self.1, _mm_madd_epi16(a.1, w)),
                )
            }
        }
    }

    /// Eight lanes in one AVX2 register. Only ever used inside the
    /// `#[target_feature(enable = "avx2")]` entry points below, which
    /// callers reach only on a CPU that reported AVX2 at run time.
    #[derive(Clone, Copy)]
    struct Avx2(__m256i);

    impl Lanes for Avx2 {
        #[inline(always)]
        fn zero() -> Self {
            // SAFETY: AVX2 was detected before any `Avx2` value exists
            // (see the type docs).
            unsafe { Self(_mm256_setzero_si256()) }
        }

        #[inline(always)]
        fn load(slots: &[i32; B]) -> Self {
            // SAFETY: AVX2 was detected (type docs); `slots` is 32
            // contiguous bytes and `loadu` has no alignment requirement.
            unsafe { Self(_mm256_loadu_si256(slots.as_ptr().cast())) }
        }

        #[inline(always)]
        fn store(self, slots: &mut [i32; B]) {
            // SAFETY: as in `load`.
            unsafe { _mm256_storeu_si256(slots.as_mut_ptr().cast(), self.0) }
        }

        #[inline(always)]
        fn madd(self, a: Self, w: i32) -> Self {
            // SAFETY: AVX2 was detected (type docs).
            unsafe { Self(_mm256_add_epi32(self.0, _mm256_madd_epi16(a.0, _mm256_set1_epi32(w)))) }
        }
    }

    /// Writes one block's finished accumulators: lane `b` of `acc[f]`
    /// is image `b`'s sum for output channel `k0 + f`, stored at
    /// `k * plane + o` of that image's output.
    #[inline(always)]
    fn emit_block<L: Lanes, const F: usize>(
        acc: &[L; F],
        k0: usize,
        plane: usize,
        o: usize,
        w_out: &impl WriteOut,
        tile_outs: &mut [Vec<i32>],
    ) {
        for (f, a) in acc.iter().enumerate() {
            let k = k0 + f;
            let mut lanes = [0i32; B];
            a.store(&mut lanes);
            for (out, &v) in tile_outs.iter_mut().zip(&lanes) {
                out[k * plane + o] = w_out.emit(k, v as i64);
            }
        }
    }

    /// One output pixel's sums for filters `k0..k0 + F`: every channel
    /// pair's in-bounds taps, each column load shared by the block.
    #[inline(always)]
    fn direct_block<L: Lanes, const F: usize>(
        cols: &[[i32; B]],
        weights: &TileWeights,
        plane: usize,
        taps: &[(usize, usize)],
        k0: usize,
    ) -> [L; F] {
        let kk = weights.inner;
        let row = weights.pairs * kk;
        let mut acc = [L::zero(); F];
        for p in 0..weights.pairs {
            let wp: [&[i32]; F] =
                std::array::from_fn(|f| &weights.paired[(k0 + f) * row + p * kk..][..kk]);
            let col = &cols[p * plane..][..plane];
            for &(t, sp) in taps {
                let a = L::load(&col[sp]);
                for (acc, wp) in acc.iter_mut().zip(&wp) {
                    *acc = acc.madd(a, wp[t]);
                }
            }
        }
        acc
    }

    /// The direct-conv madd tile: `columns` holds one full tile as
    /// channel-pair columns (`(p * plane + sp) * B + b`). Output pixels
    /// are outermost, then register blocks of filters, so each block's
    /// accumulators stay in registers across all `ceil(C/2) · R · S`
    /// weight pairs. `use_avx2` selects the 256-bit form where the CPU
    /// has AVX2.
    pub(super) fn direct_tile(
        columns: &[i32],
        shape: &PooledConvShape,
        weights: &TileWeights,
        w_out: &impl WriteOut,
        taps: &mut Vec<(usize, usize)>,
        tile_outs: &mut [Vec<i32>],
        use_avx2: bool,
    ) {
        if use_avx2 && is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just checked (a cached lookup).
            unsafe { direct_tile_avx2(columns, shape, weights, w_out, taps, tile_outs) }
        } else {
            direct_body::<Sse2, SSE2_BLOCK>(columns, shape, weights, w_out, taps, tile_outs)
        }
    }

    /// [`direct_body`] compiled for AVX2.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn direct_tile_avx2(
        columns: &[i32],
        shape: &PooledConvShape,
        weights: &TileWeights,
        w_out: &impl WriteOut,
        taps: &mut Vec<(usize, usize)>,
        tile_outs: &mut [Vec<i32>],
    ) {
        direct_body::<Avx2, AVX2_BLOCK>(columns, shape, weights, w_out, taps, tile_outs)
    }

    #[inline(always)]
    fn direct_body<L: Lanes, const F: usize>(
        columns: &[i32],
        shape: &PooledConvShape,
        weights: &TileWeights,
        w_out: &impl WriteOut,
        taps: &mut Vec<(usize, usize)>,
        tile_outs: &mut [Vec<i32>],
    ) {
        let geo = shape.geometry();
        let (oh, ow) = (geo.out_h(), geo.out_w());
        let plane = shape.in_h * shape.in_w;
        let (cols, rest) = columns.as_chunks::<B>();
        debug_assert!(rest.is_empty());
        debug_assert_eq!(tile_outs.len(), B);
        for oy in 0..oh {
            for ox in 0..ow {
                valid_spatial_taps(&geo, shape.kernel, shape.in_w, oy, ox, taps);
                let o = oy * ow + ox;
                let mut k = 0;
                while k + F <= shape.out_ch {
                    let acc = direct_block::<L, F>(cols, weights, plane, taps, k);
                    emit_block(&acc, k, oh * ow, o, w_out, tile_outs);
                    k += F;
                }
                for k in k..shape.out_ch {
                    let acc = direct_block::<L, 1>(cols, weights, plane, taps, k);
                    emit_block(&acc, k, oh * ow, o, w_out, tile_outs);
                }
            }
        }
    }

    /// Adds pairs `p_range` of output features `o0..o0 + F` into their
    /// accumulator rows (`acc[o_local * chunks + c]` for lane chunk `c`),
    /// each column load shared by the block.
    #[inline(always)]
    fn dense_block<L: Lanes, const F: usize>(
        cols: &[[i32; B]],
        weights: &TileWeights,
        acc: &mut [[i32; B]],
        chunks: usize,
        (o0, o_local): (usize, usize),
        p_range: std::ops::Range<usize>,
    ) {
        let wp: [&[i32]; F] =
            std::array::from_fn(|f| &weights.paired[(o0 + f) * weights.pairs..][p_range.clone()]);
        for c in 0..chunks {
            let mut regs: [L; F] =
                std::array::from_fn(|f| L::load(&acc[(o_local + f) * chunks + c]));
            for (i, p) in p_range.clone().enumerate() {
                let a = L::load(&cols[p * chunks + c]);
                for (r, wp) in regs.iter_mut().zip(&wp) {
                    *r = r.madd(a, wp[i]);
                }
            }
            for (f, r) in regs.iter().enumerate() {
                r.store(&mut acc[(o_local + f) * chunks + c]);
            }
        }
    }

    /// The dense madd kernel over a group of `lanes` (a multiple of
    /// [`B`]) images — one tile, or every full tile of a batch at once:
    /// `columns` holds feature-pair columns (`p * lanes + b`). The weight
    /// matrix is walked in `DENSE_BLOCK_OUT × DENSE_BLOCK_IN` blocks, each
    /// applied to every lane before moving on, with the block's
    /// accumulators persisting in `acc` (`DENSE_BLOCK_OUT * lanes`
    /// slots) across input blocks. `use_avx2` as in [`direct_tile`].
    pub(super) fn dense(
        columns: &[i32],
        weights: &TileWeights,
        w_out: &impl WriteOut,
        acc: &mut [i32],
        lane_outs: &mut [Vec<i32>],
        use_avx2: bool,
    ) {
        if use_avx2 && is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just checked (a cached lookup).
            unsafe { dense_avx2(columns, weights, w_out, acc, lane_outs) }
        } else {
            dense_body::<Sse2, SSE2_BLOCK>(columns, weights, w_out, acc, lane_outs)
        }
    }

    /// [`dense_body`] compiled for AVX2.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn dense_avx2(
        columns: &[i32],
        weights: &TileWeights,
        w_out: &impl WriteOut,
        acc: &mut [i32],
        lane_outs: &mut [Vec<i32>],
    ) {
        dense_body::<Avx2, AVX2_BLOCK>(columns, weights, w_out, acc, lane_outs)
    }

    #[inline(always)]
    fn dense_body<L: Lanes, const F: usize>(
        columns: &[i32],
        weights: &TileWeights,
        w_out: &impl WriteOut,
        acc: &mut [i32],
        lane_outs: &mut [Vec<i32>],
    ) {
        let chunks = lane_outs.len() / B;
        debug_assert_eq!(lane_outs.len(), chunks * B);
        let (cols, rest) = columns.as_chunks::<B>();
        debug_assert!(rest.is_empty());
        let (acc, _) = acc.as_chunks_mut::<B>();
        let pair_block = DENSE_BLOCK_IN / 2;
        for o_base in (0..weights.rows).step_by(DENSE_BLOCK_OUT) {
            let o_count = DENSE_BLOCK_OUT.min(weights.rows - o_base);
            acc[..o_count * chunks].fill([0; B]);
            for p_base in (0..weights.pairs).step_by(pair_block) {
                let p_range = p_base..(p_base + pair_block).min(weights.pairs);
                let mut o = 0;
                while o + F <= o_count {
                    let at = (o_base + o, o);
                    dense_block::<L, F>(cols, weights, acc, chunks, at, p_range.clone());
                    o += F;
                }
                for o in o..o_count {
                    let at = (o_base + o, o);
                    dense_block::<L, 1>(cols, weights, acc, chunks, at, p_range.clone());
                }
            }
            for o_local in 0..o_count {
                let o = o_base + o_local;
                let rows = &acc[o_local * chunks..][..chunks];
                for (outs, row) in lane_outs.chunks_exact_mut(B).zip(rows) {
                    for (out, &v) in outs.iter_mut().zip(row) {
                        out[o] = w_out.emit(o, v as i64);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_core::{LutOrder, WeightPool};

    fn small_lut(order: LutOrder) -> LookupTable {
        let pool = WeightPool::from_vectors(vec![
            vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 0.0],
            vec![0.0, 64.0, 32.0, 16.0, 8.0, 4.0, 2.0, 1.0],
        ]);
        LookupTable::build(&pool, 8, order)
    }

    #[test]
    fn lut_cache_is_order_independent() {
        let a = LutCache::new(&small_lut(LutOrder::InputOriented));
        let b = LutCache::new(&small_lut(LutOrder::WeightOriented));
        assert_eq!(a, b);
        assert_eq!(a.pool_size(), 2);
        assert_eq!(a.group_size(), 8);
        assert_eq!(a.num_patterns(), 256);
        // Entry values match the source table.
        let lut = small_lut(LutOrder::InputOriented);
        assert_eq!(a.code(1, 0b0110), lut.code(1, 0b0110));
    }

    #[test]
    fn pooled_conv_equals_integer_dot_product() {
        // LUT scale is exactly 1, so accumulators equal plain dot products.
        let lut = small_lut(LutOrder::InputOriented);
        let backend = NativeBackend::new(&lut, 8, ActEncoding::Unsigned);
        let shape =
            PooledConvShape { in_ch: 8, out_ch: 2, kernel: 1, stride: 1, pad: 0, in_h: 1, in_w: 1 };
        let codes = vec![3, 0, 1, 2, 5, 7, 1, 9];
        let acc = backend.conv_pooled(&codes, &shape, &[0, 1]);
        let w0 = [1, 2, 4, 8, 16, 32, 64, 0];
        let w1 = [0, 64, 32, 16, 8, 4, 2, 1];
        let dot = |w: &[i32; 8]| codes.iter().zip(w).map(|(&a, &b)| a * b).sum::<i32>();
        assert_eq!(acc, vec![dot(&w0), dot(&w1)]);
    }

    #[test]
    #[should_panic(expected = "activation code outside")]
    fn out_of_range_codes_rejected() {
        let lut = small_lut(LutOrder::InputOriented);
        let backend = NativeBackend::new(&lut, 4, ActEncoding::Unsigned);
        let shape =
            PooledConvShape { in_ch: 8, out_ch: 1, kernel: 1, stride: 1, pad: 0, in_h: 1, in_w: 1 };
        backend.conv_pooled(&[16, 0, 0, 0, 0, 0, 0, 0], &shape, &[0]);
    }

    #[test]
    #[should_panic(expected = "activation bits")]
    fn zero_act_bits_rejected() {
        NativeBackend::new(&small_lut(LutOrder::InputOriented), 0, ActEncoding::Unsigned);
    }

    #[test]
    fn batched_pooled_conv_matches_solo() {
        let lut = small_lut(LutOrder::InputOriented);
        for act_bits in [1u8, 4, 8] {
            let backend = NativeBackend::new(&lut, act_bits, ActEncoding::Unsigned);
            let shape = PooledConvShape {
                in_ch: 8,
                out_ch: 4,
                kernel: 3,
                stride: 1,
                pad: 1,
                in_h: 5,
                in_w: 4,
            };
            let hi = (1i32 << act_bits) - 1;
            let mut state = 0x9E3779B9u64;
            let mut next = move |m: i32| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as i32).rem_euclid(m)
            };
            let indices: Vec<u8> = (0..shape.index_count(8)).map(|_| next(2) as u8).collect();
            let prep = backend.prepare_indices(&shape, &indices);
            let images: Vec<Vec<i32>> = (0..NativeBackend::BATCH_TILE + 3)
                .map(|_| (0..8 * 5 * 4).map(|_| next(hi + 1)).collect())
                .collect();
            let refs: Vec<&[i32]> = images.iter().map(|x| x.as_slice()).collect();
            let batched = backend.conv_pooled_prepared_batch(&refs, &shape, &prep);
            assert_eq!(batched.len(), images.len());
            for (img, out) in images.iter().zip(&batched) {
                assert_eq!(&backend.conv_pooled_prepared(img, &shape, &prep), out, "M={act_bits}");
            }
        }
    }

    #[test]
    fn batched_pooled_conv_empty_batch() {
        let lut = small_lut(LutOrder::InputOriented);
        let backend = NativeBackend::new(&lut, 8, ActEncoding::Unsigned);
        let shape =
            PooledConvShape { in_ch: 8, out_ch: 2, kernel: 1, stride: 1, pad: 0, in_h: 1, in_w: 1 };
        let prep = backend.prepare_indices(&shape, &[0, 1]);
        assert!(backend.conv_pooled_prepared_batch::<&[i32]>(&[], &shape, &prep).is_empty());
    }

    #[test]
    fn dense_acc_matches_manual() {
        let codes = vec![1, 2, 3];
        let weights: Vec<i8> = vec![1, 0, -1, 2, 2, 2];
        assert_eq!(dense_acc(&codes, &weights, 2), vec![-2, 12]);
    }

    /// Deterministic LCG for shape/value fuzzing without `rand`.
    fn lcg(state: &mut u64, m: i32) -> i32 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((*state >> 33) as i32).rem_euclid(m)
    }

    #[test]
    fn batched_direct_conv_matches_solo_including_tail() {
        let shape =
            PooledConvShape { in_ch: 5, out_ch: 7, kernel: 3, stride: 2, pad: 1, in_h: 6, in_w: 5 };
        let mut s = 0xD1CE;
        let weights: Vec<i8> =
            (0..shape.out_ch * shape.in_ch * 9).map(|_| (lcg(&mut s, 255) - 127) as i8).collect();
        // A full tile plus a partial tail, to cover both code paths.
        let images: Vec<Vec<i32>> = (0..NativeBackend::BATCH_TILE + 3)
            .map(|_| (0..5 * 6 * 5).map(|_| lcg(&mut s, 256)).collect())
            .collect();
        let refs: Vec<&[i32]> = images.iter().map(|x| x.as_slice()).collect();
        let batched = conv_direct_batch(&refs, &shape, &weights);
        assert_eq!(batched.len(), images.len());
        for (img, out) in images.iter().zip(&batched) {
            assert_eq!(&conv_direct(img, &shape, &weights), out);
        }
    }

    #[test]
    fn batched_dwconv_matches_solo() {
        let shape =
            PooledConvShape { in_ch: 6, out_ch: 6, kernel: 3, stride: 1, pad: 1, in_h: 4, in_w: 7 };
        let mut s = 0xD3;
        let weights: Vec<i8> = (0..6 * 9).map(|_| (lcg(&mut s, 255) - 127) as i8).collect();
        let images: Vec<Vec<i32>> = (0..NativeBackend::BATCH_TILE * 2 + 1)
            .map(|_| (0..6 * 4 * 7).map(|_| lcg(&mut s, 256)).collect())
            .collect();
        let refs: Vec<&[i32]> = images.iter().map(|x| x.as_slice()).collect();
        for (img, out) in images.iter().zip(&dwconv_acc_batch(&refs, &shape, &weights)) {
            assert_eq!(&dwconv_acc(img, &shape, &weights), out);
        }
    }

    #[test]
    fn batched_dense_matches_solo_on_both_accumulator_paths() {
        let mut s = 0x5EED;
        let (in_features, out_features) = (37usize, 11usize);
        let weights: Vec<i8> =
            (0..in_features * out_features).map(|_| (lcg(&mut s, 255) - 127) as i8).collect();

        // Small codes: the proven-overflow-free i32 fast path.
        let small: Vec<Vec<i32>> = (0..NativeBackend::BATCH_TILE)
            .map(|_| (0..in_features).map(|_| lcg(&mut s, 256)).collect())
            .collect();
        // Huge codes (dense accepts arbitrary i32 activations): forces the
        // widened i64 path; mixed signs keep the final sums inside i32.
        let huge: Vec<Vec<i32>> = (0..NativeBackend::BATCH_TILE)
            .map(|_| (0..in_features).map(|_| lcg(&mut s, 400_001) - 200_000).collect())
            .collect();
        for images in [small, huge] {
            let refs: Vec<&[i32]> = images.iter().map(|x| x.as_slice()).collect();
            let batched = dense_acc_batch(&refs, &weights, out_features);
            for (img, out) in images.iter().zip(&batched) {
                assert_eq!(&dense_acc(img, &weights, out_features), out);
            }
        }
    }

    #[test]
    fn blocked_dense_matches_solo_on_large_heads() {
        // in * out = 160 * 128 = 20480 >= DENSE_BLOCK_MIN_WEIGHTS and the
        // batch spans two full tiles plus a tail, so this exercises the
        // blocked kernel (with non-multiple block edges: 128 % 32 == 0 but
        // 160 % 256 != 0 covers the ragged i-block) and the solo tail.
        let mut s = 0xB10C;
        let (in_features, out_features) = (160usize, 128usize);
        assert!(in_features * out_features >= DENSE_BLOCK_MIN_WEIGHTS);
        let weights: Vec<i8> =
            (0..in_features * out_features).map(|_| (lcg(&mut s, 255) - 127) as i8).collect();
        let small: Vec<Vec<i32>> = (0..NativeBackend::BATCH_TILE * 2 + 3)
            .map(|_| (0..in_features).map(|_| lcg(&mut s, 256)).collect())
            .collect();
        // Huge codes force the i64 accumulator instantiation.
        let huge: Vec<Vec<i32>> = (0..NativeBackend::BATCH_TILE * 2)
            .map(|_| (0..in_features).map(|_| lcg(&mut s, 400_001) - 200_000).collect())
            .collect();
        for images in [small, huge] {
            let batched = dense_acc_batch(&images, &weights, out_features);
            assert_eq!(batched.len(), images.len());
            for (img, out) in images.iter().zip(&batched) {
                assert_eq!(&dense_acc(img, &weights, out_features), out);
            }
        }
    }

    #[test]
    fn batched_kernels_handle_empty_batch() {
        let shape =
            PooledConvShape { in_ch: 2, out_ch: 2, kernel: 1, stride: 1, pad: 0, in_h: 1, in_w: 1 };
        assert!(conv_direct_batch::<&[i32]>(&[], &shape, &[1, 2, 3, 4]).is_empty());
        assert!(dwconv_acc_batch::<&[i32]>(&[], &shape, &[3, 4]).is_empty());
        assert!(dense_acc_batch::<&[i32]>(&[], &[1, -1], 2).is_empty());
    }

    #[test]
    fn residual_add_saturates() {
        assert_eq!(residual_add(&[200, 100, 0], &[100, 20, 0], 8), vec![255, 120, 0]);
    }

    #[test]
    fn avgpool_rounds_like_cmsis() {
        // 2x2 window over [1, 2, 3, 4]: mean 2.5 rounds to 3.
        assert_eq!(avgpool(&[1, 2, 3, 4], 1, 2, 2, 2), vec![3]);
    }
}
