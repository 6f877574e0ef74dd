//! The unified per-layer execution interface.
//!
//! Every compiled layer — pooled conv, direct conv, depthwise, dense,
//! pooling, residual — executes through one [`Kernel`] trait with two
//! entry points: [`Kernel::run_solo`] for a single activation plane and
//! [`Kernel::run_batch`] for a coalesced batch. The executor walks a list
//! of `Arc<dyn Kernel>` and never inspects layer kinds:
//! [`crate::PreparedNet::run_one`] (the solo reference) calls `run_solo`
//! per layer, and [`crate::PreparedNet::run_batch_into`] — the core under
//! `run_batch` and [`crate::BatchRunner::run`] — calls `run_batch`.
//!
//! The contract every implementation upholds (pinned by the batch-parity
//! tests): **`run_batch` is bit-identical to mapping `run_solo` over the
//! batch.** Requantizing kernels achieve batching the weight-stationary
//! way (SWIS-style): a batch tile is transposed to batch-minor columns
//! and each weight/tap is decoded once per tile instead of once per
//! image, which only reassociates *independent* per-image sums — see
//! [`crate::backend`] for each kernel's exactness argument. The
//! direct-conv and dense kernels run full batch tiles through the
//! pair-madd int8 tiles at every activation bitwidth, and the batch's
//! tail through their solo path — which at low activation bitwidths is
//! the bit-plane popcount kernels ([`swar::conv_direct`] /
//! [`swar::dense_acc`]); same contract, same integers.
//! Max/avg pooling run lane-parallel window loops; global pooling and
//! residual keep the default `run_batch`, which maps `run_solo`.
//!
//! Every method threads a [`Scratch`] arena: activation planes, raw
//! accumulators and kernel working sets are checked out of per-worker
//! pools and returned after use, so a warmed plan executes with zero
//! heap allocations (`tests/zero_alloc.rs`). `run_solo` borrows its
//! input (the executor owns the plane and recycles it); `run_batch`
//! consumes its input planes and drains them back into the arena.
//!
//! Requantizing kernels also expose their raw accumulators through
//! [`Kernel::accumulate`], which is what per-layer requant calibration
//! consumes ([`crate::PreparedNet::calibrate_multipliers`]).

use crate::backend::{self, FusedOut, NativeBackend, PreparedIndices, TileWeights};
use crate::options::ResolvedBackend;
use crate::scratch::Scratch;
use crate::swar;
use crate::trace;
use wp_core::reference::PooledConvShape;
use wp_kernels::OutputQuant;

/// Whether this call executes on the scalar tier — reference per-element
/// loops, one image at a time, no batched tile kernels.
fn scalar_tier(ctx: &KernelCtx<'_>) -> bool {
    ctx.backend.simd() == ResolvedBackend::Scalar
}

/// `Some(use_avx2)` when the solo bit-plane popcount kernels should run
/// for a solo call: a swar-or-better tier at an activation bitwidth low
/// enough that popcounting 8 weight planes beats the per-element MAC.
/// The threshold is [`swar::POPCOUNT_MAX_BITS`]. The scalar tier never
/// routes here.
fn popcount_path(ctx: &KernelCtx<'_>) -> Option<bool> {
    match ctx.backend.simd() {
        ResolvedBackend::Scalar => None,
        tier if ctx.act_bits <= swar::POPCOUNT_MAX_BITS => Some(tier == ResolvedBackend::Avx2),
        _ => None,
    }
}

/// Runs a direct-conv or dense layer's batch: full tiles of
/// [`NativeBackend::BATCH_TILE`] images through the batched int8 core
/// `tiles` (the pair-madd tiles — 256 bits wide on the avx2 tier — or
/// the generic tiles for a tile they do not admit), and the tail through
/// the kernel's own solo path, so a tail at popcount bitwidths keeps the
/// solo bit-plane kernels.
fn run_batch_tiled<K: Kernel + ?Sized>(
    kernel: &K,
    ctx: &KernelCtx<'_>,
    planes: Vec<Vec<i32>>,
    scratch: &mut Scratch,
    tiles: impl FnOnce(&[Vec<i32>], bool, &FusedOut<'_>, &mut Scratch, &mut Vec<Vec<i32>>),
) -> Vec<Vec<i32>> {
    if scalar_tier(ctx) {
        return run_batch_solo_map(kernel, ctx, planes, scratch);
    }
    let full = planes.len() / NativeBackend::BATCH_TILE * NativeBackend::BATCH_TILE;
    let use_avx2 = ctx.backend.simd() == ResolvedBackend::Avx2;
    let w_out = FusedOut { bias: ctx.bias, oq: ctx.oq };
    let mut outs = scratch.take_planes(planes.len());
    tiles(&planes[..full], use_avx2, &w_out, scratch, &mut outs);
    for p in &planes[full..] {
        let out = kernel.run_solo(ctx, p, scratch);
        outs.push(out);
    }
    scratch.put_planes(planes);
    outs
}

/// The span tier of a direct-conv or dense call: batched calls on the
/// swar/avx2 tiers run the pair-madd tiles (x86-64), solo calls the
/// popcount kernels where [`popcount_path`] routes them.
fn int8_span_tier(ctx: &KernelCtx<'_>, batched: bool) -> u8 {
    if batched && cfg!(target_arch = "x86_64") && !scalar_tier(ctx) {
        return trace::madd_tier_code(ctx.backend.simd() == ResolvedBackend::Avx2);
    }
    match popcount_path(ctx).filter(|_| !batched) {
        Some(use_avx2) => trace::popcount_tier_code(use_avx2),
        None => trace::tier_code(ctx.backend.simd()),
    }
}

/// Everything a kernel needs at run time beyond its own compiled state:
/// the executing backend (LUT cache, activation encoding), the layer's
/// input dims, and the bias/requant applied after accumulation. Built
/// per layer per call by the executor; kernels stay stateless across
/// calls.
#[derive(Debug, Clone, Copy)]
pub struct KernelCtx<'a> {
    /// The executing backend (each worker thread passes its own copy).
    pub backend: &'a NativeBackend,
    /// Input activation dims `(C, H, W)` at this layer.
    pub in_dims: (usize, usize, usize),
    /// Per-output-channel biases (empty for pass-through kernels).
    pub bias: &'a [i32],
    /// Requantization into the next layer's code range.
    pub oq: &'a OutputQuant,
    /// Activation bitwidth the plan executes at.
    pub act_bits: u8,
}

/// One compiled layer op. See the module docs for the solo/batch
/// bit-identity contract and the scratch-arena discipline.
pub trait Kernel: std::fmt::Debug + Send + Sync {
    /// Short op name (diagnostics, coverage reports).
    fn name(&self) -> &'static str;

    /// The trace tier code this call's span should carry (see
    /// [`trace::tier_name`]): the backend tier by default; the
    /// direct-conv and dense kernels report the popcount or madd variant
    /// they ran, so profiles tell those paths apart.
    fn span_tier(&self, ctx: &KernelCtx<'_>, batched: bool) -> u8 {
        let _ = batched;
        trace::tier_code(ctx.backend.simd())
    }

    /// Raw accumulators for one image plus the spatial positions per
    /// output channel, for requantizing ops — or `None` for pass-through
    /// ops (pooling, residual), which transform codes without an
    /// accumulate/requantize stage. The returned buffer comes from the
    /// arena.
    fn accumulate(
        &self,
        ctx: &KernelCtx<'_>,
        codes: &[i32],
        scratch: &mut Scratch,
    ) -> Option<(Vec<i32>, usize)>;

    /// Executes the layer on one image's activation plane. The returned
    /// buffer comes from the arena; the input plane stays owned by the
    /// caller (the executor recycles it).
    ///
    /// Default: accumulate, then bias-add + requantize in place through
    /// the shared [`OutputQuant::apply_plane_in_place`] arithmetic.
    /// Pass-through kernels (those returning `None` from
    /// [`Kernel::accumulate`]) must override this.
    fn run_solo(&self, ctx: &KernelCtx<'_>, codes: &[i32], scratch: &mut Scratch) -> Vec<i32> {
        let (mut acc, plane) = self
            .accumulate(ctx, codes, scratch)
            .expect("pass-through kernels must override run_solo");
        ctx.oq.apply_plane_in_place(&mut acc, ctx.bias, plane);
        acc
    }

    /// Executes the layer on a whole batch of activation planes,
    /// bit-identical to mapping [`Kernel::run_solo`] over them. Consumes
    /// the input planes (draining them back into the arena) and returns
    /// arena buffers.
    ///
    /// Default: exactly that per-image map — the batched story for
    /// pass-through kernels and for every kernel on the scalar tier.
    /// Requantizing kernels override this on the swar/avx2 tiers to call
    /// the fused batched tile kernels (bias+requant applied in the tile
    /// write-out), which are pinned bit-identical to the map by the
    /// backend-parity tests.
    fn run_batch(
        &self,
        ctx: &KernelCtx<'_>,
        planes: Vec<Vec<i32>>,
        scratch: &mut Scratch,
    ) -> Vec<Vec<i32>> {
        run_batch_solo_map(self, ctx, planes, scratch)
    }
}

/// Spatial positions per output channel of a conv-shaped layer.
pub(crate) fn out_plane(shape: &PooledConvShape) -> usize {
    let geo = shape.geometry();
    geo.out_h() * geo.out_w()
}

/// Maps [`Kernel::run_solo`] over a batch: the default
/// [`Kernel::run_batch`], which the overrides fall back to on the scalar
/// tier.
fn run_batch_solo_map<K: Kernel + ?Sized>(
    kernel: &K,
    ctx: &KernelCtx<'_>,
    planes: Vec<Vec<i32>>,
    scratch: &mut Scratch,
) -> Vec<Vec<i32>> {
    let mut outs = scratch.take_planes(planes.len());
    for p in &planes {
        let out = kernel.run_solo(ctx, p, scratch);
        outs.push(out);
    }
    scratch.put_planes(planes);
    outs
}

/// Bit-serial pooled convolution from a prepared (transposed) index map.
#[derive(Debug, Clone)]
pub struct PooledConvKernel {
    /// Conv geometry.
    pub shape: PooledConvShape,
    /// Tap indices from [`NativeBackend::prepare_indices`] for `shape`.
    pub indices: PreparedIndices,
}

impl Kernel for PooledConvKernel {
    fn name(&self) -> &'static str {
        "pooled_conv"
    }

    fn accumulate(
        &self,
        ctx: &KernelCtx<'_>,
        codes: &[i32],
        scratch: &mut Scratch,
    ) -> Option<(Vec<i32>, usize)> {
        Some((
            ctx.backend.conv_pooled_prepared_scratch(codes, &self.shape, &self.indices, scratch),
            out_plane(&self.shape),
        ))
    }

    fn run_batch(
        &self,
        ctx: &KernelCtx<'_>,
        planes: Vec<Vec<i32>>,
        scratch: &mut Scratch,
    ) -> Vec<Vec<i32>> {
        if scalar_tier(ctx) {
            return run_batch_solo_map(self, ctx, planes, scratch);
        }
        let mut outs = scratch.take_planes(planes.len());
        ctx.backend.conv_pooled_prepared_batch_core(
            &planes,
            &self.shape,
            &self.indices,
            &FusedOut { bias: ctx.bias, oq: ctx.oq },
            scratch,
            &mut outs,
        );
        scratch.put_planes(planes);
        outs
    }
}

/// Direct int8 convolution (uncompressed stem layers).
///
/// Compiled once per plan: the weights are also packed as i16 channel
/// pairs for the batched madd tiles, and into bit planes
/// ([`swar::PackedWeights`]) for the solo popcount kernels at low
/// activation bitwidths.
#[derive(Debug, Clone)]
pub struct DirectConvKernel {
    /// Conv geometry.
    shape: PooledConvShape,
    /// `[K, C, R, S]` int8 weights, also packed as i16 channel pairs.
    weights: TileWeights,
    /// The same weights as bit planes, one row per output channel.
    packed: swar::PackedWeights,
}

impl DirectConvKernel {
    /// Compiles the kernel, packing `weights` (`[K, C, R, S]`, one row of
    /// `C*R*S` taps per output channel) into channel pairs and bit
    /// planes.
    ///
    /// # Panics
    ///
    /// Panics if `weights` does not match the shape's filter count.
    pub fn new(shape: PooledConvShape, weights: Vec<i8>) -> Self {
        let kk = shape.kernel * shape.kernel;
        let packed = swar::PackedWeights::pack(&weights, shape.out_ch, shape.in_ch * kk);
        let weights = TileWeights::new(weights, shape.out_ch, shape.in_ch, kk);
        Self { shape, weights, packed }
    }
}

impl Kernel for DirectConvKernel {
    fn name(&self) -> &'static str {
        "direct_conv"
    }

    fn span_tier(&self, ctx: &KernelCtx<'_>, batched: bool) -> u8 {
        int8_span_tier(ctx, batched)
    }

    fn accumulate(
        &self,
        ctx: &KernelCtx<'_>,
        codes: &[i32],
        scratch: &mut Scratch,
    ) -> Option<(Vec<i32>, usize)> {
        let acc = match popcount_path(ctx) {
            Some(use_avx2) => {
                swar::conv_direct_scratch(codes, &self.shape, &self.packed, use_avx2, scratch)
            }
            None => backend::conv_direct_scratch(codes, &self.shape, self.weights.int8(), scratch),
        };
        Some((acc, out_plane(&self.shape)))
    }

    fn run_batch(
        &self,
        ctx: &KernelCtx<'_>,
        planes: Vec<Vec<i32>>,
        scratch: &mut Scratch,
    ) -> Vec<Vec<i32>> {
        run_batch_tiled(self, ctx, planes, scratch, |tiles, use_avx2, w_out, scratch, outs| {
            backend::conv_direct_batch_core(
                tiles,
                &self.shape,
                &self.weights,
                use_avx2,
                w_out,
                scratch,
                outs,
            )
        })
    }
}

/// Depthwise int8 convolution (one kernel per channel).
#[derive(Debug, Clone)]
pub struct DwConvKernel {
    /// Conv geometry (`out_ch == in_ch`).
    pub shape: PooledConvShape,
    /// `[C, R, S]` int8 weights.
    pub weights: Vec<i8>,
}

impl Kernel for DwConvKernel {
    fn name(&self) -> &'static str {
        "dw_conv"
    }

    fn accumulate(
        &self,
        _ctx: &KernelCtx<'_>,
        codes: &[i32],
        scratch: &mut Scratch,
    ) -> Option<(Vec<i32>, usize)> {
        Some((
            backend::dwconv_acc_scratch(codes, &self.shape, &self.weights, scratch),
            out_plane(&self.shape),
        ))
    }

    fn run_batch(
        &self,
        ctx: &KernelCtx<'_>,
        planes: Vec<Vec<i32>>,
        scratch: &mut Scratch,
    ) -> Vec<Vec<i32>> {
        if scalar_tier(ctx) {
            return run_batch_solo_map(self, ctx, planes, scratch);
        }
        let mut outs = scratch.take_planes(planes.len());
        backend::dwconv_acc_batch_core(
            &planes,
            &self.shape,
            &self.weights,
            &FusedOut { bias: ctx.bias, oq: ctx.oq },
            scratch,
            &mut outs,
        );
        scratch.put_planes(planes);
        outs
    }
}

/// Fully-connected int8 layer.
///
/// Like [`DirectConvKernel`], carries its weights packed as i16 pairs
/// (batched madd tiles) and as bit planes (solo popcount path).
#[derive(Debug, Clone)]
pub struct DenseKernel {
    /// `[O, I]` int8 weights, row per output feature, also packed as
    /// i16 input-feature pairs.
    weights: TileWeights,
    /// Output features `O`.
    out_features: usize,
    /// The same weights as bit planes, one row per output feature.
    packed: swar::PackedWeights,
}

impl DenseKernel {
    /// Compiles the kernel, packing `weights` (`[O, I]`) into feature
    /// pairs and bit planes.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is not a multiple of `out_features`.
    pub fn new(weights: Vec<i8>, out_features: usize) -> Self {
        assert!(out_features > 0, "dense layer needs at least one output feature");
        assert_eq!(weights.len() % out_features, 0, "weight size mismatch");
        let in_features = weights.len() / out_features;
        let packed = swar::PackedWeights::pack(&weights, out_features, in_features);
        let weights = TileWeights::new(weights, out_features, in_features, 1);
        Self { weights, out_features, packed }
    }
}

impl Kernel for DenseKernel {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn span_tier(&self, ctx: &KernelCtx<'_>, batched: bool) -> u8 {
        int8_span_tier(ctx, batched)
    }

    fn accumulate(
        &self,
        ctx: &KernelCtx<'_>,
        codes: &[i32],
        scratch: &mut Scratch,
    ) -> Option<(Vec<i32>, usize)> {
        let acc = match popcount_path(ctx) {
            Some(use_avx2) => swar::dense_acc_scratch(codes, &self.packed, use_avx2, scratch),
            None => {
                backend::dense_acc_scratch(codes, self.weights.int8(), self.out_features, scratch)
            }
        };
        Some((acc, 1))
    }

    fn run_batch(
        &self,
        ctx: &KernelCtx<'_>,
        planes: Vec<Vec<i32>>,
        scratch: &mut Scratch,
    ) -> Vec<Vec<i32>> {
        run_batch_tiled(self, ctx, planes, scratch, |tiles, use_avx2, w_out, scratch, outs| {
            backend::dense_acc_batch_core(tiles, &self.weights, use_avx2, w_out, scratch, outs)
        })
    }
}

/// Max pooling over non-overlapping square windows (pass-through: no
/// requantization).
#[derive(Debug, Clone, Copy)]
pub struct MaxPoolKernel {
    /// Window side.
    pub size: usize,
}

impl Kernel for MaxPoolKernel {
    fn name(&self) -> &'static str {
        "max_pool"
    }

    fn accumulate(
        &self,
        _ctx: &KernelCtx<'_>,
        _codes: &[i32],
        _scratch: &mut Scratch,
    ) -> Option<(Vec<i32>, usize)> {
        None
    }

    fn run_solo(&self, ctx: &KernelCtx<'_>, codes: &[i32], scratch: &mut Scratch) -> Vec<i32> {
        let (c, h, w) = ctx.in_dims;
        backend::maxpool_scratch(codes, c, h, w, self.size, scratch)
    }

    fn run_batch(
        &self,
        ctx: &KernelCtx<'_>,
        planes: Vec<Vec<i32>>,
        scratch: &mut Scratch,
    ) -> Vec<Vec<i32>> {
        if scalar_tier(ctx) {
            return run_batch_solo_map(self, ctx, planes, scratch);
        }
        let (c, h, w) = ctx.in_dims;
        let mut outs = scratch.take_planes(planes.len());
        backend::maxpool_batch_core(&planes, c, h, w, self.size, scratch, &mut outs);
        scratch.put_planes(planes);
        outs
    }
}

/// Average pooling over non-overlapping square windows (pass-through).
#[derive(Debug, Clone, Copy)]
pub struct AvgPoolKernel {
    /// Window side.
    pub size: usize,
}

impl Kernel for AvgPoolKernel {
    fn name(&self) -> &'static str {
        "avg_pool"
    }

    fn accumulate(
        &self,
        _ctx: &KernelCtx<'_>,
        _codes: &[i32],
        _scratch: &mut Scratch,
    ) -> Option<(Vec<i32>, usize)> {
        None
    }

    fn run_solo(&self, ctx: &KernelCtx<'_>, codes: &[i32], scratch: &mut Scratch) -> Vec<i32> {
        let (c, h, w) = ctx.in_dims;
        backend::avgpool_scratch(codes, c, h, w, self.size, scratch)
    }

    fn run_batch(
        &self,
        ctx: &KernelCtx<'_>,
        planes: Vec<Vec<i32>>,
        scratch: &mut Scratch,
    ) -> Vec<Vec<i32>> {
        if scalar_tier(ctx) {
            return run_batch_solo_map(self, ctx, planes, scratch);
        }
        let (c, h, w) = ctx.in_dims;
        let mut outs = scratch.take_planes(planes.len());
        backend::avgpool_batch_core(&planes, c, h, w, self.size, scratch, &mut outs);
        scratch.put_planes(planes);
        outs
    }
}

/// Global average pooling to one value per channel (pass-through).
#[derive(Debug, Clone, Copy)]
pub struct GlobalAvgPoolKernel;

impl Kernel for GlobalAvgPoolKernel {
    fn name(&self) -> &'static str {
        "global_avg_pool"
    }

    fn accumulate(
        &self,
        _ctx: &KernelCtx<'_>,
        _codes: &[i32],
        _scratch: &mut Scratch,
    ) -> Option<(Vec<i32>, usize)> {
        None
    }

    fn run_solo(&self, ctx: &KernelCtx<'_>, codes: &[i32], scratch: &mut Scratch) -> Vec<i32> {
        let (c, h, w) = ctx.in_dims;
        backend::global_avgpool_scratch(codes, c, h, w, scratch)
    }
}

/// Structural residual self-add saturating into the encoding's code range
/// (pass-through), mirroring the simulator's stand-in.
#[derive(Debug, Clone, Copy)]
pub struct ResidualAddKernel;

impl Kernel for ResidualAddKernel {
    fn name(&self) -> &'static str {
        "residual_add"
    }

    fn accumulate(
        &self,
        _ctx: &KernelCtx<'_>,
        _codes: &[i32],
        _scratch: &mut Scratch,
    ) -> Option<(Vec<i32>, usize)> {
        None
    }

    fn run_solo(&self, ctx: &KernelCtx<'_>, codes: &[i32], scratch: &mut Scratch) -> Vec<i32> {
        let (lo, hi) = ctx.backend.encoding().code_range(ctx.act_bits);
        backend::residual_add_range_scratch(codes, codes, lo, hi, scratch)
    }
}
