//! The compositing inner loop: resampling sheared RLE voxel scanlines into
//! the intermediate image, front-to-back, with both coherence optimizations.
//!
//! The unit of work is *(intermediate scanline `y`, slice `k`)*: this is the
//! granularity at which both parallel algorithms partition the compositing
//! phase (tasks are sets of scanlines; each task loops over slices). For a
//! fixed pixel, contributions always arrive in front-to-back slice order no
//! matter how scanlines are grouped into tasks, so serial and parallel
//! renderers produce bit-identical images.
//!
//! For slice `k` with sheared offsets `(u_off, v_off)`, intermediate pixel
//! `(x, y)` resamples the four voxels around standard-object position
//! `(x - u_off, y - v_off)` with bilinear weights — two voxels from scanline
//! `j0 = floor(y - v_off)` and two from `j0 + 1` (this is why adjacent image
//! scanlines *read-share* volume scanlines, one of the sharing sources the
//! paper discusses). Transparent voxel runs are skipped via the RLE;
//! opacity-saturated pixels are skipped via the image skip links.

use crate::costs;
use crate::image::{IPixel, RowView};
use crate::source::{AxisSrc, BrickRowPin, Pinned, PinnedRows, StepSrc};
use crate::tracer::{NullTracer, Tracer, WorkKind};
use swr_geom::Factorization;
use swr_volume::{RgbaVoxel, RleEncoding, RleScanline};

/// Depth cueing (VolPack feature): colors are attenuated exponentially with
/// front-to-back slice depth, giving cheap atmospheric depth perception.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DepthCue {
    /// Brightness factor at the front slice (usually 1.0).
    pub front: f32,
    /// Fractional attenuation per slice (e.g. 0.005 = 0.5 %/slice).
    pub per_slice: f32,
}

impl DepthCue {
    /// Color factor at front-to-back slice step `depth`.
    #[inline]
    pub fn factor(&self, depth: usize) -> f32 {
        (self.front * (1.0 - self.per_slice).powi(depth as i32)).clamp(0.05, 1.0)
    }
}

/// Options controlling the compositing loop.
#[derive(Debug, Clone, Copy)]
pub struct CompositeOpts {
    /// Accumulated opacity at which a pixel is marked opaque and skipped.
    pub opaque_threshold: f32,
    /// Enables early ray termination (pixel skip links).
    pub early_termination: bool,
    /// Models the instruction overhead of per-scanline work profiling.
    pub profile: bool,
    /// Optional depth cueing.
    pub depth_cue: Option<DepthCue>,
}

impl Default for CompositeOpts {
    fn default() -> Self {
        CompositeOpts {
            opaque_threshold: swr_volume::OPAQUE_THRESHOLD as f32 / 255.0,
            early_termination: true,
            profile: false,
            depth_cue: None,
        }
    }
}

/// Statistics for one `(scanline, slice)` compositing step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanlineSliceStats {
    /// Modeled busy cycles spent (the per-scanline work profile entry).
    pub work: u64,
    /// Pixels actually resampled and blended.
    pub composited: u64,
    /// Voxels fetched from the RLE voxel stream.
    pub voxels_fetched: u64,
}

impl ScanlineSliceStats {
    /// Accumulates another step's statistics.
    pub fn merge(&mut self, o: &ScanlineSliceStats) {
        self.work += o.work;
        self.composited += o.composited;
        self.voxels_fetched += o.voxels_fetched;
    }
}

/// A cursor walking one RLE voxel scanline in storage order.
///
/// Supports monotonically non-decreasing `query(i)` (voxel at index `i`, or
/// `None` in a transparent run) and `next_opaque_at_or_after(i)` (first
/// stored voxel index ≥ `i`). Emits run-byte and voxel loads to the tracer.
pub(crate) struct RunCursor<'a> {
    runs: &'a [u8],
    voxels: &'a [RgbaVoxel],
    run_pos: usize,
    /// Index into `voxels` of the first voxel of the current segment (valid
    /// when the current segment is opaque).
    vox_pos: usize,
    seg_lo: i64,
    seg_hi: i64,
    opaque: bool,
    n_i: i64,
}

impl<'a> RunCursor<'a> {
    fn new(scan: RleScanline<'a>, n_i: i64) -> Self {
        // Start in a zero-length "opaque" segment so the first advance reads
        // the leading transparent run and flips the phase correctly.
        RunCursor {
            runs: scan.runs,
            voxels: scan.voxels,
            run_pos: 0,
            vox_pos: 0,
            seg_lo: 0,
            seg_hi: 0,
            opaque: true,
            n_i,
        }
    }

    #[inline]
    fn exhausted(&self) -> bool {
        self.run_pos >= self.runs.len()
    }

    /// Moves to the next run segment.
    #[inline]
    fn advance<T: Tracer>(&mut self, tracer: &mut T) {
        debug_assert!(!self.exhausted());
        if self.opaque {
            self.vox_pos += (self.seg_hi - self.seg_lo) as usize;
        }
        let len = self.runs[self.run_pos];
        if T::TRACING {
            tracer.read(&self.runs[self.run_pos] as *const u8 as usize, 1);
        }
        tracer.work(WorkKind::Traverse, costs::RUN_ADVANCE);
        self.run_pos += 1;
        self.seg_lo = self.seg_hi;
        self.seg_hi = self.seg_lo + len as i64;
        self.opaque = !self.opaque;
    }

    /// Voxel at index `i`, or `None` if `i` lies in a transparent run or
    /// outside the scanline. `i` must not decrease across calls by more than
    /// the current segment's extent (the compositing loop queries `i0` then
    /// `i0 + 1`, both non-decreasing).
    #[inline]
    pub(crate) fn query<T: Tracer>(&mut self, i: i64, tracer: &mut T) -> Option<RgbaVoxel> {
        if i < 0 || i >= self.n_i {
            return None;
        }
        while self.seg_hi <= i {
            if self.exhausted() {
                return None;
            }
            self.advance(tracer);
        }
        if self.opaque && i >= self.seg_lo {
            let v = self.voxels[self.vox_pos + (i - self.seg_lo) as usize];
            if T::TRACING {
                tracer.read(
                    &self.voxels[self.vox_pos + (i - self.seg_lo) as usize] as *const RgbaVoxel
                        as usize,
                    4,
                );
            }
            tracer.work(WorkKind::Composite, costs::VOXEL_FETCH);
            Some(v)
        } else {
            None
        }
    }

    /// First stored (non-transparent) voxel index ≥ `i`, or `n_i` if none.
    /// Advances past transparent and fully-passed segments only.
    #[inline]
    fn next_opaque_at_or_after<T: Tracer>(&mut self, i: i64, tracer: &mut T) -> i64 {
        loop {
            if self.opaque && self.seg_hi > i {
                return self.seg_lo.max(i);
            }
            if self.exhausted() {
                return self.n_i;
            }
            self.advance(tracer);
        }
    }
}

/// A per-axis voxel source the compositing kernel can open scanline cursors
/// on: the flat [`RleEncoding`], or a band loop's pinned rows of a
/// [`BrickedEncoding`](swr_volume::BrickedEncoding). Monomorphizing
/// [`composite_kernel`] over this keeps the flat path's machine code exactly
/// what it was before bricking existed; both walk their scanlines with the
/// one [`RunCursor`].
pub(crate) trait SliceSrc {
    /// Standard-object dimensions `[n_i, n_j, n_k]`.
    fn src_std_dims(&self) -> [usize; 3];

    /// Opens cursors on the two source voxel scanlines `(k, rows.0)` and
    /// `(k, rows.1)` of one step, emitting any per-scanline index loads to
    /// the tracer.
    fn open<T: Tracer>(
        &mut self,
        k: usize,
        rows: (Option<usize>, Option<usize>),
        n_i: i64,
        tracer: &mut T,
    ) -> (Option<RunCursor<'_>>, Option<RunCursor<'_>>);
}

impl<'v> SliceSrc for &'v RleEncoding {
    #[inline]
    fn src_std_dims(&self) -> [usize; 3] {
        self.std_dims()
    }

    #[inline]
    fn open<T: Tracer>(
        &mut self,
        k: usize,
        rows: (Option<usize>, Option<usize>),
        n_i: i64,
        tracer: &mut T,
    ) -> (Option<RunCursor<'v>>, Option<RunCursor<'v>>) {
        let enc = *self;
        let mk = |j: Option<usize>, tracer: &mut T| {
            let j = j?;
            if T::TRACING {
                let (ra, va) = enc.scanline_index_addrs(k, j);
                tracer.read(ra, 4);
                tracer.read(va, 4);
            }
            Some(RunCursor::new(enc.scanline(k, j), n_i))
        };
        let a = mk(rows.0, tracer);
        let b = mk(rows.1, tracer);
        (a, b)
    }
}

impl SliceSrc for &mut PinnedRows<'_> {
    #[inline]
    fn src_std_dims(&self) -> [usize; 3] {
        self.enc.std_dims()
    }

    #[inline]
    fn open<T: Tracer>(
        &mut self,
        k: usize,
        rows: (Option<usize>, Option<usize>),
        n_i: i64,
        _tracer: &mut T,
    ) -> (Option<RunCursor<'_>>, Option<RunCursor<'_>>) {
        // Both scanlines are stitched before either cursor borrows one. The
        // bricked layout has no flat scanline index array and the stitch is
        // not reported to the tracer (memsim captures replay the flat layout
        // only); the cursors' own loads are, at the stitched addresses.
        let a = rows.0.map(|j| self.stitch(k, j));
        let b = rows.1.map(|j| self.stitch(k, j));
        let open = |slot| RunCursor::new(self.line(slot), n_i);
        (a.map(open), b.map(open))
    }
}

/// Source voxel rows feeding the image scanline at fractional row
/// coordinate `jf`: the floor row, its fractional weight, and the two
/// in-bounds row indices (the `+1` row participates only with a nonzero
/// weight). Shared by the unit-scale and perspective paths.
#[inline]
fn select_rows(jf: f64, n_j: i64) -> (f32, Option<usize>, Option<usize>) {
    let j0f = jf.floor();
    let wj = (jf - j0f) as f32;
    let j0 = j0f as i64;
    let row_a = (j0 >= 0 && j0 < n_j).then_some(j0 as usize);
    let jb = j0 + 1;
    let row_b = (jb >= 0 && jb < n_j && wj > 0.0).then_some(jb as usize);
    (wj, row_a, row_b)
}

/// Early-ray-termination hop from pixel `x`, charging the modeled
/// link-follow cost. Both compositing paths charge through this one
/// expression, so they model early termination identically.
#[inline(always)]
fn skip_opaque<T: Tracer, const STATS: bool>(
    row: &mut RowView<'_>,
    x: usize,
    stats: &mut ScanlineSliceStats,
    tracer: &mut T,
) -> i64 {
    let nx = row.next_unopaque(x, tracer) as i64;
    if STATS {
        stats.work += costs::PIXEL_SKIP as u64;
    }
    nx
}

/// The shared per-pixel epilogue of both compositing paths: resample the
/// 2×2 voxel footprint at `i0` with weights `wgts = [a·x0, a·x1, b·x0,
/// b·x1]`, blend front-to-back into pixel `x`, update the early-termination
/// links, and charge the modeled cost. Keeping this in one place means the
/// unit-scale and perspective paths cannot drift in how they model a pixel:
/// `COMPOSITE_PIXEL` plus `VOXEL_FETCH` per voxel *actually fetched* — a
/// zero-weight tap or a tap landing in a transparent run fetches nothing
/// (a head-on view fetches one voxel per pixel, not four), matching the
/// loads and work the tracer observes exactly.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn blend_footprint<T: Tracer, const STATS: bool>(
    cur_a: &mut Option<RunCursor<'_>>,
    cur_b: &mut Option<RunCursor<'_>>,
    i0: i64,
    wgts: [f32; 4],
    cue: Option<f32>,
    row: &mut RowView<'_>,
    x: usize,
    opts: &CompositeOpts,
    stats: &mut ScanlineSliceStats,
    tracer: &mut T,
) {
    // Resample the 2×2 voxel footprint (premultiplied u8 → f32).
    let mut r = 0f32;
    let mut g = 0f32;
    let mut b = 0f32;
    let mut a = 0f32;
    let mut fetched = 0u64;
    {
        let mut tap = |vox: Option<RgbaVoxel>, wgt: f32| {
            if let Some(v) = vox {
                fetched += 1;
                r += wgt * v.r as f32;
                g += wgt * v.g as f32;
                b += wgt * v.b as f32;
                a += wgt * v.a as f32;
            }
        };
        // Zero-weight taps are never fetched (VolPack special-cases the
        // integer-aligned shear the same way).
        if let Some(c) = cur_a.as_mut() {
            if wgts[0] > 0.0 {
                tap(c.query(i0, tracer), wgts[0]);
            }
            if wgts[1] > 0.0 {
                tap(c.query(i0 + 1, tracer), wgts[1]);
            }
        }
        if let Some(c) = cur_b.as_mut() {
            if wgts[2] > 0.0 {
                tap(c.query(i0, tracer), wgts[2]);
            }
            if wgts[3] > 0.0 {
                tap(c.query(i0 + 1, tracer), wgts[3]);
            }
        }
    }
    let inv255 = 1.0 / 255.0;
    let (mut r, mut g, mut b, a) = (r * inv255, g * inv255, b * inv255, (a * inv255).min(1.0));
    if let Some(f) = cue {
        r *= f;
        g *= f;
        b *= f;
    }

    // Front-to-back blend under the premultiplied-alpha "over" operator.
    let addr = if T::TRACING {
        &row.pix[x] as *const IPixel as usize
    } else {
        0
    };
    if T::TRACING {
        tracer.read(addr, 16);
    }
    let p = &mut row.pix[x];
    let t = 1.0 - p.a;
    p.r += t * r;
    p.g += t * g;
    p.b += t * b;
    p.a += t * a;
    let pa = p.a;
    if T::TRACING {
        tracer.write(addr, 16);
    }
    tracer.work(WorkKind::Composite, costs::COMPOSITE_PIXEL);
    if STATS && opts.profile {
        tracer.work(WorkKind::Other, costs::PROFILE_PER_PIXEL);
    }
    charge_pixel::<STATS>(stats, fetched, opts);

    if opts.early_termination && pa >= opts.opaque_threshold {
        row.mark_opaque(x, tracer);
    }
}

/// Books one composited pixel whose footprint fetched `fetched` voxels.
/// Every sink charges through this one expression, so the scalar and the
/// batched kernels cannot drift in what a pixel costs: the §4.2 profile is
/// the same whichever kernel collected it.
#[inline(always)]
pub(crate) fn charge_pixel<const STATS: bool>(
    stats: &mut ScanlineSliceStats,
    fetched: u64,
    opts: &CompositeOpts,
) {
    stats.composited += 1;
    if STATS {
        stats.work += costs::COMPOSITE_PIXEL as u64 + fetched * costs::VOXEL_FETCH as u64;
        stats.voxels_fetched += fetched;
        if opts.profile {
            stats.work += costs::PROFILE_PER_PIXEL as u64;
        }
    }
}

/// Where the compositing traversal delivers each composited pixel's 2×2
/// footprint. There is exactly one traversal implementation
/// ([`composite_kernel`] / [`composite_scaled`]); sinks only vary the blend
/// *epilogue*, so the scalar and vector paths cannot drift in which pixels
/// they composite or how they walk the RLE.
///
/// [`BlendNow`] resamples and blends immediately with the reference
/// [`blend_footprint`]; [`crate::simd::BatchSink`] gathers lanes and flushes
/// them through a vector kernel with bit-identical arithmetic.
pub(crate) trait FootprintSink {
    /// Delivers one composited pixel: cursors positioned for `query(i0)` /
    /// `query(i0 + 1)`, bilinear weights, optional depth-cue factor, and the
    /// destination pixel `x` in `row`. Must leave the cursors exactly as
    /// [`blend_footprint`] would.
    #[allow(clippy::too_many_arguments)]
    fn footprint<T: Tracer, const STATS: bool>(
        &mut self,
        cur_a: &mut Option<RunCursor<'_>>,
        cur_b: &mut Option<RunCursor<'_>>,
        i0: i64,
        wgts: [f32; 4],
        cue: Option<f32>,
        row: &mut RowView<'_>,
        x: usize,
        opts: &CompositeOpts,
        stats: &mut ScanlineSliceStats,
        tracer: &mut T,
    );

    /// Completes any deferred work; called once when the traversal of a
    /// `(scanline, slice)` step finishes.
    fn flush(&mut self, row: &mut RowView<'_>, opts: &CompositeOpts);
}

/// The immediate (scalar) sink: every footprint blends on the spot via the
/// reference [`blend_footprint`]. This is the only sink a real tracer may
/// use — it reports every tap's load and work event as it happens. Modeled
/// `stats` need no tracer and are collected by either sink.
pub(crate) struct BlendNow;

impl FootprintSink for BlendNow {
    #[inline(always)]
    fn footprint<T: Tracer, const STATS: bool>(
        &mut self,
        cur_a: &mut Option<RunCursor<'_>>,
        cur_b: &mut Option<RunCursor<'_>>,
        i0: i64,
        wgts: [f32; 4],
        cue: Option<f32>,
        row: &mut RowView<'_>,
        x: usize,
        opts: &CompositeOpts,
        stats: &mut ScanlineSliceStats,
        tracer: &mut T,
    ) {
        blend_footprint::<T, STATS>(cur_a, cur_b, i0, wgts, cue, row, x, opts, stats, tracer);
    }

    #[inline(always)]
    fn flush(&mut self, _row: &mut RowView<'_>, _opts: &CompositeOpts) {}
}

/// Composites slice `k` into intermediate scanline `row` (at image row
/// `row.y`). Returns per-step statistics; `stats.work` is what the new
/// algorithm's scanline profile accumulates. A real tracer gets the scalar
/// reference epilogue; with [`NullTracer`] the blend dispatches to the
/// widest vector kernel (see [`crate::simd`]) and the statistics are the
/// same, so a profiled frame costs what an unprofiled one does.
pub fn composite_scanline_slice<T: Tracer>(
    enc: &RleEncoding,
    fact: &Factorization,
    row: &mut RowView<'_>,
    k: usize,
    opts: &CompositeOpts,
    tracer: &mut T,
) -> ScanlineSliceStats {
    let kernel = crate::simd::dispatched_kernel();
    kernel_for::<_, T, true>(kernel, enc, fact, row, k, opts, tracer)
}

/// [`composite_scanline_slice`] over either storage layout, from a band
/// loop's [`BrickRowPin`] or — the one-shot form — a bare [`AxisSrc`]. The
/// dispatch happens once per `(scanline, slice)` step; the kernel itself is
/// monomorphized per layout.
pub fn composite_scanline_slice_src<'a, T: Tracer>(
    src: impl StepSrc<'a>,
    fact: &Factorization,
    row: &mut RowView<'_>,
    k: usize,
    opts: &CompositeOpts,
    tracer: &mut T,
) -> ScanlineSliceStats {
    let kernel = crate::simd::dispatched_kernel();
    src.with_pin(|pin| pinned_kernel_for::<T, true>(kernel, pin, fact, row, k, opts, tracer))
}

/// The untraced fast path: identical traversal and pixel arithmetic as
/// [`composite_scanline_slice`] (output is bit-identical), but monomorphized
/// with [`NullTracer`] and with the modeled-cost bookkeeping compiled out —
/// the per-voxel work is only the resample/blend itself. Returns the
/// number of pixels composited. The native renderers use this on every
/// untraced frame that does not collect a profile; profiling frames run the
/// same vector kernels through [`composite_scanline_slice`].
pub fn composite_scanline_slice_untraced(
    enc: &RleEncoding,
    fact: &Factorization,
    row: &mut RowView<'_>,
    k: usize,
    opts: &CompositeOpts,
) -> u64 {
    let kernel = crate::simd::dispatched_kernel();
    composite_scanline_slice_untraced_with(kernel, enc, fact, row, k, opts)
}

/// [`composite_scanline_slice_untraced`] over either storage layout (see
/// [`composite_scanline_slice_src`]).
pub fn composite_scanline_slice_untraced_src<'a>(
    src: impl StepSrc<'a>,
    fact: &Factorization,
    row: &mut RowView<'_>,
    k: usize,
    opts: &CompositeOpts,
) -> u64 {
    let kernel = crate::simd::dispatched_kernel();
    composite_scanline_slice_untraced_with_src(kernel, src, fact, row, k, opts)
}

/// [`composite_scanline_slice_untraced`] with an explicit kernel choice,
/// for A/B benchmarking. A kernel the host cannot run falls back to the
/// scalar reference.
pub fn composite_scanline_slice_untraced_with(
    kernel: crate::simd::SimdKernel,
    enc: &RleEncoding,
    fact: &Factorization,
    row: &mut RowView<'_>,
    k: usize,
    opts: &CompositeOpts,
) -> u64 {
    kernel_for::<_, _, false>(kernel, enc, fact, row, k, opts, &mut NullTracer).composited
}

/// [`composite_scanline_slice_untraced_with`] over either storage layout.
pub fn composite_scanline_slice_untraced_with_src<'a>(
    kernel: crate::simd::SimdKernel,
    src: impl StepSrc<'a>,
    fact: &Factorization,
    row: &mut RowView<'_>,
    k: usize,
    opts: &CompositeOpts,
) -> u64 {
    let t = &mut NullTracer;
    src.with_pin(|pin| pinned_kernel_for::<_, false>(kernel, pin, fact, row, k, opts, t))
        .composited
}

/// [`kernel_for`] on whichever layout `pin` is over.
fn pinned_kernel_for<T: Tracer, const STATS: bool>(
    kernel: crate::simd::SimdKernel,
    pin: &mut BrickRowPin<'_>,
    fact: &Factorization,
    row: &mut RowView<'_>,
    k: usize,
    opts: &CompositeOpts,
    tracer: &mut T,
) -> ScanlineSliceStats {
    match &mut pin.0 {
        Pinned::Flat(enc) => kernel_for::<_, T, STATS>(kernel, *enc, fact, row, k, opts, tracer),
        Pinned::Bricked(rows) => {
            kernel_for::<_, T, STATS>(kernel, rows, fact, row, k, opts, tracer)
        }
    }
}

/// Picks the footprint sink for one `(scanline, slice)` step, monomorphized
/// per storage layout: the lane-batching sink of `kernel` when nothing
/// observes individual taps (`T::TRACING == false`), the scalar reference
/// otherwise — also for a `kernel` the host cannot run.
fn kernel_for<E: SliceSrc, T: Tracer, const STATS: bool>(
    kernel: crate::simd::SimdKernel,
    enc: E,
    fact: &Factorization,
    row: &mut RowView<'_>,
    k: usize,
    opts: &CompositeOpts,
    tracer: &mut T,
) -> ScanlineSliceStats {
    // The vector sink lives on the stack, per call. A reused thread-local
    // sink was tried and measured slower overall: the opaque TLS access
    // forced this function apart into separately-compiled pieces, and the
    // resulting code layout more than doubled the *scalar* path's time on
    // the benchmark host, dwarfing the ~300 B of per-call zero-init the
    // TLS saved. Keeping both kernels inlined here keeps both fast.
    #[cfg(feature = "simd")]
    if !T::TRACING && kernel.lanes() > 1 && kernel.available() {
        let mut sink = crate::simd::BatchSink::new(kernel);
        return composite_kernel::<_, T, _, STATS>(enc, fact, row, k, opts, tracer, &mut sink);
    }
    let _ = kernel;
    composite_kernel::<_, T, BlendNow, STATS>(enc, fact, row, k, opts, tracer, &mut BlendNow)
}

/// The compositing kernel, monomorphized over the tracer, the footprint
/// sink, and over whether modeled-cost statistics are collected
/// (`STATS = false` compiles the bookkeeping away; only `composited` is
/// counted).
#[allow(clippy::too_many_arguments)]
fn composite_kernel<E: SliceSrc, T: Tracer, S: FootprintSink, const STATS: bool>(
    mut enc: E,
    fact: &Factorization,
    row: &mut RowView<'_>,
    k: usize,
    opts: &CompositeOpts,
    tracer: &mut T,
    sink: &mut S,
) -> ScanlineSliceStats {
    let mut stats = ScanlineSliceStats::default();
    let [n_i, n_j, _] = enc.src_std_dims();
    let xf = fact.slice_xform(k);
    if (xf.scale - 1.0).abs() > 1e-12 {
        // Perspective slices scale as well as translate; take the
        // general-resampling path.
        return composite_scaled::<E, T, S, STATS>(enc, fact, row, k, xf, opts, tracer, sink);
    }
    let (u_off, v_off) = (xf.off_u, xf.off_v);
    let cue = opts.depth_cue.map(|c| c.factor(fact.depth_of_slice(k)));

    // Which two voxel scanlines feed this image scanline?
    let (wj, row_a, row_b) = select_rows(row.y as f64 - v_off, n_j as i64);
    if row_a.is_none() && row_b.is_none() {
        return stats; // slice does not touch this scanline
    }

    tracer.work(WorkKind::Other, costs::SCANLINE_SETUP);
    if STATS {
        stats.work += costs::SCANLINE_SETUP as u64;
    }

    let (mut cur_a, mut cur_b) = enc.open(k, (row_a, row_b), n_i as i64, tracer);

    // Pixel range whose bilinear footprint {i0, i0+1} intersects [0, n_i).
    let w = row.width() as i64;
    let x_min = (u_off - 1.0).ceil().max(0.0) as i64;
    let x_max = ((u_off + n_i as f64).ceil() as i64 - 1).min(w - 1);
    if x_min > x_max {
        return stats;
    }
    // Constant fractional resampling weight along the scanline.
    let i_float0 = x_min as f64 - u_off;
    let i0_base = i_float0.floor() as i64;
    let fx = (i_float0 - i_float0.floor()) as f32;
    let w_a = 1.0 - wj;
    let w_b = wj;
    let wx0 = 1.0 - fx;
    let wx1 = fx;
    let wgts = [w_a * wx0, w_a * wx1, w_b * wx0, w_b * wx1];
    let n_i = n_i as i64;

    let mut x = x_min;
    loop {
        if x > x_max {
            break;
        }
        // Early ray termination: hop over opaque pixels.
        if opts.early_termination {
            let nx = skip_opaque::<T, STATS>(row, x as usize, &mut stats, tracer);
            if nx != x {
                x = nx;
                continue;
            }
        }
        // Transparent-voxel skip: hop to the next pixel whose footprint
        // touches a stored voxel.
        let i0 = i0_base + (x - x_min);
        let na = cur_a
            .as_mut()
            .map_or(n_i, |c| c.next_opaque_at_or_after(i0.max(0), tracer));
        let nb = cur_b
            .as_mut()
            .map_or(n_i, |c| c.next_opaque_at_or_after(i0.max(0), tracer));
        let next_vox = na.min(nb);
        if next_vox >= n_i {
            break; // no more stored voxels reachable in this slice scanline
        }
        // With a zero fractional weight the footprint is only {i0}.
        let footprint_hi = if wx1 > 0.0 { i0 + 1 } else { i0 };
        if next_vox > footprint_hi {
            // First pixel whose footprint reaches next_vox.
            x += next_vox - footprint_hi;
            continue;
        }

        sink.footprint::<T, STATS>(
            &mut cur_a, &mut cur_b, i0, wgts, cue, row, x as usize, opts, &mut stats, tracer,
        );
        x += 1;
    }
    sink.flush(row, opts);
    stats
}

/// General (perspective) compositing of slice `k` into one scanline: voxel
/// `(i, j)` projects to `(scale·i + off_u, scale·j + off_v)` with
/// `scale ≤ 1`, so the fractional resampling weight varies per pixel and a
/// pixel step may advance more than one voxel. Shares the run cursors, the
/// per-pixel epilogue, and the coherence optimizations with the unit-scale
/// fast path.
#[allow(clippy::too_many_arguments)]
fn composite_scaled<E: SliceSrc, T: Tracer, S: FootprintSink, const STATS: bool>(
    mut enc: E,
    fact: &Factorization,
    row: &mut RowView<'_>,
    k: usize,
    xf: swr_geom::SliceXform,
    opts: &CompositeOpts,
    tracer: &mut T,
    sink: &mut S,
) -> ScanlineSliceStats {
    let mut stats = ScanlineSliceStats::default();
    let [n_i, n_j, _] = enc.src_std_dims();
    let s = xf.scale;
    debug_assert!(s > 0.0);
    let inv_s = 1.0 / s;

    // Source voxel row coordinates (constant along the scanline).
    let (wj, row_a, row_b) = select_rows((row.y as f64 - xf.off_v) * inv_s, n_j as i64);
    if row_a.is_none() && row_b.is_none() {
        return stats;
    }

    tracer.work(WorkKind::Other, costs::SCANLINE_SETUP);
    if STATS {
        stats.work += costs::SCANLINE_SETUP as u64;
    }
    let cue = opts.depth_cue.map(|c| c.factor(fact.depth_of_slice(k)));

    let (mut cur_a, mut cur_b) = enc.open(k, (row_a, row_b), n_i as i64, tracer);

    // Pixel range whose source coordinate i = (x − off_u)/s has footprint
    // {i0, i0+1} intersecting [0, n_i).
    let w = row.width() as i64;
    let x_min = ((xf.off_u - s).ceil().max(0.0)) as i64;
    let x_max = (((xf.off_u + s * n_i as f64).ceil() as i64) - 1).min(w - 1);
    if x_min > x_max {
        return stats;
    }
    let w_a = 1.0 - wj;
    let w_b = wj;
    let n_i = n_i as i64;

    let mut x = x_min;
    loop {
        if x > x_max {
            break;
        }
        if opts.early_termination {
            let nx = skip_opaque::<T, STATS>(row, x as usize, &mut stats, tracer);
            if nx != x {
                x = nx;
                continue;
            }
        }
        let i_f = (x as f64 - xf.off_u) * inv_s;
        let i0 = i_f.floor() as i64;
        let fx = (i_f - i_f.floor()) as f32;
        let na = cur_a
            .as_mut()
            .map_or(n_i, |c| c.next_opaque_at_or_after(i0.max(0), tracer));
        let nb = cur_b
            .as_mut()
            .map_or(n_i, |c| c.next_opaque_at_or_after(i0.max(0), tracer));
        let next_vox = na.min(nb);
        if next_vox >= n_i {
            break;
        }
        let footprint_hi = if fx > 0.0 { i0 + 1 } else { i0 };
        if next_vox > footprint_hi {
            // First pixel whose source reaches next_vox: i(x) ≥ next_vox − 1.
            let x_t = (xf.off_u + s * (next_vox as f64 - 1.0)).ceil() as i64;
            x = x_t.max(x + 1);
            continue;
        }

        let wx0 = 1.0 - fx;
        let wx1 = fx;
        let wgts = [w_a * wx0, w_a * wx1, w_b * wx0, w_b * wx1];
        sink.footprint::<T, STATS>(
            &mut cur_a, &mut cur_b, i0, wgts, cue, row, x as usize, opts, &mut stats, tracer,
        );
        x += 1;
    }
    sink.flush(row, opts);
    stats
}

/// Composites intermediate scanline `row` whole and from scratch: cleared,
/// then every slice in ascending front-to-back order. Rows are mutually
/// independent and this is the serial order within one, so the result is
/// bit-identical to the same row out of any renderer's chunk loop — which
/// is what lets a repair path, or a process that owns a band of rows, stand
/// in for one. Returns the number of pixels composited.
pub fn composite_row(
    src: AxisSrc<'_>,
    fact: &Factorization,
    row: &mut RowView<'_>,
    opts: &CompositeOpts,
) -> u64 {
    row.clear();
    let mut pin = BrickRowPin::new(src);
    let mut pixels = 0;
    for m in 0..fact.slice_count() {
        let k = fact.slice_for_step(m);
        pixels += composite_scanline_slice_untraced_src(&mut pin, fact, row, k, opts);
    }
    pixels
}

/// Occupied scanline band of the intermediate image for a whole frame: the
/// smallest `y` range outside which no slice deposits any voxel. The new
/// parallel algorithm composites (and profiles) only this band.
pub fn occupied_y_bounds(enc: &RleEncoding, fact: &Factorization) -> Option<(usize, usize)> {
    occupied_y_bounds_src(AxisSrc::Flat(enc), fact)
}

/// [`occupied_y_bounds`] over either storage layout. The bricked layout's
/// slice bounds are brick-granular and therefore a conservative superset of
/// the flat bounds — safe because empty scanlines composite nothing.
pub fn occupied_y_bounds_src(src: AxisSrc<'_>, fact: &Factorization) -> Option<(usize, usize)> {
    let n_k = src.std_dims()[2];
    let h = fact.inter_h as f64;
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for k in 0..n_k {
        if let Some((j_lo, j_hi)) = src.slice_nonempty_bounds(k) {
            let xf = fact.slice_xform(k);
            lo = lo.min(xf.off_v + xf.scale * j_lo as f64 - 1.0);
            hi = hi.max(xf.off_v + xf.scale * j_hi as f64 + 1.0);
        }
    }
    if lo.is_infinite() {
        return None;
    }
    let y_lo = lo.ceil().max(0.0) as usize;
    let y_hi = (hi.floor().min(h - 1.0)) as usize;
    (y_lo <= y_hi).then_some((y_lo, y_hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::IntermediateImage;
    use crate::tracer::{CountingTracer, NullTracer};
    use swr_geom::{Axis, ViewSpec};
    use swr_volume::{ClassifiedVolume, RgbaVoxel};

    fn vol_from(dims: [usize; 3], f: impl Fn(usize, usize, usize) -> u8) -> ClassifiedVolume {
        let mut v = Vec::new();
        for z in 0..dims[2] {
            for y in 0..dims[1] {
                for x in 0..dims[0] {
                    let a = f(x, y, z);
                    v.push(RgbaVoxel {
                        r: a,
                        g: a,
                        b: a,
                        a,
                    });
                }
            }
        }
        ClassifiedVolume::from_raw(dims, v)
    }

    /// Head-on view: shear 0, intermediate pixel (x, y) == voxel (x, y).
    fn head_on(dims: [usize; 3]) -> swr_geom::Factorization {
        swr_geom::Factorization::from_view(&ViewSpec::new(dims))
    }

    #[test]
    fn single_opaque_voxel_lands_where_expected() {
        let dims = [8, 8, 4];
        let c = vol_from(dims, |x, y, z| (x == 3 && y == 5 && z == 1) as u8 * 255);
        let enc = swr_volume::RleEncoding::encode(&c, Axis::Z, 1);
        let fact = head_on(dims);
        let mut img = IntermediateImage::new(fact.inter_w, fact.inter_h);
        let opts = CompositeOpts::default();
        let mut t = NullTracer;
        let mut total = ScanlineSliceStats::default();
        for y in 0..fact.inter_h {
            let mut row = img.row_view(y);
            for k in 0..fact.slice_count() {
                total.merge(&composite_scanline_slice(
                    &enc, &fact, &mut row, k, &opts, &mut t,
                ));
            }
        }
        // Head-on: u_off = v_off = 0, fx = wj = 0 → exactly one pixel hit.
        assert_eq!(total.composited, 1);
        assert!(img.get(3, 5).a > 0.99);
        assert_eq!(img.get(4, 5).a, 0.0);
        assert_eq!(img.get(3, 6).a, 0.0);
    }

    #[test]
    fn front_to_back_blend_order() {
        // Two voxels along the viewing axis: front (k=0) red-ish, back darker.
        let dims = [4, 4, 4];
        let c = {
            let mut v = vec![RgbaVoxel::TRANSPARENT; 64];
            // Front voxel: half-opaque, value 200.
            v[(4 + 1) * 4 + 1] = RgbaVoxel {
                r: 200,
                g: 0,
                b: 0,
                a: 128,
            };
            // Back voxel (z=2): fully opaque, value 100.
            v[(2 * 4 + 1) * 4 + 1] = RgbaVoxel {
                r: 100,
                g: 0,
                b: 0,
                a: 255,
            };
            ClassifiedVolume::from_raw(dims, v)
        };
        let enc = swr_volume::RleEncoding::encode(&c, Axis::Z, 1);
        let fact = head_on(dims);
        let mut img = IntermediateImage::new(fact.inter_w, fact.inter_h);
        let opts = CompositeOpts::default();
        let mut t = NullTracer;
        let mut row = img.row_view(1);
        for k in 0..4 {
            composite_scanline_slice(&enc, &fact, &mut row, k, &opts, &mut t);
        }
        let p = img.get(1, 1);
        // over: front contributes fully, back attenuated by (1 - 128/255).
        let front_a = 128.0 / 255.0;
        let expect_r = (200.0 + (1.0 - front_a) * 100.0) / 255.0;
        let expect_a = front_a + (1.0 - front_a) * 1.0;
        assert!(
            (p.r - expect_r).abs() < 1e-5,
            "r = {}, want {}",
            p.r,
            expect_r
        );
        assert!((p.a - expect_a).abs() < 1e-5);
    }

    #[test]
    fn early_termination_skips_saturated_pixels() {
        // A fully opaque column: after the first slice the pixel saturates,
        // so later slices must fetch no voxels for it.
        let dims = [4, 4, 8];
        let c = vol_from(dims, |x, y, _| (x == 2 && y == 2) as u8 * 255);
        let enc = swr_volume::RleEncoding::encode(&c, Axis::Z, 1);
        let fact = head_on(dims);
        let opts = CompositeOpts::default();

        let run = |early: bool| {
            let mut img = IntermediateImage::new(fact.inter_w, fact.inter_h);
            let mut t = CountingTracer::default();
            let o = CompositeOpts {
                early_termination: early,
                ..opts
            };
            let mut total = ScanlineSliceStats::default();
            let mut row = img.row_view(2);
            for k in 0..8 {
                total.merge(&composite_scanline_slice(
                    &enc, &fact, &mut row, k, &o, &mut t,
                ));
            }
            (total, img.get(2, 2))
        };
        let (with_et, p1) = run(true);
        let (without_et, p2) = run(false);
        assert_eq!(with_et.composited, 1, "only the first slice composites");
        assert_eq!(without_et.composited, 8);
        // Both produce a saturated pixel; early termination cannot change
        // the (already opaque) result beyond float residue.
        assert!((p1.a - 1.0).abs() < 1e-6);
        assert!(p2.a >= p1.a - 1e-6);
        assert!(with_et.work < without_et.work);
    }

    #[test]
    fn transparent_runs_cost_no_voxel_fetches() {
        // One opaque voxel at the far right of a long scanline: the cursor
        // must hop over the transparent run, not walk it voxel by voxel.
        let dims = [512, 4, 2];
        let c = vol_from(dims, |x, y, z| (x == 500 && y == 1 && z == 0) as u8 * 255);
        let enc = swr_volume::RleEncoding::encode(&c, Axis::Z, 1);
        let fact = head_on(dims);
        let mut img = IntermediateImage::new(fact.inter_w, fact.inter_h);
        let mut t = CountingTracer::default();
        let opts = CompositeOpts::default();
        let mut row = img.row_view(1);
        let stats = composite_scanline_slice(&enc, &fact, &mut row, 0, &opts, &mut t);
        assert_eq!(stats.composited, 1);
        // Voxel fetches bounded by the footprint, not the scanline length.
        assert!(t.reads < 64, "reads = {}", t.reads);
    }

    #[test]
    fn sheared_slice_offsets_are_applied() {
        // Rotate so slices shear; verify energy lands at the projected spot.
        let dims = [16, 16, 16];
        let c = vol_from(dims, |x, y, z| (x == 8 && y == 8 && z == 12) as u8 * 255);
        let enc_all = swr_volume::EncodedVolume::encode_with_threshold(&c, 1);
        let view = ViewSpec::new(dims).rotate_y(0.3).rotate_x(0.2);
        let fact = swr_geom::Factorization::from_view(&view);
        let enc = enc_all.for_axis(fact.principal);
        let mut img = IntermediateImage::new(fact.inter_w, fact.inter_h);
        let opts = CompositeOpts::default();
        let mut t = NullTracer;
        for y in 0..fact.inter_h {
            let mut row = img.row_view(y);
            for m in 0..fact.slice_count() {
                let k = fact.slice_for_step(m);
                composite_scanline_slice(enc, &fact, &mut row, k, &opts, &mut t);
            }
        }
        // Expected intermediate position of the voxel.
        let ps = fact.object_to_std(swr_geom::Vec3::new(8.0, 8.0, 12.0));
        let (u, v) = fact.project_std(ps);
        // Total deposited opacity is 1 (bilinear weights sum to 1), centered
        // around (u, v).
        let mut mass = 0.0;
        let mut cu = 0.0;
        let mut cv = 0.0;
        for y in 0..fact.inter_h {
            for x in 0..fact.inter_w {
                let a = img.get(x as isize, y as isize).a as f64;
                mass += a;
                cu += a * x as f64;
                cv += a * y as f64;
            }
        }
        assert!((mass - 1.0).abs() < 1e-4, "mass = {mass}");
        assert!(
            (cu / mass - u).abs() < 1e-3,
            "centroid u {} vs {}",
            cu / mass,
            u
        );
        assert!((cv / mass - v).abs() < 1e-3);
    }

    #[test]
    fn occupied_bounds_cover_content_only() {
        let dims = [16, 16, 8];
        // Content only in y ∈ [6, 9].
        let c = vol_from(dims, |_, y, _| ((6..=9).contains(&y)) as u8 * 200);
        let enc = swr_volume::RleEncoding::encode(&c, Axis::Z, 1);
        let fact = head_on(dims);
        let (lo, hi) = occupied_y_bounds(&enc, &fact).unwrap();
        assert!((5..=6).contains(&lo), "lo = {lo}");
        assert!((9..=10).contains(&hi), "hi = {hi}");
    }

    #[test]
    fn occupied_bounds_of_empty_volume_is_none() {
        let c = vol_from([8, 8, 8], |_, _, _| 0);
        let enc = swr_volume::RleEncoding::encode(&c, Axis::Z, 1);
        let fact = head_on([8, 8, 8]);
        assert!(occupied_y_bounds(&enc, &fact).is_none());
    }

    #[test]
    fn profile_flag_adds_modeled_overhead() {
        let dims = [32, 32, 8];
        let c = vol_from(dims, |x, y, _| ((x + y) % 2 == 0) as u8 * 120);
        let enc = swr_volume::RleEncoding::encode(&c, Axis::Z, 1);
        let fact = head_on(dims);
        let run = |profile: bool| {
            let mut img = IntermediateImage::new(fact.inter_w, fact.inter_h);
            let opts = CompositeOpts {
                profile,
                ..Default::default()
            };
            let mut t = NullTracer;
            let mut total = ScanlineSliceStats::default();
            for y in 0..fact.inter_h {
                let mut row = img.row_view(y);
                for k in 0..fact.slice_count() {
                    total.merge(&composite_scanline_slice(
                        &enc, &fact, &mut row, k, &opts, &mut t,
                    ));
                }
            }
            total.work
        };
        let base = run(false);
        let prof = run(true);
        let overhead = (prof - base) as f64 / base as f64;
        assert!(overhead > 0.0 && overhead < 0.2, "overhead = {overhead}");
    }

    #[test]
    fn head_on_view_fetches_one_voxel_per_pixel() {
        // Integer-aligned shear: fx = wj = 0, so only one of the four
        // bilinear taps has nonzero weight. The stats must charge one fetch
        // per composited pixel, not four — and must agree exactly with the
        // work the tracer observes (the only Composite-kind charges are
        // COMPOSITE_PIXEL per pixel and VOXEL_FETCH per actual fetch).
        let dims = [16, 16, 4];
        let c = vol_from(dims, |x, y, _| ((x + y) % 3 == 0) as u8 * 150);
        let enc = swr_volume::RleEncoding::encode(&c, Axis::Z, 1);
        let fact = head_on(dims);
        let mut img = IntermediateImage::new(fact.inter_w, fact.inter_h);
        let opts = CompositeOpts {
            early_termination: false,
            ..Default::default()
        };
        let mut t = CountingTracer::default();
        let mut total = ScanlineSliceStats::default();
        for y in 0..fact.inter_h {
            let mut row = img.row_view(y);
            for k in 0..fact.slice_count() {
                total.merge(&composite_scanline_slice(
                    &enc, &fact, &mut row, k, &opts, &mut t,
                ));
            }
        }
        assert!(total.composited > 0);
        assert_eq!(
            total.voxels_fetched, total.composited,
            "head-on view must fetch exactly one voxel per pixel"
        );
        let traced_fetches = (t.composite_cycles
            - total.composited * costs::COMPOSITE_PIXEL as u64)
            / costs::VOXEL_FETCH as u64;
        assert_eq!(total.voxels_fetched, traced_fetches);
    }

    #[test]
    fn fractional_shear_fetches_match_tracer() {
        // Off-axis view: fractional weights, multiple taps per pixel — but
        // never more taps than voxels actually present under the footprint.
        let dims = [16, 16, 16];
        let c = vol_from(dims, |x, y, z| ((x * 7 + y * 3 + z) % 5 < 2) as u8 * 130);
        let enc_all = swr_volume::EncodedVolume::encode_with_threshold(&c, 1);
        let view = ViewSpec::new(dims).rotate_y(0.37).rotate_x(0.21);
        let fact = swr_geom::Factorization::from_view(&view);
        let enc = enc_all.for_axis(fact.principal);
        let mut img = IntermediateImage::new(fact.inter_w, fact.inter_h);
        let opts = CompositeOpts::default();
        let mut t = CountingTracer::default();
        let mut total = ScanlineSliceStats::default();
        for y in 0..fact.inter_h {
            let mut row = img.row_view(y);
            for m in 0..fact.slice_count() {
                let k = fact.slice_for_step(m);
                total.merge(&composite_scanline_slice(
                    enc, &fact, &mut row, k, &opts, &mut t,
                ));
            }
        }
        assert!(total.composited > 0);
        assert!(total.voxels_fetched <= 4 * total.composited);
        let traced_fetches = (t.composite_cycles
            - total.composited * costs::COMPOSITE_PIXEL as u64)
            / costs::VOXEL_FETCH as u64;
        assert_eq!(total.voxels_fetched, traced_fetches);
    }

    #[test]
    fn unit_and_scaled_paths_model_the_same_scene_identically() {
        // Regression for the PIXEL_SKIP charging drift: drive the general
        // (perspective) path with a unit-scale transform — where its float
        // math is exact and must agree with the fast path — and require the
        // *entire* modeled profile to match, early-termination skips
        // included. The volume is dense (no transparent runs) because the
        // scaled path's conservative transparent-run jump legitimately
        // visits extra pixels; with every voxel stored, both paths traverse
        // the same pixels and any work difference is a charging bug.
        let dims = [24, 24, 8];
        let c = vol_from(dims, |x, y, z| 100 + (((x + y + z) % 3) as u8) * 40);
        let enc = swr_volume::RleEncoding::encode(&c, Axis::Z, 1);
        let fact = head_on(dims);
        let opts = CompositeOpts::default(); // early termination on
        for y in 0..fact.inter_h {
            let mut img_u = IntermediateImage::new(fact.inter_w, fact.inter_h);
            let mut img_s = IntermediateImage::new(fact.inter_w, fact.inter_h);
            let mut t_u = CountingTracer::default();
            let mut t_s = CountingTracer::default();
            let mut st_u = ScanlineSliceStats::default();
            let mut st_s = ScanlineSliceStats::default();
            for k in 0..fact.slice_count() {
                let xf = fact.slice_xform(k);
                assert!((xf.scale - 1.0).abs() < 1e-12);
                let mut row = img_u.row_view(y);
                st_u.merge(&composite_scanline_slice(
                    &enc, &fact, &mut row, k, &opts, &mut t_u,
                ));
                let mut row = img_s.row_view(y);
                st_s.merge(&composite_scaled::<_, _, _, true>(
                    &enc,
                    &fact,
                    &mut row,
                    k,
                    xf,
                    &opts,
                    &mut t_s,
                    &mut BlendNow,
                ));
            }
            assert_eq!(st_u.work, st_s.work, "row {y}: modeled work differs");
            assert_eq!(st_u.composited, st_s.composited, "row {y}");
            assert_eq!(st_u.voxels_fetched, st_s.voxels_fetched, "row {y}");
            assert_eq!(t_u.composite_cycles, t_s.composite_cycles, "row {y}");
            assert_eq!(t_u.traverse_cycles, t_s.traverse_cycles, "row {y}");
            for x in 0..fact.inter_w {
                assert_eq!(
                    img_u.get(x as isize, y as isize),
                    img_s.get(x as isize, y as isize),
                    "pixel ({x}, {y})"
                );
            }
        }
    }

    #[test]
    fn bricked_source_is_bit_identical_to_flat() {
        // The same scene stitched out of bricks (brick extent 7 forces seams
        // inside runs and 1-voxel-tail columns on 20-wide scanlines) must
        // produce bit-identical pixels, the same composited count, and the
        // same composite-kind modeled cycles as the flat RunCursor, traced
        // and untraced, parallel and perspective.
        let dims = [20, 20, 12];
        let c = vol_from(dims, |x, y, z| ((x * y + z) % 4 == 1) as u8 * 180);
        let enc_all = swr_volume::EncodedVolume::encode_with_threshold(&c, 1);
        let bricked = swr_volume::BrickedVolume::from_encoded(&enc_all, 7);
        for view in [
            ViewSpec::new(dims).rotate_y(0.45).rotate_x(0.15),
            ViewSpec::new(dims).rotate_y(0.3).with_perspective(80.0),
        ] {
            let fact = swr_geom::Factorization::from_view(&view);
            let flat = enc_all.for_axis(fact.principal);
            let brick_enc = bricked.for_axis(fact.principal);
            let opts = CompositeOpts::default();
            let mut img_f = IntermediateImage::new(fact.inter_w, fact.inter_h);
            let mut img_b = IntermediateImage::new(fact.inter_w, fact.inter_h);
            let mut img_bu = IntermediateImage::new(fact.inter_w, fact.inter_h);
            let mut t_f = CountingTracer::default();
            let mut t_b = CountingTracer::default();
            let mut st_f = ScanlineSliceStats::default();
            let mut st_b = ScanlineSliceStats::default();
            let mut untraced = 0u64;
            for y in 0..fact.inter_h {
                for m in 0..fact.slice_count() {
                    let k = fact.slice_for_step(m);
                    let mut row = img_f.row_view(y);
                    st_f.merge(&composite_scanline_slice(
                        flat, &fact, &mut row, k, &opts, &mut t_f,
                    ));
                    let mut row = img_b.row_view(y);
                    st_b.merge(&composite_scanline_slice_src(
                        AxisSrc::Bricked(brick_enc),
                        &fact,
                        &mut row,
                        k,
                        &opts,
                        &mut t_b,
                    ));
                    let mut row = img_bu.row_view(y);
                    untraced += composite_scanline_slice_untraced_src(
                        AxisSrc::Bricked(brick_enc),
                        &fact,
                        &mut row,
                        k,
                        &opts,
                    );
                }
            }
            assert!(st_f.composited > 0);
            assert_eq!(st_f.composited, st_b.composited);
            assert_eq!(st_f.voxels_fetched, st_b.voxels_fetched);
            assert_eq!(st_b.composited, untraced);
            // Composite-kind modeled work is layout-invariant (traverse-kind
            // differs: the bricked stream has more run bytes).
            assert_eq!(t_f.composite_cycles, t_b.composite_cycles);
            for y in 0..fact.inter_h {
                for x in 0..fact.inter_w {
                    let pf = img_f.get(x as isize, y as isize);
                    assert_eq!(pf, img_b.get(x as isize, y as isize), "pixel ({x}, {y})");
                    assert_eq!(pf, img_bu.get(x as isize, y as isize), "pixel ({x}, {y})");
                }
            }
            // Brick-granular occupancy bounds must contain the flat bounds.
            let fb = occupied_y_bounds(flat, &fact);
            let bb = occupied_y_bounds_src(AxisSrc::Bricked(brick_enc), &fact);
            if let Some((flo, fhi)) = fb {
                let (blo, bhi) = bb.expect("bricked bounds cover flat bounds");
                assert!(blo <= flo && bhi >= fhi);
            }
        }
    }

    /// The batch sink under `STATS = true` books exactly what the scalar
    /// reference books, per `(row, slice)` step and on every vector kernel
    /// the host runs: the §4.2 profile does not depend on which kernel
    /// collected it. The scene mixes odd widths, 1–2 voxel runs (batches
    /// shorter than a lane group), a fully opaque row (early termination
    /// mid-batch) and an all-transparent band; brick extent 7 puts seams
    /// inside runs.
    #[cfg(feature = "simd")]
    #[test]
    fn batch_sink_stats_equal_the_scalar_reference_on_every_kernel() {
        use crate::simd::{BatchSink, SimdKernel};
        fn step<S: FootprintSink>(
            src: AxisSrc<'_>,
            fact: &Factorization,
            row: &mut RowView<'_>,
            k: usize,
            opts: &CompositeOpts,
            sink: &mut S,
        ) -> ScanlineSliceStats {
            let t = &mut NullTracer;
            match &mut BrickRowPin::new(src).0 {
                Pinned::Flat(enc) => {
                    composite_kernel::<_, _, _, true>(*enc, fact, row, k, opts, t, sink)
                }
                Pinned::Bricked(rows) => {
                    composite_kernel::<_, _, _, true>(rows, fact, row, k, opts, t, sink)
                }
            }
        }
        fn sweep(kernel: SimdKernel, src: AxisSrc<'_>, fact: &Factorization) {
            for profile in [false, true] {
                let opts = CompositeOpts {
                    profile,
                    ..Default::default()
                };
                let mut img_s = IntermediateImage::new(fact.inter_w, fact.inter_h);
                let mut img_v = IntermediateImage::new(fact.inter_w, fact.inter_h);
                let mut total = ScanlineSliceStats::default();
                for y in 0..fact.inter_h {
                    for m in 0..fact.slice_count() {
                        let k = fact.slice_for_step(m);
                        let scalar =
                            step(src, fact, &mut img_s.row_view(y), k, &opts, &mut BlendNow);
                        let batched = step(
                            src,
                            fact,
                            &mut img_v.row_view(y),
                            k,
                            &opts,
                            &mut BatchSink::new(kernel),
                        );
                        assert_eq!(batched, scalar, "{}: row {y} slice {k}", kernel.name());
                        total.merge(&scalar);
                    }
                }
                assert!(total.work > 0 && total.voxels_fetched > 0);
            }
        }
        let dims = [17, 19, 13];
        let c = vol_from(dims, |x, y, _| match (y, x % 7) {
            (5, _) => 255,
            (12..=14, _) => 0,
            (_, 0) => 90,
            (_, 3 | 4) => 140,
            _ => 0,
        });
        let enc_all = swr_volume::EncodedVolume::encode_with_threshold(&c, 1);
        let bricked = swr_volume::BrickedVolume::from_encoded(&enc_all, 7);
        let kernels = [SimdKernel::Sse2, SimdKernel::Avx2, SimdKernel::Neon];
        for kernel in kernels.into_iter().filter(|k| k.available()) {
            for view in [
                ViewSpec::new(dims),
                ViewSpec::new(dims).rotate_x(0.31).rotate_y(0.47),
                ViewSpec::new(dims).rotate_y(0.29).with_perspective(51.0),
            ] {
                let fact = swr_geom::Factorization::from_view(&view);
                sweep(
                    kernel,
                    AxisSrc::Flat(enc_all.for_axis(fact.principal)),
                    &fact,
                );
                sweep(
                    kernel,
                    AxisSrc::Bricked(bricked.for_axis(fact.principal)),
                    &fact,
                );
            }
        }
    }

    #[test]
    fn untraced_kernel_is_bit_identical_and_counts_pixels() {
        let dims = [20, 20, 12];
        let c = vol_from(dims, |x, y, z| ((x * y + z) % 4 == 1) as u8 * 180);
        let enc_all = swr_volume::EncodedVolume::encode_with_threshold(&c, 1);
        for view in [
            ViewSpec::new(dims).rotate_y(0.45).rotate_x(0.15),
            ViewSpec::new(dims).rotate_y(0.3).with_perspective(80.0),
        ] {
            let fact = swr_geom::Factorization::from_view(&view);
            let enc = enc_all.for_axis(fact.principal);
            let mut img_t = IntermediateImage::new(fact.inter_w, fact.inter_h);
            let mut img_u = IntermediateImage::new(fact.inter_w, fact.inter_h);
            let opts = CompositeOpts::default();
            let mut traced = 0u64;
            let mut untraced = 0u64;
            for y in 0..fact.inter_h {
                for m in 0..fact.slice_count() {
                    let k = fact.slice_for_step(m);
                    let mut row = img_t.row_view(y);
                    traced += composite_scanline_slice(
                        enc,
                        &fact,
                        &mut row,
                        k,
                        &opts,
                        &mut CountingTracer::default(),
                    )
                    .composited;
                    let mut row = img_u.row_view(y);
                    untraced += composite_scanline_slice_untraced(enc, &fact, &mut row, k, &opts);
                }
            }
            assert!(traced > 0);
            assert_eq!(traced, untraced);
            for y in 0..fact.inter_h {
                for x in 0..fact.inter_w {
                    assert_eq!(
                        img_t.get(x as isize, y as isize),
                        img_u.get(x as isize, y as isize),
                        "pixel ({x}, {y})"
                    );
                }
            }
        }
    }
}
