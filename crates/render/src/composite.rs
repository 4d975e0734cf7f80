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
//!
//! There is one traversal of those two structures per projection, and two
//! things it can do at a pixel it must composite. The scalar reference
//! (`blend_footprint`) resamples and blends that pixel, one cursor query per
//! tap; real tracers, `SWR_FORCE_SCALAR=1` and perspective steps take it.
//! Every other rung of a parallel projection — where the four bilinear
//! weights are constant along the scanline — composites the whole *span*
//! the pixel starts (`composite_span`): the run of following pixels that are
//! non-opaque and have a stored voxel of either scanline under their
//! footprint. The two scanlines' runs under the span are expanded into a
//! small dense tap window on the stack and [`crate::simd`] blends the span
//! in one loop over contiguous pixels. Pixels, skip links and the per-step
//! books come out bit-identical either way.

use crate::costs;
use crate::image::{IPixel, RowView};
use crate::simd::{blend_span, SimdKernel};
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

    /// Expands voxels `[i, i + out.len())` dense into `out` — a zero voxel
    /// where nothing is stored (transparent run, outside the scanline) —
    /// and returns which entries the traversal treats as stored. Reads
    /// ahead on a copy of the cursor: `self` does not move. Every stored
    /// voxel at or after `i` must lie in the current segment or a later
    /// one, as it does after `next_opaque_at_or_after(i.max(0))`.
    #[inline]
    fn expand(&self, i: i64, out: &mut [RgbaVoxel]) -> Taps {
        debug_assert!(out.len() < 64);
        let end = i + out.len() as i64;
        let (mut lo, mut hi, mut opaque) = (self.seg_lo, self.seg_hi, self.opaque);
        let (mut run_pos, mut vox_pos) = (self.run_pos, self.vox_pos);
        let mut taps = Taps::default();
        let mut pos = i;
        loop {
            if hi > pos {
                let from = lo.max(pos);
                if from >= end {
                    break;
                }
                let to = hi.min(end);
                out[(pos - i) as usize..(from - i) as usize].fill(RgbaVoxel::TRANSPARENT);
                let dst = &mut out[(from - i) as usize..(to - i) as usize];
                if !opaque {
                    dst.fill(RgbaVoxel::TRANSPARENT);
                } else if dst.is_empty() {
                    taps.split |= 1 << (from - i);
                } else {
                    let src = vox_pos + (from - lo) as usize;
                    dst.copy_from_slice(&self.voxels[src..src + dst.len()]);
                    taps.stored |= ((1u64 << dst.len()) - 1) << (from - i);
                }
                pos = to;
                if pos == end {
                    return taps;
                }
            }
            if run_pos >= self.runs.len() {
                break;
            }
            if opaque {
                vox_pos += (hi - lo) as usize;
            }
            lo = hi;
            hi = lo + self.runs[run_pos] as i64;
            run_pos += 1;
            opaque = !opaque;
        }
        out[(pos - i) as usize..].fill(RgbaVoxel::TRANSPARENT);
        taps
    }
}

/// Which entries of an expanded tap row the traversal treats as stored, one
/// bit per entry.
#[derive(Clone, Copy, Default)]
struct Taps {
    /// Entries that lie in a stored run: a tap there fetches a voxel.
    stored: u64,
    /// Entries where a transparent run longer than a run byte is split by
    /// the encoder's zero-length stored run. It holds no voxel, but
    /// [`RunCursor::next_opaque_at_or_after`] reports it to every query
    /// before it, so the reference composites the one pixel whose `i0 + 1`
    /// tap lands on it (and fetches nothing there). Spans must too: the
    /// books count that pixel.
    split: u64,
}

impl Taps {
    /// The pixels, by bit, whose footprint the traversal finds covered:
    /// entry `p` stored, or with a positive fractional weight (`wide`) entry
    /// `p + 1` stored or a split.
    #[inline(always)]
    fn covered(a: Taps, b: Taps, wide: bool) -> u64 {
        let stored = a.stored | b.stored;
        if wide {
            stored | (stored | a.split | b.split) >> 1
        } else {
            stored
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
    charge_pixels::<STATS>(stats, 1, fetched, opts);

    if opts.early_termination && pa >= opts.opaque_threshold {
        row.mark_opaque(x, tracer);
    }
}

/// Books `n` composited pixels whose footprints fetched `fetched` voxels
/// between them. The scalar reference and the spans charge through this one
/// expression, so they cannot drift in what a pixel costs: the §4.2 profile
/// is the same whichever kernel collected it.
#[inline(always)]
fn charge_pixels<const STATS: bool>(
    stats: &mut ScanlineSliceStats,
    n: u64,
    fetched: u64,
    opts: &CompositeOpts,
) {
    stats.composited += n;
    if STATS {
        stats.work += n * costs::COMPOSITE_PIXEL as u64 + fetched * costs::VOXEL_FETCH as u64;
        stats.voxels_fetched += fetched;
        if opts.profile {
            stats.work += n * costs::PROFILE_PER_PIXEL as u64;
        }
    }
}

/// Most pixels one span composites; a longer run of compositable pixels
/// continues as further spans.
const SPAN: usize = 30;

/// The two voxel scanlines' taps under one span, dense: entry `t` of a row
/// is voxel `i0 + t`, a zero voxel where the scalar kernel's query would
/// come back empty (transparent run, outside the scanline, absent row). A
/// span of `len` pixels reads entries `0..=len`. It lives on the step's
/// stack, plainly zeroed once a step (`MaybeUninit` measured the same): an
/// absent row is never written, and a present row's entries are rewritten —
/// stored and zero alike — before each span reads them.
struct TapWindow {
    a: [RgbaVoxel; SPAN + 1],
    b: [RgbaVoxel; SPAN + 1],
}

/// Composites the span that starts at pixel `x` of a parallel-projection
/// step — the traversal has established that `x` is non-opaque and has a
/// stored voxel under its footprint `{i0, i0 + 1}` — and returns its length:
/// the maximal run of pixels from `x` that are non-opaque and covered, up to
/// [`SPAN`]. Pixels, skip links and `stats` come out exactly as if the
/// traversal had delivered each pixel to [`blend_footprint`].
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn composite_span<const STATS: bool>(
    kernel: SimdKernel,
    win: &mut TapWindow,
    cur_a: &Option<RunCursor<'_>>,
    cur_b: &Option<RunCursor<'_>>,
    i0: i64,
    wgts: [f32; 4],
    wide: bool,
    cue: Option<f32>,
    row: &mut RowView<'_>,
    x: usize,
    x_max: usize,
    opts: &CompositeOpts,
    stats: &mut ScanlineSliceStats,
) -> usize {
    // As far as early termination goes, the span may take the leading
    // non-opaque pixels (`x` is one), or all of them with it off.
    let most = SPAN.min(x_max - x + 1);
    let open = if opts.early_termination {
        let links = row.skip[x..x + most].iter().zip(x as u32..);
        links.take_while(|&(&link, x)| link == x).count()
    } else {
        most
    };
    // The taps those pixels could read, from copies of the cursors that run
    // ahead of them.
    let expand = |cur: &Option<RunCursor<'_>>, row: &mut [RgbaVoxel]| {
        cur.as_ref().map_or(Taps::default(), |c| c.expand(i0, row))
    };
    let ta = expand(cur_a, &mut win.a[..=open]);
    let tb = expand(cur_b, &mut win.b[..=open]);
    // Coverage is the reference's `footprint_hi` test: tap `i0 + 1` counts
    // when the fractional weight is positive (`wide`), even where a weight
    // *product* underflowed to zero and the tap fetches nothing.
    let len = (Taps::covered(ta, tb, wide).trailing_ones() as usize).min(open);
    debug_assert!(len > 0, "the traversal found pixel {x} covered");
    let len = len.max(1); // whatever this found, the step moves on

    let pix = &mut row.pix[x..x + len];
    let cue = cue.unwrap_or(1.0);
    blend_span(kernel, pix, &win.a[..=len], &win.b[..=len], wgts, cue);

    let mut fetched = 0;
    if STATS {
        // A tap fetches when its weight is positive and it lies in a stored
        // run — counted from the run walk, not from the voxel's bytes (a
        // zero-threshold encoding stores all-zero voxels).
        let first = (1u64 << len) - 1;
        let (sa, sb) = (ta.stored, tb.stored);
        let taps = [sa & first, sa >> 1 & first, sb & first, sb >> 1 & first];
        for (w, t) in wgts.iter().zip(taps) {
            if *w > 0.0 {
                fetched += t.count_ones() as u64;
            }
        }
    }
    charge_pixels::<STATS>(stats, len as u64, fetched, opts);
    if opts.early_termination {
        // The reference charges PIXEL_SKIP once per loop iteration: the
        // traversal has charged the first pixel's, these are the others'.
        if STATS {
            stats.work += (len as u64 - 1) * costs::PIXEL_SKIP as u64;
        }
        for x in x..x + len {
            if row.pix[x].a >= opts.opaque_threshold {
                row.mark_opaque(x, &mut NullTracer);
            }
        }
    }
    len
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
    composite_kernel::<_, T, true>(kernel, enc, fact, row, k, opts, tracer)
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
    kernel: SimdKernel,
    enc: &RleEncoding,
    fact: &Factorization,
    row: &mut RowView<'_>,
    k: usize,
    opts: &CompositeOpts,
) -> u64 {
    composite_kernel::<_, _, false>(kernel, enc, fact, row, k, opts, &mut NullTracer).composited
}

/// [`composite_scanline_slice_untraced_with`] over either storage layout.
pub fn composite_scanline_slice_untraced_with_src<'a>(
    kernel: SimdKernel,
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

/// [`composite_kernel`] on whichever layout `pin` is over.
fn pinned_kernel_for<T: Tracer, const STATS: bool>(
    kernel: SimdKernel,
    pin: &mut BrickRowPin<'_>,
    fact: &Factorization,
    row: &mut RowView<'_>,
    k: usize,
    opts: &CompositeOpts,
    tracer: &mut T,
) -> ScanlineSliceStats {
    match &mut pin.0 {
        Pinned::Flat(enc) => {
            composite_kernel::<_, T, STATS>(kernel, *enc, fact, row, k, opts, tracer)
        }
        Pinned::Bricked(rows) => {
            composite_kernel::<_, T, STATS>(kernel, rows, fact, row, k, opts, tracer)
        }
    }
}

/// The compositing kernel for one `(scanline, slice)` step, monomorphized
/// over the storage layout, the tracer and whether modeled-cost statistics
/// are collected (`STATS = false` compiles the bookkeeping away; only
/// `composited` is counted). There is exactly one traversal; `kernel` only
/// varies what happens at a pixel that must be composited — [`composite_span`]
/// on the span it starts when nothing observes individual taps
/// (`T::TRACING == false`), the reference [`blend_footprint`] on that pixel
/// otherwise, and for [`SimdKernel::Scalar`] or a `kernel` the host cannot
/// run — so the scalar and vector paths cannot drift in how they walk the
/// RLE or the skip links.
fn composite_kernel<E: SliceSrc, T: Tracer, const STATS: bool>(
    kernel: SimdKernel,
    mut enc: E,
    fact: &Factorization,
    row: &mut RowView<'_>,
    k: usize,
    opts: &CompositeOpts,
    tracer: &mut T,
) -> ScanlineSliceStats {
    let spans = (!T::TRACING && kernel.lanes() > 1 && kernel.available()).then_some(kernel);
    let mut stats = ScanlineSliceStats::default();
    let [n_i, n_j, _] = enc.src_std_dims();
    let xf = fact.slice_xform(k);
    if (xf.scale - 1.0).abs() > 1e-12 {
        // Perspective slices scale as well as translate; take the
        // general-resampling path.
        return composite_scaled::<E, T, STATS>(enc, fact, row, k, xf, opts, tracer);
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
    let mut win = TapWindow {
        a: [RgbaVoxel::TRANSPARENT; SPAN + 1],
        b: [RgbaVoxel::TRANSPARENT; SPAN + 1],
    };

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

        let (xu, x_max) = (x as usize, x_max as usize);
        x += match spans {
            Some(kernel) => composite_span::<STATS>(
                kernel,
                &mut win,
                &cur_a,
                &cur_b,
                i0,
                wgts,
                wx1 > 0.0,
                cue,
                row,
                xu,
                x_max,
                opts,
                &mut stats,
            ) as i64,
            None => {
                blend_footprint::<T, STATS>(
                    &mut cur_a, &mut cur_b, i0, wgts, cue, row, xu, opts, &mut stats, tracer,
                );
                1
            }
        };
    }
    stats
}

/// General (perspective) compositing of slice `k` into one scanline: voxel
/// `(i, j)` projects to `(scale·i + off_u, scale·j + off_v)` with
/// `scale ≤ 1`, so the fractional resampling weight varies per pixel and a
/// pixel step may advance more than one voxel. Shares the run cursors, the
/// per-pixel epilogue, and the coherence optimizations with the unit-scale
/// fast path — on every rung: a pixel step skips voxels here, so runs of
/// compositable pixels are short (two to five on the phantoms) and a span's
/// window costs more than it saves (EXPERIMENTS.md, PR 24).
fn composite_scaled<E: SliceSrc, T: Tracer, const STATS: bool>(
    mut enc: E,
    fact: &Factorization,
    row: &mut RowView<'_>,
    k: usize,
    xf: swr_geom::SliceXform,
    opts: &CompositeOpts,
    tracer: &mut T,
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
        blend_footprint::<T, STATS>(
            &mut cur_a, &mut cur_b, i0, wgts, cue, row, x as usize, opts, &mut stats, tracer,
        );
        x += 1;
    }
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
    use proptest::prelude::*;
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
                st_s.merge(&composite_scaled::<_, _, true>(
                    &enc, &fact, &mut row, k, xf, &opts, &mut t_s,
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

    /// Spans under `STATS = true` book exactly what the scalar reference
    /// books, per `(row, slice)` step and on every rung the host runs: the
    /// §4.2 profile does not depend on which kernel collected it. The scene
    /// mixes odd widths, 1–2 voxel runs (spans of one and two pixels), a
    /// fully opaque row (early termination mid-span) and an all-transparent
    /// band; brick extent 7 puts seams inside runs.
    #[test]
    fn span_stats_equal_the_scalar_reference_on_every_kernel() {
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
                let start = IntermediateImage::new(fact.inter_w, fact.inter_h);
                for src in [
                    AxisSrc::Flat(enc_all.for_axis(fact.principal)),
                    AxisSrc::Bricked(bricked.for_axis(fact.principal)),
                ] {
                    for profile in [false, true] {
                        let opts = CompositeOpts {
                            profile,
                            ..Default::default()
                        };
                        let scalar = SimdKernel::Scalar;
                        let (want, _) = run_span_scene(scalar, src, &fact, &opts, &start);
                        let (got, _) = run_span_scene(kernel, src, &fact, &opts, &start);
                        assert!(want.iter().any(|st| st.voxels_fetched > 0));
                        for (step, (g, w)) in got.iter().zip(&want).enumerate() {
                            assert_eq!(g, w, "{}: step {step}", kernel.name());
                        }
                    }
                }
            }
        }
    }

    /// The scenes [`span_kernels_match_the_scalar_reference`] draws: voxel
    /// scanlines built run by run to hit what phantoms rarely do, and an
    /// image whose rows already carry light and opaque stretches.
    struct SpanScene {
        rng: proptest::test_runner::TestRng,
    }

    impl SpanScene {
        fn next(&mut self) -> u64 {
            self.rng.next_u64()
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn unit(&mut self) -> f32 {
            (self.next() >> 40) as f32 / (1u64 << 24) as f32
        }

        /// One voxel scanline: stored runs of 1, 2, a few, and more than a
        /// run byte (the zero-length transparent split) between gaps of 1
        /// (a span must bridge it when the fractional weight is positive),
        /// a few, and more than a run byte (the zero-length stored split
        /// the traversal reports as coverage). `low_alpha` keeps pixels
        /// from saturating, so long runs make spans longer than `SPAN`.
        fn scanline(&mut self, n_i: usize, low_alpha: bool) -> Vec<RgbaVoxel> {
            let mut line = Vec::with_capacity(n_i);
            let mut stored = self.below(2) == 0;
            while line.len() < n_i {
                let len = match (stored, self.below(6)) {
                    (_, 0) => 1,
                    (true, 1) => 2,
                    (_, 2) => 256 + self.below(300),
                    (false, 3) if self.below(4) == 0 => 510,
                    _ => 2 + self.below(40),
                };
                for _ in 0..len.min(n_i - line.len()) {
                    let a = if !stored {
                        0
                    } else if low_alpha {
                        1 + self.below(6) as u8
                    } else {
                        1 + self.below(255) as u8
                    };
                    line.push(RgbaVoxel {
                        r: self.below(a as usize + 1) as u8,
                        g: self.below(a as usize + 1) as u8,
                        b: a / 2,
                        a,
                    });
                }
                stored = !stored;
            }
            line
        }

        /// An image with light already in it, and per row single opaque
        /// pixels and a long opaque stretch, some of the links compressed.
        fn image(&mut self, w: usize, h: usize) -> IntermediateImage {
            let mut img = IntermediateImage::new(w, h);
            for p in img.pix.iter_mut() {
                let a = 0.9 * self.unit();
                *p = IPixel {
                    r: a * self.unit(),
                    g: a * self.unit(),
                    b: a * self.unit(),
                    a,
                };
            }
            for y in 0..h {
                let mut row = img.row_view(y);
                for _ in 0..self.below(4) {
                    row.mark_opaque(self.below(w), &mut NullTracer);
                }
                if self.below(2) == 0 {
                    let lo = self.below(w);
                    let hi = (lo + 1 + self.below(w / 2 + 1)).min(w);
                    for x in lo..hi {
                        row.mark_opaque(x, &mut NullTracer);
                    }
                    if self.below(2) == 0 {
                        row.next_unopaque(lo, &mut NullTracer);
                    }
                }
            }
            img
        }
    }

    /// Every `(scanline, slice)` step of one scene through `kernel`: the
    /// per-step books, and the image left behind (pixels and skip links).
    fn run_span_scene(
        kernel: SimdKernel,
        src: AxisSrc<'_>,
        fact: &Factorization,
        opts: &CompositeOpts,
        start: &IntermediateImage,
    ) -> (Vec<ScanlineSliceStats>, IntermediateImage) {
        let mut img = start.clone();
        let mut books = Vec::new();
        let mut pin = BrickRowPin::new(src);
        for y in 0..img.height() {
            let mut row = img.row_view(y);
            for m in 0..fact.slice_count() {
                let k = fact.slice_for_step(m);
                let t = &mut NullTracer;
                books.push(pinned_kernel_for::<_, true>(
                    kernel, &mut pin, fact, &mut row, k, opts, t,
                ));
            }
        }
        (books, img)
    }

    proptest::proptest! {
        /// Spans are invisible: on every rung the host runs, pixels, skip
        /// links and the per-step books equal the scalar reference's — over
        /// scanline pairs built run by run (see [`SpanScene::scanline`]),
        /// zero-threshold encodings (stored all-zero voxels: a fetch is
        /// counted from the run walk, not the bytes), image rows off either
        /// edge of the volume (absent row A, absent row B), integral,
        /// fractional and vanishing offsets (`i0 = −1` at the first pixel; a
        /// weight product that underflows while the fractional weight is
        /// positive), odd widths narrower and wider than the scanlines, rows
        /// that start with opaque pixels and stretches, depth cueing and
        /// early termination on and off, both projections, flat and pinned
        /// bricked sources.
        #[test]
        fn span_kernels_match_the_scalar_reference(
            seed in 0u32..u32::MAX,
            n_i in 2usize..640,
            width in 1usize..700,
            u_pick in 0usize..7,
            v_pick in 0usize..7,
            flags in 0u32..64,
        ) {
            let [perspective, zero_threshold, no_termination, cued, bricked, low_alpha] =
                [0, 1, 2, 3, 4, 5].map(|b| flags >> b & 1 == 1);
            let rng = proptest::test_runner::TestRng::for_case("span scene", seed);
            let mut scene = SpanScene { rng };
            let dims = [n_i, 3, 3];
            let mut vox = Vec::new();
            for _ in 0..dims[1] * dims[2] {
                if scene.below(8) == 0 {
                    vox.extend(vec![RgbaVoxel::TRANSPARENT; n_i]);
                } else {
                    vox.extend(scene.scanline(n_i, low_alpha));
                }
            }
            let classified = ClassifiedVolume::from_raw(dims, vox);
            let rle = RleEncoding::encode(&classified, Axis::Z, !zero_threshold as u8);
            let bricks = swr_volume::BrickedEncoding::from_flat(&rle, 1 + scene.below(40));
            let src = if bricked { AxisSrc::Bricked(&bricks) } else { AxisSrc::Flat(&rle) };

            // Integral, the smallest and a small positive fractional weight
            // (`−1e-45` is `f32`'s least denormal: halved by a row weight of
            // ½ it underflows to zero), ½, anything, and scanlines that
            // start left of the image.
            let u_off = match u_pick {
                0 => 0.0,
                1 => 2.0,
                2 => -1e-45,
                3 => -1e-30,
                4 => 0.5,
                5 => scene.unit() as f64 * 3.0,
                _ => -(scene.unit() as f64) * n_i as f64 * 0.5,
            };
            let v_off = match v_pick {
                0 => 0.0,
                1 => 1.0,
                2 | 3 => -0.5,
                4 => -1e-30,
                _ => scene.unit() as f64 * 3.0 - 1.0,
            };
            let mut view = ViewSpec::new(dims);
            if perspective {
                view = view.with_perspective(2.0 * n_i as f64 + 8.0);
            }
            let mut fact = Factorization::from_view(&view);
            prop_assert_eq!(fact.principal, Axis::Z);
            match &mut fact.persp {
                // The kernel reads the slice transforms only: put the eye
                // close, so that the slices' scales differ (1, and down to
                // 0.6), and the image origin where this case wants it.
                Some(p) => {
                    (p.k0, p.eye_std.z) = (0.0, -[3.0, 10.0, 80.0][scene.below(3)]);
                    (p.off_u, p.off_v) = (u_off, v_off);
                }
                None => (fact.trans_i, fact.trans_j) = (u_off, v_off),
            }
            let opts = CompositeOpts {
                early_termination: !no_termination,
                profile: seed & 1 == 1,
                depth_cue: cued.then_some(DepthCue { front: 1.0, per_slice: 0.07 }),
                ..Default::default()
            };
            let start = scene.image(width, dims[1] + 3);

            let (books, img) = run_span_scene(SimdKernel::Scalar, src, &fact, &opts, &start);
            let rungs = [SimdKernel::Sse2, SimdKernel::Avx2, SimdKernel::Neon];
            for kernel in rungs.into_iter().filter(|k| k.available()) {
                let (got_books, got) = run_span_scene(kernel, src, &fact, &opts, &start);
                for (step, (g, w)) in got_books.iter().zip(&books).enumerate() {
                    prop_assert_eq!(g, w, "{}: books of step {}", kernel.name(), step);
                }
                for (i, (g, w)) in got.pix.iter().zip(&img.pix).enumerate() {
                    let (x, y) = (i % width, i / width);
                    prop_assert_eq!(g, w, "{}: pixel ({}, {})", kernel.name(), x, y);
                }
                prop_assert_eq!(&got.skip, &img.skip, "{}: skip links", kernel.name());
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
