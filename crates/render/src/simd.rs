//! Vectorized compositing kernels with runtime dispatch.
//!
//! The per-voxel work term of the whole renderer is the 4-tap bilinear
//! resample + RGBA over-blend epilogue of the compositing loop
//! (`blend_footprint` in [`crate::composite`]). This module vectorizes that
//! epilogue *lane-parallel across pixels*: the traversal (run skipping,
//! early-termination hops, cursor queries) stays scalar and identical to the
//! reference kernel, but instead of blending each pixel immediately, the
//! composited pixels of a scanline are gathered into a small batch
//! (`BatchSink`) of per-lane taps and weights, and the batch is flushed
//! through an SSE2/AVX2 (`std::arch::x86_64`) or NEON
//! (`std::arch::aarch64`) kernel that resamples and blends one *pixel per
//! lane*.
//!
//! # Bit-exactness policy
//!
//! The scalar `blend_footprint` is the reference; the vector kernels must
//! produce **bit-identical** intermediate (and hence final) images. This is
//! achievable because the vectorization is across pixels, never a tree
//! reduction within one pixel: every lane performs the exact scalar
//! single-precision operation sequence
//!
//! ```text
//! c  = ((0 + w0·t0) + w1·t1) + w2·t2) + w3·t3     (per channel, tap order)
//! c  = c · (1/255)          a = min(a · (1/255), 1)
//! c  = c · cue              (rgb only; cue = 1 when depth cueing is off)
//! p.c = p.c + (1 − p.a) · c
//! ```
//!
//! with plain mul-then-add (Rust never contracts into FMA), so each lane's
//! IEEE result equals the scalar result. Taps the scalar kernel skips (zero
//! weight, or a query landing in a transparent run) are represented as a
//! zero contribution: all accumulated values are non-negative, and
//! `x + (+0.0) == x` and `x · 1.0 == x` bit-exactly for non-negative `x`,
//! so skipped-tap and absent-depth-cue lanes cannot drift. Batching defers
//! the blend and the opaque-pixel marking of at most [`MAX_LANES`] pixels;
//! within one `(scanline, slice)` step the traversal only moves forward and
//! never re-reads a batched pixel's state, so deferral is invisible too.
//!
//! Every *untraced* caller dispatches here, profiling frames included: the
//! modeled cost of a pixel depends only on which of its taps fetched a
//! voxel, which the gather already knows, so the sink books `work` and
//! `voxels_fetched` exactly as the scalar kernel does. Only a real tracer
//! stays scalar by design: it observes every tap's load as it happens,
//! which a deferred, batched blend cannot mimic.
//!
//! # Dispatch
//!
//! [`dispatched_kernel`] picks the widest kernel the host supports, probed
//! once via `is_x86_feature_detected!` and cached in a `OnceLock`. The
//! default-on `simd` cargo feature compiles the vector kernels; disabling
//! it (or setting `SWR_FORCE_SCALAR=1`, or calling [`set_force_scalar`])
//! pins the scalar reference kernel for A/B comparisons.

#[cfg(feature = "simd")]
use crate::composite::{charge_pixel, CompositeOpts, FootprintSink, RunCursor, ScanlineSliceStats};
#[cfg(feature = "simd")]
use crate::image::{IPixel, RowView};
#[cfg(feature = "simd")]
use crate::tracer::{NullTracer, Tracer};
#[cfg(any(feature = "simd", test))]
use swr_volume::RgbaVoxel;

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Widest batch any kernel consumes (AVX2: 8 pixels per flush group).
pub const MAX_LANES: usize = 8;

/// A compositing kernel implementation, in increasing lane width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdKernel {
    /// The reference scalar epilogue (`blend_footprint`).
    Scalar,
    /// 4 pixels per lane group, `std::arch::x86_64` SSE2.
    Sse2,
    /// 8 pixels per lane group, `std::arch::x86_64` AVX2.
    Avx2,
    /// 4 pixels per lane group, `std::arch::aarch64` NEON.
    Neon,
}

impl SimdKernel {
    /// Stable lowercase name, used in benchmark labels and logs.
    pub fn name(self) -> &'static str {
        match self {
            SimdKernel::Scalar => "scalar",
            SimdKernel::Sse2 => "sse2",
            SimdKernel::Avx2 => "avx2",
            SimdKernel::Neon => "neon",
        }
    }

    /// Pixels blended per vector group (1 = no vector path).
    pub fn lanes(self) -> usize {
        match self {
            SimdKernel::Scalar => 1,
            SimdKernel::Sse2 | SimdKernel::Neon => 4,
            SimdKernel::Avx2 => 8,
        }
    }

    /// Whether this kernel can run on the current host *and* build: the
    /// `simd` feature must be compiled in and the CPU must report the
    /// instruction set. [`SimdKernel::Scalar`] is always available.
    pub fn available(self) -> bool {
        match self {
            SimdKernel::Scalar => true,
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            SimdKernel::Sse2 => std::arch::is_x86_feature_detected!("sse2"),
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            SimdKernel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(all(feature = "simd", target_arch = "aarch64"))]
            SimdKernel::Neon => true,
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }
}

/// Force-scalar override state: 0 = consult `SWR_FORCE_SCALAR` lazily,
/// 1 = vector kernels allowed, 2 = forced scalar.
static FORCE_SCALAR: AtomicU8 = AtomicU8::new(0);

/// Cached result of the one-time CPU feature probe.
static DETECTED: OnceLock<SimdKernel> = OnceLock::new();

/// Programmatic equivalent of `SWR_FORCE_SCALAR=1`: pins
/// [`dispatched_kernel`] to the scalar reference. Because every kernel is
/// bit-identical, toggling this at any time — even mid-frame — can change
/// performance but never pixels.
pub fn set_force_scalar(force: bool) {
    FORCE_SCALAR.store(if force { 2 } else { 1 }, Ordering::Relaxed);
}

/// Whether the scalar override is active, resolving the environment
/// variable on first use. `SWR_FORCE_SCALAR` forces scalar unless unset,
/// empty, or `"0"`.
fn force_scalar() -> bool {
    loop {
        match FORCE_SCALAR.load(Ordering::Relaxed) {
            1 => return false,
            2 => return true,
            _ => {
                let forced =
                    std::env::var("SWR_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0");
                // An explicit set_force_scalar that raced us wins.
                let _ = FORCE_SCALAR.compare_exchange(
                    0,
                    if forced { 2 } else { 1 },
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
            }
        }
    }
}

/// Whether the vector kernels are compiled in at all (`simd` feature).
pub fn simd_compiled() -> bool {
    cfg!(feature = "simd")
}

/// Probes the host once for the widest supported kernel.
fn detect() -> SimdKernel {
    if SimdKernel::Avx2.available() {
        SimdKernel::Avx2
    } else if SimdKernel::Sse2.available() {
        SimdKernel::Sse2
    } else if SimdKernel::Neon.available() {
        SimdKernel::Neon
    } else {
        SimdKernel::Scalar
    }
}

/// The kernel the untraced compositing path dispatches to: the widest
/// available vector kernel, or [`SimdKernel::Scalar`] when the `simd`
/// feature is off or the scalar override ([`set_force_scalar`] /
/// `SWR_FORCE_SCALAR=1`) is active. Feature detection runs once per
/// process.
pub fn dispatched_kernel() -> SimdKernel {
    if !simd_compiled() || force_scalar() {
        return SimdKernel::Scalar;
    }
    *DETECTED.get_or_init(detect)
}

/// Packs a resample tap into one lane word: the voxel's premultiplied RGBA
/// bytes, or all-zero for a tap the scalar kernel would skip (zero weight,
/// transparent run, out of bounds). A zero word contributes `w · 0 = +0.0`
/// per channel, the exact scalar no-op.
#[cfg(any(feature = "simd", test))]
#[inline(always)]
fn pack_tap(v: Option<RgbaVoxel>) -> u32 {
    match v {
        Some(v) => (v.r as u32) | ((v.g as u32) << 8) | ((v.b as u32) << 16) | ((v.a as u32) << 24),
        None => 0,
    }
}

/// Lane-batching sink for the untraced compositing kernel: per composited
/// pixel it gathers the four tap words and weights (cursor queries stay
/// scalar and in reference order) and, under `STATS`, books the pixel's
/// modeled cost from the taps that fetched. Every [`MAX_LANES`] pixels — or
/// at scanline end — it flushes the resample/blend arithmetic through the
/// selected vector kernel, with a scalar epilogue for the remainder lanes.
#[cfg(feature = "simd")]
pub(crate) struct BatchSink {
    kernel: SimdKernel,
    n: usize,
    /// Pixel x coordinate per lane.
    x: [u32; MAX_LANES],
    /// Bilinear weight per tap per lane.
    w: [[f32; MAX_LANES]; 4],
    /// Packed RGBA tap word per tap per lane (0 = skipped tap).
    tap: [[u32; MAX_LANES]; 4],
    /// Depth-cue factor for the current step (1.0 when cueing is off).
    cue: f32,
}

#[cfg(feature = "simd")]
impl BatchSink {
    /// A sink flushing through `kernel`. The caller must have checked
    /// [`SimdKernel::available`]; the flush match relies on it.
    pub(crate) fn new(kernel: SimdKernel) -> Self {
        debug_assert!(kernel.available());
        BatchSink {
            kernel,
            n: 0,
            x: [0; MAX_LANES],
            w: [[0.0; MAX_LANES]; 4],
            tap: [[0; MAX_LANES]; 4],
            cue: 1.0,
        }
    }

    /// Blends lanes `[from, n)` with the exact scalar reference sequence
    /// (tail lanes below the vector width, and the whole batch when no
    /// vector kernel applies).
    fn flush_scalar_lanes(&self, from: usize, row: &mut RowView<'_>, opts: &CompositeOpts) {
        let inv255 = 1.0 / 255.0;
        for l in from..self.n {
            let mut r = 0f32;
            let mut g = 0f32;
            let mut b = 0f32;
            let mut a = 0f32;
            for t in 0..4 {
                let w = self.w[t][l];
                let v = self.tap[t][l];
                r += w * (v & 0xFF) as f32;
                g += w * ((v >> 8) & 0xFF) as f32;
                b += w * ((v >> 16) & 0xFF) as f32;
                a += w * (v >> 24) as f32;
            }
            let (mut r, mut g, mut b, a) =
                (r * inv255, g * inv255, b * inv255, (a * inv255).min(1.0));
            r *= self.cue;
            g *= self.cue;
            b *= self.cue;
            let x = self.x[l] as usize;
            let p = &mut row.pix[x];
            let t = 1.0 - p.a;
            p.r += t * r;
            p.g += t * g;
            p.b += t * b;
            p.a += t * a;
            let pa = p.a;
            if opts.early_termination && pa >= opts.opaque_threshold {
                row.mark_opaque(x, &mut NullTracer);
            }
        }
    }

    /// Applies a vector group's deferred `mark_opaque` calls: `mask` has bit
    /// `l` set when lane `from + l` crossed the opacity threshold. Bits are
    /// consumed lowest-first, i.e. in pixel order.
    #[allow(dead_code)]
    fn mark_mask(&self, from: usize, mut mask: u32, row: &mut RowView<'_>) {
        while mask != 0 {
            let l = mask.trailing_zeros() as usize;
            row.mark_opaque(self.x[from + l] as usize, &mut NullTracer);
            mask &= mask - 1;
        }
    }

    /// Fills lanes `[self.n, upto)` with inert padding — zero weights and
    /// taps, scratch-pixel destination — so a partial group can run at full
    /// vector width. A padded lane accumulates `+0.0` per channel and
    /// blends it into a scratch pixel, which is bit-invisible; its mark bit
    /// is masked off by the caller.
    #[allow(dead_code)]
    fn pad_lanes(&mut self, upto: usize) {
        for l in self.n..upto {
            self.x[l] = PAD_LANE;
            for t in 0..4 {
                self.w[t][l] = 0.0;
                self.tap[t][l] = 0;
            }
        }
    }
}

/// Lane-x sentinel: this lane is padding and resolves to the flush-local
/// scratch pixel instead of a `row` pixel.
#[cfg(feature = "simd")]
const PAD_LANE: u32 = u32::MAX;

#[cfg(feature = "simd")]
impl FootprintSink for BatchSink {
    #[inline]
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
        debug_assert!(!T::TRACING, "only the untraced path batches");
        debug_assert!(self.n < MAX_LANES);
        // `% MAX_LANES` is a no-op under the flush invariant (n < MAX_LANES
        // on entry — a full batch flushed below) but lets the compiler drop
        // the bounds checks on every lane-array store in this hot path.
        let l = self.n % MAX_LANES;
        self.cue = cue.unwrap_or(1.0);
        self.x[l] = x as u32;
        // Gather the footprint with the reference kernel's exact query
        // pattern: zero-weight taps are never queried, and a query landing
        // in a transparent run stores a zero tap word.
        let mut w = [0f32; 4];
        let mut tp = [0u32; 4];
        let mut fetched = 0u64;
        let mut tap = |v: Option<RgbaVoxel>| {
            fetched += v.is_some() as u64;
            pack_tap(v)
        };
        if let Some(c) = cur_a.as_mut() {
            if wgts[0] > 0.0 {
                w[0] = wgts[0];
                tp[0] = tap(c.query(i0, tracer));
            }
            if wgts[1] > 0.0 {
                w[1] = wgts[1];
                tp[1] = tap(c.query(i0 + 1, tracer));
            }
        }
        if let Some(c) = cur_b.as_mut() {
            if wgts[2] > 0.0 {
                w[2] = wgts[2];
                tp[2] = tap(c.query(i0, tracer));
            }
            if wgts[3] > 0.0 {
                w[3] = wgts[3];
                tp[3] = tap(c.query(i0 + 1, tracer));
            }
        }
        for t in 0..4 {
            self.w[t][l] = w[t];
            self.tap[t][l] = tp[t];
        }
        charge_pixel::<STATS>(stats, fetched, opts);
        self.n = l + 1;
        if self.n == MAX_LANES {
            self.flush(row, opts);
        }
    }

    fn flush(&mut self, row: &mut RowView<'_>, opts: &CompositeOpts) {
        let n = self.n;
        if n == 0 {
            return;
        }
        // Descend the width ladder: full-width groups first (AVX2, 8 lanes),
        // then 4-lane groups over the remainder (AVX2 implies SSE2), with
        // partial groups padded to full width by inert scratch lanes —
        // scanline-slice batches average well under MAX_LANES pixels, so
        // without padding most flushes would fall back to scalar lanes and
        // pay the batching overhead for nothing.
        //
        // The group kernels compare blended alpha against `thr` in-register
        // and return the lanes that saturated as a bitmask; an unreachable
        // threshold turns early-termination marking off without a branch in
        // the kernel, and padded lanes are masked off before marking.
        let thr = if opts.early_termination {
            opts.opaque_threshold
        } else {
            f32::INFINITY
        };
        #[allow(unused_mut)]
        let mut done = 0;
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if matches!(self.kernel, SimdKernel::Avx2 | SimdKernel::Sse2) {
            let mut scratch = IPixel::default();
            let scr: *mut IPixel = &mut scratch;
            while n > done {
                if self.kernel == SimdKernel::Avx2 && n - done > 4 {
                    // 5..=8 live lanes: one padded 8-wide group beats a full
                    // 4-wide group plus a padded one — batches average ~6
                    // pixels, so this is the common flush shape.
                    let real = n - done;
                    debug_assert_eq!(done, 0);
                    self.pad_lanes(8);
                    // SAFETY: `BatchSink::new` requires `available()`, which
                    // verified the CPU reports AVX2; lane x values index
                    // inside the row or are `PAD_LANE`; `scr` is a valid
                    // scratch pixel.
                    let m = unsafe {
                        x86::blend_group_avx2(self, done, row.pix.as_mut_ptr(), scr, thr)
                    };
                    self.mark_mask(done, m & ((1u32 << real) - 1), row);
                    done += real;
                } else {
                    let real = (n - done).min(4);
                    self.pad_lanes(done + 4);
                    // SAFETY: SSE2 was runtime-detected (AVX2 implies it);
                    // lane x values index inside the row or are `PAD_LANE`.
                    let m = unsafe {
                        x86::blend_group_sse2(self, done, row.pix.as_mut_ptr(), scr, thr)
                    };
                    self.mark_mask(done, m & ((1u32 << real) - 1), row);
                    done += real;
                }
            }
        }
        #[cfg(all(feature = "simd", target_arch = "aarch64"))]
        if self.kernel == SimdKernel::Neon {
            let mut scratch = IPixel::default();
            let scr: *mut IPixel = &mut scratch;
            while n > done {
                let real = (n - done).min(4);
                self.pad_lanes(done + 4);
                // SAFETY: NEON is mandatory on aarch64; lane x values index
                // inside the row or are `PAD_LANE`.
                let m =
                    unsafe { neon::blend_group_neon(self, done, row.pix.as_mut_ptr(), scr, thr) };
                self.mark_mask(done, m & ((1u32 << real) - 1), row);
                done += real;
            }
        }
        let _ = thr;
        self.flush_scalar_lanes(done, row, opts);
        self.n = 0;
    }
}

/// SSE2 / AVX2 flush groups. Both read the batch's SoA lane arrays, unpack
/// the tap bytes to `f32` in-register, accumulate the four taps in
/// reference order (mul then add — never FMA, never a horizontal
/// reduction), and blend into the gathered destination pixels.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod x86 {
    use super::{BatchSink, IPixel, MAX_LANES, PAD_LANE};
    use std::arch::x86_64::*;

    /// Resolves lane `l`'s destination: a row pixel, or the flush's scratch
    /// pixel for [`PAD_LANE`] padding.
    ///
    /// # Safety
    /// Non-padding lane x values must index inside the `pix` row.
    #[inline]
    unsafe fn lane_ptr(
        batch: &BatchSink,
        l: usize,
        pix: *mut IPixel,
        scr: *mut IPixel,
    ) -> *mut f32 {
        let x = batch.x[l];
        if x == PAD_LANE {
            scr as *mut f32
        } else {
            // SAFETY: the caller guarantees `x` is an in-row index.
            unsafe { pix.add(x as usize) as *mut f32 }
        }
    }

    /// 4×4 in-register transpose (pure data movement, bit-preserving).
    /// Turns four AoS pixels into (r, g, b, a) SoA vectors; the network is
    /// involutive, so the same function converts SoA back to AoS.
    ///
    /// # Safety
    /// SSE baseline only (always present on x86_64).
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn transpose4(
        a: __m128,
        b: __m128,
        c: __m128,
        d: __m128,
    ) -> (__m128, __m128, __m128, __m128) {
        let l01 = _mm_unpacklo_ps(a, b);
        let h01 = _mm_unpackhi_ps(a, b);
        let l23 = _mm_unpacklo_ps(c, d);
        let h23 = _mm_unpackhi_ps(c, d);
        (
            _mm_movelh_ps(l01, l23),
            _mm_movehl_ps(l23, l01),
            _mm_movelh_ps(h01, h23),
            _mm_movehl_ps(h23, h01),
        )
    }

    /// Loads four destination pixels (each a 16-byte `#[repr(C)]` `IPixel`)
    /// and transposes them to SoA.
    ///
    /// # Safety
    /// Non-padding lane x values in `batch.x[o..o+4]` must index inside the
    /// `pix` row (guaranteed by the compositing traversal); `scr` must be a
    /// valid scratch pixel.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn gather4(
        batch: &BatchSink,
        o: usize,
        pix: *mut IPixel,
        scr: *mut IPixel,
    ) -> (__m128, __m128, __m128, __m128) {
        // SAFETY: `IPixel` is `#[repr(C)]` with four `f32` fields, so every
        // resolved lane pointer is 16 readable bytes.
        let p = |i: usize| unsafe { _mm_loadu_ps(lane_ptr(batch, o + i, pix, scr)) };
        // SAFETY: SSE2 is enabled in this context.
        unsafe { transpose4(p(0), p(1), p(2), p(3)) }
    }

    /// Transposes SoA results back to AoS and stores the four pixels.
    ///
    /// # Safety
    /// As [`gather4`] (resolved lane pointers are 16 writable bytes).
    #[inline]
    #[target_feature(enable = "sse2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn scatter4(
        batch: &BatchSink,
        o: usize,
        pix: *mut IPixel,
        scr: *mut IPixel,
        r: __m128,
        g: __m128,
        b: __m128,
        a: __m128,
    ) {
        // SAFETY: SSE2 is enabled in this context.
        let (p0, p1, p2, p3) = unsafe { transpose4(r, g, b, a) };
        // SAFETY: as in `gather4`, each resolved lane pointer is 16 writable
        // bytes.
        unsafe {
            _mm_storeu_ps(lane_ptr(batch, o, pix, scr), p0);
            _mm_storeu_ps(lane_ptr(batch, o + 1, pix, scr), p1);
            _mm_storeu_ps(lane_ptr(batch, o + 2, pix, scr), p2);
            _mm_storeu_ps(lane_ptr(batch, o + 3, pix, scr), p3);
        }
    }

    /// Blends batch lanes `[o, o + 8)` into the row, one pixel per lane, and
    /// returns the bitmask of lanes whose blended alpha reached `thr`.
    ///
    /// # Safety
    /// The CPU must support AVX2, non-padding lane x values must index
    /// inside the `pix` row (guaranteed by the compositing traversal), and
    /// `scr` must be a valid scratch pixel.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn blend_group_avx2(
        batch: &BatchSink,
        o: usize,
        pix: *mut IPixel,
        scr: *mut IPixel,
        thr: f32,
    ) -> u32 {
        debug_assert!(o + 8 <= MAX_LANES);
        let mask = _mm256_set1_epi32(0xFF);
        let inv255 = _mm256_set1_ps(1.0 / 255.0);
        let one = _mm256_set1_ps(1.0);
        let cue = _mm256_set1_ps(batch.cue);

        // SAFETY: lane pointers are valid; SSE2 ⊂ AVX2.
        let (prl, pgl, pbl, pal) = unsafe { gather4(batch, o, pix, scr) };
        let (prh, pgh, pbh, pah) = unsafe { gather4(batch, o + 4, pix, scr) };
        let prv = _mm256_set_m128(prh, prl);
        let pgv = _mm256_set_m128(pgh, pgl);
        let pbv = _mm256_set_m128(pbh, pbl);
        let pav = _mm256_set_m128(pah, pal);

        let mut r = _mm256_set1_ps(0.0);
        let mut g = _mm256_set1_ps(0.0);
        let mut b = _mm256_set1_ps(0.0);
        let mut a = _mm256_set1_ps(0.0);
        for t in 0..4 {
            // SAFETY: `o + 8 <= MAX_LANES` keeps both unaligned loads inside
            // the lane arrays.
            let (tv, wv) = unsafe {
                (
                    _mm256_loadu_si256(batch.tap[t].as_ptr().add(o) as *const __m256i),
                    _mm256_loadu_ps(batch.w[t].as_ptr().add(o)),
                )
            };
            let cr = _mm256_cvtepi32_ps(_mm256_and_si256(tv, mask));
            let cg = _mm256_cvtepi32_ps(_mm256_and_si256(_mm256_srli_epi32::<8>(tv), mask));
            let cb = _mm256_cvtepi32_ps(_mm256_and_si256(_mm256_srli_epi32::<16>(tv), mask));
            let ca = _mm256_cvtepi32_ps(_mm256_srli_epi32::<24>(tv));
            r = _mm256_add_ps(r, _mm256_mul_ps(wv, cr));
            g = _mm256_add_ps(g, _mm256_mul_ps(wv, cg));
            b = _mm256_add_ps(b, _mm256_mul_ps(wv, cb));
            a = _mm256_add_ps(a, _mm256_mul_ps(wv, ca));
        }
        let r = _mm256_mul_ps(_mm256_mul_ps(r, inv255), cue);
        let g = _mm256_mul_ps(_mm256_mul_ps(g, inv255), cue);
        let b = _mm256_mul_ps(_mm256_mul_ps(b, inv255), cue);
        let a = _mm256_min_ps(_mm256_mul_ps(a, inv255), one);

        let t = _mm256_sub_ps(one, pav);
        let nr = _mm256_add_ps(prv, _mm256_mul_ps(t, r));
        let ng = _mm256_add_ps(pgv, _mm256_mul_ps(t, g));
        let nb = _mm256_add_ps(pbv, _mm256_mul_ps(t, b));
        let na = _mm256_add_ps(pav, _mm256_mul_ps(t, a));
        let opaque =
            _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GE_OQ>(na, _mm256_set1_ps(thr))) as u32;

        // SAFETY: lane pointers are valid; SSE2 ⊂ AVX2.
        unsafe {
            scatter4(
                batch,
                o,
                pix,
                scr,
                _mm256_castps256_ps128(nr),
                _mm256_castps256_ps128(ng),
                _mm256_castps256_ps128(nb),
                _mm256_castps256_ps128(na),
            );
            scatter4(
                batch,
                o + 4,
                pix,
                scr,
                _mm256_extractf128_ps::<1>(nr),
                _mm256_extractf128_ps::<1>(ng),
                _mm256_extractf128_ps::<1>(nb),
                _mm256_extractf128_ps::<1>(na),
            );
        }
        opaque
    }

    /// Blends batch lanes `[o, o + 4)` into the row, one pixel per lane, and
    /// returns the bitmask of lanes whose blended alpha reached `thr`.
    /// Lanes may be [`PAD_LANE`] padding (resolved to `scr`).
    ///
    /// # Safety
    /// The CPU must support SSE2, non-padding lane x values must index
    /// inside the `pix` row, and `scr` must be a valid scratch pixel.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn blend_group_sse2(
        batch: &BatchSink,
        o: usize,
        pix: *mut IPixel,
        scr: *mut IPixel,
        thr: f32,
    ) -> u32 {
        debug_assert!(o + 4 <= MAX_LANES);
        let mask = _mm_set1_epi32(0xFF);
        let inv255 = _mm_set1_ps(1.0 / 255.0);
        let one = _mm_set1_ps(1.0);
        let cue = _mm_set1_ps(batch.cue);

        // SAFETY: lane pointers are valid.
        let (prv, pgv, pbv, pav) = unsafe { gather4(batch, o, pix, scr) };

        let mut r = _mm_set1_ps(0.0);
        let mut g = _mm_set1_ps(0.0);
        let mut b = _mm_set1_ps(0.0);
        let mut a = _mm_set1_ps(0.0);
        for t in 0..4 {
            // SAFETY: `o + 4 <= MAX_LANES` keeps both unaligned loads inside
            // the lane arrays.
            let (tv, wv) = unsafe {
                (
                    _mm_loadu_si128(batch.tap[t].as_ptr().add(o) as *const __m128i),
                    _mm_loadu_ps(batch.w[t].as_ptr().add(o)),
                )
            };
            let cr = _mm_cvtepi32_ps(_mm_and_si128(tv, mask));
            let cg = _mm_cvtepi32_ps(_mm_and_si128(_mm_srli_epi32::<8>(tv), mask));
            let cb = _mm_cvtepi32_ps(_mm_and_si128(_mm_srli_epi32::<16>(tv), mask));
            let ca = _mm_cvtepi32_ps(_mm_srli_epi32::<24>(tv));
            r = _mm_add_ps(r, _mm_mul_ps(wv, cr));
            g = _mm_add_ps(g, _mm_mul_ps(wv, cg));
            b = _mm_add_ps(b, _mm_mul_ps(wv, cb));
            a = _mm_add_ps(a, _mm_mul_ps(wv, ca));
        }
        let r = _mm_mul_ps(_mm_mul_ps(r, inv255), cue);
        let g = _mm_mul_ps(_mm_mul_ps(g, inv255), cue);
        let b = _mm_mul_ps(_mm_mul_ps(b, inv255), cue);
        let a = _mm_min_ps(_mm_mul_ps(a, inv255), one);

        let t = _mm_sub_ps(one, pav);
        let nr = _mm_add_ps(prv, _mm_mul_ps(t, r));
        let ng = _mm_add_ps(pgv, _mm_mul_ps(t, g));
        let nb = _mm_add_ps(pbv, _mm_mul_ps(t, b));
        let na = _mm_add_ps(pav, _mm_mul_ps(t, a));
        let opaque = _mm_movemask_ps(_mm_cmpge_ps(na, _mm_set1_ps(thr))) as u32;

        // SAFETY: lane pointers are valid.
        unsafe { scatter4(batch, o, pix, scr, nr, ng, nb, na) };
        opaque
    }
}

/// NEON flush group: the 4-lane mirror of the SSE2 kernel.
#[cfg(all(feature = "simd", target_arch = "aarch64"))]
mod neon {
    use super::{BatchSink, IPixel, MAX_LANES, PAD_LANE};
    use std::arch::aarch64::*;

    /// Resolves lane `l`'s destination: a row pixel, or the flush's scratch
    /// pixel for [`PAD_LANE`] padding.
    ///
    /// # Safety
    /// Non-padding lane x values must index inside the `pix` row.
    #[inline]
    unsafe fn lane_ptr(
        batch: &BatchSink,
        l: usize,
        pix: *mut IPixel,
        scr: *mut IPixel,
    ) -> *mut f32 {
        let x = batch.x[l];
        if x == PAD_LANE {
            scr as *mut f32
        } else {
            // SAFETY: the caller guarantees `x` is an in-row index.
            unsafe { pix.add(x as usize) as *mut f32 }
        }
    }

    /// 4×4 in-register transpose (pure data movement, bit-preserving);
    /// involutive, so it maps AoS pixels to SoA channels and back.
    ///
    /// # Safety
    /// NEON only (mandatory on aarch64).
    #[inline]
    #[target_feature(enable = "neon")]
    unsafe fn transpose4(
        a: float32x4_t,
        b: float32x4_t,
        c: float32x4_t,
        d: float32x4_t,
    ) -> (float32x4_t, float32x4_t, float32x4_t, float32x4_t) {
        let tab = vtrnq_f32(a, b);
        let tcd = vtrnq_f32(c, d);
        (
            vcombine_f32(vget_low_f32(tab.0), vget_low_f32(tcd.0)),
            vcombine_f32(vget_low_f32(tab.1), vget_low_f32(tcd.1)),
            vcombine_f32(vget_high_f32(tab.0), vget_high_f32(tcd.0)),
            vcombine_f32(vget_high_f32(tab.1), vget_high_f32(tcd.1)),
        )
    }

    /// Blends batch lanes `[o, o + 4)` into the row, one pixel per lane, and
    /// returns the bitmask of lanes whose blended alpha reached `thr`.
    /// Lanes may be [`PAD_LANE`] padding (resolved to `scr`).
    ///
    /// # Safety
    /// Non-padding lane x values must index inside the `pix` row, and `scr`
    /// must be a valid scratch pixel (NEON itself is mandatory on aarch64).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn blend_group_neon(
        batch: &BatchSink,
        o: usize,
        pix: *mut IPixel,
        scr: *mut IPixel,
        thr: f32,
    ) -> u32 {
        debug_assert!(o + 4 <= MAX_LANES);
        let mask = vdupq_n_u32(0xFF);
        let inv255 = vdupq_n_f32(1.0 / 255.0);
        let one = vdupq_n_f32(1.0);
        let cue = vdupq_n_f32(batch.cue);

        // SAFETY: `IPixel` is `#[repr(C)]` with four `f32` fields, so every
        // resolved lane pointer is 16 readable bytes.
        let p = |i: usize| unsafe { vld1q_f32(lane_ptr(batch, o + i, pix, scr)) };
        // SAFETY: NEON is enabled in this context.
        let (prv, pgv, pbv, pav) = unsafe { transpose4(p(0), p(1), p(2), p(3)) };

        let mut r = vdupq_n_f32(0.0);
        let mut g = vdupq_n_f32(0.0);
        let mut b = vdupq_n_f32(0.0);
        let mut a = vdupq_n_f32(0.0);
        for t in 0..4 {
            // SAFETY: `o + 4 <= MAX_LANES` keeps both loads inside the lane
            // arrays.
            let (tv, wv) = unsafe {
                (
                    vld1q_u32(batch.tap[t].as_ptr().add(o)),
                    vld1q_f32(batch.w[t].as_ptr().add(o)),
                )
            };
            let cr = vcvtq_f32_u32(vandq_u32(tv, mask));
            let cg = vcvtq_f32_u32(vandq_u32(vshrq_n_u32::<8>(tv), mask));
            let cb = vcvtq_f32_u32(vandq_u32(vshrq_n_u32::<16>(tv), mask));
            let ca = vcvtq_f32_u32(vshrq_n_u32::<24>(tv));
            r = vaddq_f32(r, vmulq_f32(wv, cr));
            g = vaddq_f32(g, vmulq_f32(wv, cg));
            b = vaddq_f32(b, vmulq_f32(wv, cb));
            a = vaddq_f32(a, vmulq_f32(wv, ca));
        }
        let r = vmulq_f32(vmulq_f32(r, inv255), cue);
        let g = vmulq_f32(vmulq_f32(g, inv255), cue);
        let b = vmulq_f32(vmulq_f32(b, inv255), cue);
        let a = vminq_f32(vmulq_f32(a, inv255), one);

        let t = vsubq_f32(one, pav);
        let nr = vaddq_f32(prv, vmulq_f32(t, r));
        let ng = vaddq_f32(pgv, vmulq_f32(t, g));
        let nb = vaddq_f32(pbv, vmulq_f32(t, b));
        let na = vaddq_f32(pav, vmulq_f32(t, a));
        let ge = vcgeq_f32(na, vdupq_n_f32(thr));
        let opaque = (vgetq_lane_u32::<0>(ge) & 1)
            | ((vgetq_lane_u32::<1>(ge) & 1) << 1)
            | ((vgetq_lane_u32::<2>(ge) & 1) << 2)
            | ((vgetq_lane_u32::<3>(ge) & 1) << 3);

        // SAFETY: NEON is enabled in this context.
        let (q0, q1, q2, q3) = unsafe { transpose4(nr, ng, nb, na) };
        // SAFETY: as for the gather, each resolved lane pointer is 16
        // writable bytes.
        unsafe {
            vst1q_f32(lane_ptr(batch, o, pix, scr), q0);
            vst1q_f32(lane_ptr(batch, o + 1, pix, scr), q1);
            vst1q_f32(lane_ptr(batch, o + 2, pix, scr), q2);
            vst1q_f32(lane_ptr(batch, o + 3, pix, scr), q3);
        }
        opaque
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_tap_encodes_rgba_little_endian_style() {
        assert_eq!(pack_tap(None), 0);
        let v = RgbaVoxel {
            r: 1,
            g: 2,
            b: 3,
            a: 255,
        };
        let w = pack_tap(Some(v));
        assert_eq!(w & 0xFF, 1);
        assert_eq!((w >> 8) & 0xFF, 2);
        assert_eq!((w >> 16) & 0xFF, 3);
        assert_eq!(w >> 24, 255);
    }

    #[test]
    fn kernel_names_and_lanes_are_stable() {
        assert_eq!(SimdKernel::Scalar.name(), "scalar");
        assert_eq!(SimdKernel::Sse2.name(), "sse2");
        assert_eq!(SimdKernel::Avx2.name(), "avx2");
        assert_eq!(SimdKernel::Neon.name(), "neon");
        assert_eq!(SimdKernel::Scalar.lanes(), 1);
        assert_eq!(SimdKernel::Avx2.lanes(), 8);
        assert!(SimdKernel::Scalar.available());
    }

    #[test]
    fn dispatch_respects_the_scalar_override() {
        set_force_scalar(true);
        assert_eq!(dispatched_kernel(), SimdKernel::Scalar);
        set_force_scalar(false);
        let k = dispatched_kernel();
        assert!(k.available());
        if simd_compiled() {
            #[cfg(target_arch = "x86_64")]
            assert_ne!(k, SimdKernel::Neon);
            #[cfg(target_arch = "aarch64")]
            assert_eq!(k, SimdKernel::Neon);
        } else {
            assert_eq!(k, SimdKernel::Scalar);
        }
    }

    #[test]
    fn unavailable_kernels_report_unavailable() {
        #[cfg(target_arch = "x86_64")]
        assert!(!SimdKernel::Neon.available());
        #[cfg(target_arch = "aarch64")]
        {
            assert!(!SimdKernel::Sse2.available());
            assert!(!SimdKernel::Avx2.available());
        }
    }
}
