//! The warp phase: mapping the intermediate image to the final image.
//!
//! There is one pixel loop, `warp_span`: it walks a `u` interval of one
//! final scanline, inverse-maps each pixel into the intermediate image, keeps
//! the pixels whose source row falls in the caller's intermediate row band,
//! bilinearly samples and stores. The three entry points only choose which
//! spans to walk and which band to accept:
//!
//! * [`warp_row_band`] — per final scanline, the `u` interval that can map
//!   into one band of intermediate rows: the *new* parallel algorithm's
//!   warp, where each processor warps exactly the scanlines it composited.
//!   Bands are half-open and disjoint, so no final pixel is written twice
//!   and no synchronization is needed; bilinear reads may touch the first
//!   row of the next band — the only remaining communication, exactly as
//!   the paper describes.
//! * [`warp_full`] — the row band `[0, inter_h)`: the serial warp.
//! * [`warp_tile`] — the rows and columns of one square tile, band
//!   `[0, inter_h)`: the task of the *old* parallel algorithm's warp (final
//!   image partitioned into round-robin tiles).
//!
//! Ownership is decided by the same `f64` row coordinate whichever entry
//! point reaches a pixel, so a full warp and any complete set of tiles or
//! bands produce bit-identical final images.
//!
//! # Two samplers, one result
//!
//! The scalar `warp_pixel` is the reference. Untraced callers on x86_64
//! instead sample through `sse2::sample`, which holds one pixel per XMM
//! register (lanes are the RGBA channels) and performs the scalar operation
//! sequence per lane:
//!
//! ```text
//! fl      = t − (t > xy),  t = f64(trunc(xy))        = floor(xy), |xy| < 2^31 − 1
//! f       = f32(xy − fl);   g = 1 − f
//! w       = [gx·gy, fx·gy, gx·fy, fx·fy]
//! acc     = ((w00·p00 + w10·p10) + w01·p01) + w11·p11     mul then add, no FMA
//! c       = min(max(acc, 0), 1) · 255;  k = trunc(c);  out = k + (c − k ≥ 0.5)
//! ```
//!
//! `t − (t > x)` is `floor(x)` wherever truncation is exact, and
//! `k + (frac ≥ 0.5)` is `round()` on `[0, 255]`; the scalar path uses the
//! same identities (`floor`, `quantize`) because `floor` and `round` are
//! libm calls on baseline x86-64. The scalar loop skips a tap whose weight
//! is zero; the sampler adds its `w·p = ±0.0`, and a sum that differs only
//! in the sign of a zero quantises to the same byte. That argument needs
//! `p` finite, and intermediate pixels are finite by construction: bounded
//! sums of `u8` voxels times weights ≤ 1. Both paths also store `[0; 4]`
//! without sampling when the whole footprint lies outside the image, and the
//! sampler does so when all four taps are zero bits. `crate::simd` carries
//! the same bit-exactness policy for compositing.
//!
//! The scalar path is taken by every real [`Tracer`] (it reports each tap's
//! load), whenever [`dispatched_kernel`] is `Scalar` (`SWR_FORCE_SCALAR=1`,
//! [`crate::set_force_scalar`], or the `simd` feature off), on non-x86_64
//! targets, and — inside a sampled span — for pixels on the image's 1-pixel
//! border ring or with coordinates beyond `i32`.

use crate::costs;
use crate::image::{FinalImage, IPixel, IntermediateImage, Rgba8, SharedFinal, SharedIntermediate};
use crate::simd::{dispatched_kernel, SimdKernel};
use crate::tracer::{Tracer, WorkKind};
use std::ops::Range;
use swr_geom::Factorization;

/// Read access to a composited intermediate image.
///
/// Implemented by `&IntermediateImage` (serial / post-barrier warps) and by
/// [`SharedIntermediate`] (the new algorithm's barrier-free warp, which reads
/// rows whose completion flags are set while other rows may still be under
/// composition by other threads).
///
/// # Safety
/// The warp loads pixels straight through [`raw_parts`](Self::raw_parts):
/// for every `x < width()` and `y < height()`, `base.add(y * pitch + x)`
/// must be a readable `IPixel` for as long as the source is borrowed.
pub unsafe trait InterSource {
    /// Image width.
    fn width(&self) -> usize;
    /// Image height.
    fn height(&self) -> usize;
    /// Pixel read; out-of-bounds coordinates return a cleared pixel.
    fn get(&self, x: isize, y: isize) -> IPixel;
    /// Pointer to pixel `(0, 0)` and the row pitch in pixels (a
    /// [`SharedIntermediate::window`]'s pitch exceeds its width).
    fn raw_parts(&self) -> (*const IPixel, usize);
    /// Address of an in-bounds pixel, for memory tracing.
    #[inline]
    fn pixel_addr(&self, x: usize, y: usize) -> usize {
        let (base, pitch) = self.raw_parts();
        // Address arithmetic only; nothing is dereferenced.
        base.wrapping_add(y * pitch + x) as usize
    }
}

// SAFETY: `pix` holds `w * h` pixels, row-major with pitch `w`.
unsafe impl InterSource for IntermediateImage {
    fn width(&self) -> usize {
        IntermediateImage::width(self)
    }
    fn height(&self) -> usize {
        IntermediateImage::height(self)
    }
    #[inline]
    fn get(&self, x: isize, y: isize) -> IPixel {
        IntermediateImage::get(self, x, y)
    }
    #[inline]
    fn raw_parts(&self) -> (*const IPixel, usize) {
        (self.pix.as_ptr(), IntermediateImage::width(self))
    }
}

// SAFETY: a handle's (and a window's) logical `w × h` area lies inside the
// backing image it was built from, at that image's pitch.
unsafe impl InterSource for SharedIntermediate<'_> {
    fn width(&self) -> usize {
        SharedIntermediate::width(self)
    }
    fn height(&self) -> usize {
        SharedIntermediate::height(self)
    }
    #[inline]
    fn get(&self, x: isize, y: isize) -> IPixel {
        // SAFETY: the warp protocol only samples rows whose compositing is
        // complete (completion flags / dependencies), so the row is
        // quiescent.
        unsafe { self.get_pixel(x, y) }
    }
    #[inline]
    fn raw_parts(&self) -> (*const IPixel, usize) {
        SharedIntermediate::raw_parts(self)
    }
}

/// A rectangle of final-image pixels `[u0, u1) × [v0, v1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    pub u0: usize,
    pub v0: usize,
    pub u1: usize,
    pub v1: usize,
}

impl Tile {
    /// Number of pixels in the tile.
    pub fn area(&self) -> usize {
        (self.u1 - self.u0) * (self.v1 - self.v0)
    }
}

/// `x.floor()` as a value (the sign of a zero result is not preserved),
/// without the libm call `floor` is on baseline x86-64.
#[inline]
fn floor(x: f64) -> f64 {
    // From 2^52 up every f64 is an integer, as are ±inf; NaN fails the
    // comparison and passes through.
    if x.abs() < 4_503_599_627_370_496.0 {
        let t = x as i64 as f64;
        if t > x {
            t - 1.0
        } else {
            t
        }
    } else {
        x
    }
}

/// `(c.clamp(0.0, 1.0) * 255.0).round() as u8` without the libm call
/// `round` is on baseline x86-64: on `[0, 255]` truncation is exact, and so
/// is the fraction it leaves behind. NaN gives 0 either way.
#[inline]
fn quantize(c: f32) -> u8 {
    let c = c.clamp(0.0, 1.0) * 255.0;
    let k = c as u8;
    k + u8::from(c - f32::from(k) >= 0.5)
}

/// The inverse warp along one final scanline: `Affine2::apply` /
/// `Homography2::apply` as `Factorization::map_final_to_inter` evaluates
/// them, with the products by `v` hoisted out of the pixel loop. Each row is
/// `[coefficient of u, (coefficient of v)·v, constant]`.
#[derive(Clone, Copy)]
enum RowMap {
    Affine {
        x: [f64; 3],
        y: [f64; 3],
    },
    Projective {
        x: [f64; 3],
        y: [f64; 3],
        w: [f64; 3],
    },
}

impl RowMap {
    fn new(fact: &Factorization, v: f64) -> Self {
        match &fact.persp {
            None => {
                let m = &fact.warp_inv;
                RowMap::Affine {
                    x: [m.a, m.b * v, m.c],
                    y: [m.d, m.e * v, m.f],
                }
            }
            Some(p) => {
                let [x, y, w] = p.warp_inv.m.map(|r| [r[0], r[1] * v, r[2]]);
                RowMap::Projective { x, y, w }
            }
        }
    }

    /// Intermediate-image coordinates of final pixel `(u, v)`.
    #[inline(always)]
    fn at(&self, u: f64) -> (f64, f64) {
        let row = |r: &[f64; 3]| r[0] * u + r[1] + r[2];
        match self {
            RowMap::Affine { x, y } => (row(x), row(y)),
            RowMap::Projective { x, y, w } => {
                let w = row(w);
                (row(x) / w, row(y) / w)
            }
        }
    }
}

/// Bilinear sample of the intermediate image at `(x, y)`: the scalar
/// reference, and the only sampler that reports its loads to a tracer.
#[inline]
fn warp_pixel<S: InterSource, T: Tracer>(inter: &S, x: f64, y: f64, tracer: &mut T) -> Rgba8 {
    let x0 = floor(x);
    let y0 = floor(y);
    if x0 < -1.0 || y0 < -1.0 || x0 >= inter.width() as f64 || y0 >= inter.height() as f64 {
        // Every tap reads `IPixel::CLEAR`.
        tracer.work(WorkKind::Warp, costs::WARP_PIXEL);
        return [0; 4];
    }
    let fx = (x - x0) as f32;
    let fy = (y - y0) as f32;
    let xi = x0 as isize;
    let yi = y0 as isize;

    let mut r = 0f32;
    let mut g = 0f32;
    let mut b = 0f32;
    let mut a = 0f32;
    for dy in 0..2isize {
        for dx in 0..2isize {
            let w = (if dx == 0 { 1.0 - fx } else { fx }) * (if dy == 0 { 1.0 - fy } else { fy });
            if w == 0.0 {
                continue;
            }
            let (px, py) = (xi + dx, yi + dy);
            let p = inter.get(px, py);
            if T::TRACING
                && px >= 0
                && py >= 0
                && (px as usize) < inter.width()
                && (py as usize) < inter.height()
            {
                tracer.read(inter.pixel_addr(px as usize, py as usize), 16);
            }
            r += w * p.r;
            g += w * p.g;
            b += w * p.b;
            a += w * p.a;
        }
    }
    tracer.work(WorkKind::Warp, costs::WARP_PIXEL);
    [quantize(r), quantize(g), quantize(b), quantize(a)]
}

/// The SSE2 sampler (baseline on x86_64, so no CPU probe): one pixel per XMM
/// register, lanes are channels. See the module doc for the operation order
/// and why it reproduces `warp_pixel` bit for bit.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod sse2 {
    use super::{IPixel, Rgba8};
    use std::arch::x86_64::*;

    /// `floor` of both lanes, as `f64` lanes and as `i32` lanes 0 and 1.
    /// Exact for `|xy| < 2^31 − 1`, where the truncating conversion is.
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn floor_pd(xy: __m128d) -> (__m128d, __m128i) {
        let ti = _mm_cvttpd_epi32(xy);
        let t = _mm_cvtepi32_pd(ti);
        // All-ones where truncation rounded up (negative non-integers).
        let up = _mm_cmpgt_pd(t, xy);
        let fl = _mm_sub_pd(t, _mm_and_pd(up, _mm_set1_pd(1.0)));
        // The low word of each mask lane is −1 exactly where `fl = t − 1`.
        let up32 = _mm_shuffle_epi32::<0b10_00>(_mm_castpd_si128(up));
        (fl, _mm_add_epi32(ti, up32))
    }

    /// `quantize` of the four lanes.
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn quantize_ps(acc: __m128) -> Rgba8 {
        let unit = _mm_min_ps(_mm_max_ps(acc, _mm_setzero_ps()), _mm_set1_ps(1.0));
        let c = _mm_mul_ps(unit, _mm_set1_ps(255.0));
        let k = _mm_cvttps_epi32(c);
        let frac = _mm_sub_ps(c, _mm_cvtepi32_ps(k));
        // The comparison mask is −1 as an integer: subtracting it adds one.
        let up = _mm_castps_si128(_mm_cmpge_ps(frac, _mm_set1_ps(0.5)));
        let q = _mm_sub_epi32(k, up);
        let words = _mm_packs_epi32(q, q);
        _mm_cvtsi128_si32(_mm_packus_epi16(words, words)).to_ne_bytes()
    }

    /// Samples a `w × h` image at `(x, y)`. `None` leaves the pixel to the
    /// scalar path: a coordinate beyond `i32` (or NaN), or a footprint on
    /// the image's 1-pixel border ring, where some taps are out of bounds.
    ///
    /// # Safety
    /// `base` and `pitch` must be the
    /// [`raw_parts`](super::InterSource::raw_parts) of a `w × h` source,
    /// and no thread may be writing rows `floor(y)` and `floor(y) + 1`.
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn sample(
        base: *const IPixel,
        pitch: usize,
        (w, h): (i64, i64),
        x: f64,
        y: f64,
    ) -> Option<Rgba8> {
        let xy = _mm_set_pd(y, x);
        let mag = _mm_andnot_pd(_mm_set1_pd(-0.0), xy);
        if _mm_movemask_pd(_mm_cmplt_pd(mag, _mm_set1_pd(2_147_483_647.0))) != 0b11 {
            return None;
        }
        let (fl, xiyi) = floor_pd(xy);
        let xi = i64::from(_mm_cvtsi128_si32(xiyi));
        let yi = i64::from(_mm_cvtsi128_si32(_mm_shuffle_epi32::<1>(xiyi)));
        if xi < -1 || yi < -1 || xi >= w || yi >= h {
            // Every tap reads `IPixel::CLEAR`.
            return Some([0; 4]);
        }
        if xi < 0 || yi < 0 || xi + 1 >= w || yi + 1 >= h {
            return None;
        }
        // SAFETY: `0 <= xi < xi + 1 < w` and `0 <= yi < yi + 1 < h`, so the
        // four taps are pixels of the source (caller contract), 16 bytes
        // each, which no thread is writing.
        let (p00, p10, p01, p11) = unsafe {
            let p = base.add(yi as usize * pitch + xi as usize);
            let tap = |q: *const IPixel| _mm_loadu_ps(q as *const f32);
            (
                tap(p),
                tap(p.add(1)),
                tap(p.add(pitch)),
                tap(p.add(pitch + 1)),
            )
        };
        let any = _mm_castps_si128(_mm_or_ps(_mm_or_ps(p00, p10), _mm_or_ps(p01, p11)));
        if _mm_movemask_epi8(_mm_cmpeq_epi32(any, _mm_setzero_si128())) == 0xFFFF {
            // Four taps of +0.0 blend to +0.0 under any weights.
            return Some([0; 4]);
        }
        // [fx, fy, 0, 0] and [gx, gy, 1, 1].
        let f = _mm_cvtpd_ps(_mm_sub_pd(xy, fl));
        let g = _mm_sub_ps(_mm_set1_ps(1.0), f);
        let gf = _mm_unpacklo_ps(g, f); // [gx, fx, gy, fy]
        let wx = _mm_movelh_ps(gf, gf); // [gx, fx, gx, fx]
        let wy = _mm_shuffle_ps::<0b11_11_10_10>(gf, gf); // [gy, gy, fy, fy]
        let wt = _mm_mul_ps(wx, wy);
        let t00 = _mm_mul_ps(_mm_shuffle_ps::<0b00_00_00_00>(wt, wt), p00);
        let t10 = _mm_mul_ps(_mm_shuffle_ps::<0b01_01_01_01>(wt, wt), p10);
        let t01 = _mm_mul_ps(_mm_shuffle_ps::<0b10_10_10_10>(wt, wt), p01);
        let t11 = _mm_mul_ps(_mm_shuffle_ps::<0b11_11_11_11>(wt, wt), p11);
        let acc = _mm_add_ps(_mm_add_ps(_mm_add_ps(t00, t10), t01), t11);
        Some(quantize_ps(acc))
    }
}

/// What one `warp_*` call holds fixed across its spans.
struct WarpJob<'a, S> {
    inter: &'a S,
    fact: &'a Factorization,
    out: &'a SharedFinal<'a>,
    /// The owned intermediate row band `[lo, hi)`.
    band: (f64, f64),
    /// Whether owned pixels go through the SSE2 sampler.
    vector: bool,
}

impl<'a, S: InterSource> WarpJob<'a, S> {
    /// Reads the scalar override once for the whole call.
    fn new<T: Tracer>(
        inter: &'a S,
        fact: &'a Factorization,
        out: &'a SharedFinal<'a>,
        band: (usize, usize),
    ) -> Self {
        let sse2 = cfg!(all(feature = "simd", target_arch = "x86_64"));
        WarpJob {
            inter,
            fact,
            out,
            band: (band.0 as f64, band.1 as f64),
            vector: sse2 && !T::TRACING && dispatched_kernel() != SimdKernel::Scalar,
        }
    }
}

/// Warps pixels `us` of final scanline `v`: the one pixel loop of the warp.
/// Returns the number of pixels owned by the job's band, all of them written.
///
/// Panics, before any store, if the span leaves the final image.
fn warp_span<S: InterSource, T: Tracer>(
    job: &WarpJob<'_, S>,
    v: usize,
    us: Range<usize>,
    tracer: &mut T,
) -> u64 {
    let (inter, out) = (job.inter, job.out);
    assert!(
        us.end <= out.width() && v < out.height(),
        "warp span {us:?} of row {v} leaves the {}x{} final image",
        out.width(),
        out.height()
    );
    // SAFETY: `v < out.height()` per the assert.
    let row = unsafe { out.row_ptr(v) };
    let map = RowMap::new(job.fact, v as f64);
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    let ((base, pitch), dims) = (
        inter.raw_parts(),
        (inter.width() as i64, inter.height() as i64),
    );
    let mut written = 0;
    for u in us {
        let (x, y) = map.at(u as f64);
        if !(y >= job.band.0 && y < job.band.1) {
            continue;
        }
        let p = match job.vector {
            // SAFETY: `base`/`pitch` are `inter`'s raw parts and `dims` its
            // size; the rows the band's pixels read are quiescent, as
            // `InterSource::get` already relies on.
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            true => unsafe { sse2::sample(base, pitch, dims, x, y) }
                .unwrap_or_else(|| warp_pixel(inter, x, y, tracer)),
            _ => warp_pixel(inter, x, y, tracer),
        };
        // SAFETY: `u < us.end <= out.width()` per the assert; callers hand
        // concurrent workers disjoint tiles, or disjoint bands whose
        // ownership test assigns each final pixel to exactly one.
        let slot = unsafe {
            let slot = row.add(u);
            slot.write(p);
            slot
        };
        tracer.write(slot as usize, 4);
        written += 1;
    }
    written
}

/// Serial warp of the whole intermediate image into `out`.
///
/// `out` must have the factorization's final dimensions and be cleared.
pub fn warp_full<S: InterSource, T: Tracer>(
    inter: &S,
    fact: &Factorization,
    out: &mut FinalImage,
    tracer: &mut T,
) -> u64 {
    assert_eq!((out.width(), out.height()), (fact.final_w, fact.final_h));
    let band = (0, inter.height());
    warp_row_band(inter, fact, &SharedFinal::new(out), band, tracer)
}

/// Warp of one final-image tile (the old algorithm's warp task).
///
/// Panics if the tile does not lie inside `out`.
///
/// # Safety contract
/// Callers pass non-overlapping tiles to concurrent workers; `SharedFinal`
/// writes are then disjoint.
pub fn warp_tile<S: InterSource, T: Tracer>(
    inter: &S,
    fact: &Factorization,
    out: &SharedFinal<'_>,
    tile: Tile,
    tracer: &mut T,
) -> u64 {
    let job = WarpJob::new::<T>(inter, fact, out, (0, inter.height()));
    let mut written = 0;
    for v in tile.v0..tile.v1 {
        tracer.work(WorkKind::Warp, costs::WARP_ROW_SETUP);
        written += warp_span(&job, v, tile.u0..tile.u1, tracer);
    }
    written
}

/// The band-extension rule of the partition-preserving warp: the band that
/// starts at the composited region's first row also owns the final pixels
/// just under it, which bilinearly read row `region_start - 1` (a clear
/// guard row), so it is extended one row down. Every other band, and an
/// empty one, is returned as it came — as the `(lo, hi)` pair
/// [`warp_row_band`] takes.
pub fn extend_band(band: Range<usize>, region_start: usize) -> (usize, usize) {
    if !band.is_empty() && band.start == region_start {
        (band.start.saturating_sub(1), band.end)
    } else {
        (band.start, band.end)
    }
}

/// Warp of the final pixels owned by the intermediate row band
/// `[band.0, band.1)` (the new algorithm's warp task).
///
/// Uses the affine structure to visit only the `u` interval of each final
/// scanline that can map into the band, then applies the exact per-pixel
/// ownership test.
pub fn warp_row_band<S: InterSource, T: Tracer>(
    inter: &S,
    fact: &Factorization,
    out: &SharedFinal<'_>,
    band: (usize, usize),
    tracer: &mut T,
) -> u64 {
    if band.0 >= band.1 {
        return 0;
    }
    let job = WarpJob::new::<T>(inter, fact, out, band);
    let (lo, hi) = job.band;
    let w = out.width() as i64;
    let mut written = 0;
    for v in 0..out.height() {
        tracer.work(WorkKind::Warp, costs::WARP_ROW_SETUP);
        let Some((ul, uh)) = fact.band_u_interval(v as f64, lo, hi) else {
            continue;
        };
        // Slack absorbs the open/closed ends; the per-pixel test is exact.
        // The casts saturate, so an unbounded end clamps to the image edge.
        let u0 = (ul.floor() as i64).saturating_sub(1).max(0) as usize;
        let u1 = (uh.ceil() as i64).saturating_add(1).clamp(0, w) as usize;
        written += warp_span(&job, v, u0..u1, tracer);
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{CountingTracer, NullTracer};
    use swr_geom::ViewSpec;

    fn setup(rot: f64) -> (IntermediateImage, Factorization) {
        let view = ViewSpec::new([16, 16, 16])
            .rotate_y(rot)
            .rotate_z(rot * 0.5);
        let fact = Factorization::from_view(&view);
        let mut inter = IntermediateImage::new(fact.inter_w, fact.inter_h);
        // Paint a deterministic pattern.
        for y in 0..fact.inter_h {
            let row = inter.row_view(y);
            for x in 0..fact.inter_w {
                row.pix[x] = IPixel {
                    r: (x as f32 * 0.01).fract(),
                    g: (y as f32 * 0.013).fract(),
                    b: 0.25,
                    a: ((x + y) as f32 * 0.007).fract(),
                };
            }
        }
        (inter, fact)
    }

    #[test]
    fn full_warp_writes_content() {
        let (inter, fact) = setup(0.4);
        let mut out = FinalImage::new(fact.final_w, fact.final_h);
        let mut t = NullTracer;
        let written = warp_full(&inter, &fact, &mut out, &mut t);
        assert!(written > 0);
        assert!(out.mean_luma() > 0.0);
    }

    #[test]
    fn tiles_reproduce_full_warp() {
        let (inter, fact) = setup(0.7);
        let mut full = FinalImage::new(fact.final_w, fact.final_h);
        let mut t = NullTracer;
        warp_full(&inter, &fact, &mut full, &mut t);

        let mut tiled = FinalImage::new(fact.final_w, fact.final_h);
        {
            let shared = SharedFinal::new(&mut tiled);
            let ts = 7; // deliberately not dividing evenly
            for v0 in (0..fact.final_h).step_by(ts) {
                for u0 in (0..fact.final_w).step_by(ts) {
                    let tile = Tile {
                        u0,
                        v0,
                        u1: (u0 + ts).min(fact.final_w),
                        v1: (v0 + ts).min(fact.final_h),
                    };
                    warp_tile(&inter, &fact, &shared, tile, &mut t);
                }
            }
        }
        assert_eq!(full, tiled, "tiled warp must be bit-identical");
    }

    #[test]
    fn row_bands_reproduce_full_warp() {
        for rot in [0.0, 0.3, 1.1, 2.5] {
            let (inter, fact) = setup(rot);
            let mut full = FinalImage::new(fact.final_w, fact.final_h);
            let mut t = NullTracer;
            let w_full = warp_full(&inter, &fact, &mut full, &mut t);

            let mut banded = FinalImage::new(fact.final_w, fact.final_h);
            let mut w_bands = 0;
            {
                let shared = SharedFinal::new(&mut banded);
                // Uneven bands covering [0, inter_h).
                let cuts = [0, 3, fact.inter_h / 3, fact.inter_h / 2 + 1, fact.inter_h];
                for wnd in cuts.windows(2) {
                    if wnd[0] < wnd[1] {
                        w_bands += warp_row_band(&inter, &fact, &shared, (wnd[0], wnd[1]), &mut t);
                    }
                }
            }
            assert_eq!(w_full, w_bands, "rot {rot}: pixel counts differ");
            assert_eq!(full, banded, "rot {rot}: banded warp must be bit-identical");
        }
    }

    #[test]
    fn empty_band_writes_nothing() {
        let (inter, fact) = setup(0.5);
        let mut out = FinalImage::new(fact.final_w, fact.final_h);
        let shared = SharedFinal::new(&mut out);
        let mut t = NullTracer;
        assert_eq!(warp_row_band(&inter, &fact, &shared, (5, 5), &mut t), 0);
    }

    #[test]
    fn bands_partition_written_pixels() {
        let (inter, fact) = setup(0.9);
        // Write each band into its own image; assert no pixel is written by
        // two bands (non-zero in both).
        let h = fact.inter_h;
        let mid = h / 2;
        let mut imgs = Vec::new();
        let mut t = NullTracer;
        for band in [(0, mid), (mid, h)] {
            let mut img = FinalImage::new(fact.final_w, fact.final_h);
            {
                let shared = SharedFinal::new(&mut img);
                warp_row_band(&inter, &fact, &shared, band, &mut t);
            }
            imgs.push(img);
        }
        let mut overlap = 0;
        for v in 0..fact.final_h {
            for u in 0..fact.final_w {
                let w0 = imgs[0].get(u, v) != [0, 0, 0, 0];
                let w1 = imgs[1].get(u, v) != [0, 0, 0, 0];
                if w0 && w1 {
                    overlap += 1;
                }
            }
        }
        assert_eq!(overlap, 0, "bands must not both write a pixel");
    }

    /// `x` and the two floats next to it.
    fn neighbours_f64(x: f64) -> [f64; 3] {
        if x == 0.0 {
            return [-f64::from_bits(1), x, f64::from_bits(1)];
        }
        [-1i64, 0, 1].map(|d| f64::from_bits(x.to_bits().wrapping_add_signed(d)))
    }

    fn neighbours_f32(x: f32) -> [f32; 3] {
        if x == 0.0 {
            return [-f32::from_bits(1), x, f32::from_bits(1)];
        }
        [-1i32, 0, 1].map(|d| f32::from_bits(x.to_bits().wrapping_add_signed(d)))
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Both floors against `f64::floor`, as values: a zero's sign is not
    /// part of the contract (the warp only subtracts the floor and casts it).
    fn check_floor(x: f64) {
        let want = x.floor();
        let got = floor(x);
        assert!(
            got == want || (got.is_nan() && want.is_nan()),
            "floor({x:e}) = {got:e}, want {want:e}"
        );
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if x.abs() < 2_147_483_647.0 {
            use std::arch::x86_64::*;
            // SAFETY: SSE2 is baseline on x86_64.
            let (fl, xi) = unsafe {
                let (fl, xiyi) = sse2::floor_pd(_mm_set_pd(-x, x));
                let fl = (_mm_cvtsd_f64(fl), _mm_cvtsd_f64(_mm_unpackhi_pd(fl, fl)));
                let xi = (
                    _mm_cvtsi128_si32(xiyi),
                    _mm_cvtsi128_si32(_mm_shuffle_epi32::<1>(xiyi)),
                );
                (fl, xi)
            };
            assert_eq!(fl, (want, (-x).floor()), "floor_pd({x:e})");
            assert_eq!(xi, (want as i32, (-x).floor() as i32), "floor_pd({x:e})");
        }
    }

    #[test]
    fn floors_match_libm_floor() {
        // Every integer and half-integer of a range wider than any image,
        // with the floats either side: the only places truncate-and-compare
        // could part from `floor`.
        for half_steps in -16_384..=16_384i32 {
            for x in neighbours_f64(f64::from(half_steps) * 0.5) {
                check_floor(x);
            }
        }
        // The edges of the truncating conversions and of the sampler's
        // guard, the point where f64 runs out of fraction bits, and the
        // values that are not numbers at all.
        let edges = [
            2_147_483_646.0,
            2_147_483_647.0,
            2_147_483_648.0,
            2_147_483_649.0,
            4_294_967_296.0,
            4_503_599_627_370_495.5,
            4_503_599_627_370_496.0,
            9_007_199_254_740_992.0,
            9_223_372_036_854_775_808.0,
            1e19,
            1e300,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            0.0,
            f64::INFINITY,
        ];
        for e in edges {
            for x in neighbours_f64(e).into_iter().chain(neighbours_f64(e - 0.5)) {
                check_floor(x);
                check_floor(-x);
            }
        }
        check_floor(f64::NAN);
        let mut state = 15;
        for _ in 0..1_000_000 {
            check_floor(f64::from_bits(splitmix64(&mut state)));
        }
    }

    /// Both quantisers against the expression they replace.
    fn check_quantize(cs: [f32; 4]) {
        let want = cs.map(|c| (c.clamp(0.0, 1.0) * 255.0).round() as u8);
        assert_eq!(cs.map(quantize), want, "quantize({cs:?})");
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        {
            // SAFETY: SSE2 is baseline on x86_64; the load reads `cs`.
            let got = unsafe { sse2::quantize_ps(std::arch::x86_64::_mm_loadu_ps(cs.as_ptr())) };
            assert_eq!(got, want, "quantize_ps({cs:?})");
        }
    }

    #[test]
    fn quantisers_match_libm_round() {
        // The pre-images of every integer and half-integer of [0, 255],
        // with the floats either side.
        for half_steps in 0..=510u16 {
            let [a, b, c] = neighbours_f32(f32::from(half_steps) * 0.5 / 255.0);
            check_quantize([a, b, c, b]);
        }
        let edges = [
            0.0,
            f32::from_bits(1),
            f32::MIN_POSITIVE,
            0.5,
            1.0,
            1.5,
            255.0,
            2_147_483_648.0,
            4_294_967_296.0,
            f32::MAX,
            f32::INFINITY,
        ];
        for e in edges {
            let [a, b, c] = neighbours_f32(e);
            check_quantize([a, b, c, f32::NAN]);
            check_quantize([-a, -b, -c, -f32::NAN]);
        }
        let mut state = 14;
        for _ in 0..250_000 {
            let (p, q) = (splitmix64(&mut state), splitmix64(&mut state));
            check_quantize(
                [p as u32, (p >> 32) as u32, q as u32, (q >> 32) as u32].map(f32::from_bits),
            );
        }
    }

    #[test]
    fn row_map_is_the_factorization_map() {
        let base = ViewSpec::new([16, 16, 12]).rotate_x(0.3).rotate_y(0.8);
        for view in [base.clone().with_zoom(2.0), base.with_perspective(40.0)] {
            let fact = Factorization::from_view(&view);
            for v in 0..fact.final_h {
                let map = RowMap::new(&fact, v as f64);
                for u in 0..fact.final_w {
                    let (x, y) = map.at(u as f64);
                    let (wx, wy) = fact.map_final_to_inter(u as f64, v as f64);
                    assert_eq!((x.to_bits(), y.to_bits()), (wx.to_bits(), wy.to_bits()));
                }
            }
        }
    }

    /// A safe caller cannot make `warp_tile` store outside the final image:
    /// the span is checked before its first store, in release builds too.
    #[test]
    #[should_panic(expected = "leaves the 6x5 final image")]
    fn oversized_tile_panics_before_storing_out_of_bounds() {
        let (inter, fact) = setup(0.4);
        // A 6x5 window of a sentinel-filled image: a stray store would land
        // on a sentinel.
        let mut backing = FinalImage::new(9, 8);
        for v in 0..8 {
            for u in 0..9 {
                backing.set(u, v, [7; 4]);
            }
        }
        let mut panics = Vec::new();
        {
            let shared = SharedFinal::new(&mut backing);
            let out = shared.window(6, 5);
            // SAFETY: single thread.
            unsafe { out.fill_black() };
            for (u1, v1) in [(8, 5), (6, 7)] {
                let tile = Tile {
                    u0: 0,
                    v0: 0,
                    u1,
                    v1,
                };
                panics.push(std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                    || warp_tile(&inter, &fact, &out, tile, &mut NullTracer),
                )));
            }
        }
        for v in 0..8 {
            for u in 0..9 {
                let outside = u >= 6 || v >= 5;
                assert!(
                    !outside || backing.get(u, v) == [7; 4],
                    "stray store at ({u},{v})"
                );
            }
        }
        for p in panics {
            if let Err(payload) = p {
                std::panic::resume_unwind(payload);
            }
        }
    }

    /// An intermediate pixel that is finite but hostile to a careless
    /// rewrite: transparent (the common case, and the zero-taps shortcut),
    /// in range, negative, above 1, −0.0 or subnormal, per channel.
    fn hostile_pixel(state: &mut u64) -> IPixel {
        let s = splitmix64(state);
        if s & 3 == 0 {
            return IPixel::CLEAR;
        }
        let ch = |k: u32| {
            let unit = ((s >> (8 + 12 * k)) % 4096) as f32 / 4095.0;
            match (s >> (2 + 3 * k)) % 8 {
                0 => 0.0,
                1 => -0.0,
                2 => -unit,
                3 => 1.0 + 3.0 * unit,
                4 => f32::from_bits(1 + (s >> 40) as u32 % 0x7f_ffff),
                _ => unit,
            }
        };
        IPixel {
            r: ch(0),
            g: ch(1),
            b: ch(2),
            a: ch(3),
        }
    }

    /// Warps `inter` whole, as the row bands between `cuts` and as a grid of
    /// `ts`-pixel tiles, under a fresh `T`. Returns the images and `written`.
    fn warp_three_ways<S: InterSource, T: Tracer + Default>(
        inter: &S,
        fact: &Factorization,
        cuts: &[usize],
        ts: usize,
    ) -> ([FinalImage; 3], [u64; 3]) {
        let mut t = T::default();
        let mut imgs = [(); 3].map(|_| FinalImage::new(fact.final_w, fact.final_h));
        let mut written = [0u64; 3];
        let [full, banded, tiled] = &mut imgs;
        written[0] = warp_full(inter, fact, full, &mut t);
        let banded = SharedFinal::new(banded);
        for c in cuts.windows(2) {
            written[1] += warp_row_band(inter, fact, &banded, (c[0], c[1]), &mut t);
        }
        let tiled = SharedFinal::new(tiled);
        for v0 in (0..fact.final_h).step_by(ts) {
            for u0 in (0..fact.final_w).step_by(ts) {
                let tile = Tile {
                    u0,
                    v0,
                    u1: (u0 + ts).min(fact.final_w),
                    v1: (v0 + ts).min(fact.final_h),
                };
                written[2] += warp_tile(inter, fact, &tiled, tile, &mut t);
            }
        }
        (imgs, written)
    }

    /// The dispatched sampler (`NullTracer`) against the scalar path a real
    /// tracer pins: pixels and `written` counts, for the whole image, an
    /// uneven band cover and a tile grid that does not divide the image.
    fn assert_sampler_matches_scalar<S: InterSource>(inter: &S, fact: &Factorization, seed: u64) {
        let h = inter.height();
        let mut cuts = [
            0,
            seed as usize % (h + 1),
            (seed >> 8) as usize % (h + 1),
            h,
        ];
        cuts.sort_unstable();
        let ts = 5 + (seed >> 16) as usize % 4;
        let (scalar, scalar_written) = warp_three_ways::<S, CountingTracer>(inter, fact, &cuts, ts);
        let (sampled, sampled_written) = warp_three_ways::<S, NullTracer>(inter, fact, &cuts, ts);
        assert_eq!(
            sampled_written, scalar_written,
            "written [full, bands, tiles]"
        );
        assert_eq!(
            scalar_written, [scalar_written[0]; 3],
            "entry points disagree"
        );
        for (i, name) in ["full", "bands", "tiles"].into_iter().enumerate() {
            assert!(
                sampled[i] == scalar[i],
                "{name}: sampler and scalar pixels differ"
            );
            assert!(scalar[i] == scalar[0], "{name}: differs from the full warp");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The SSE2 sampler is invisible: for parallel and perspective views
        /// at four zooms, over images with no interior, over a window whose
        /// pitch exceeds its width, and over hostile pixel values.
        #[test]
        fn sampler_matches_the_scalar_path(
            deg in 0f64..360.0,
            zoom in 0usize..4,
            perspective in 0u8..2,
            shape in 0usize..6,
            seed in 0u64..1 << 40,
        ) {
            let mut view = ViewSpec::new([14, 12, 10])
                .rotate_x(0.3)
                .rotate_y(deg.to_radians())
                .with_zoom([0.5, 1.0, 2.0, 3.0][zoom]);
            if perspective == 1 {
                view = view.with_perspective(30.0);
            }
            let fact = Factorization::from_view(&view);
            // The warp samples whatever image it is handed; shrinking it
            // leaves the rest of the mapped area reading as CLEAR.
            let (w, h) = [
                (fact.inter_w, fact.inter_h),
                (1, fact.inter_h),
                (fact.inter_w, 1),
                (2, 2),
                (3, fact.inter_h),
                (fact.inter_w, fact.inter_h),
            ][shape];
            let mut state = seed;
            if shape == 0 {
                let mut inter = IntermediateImage::new(w, h);
                inter.pix.fill_with(|| hostile_pixel(&mut state));
                assert_sampler_matches_scalar(&inter, &fact, seed);
            } else {
                // A window of a larger image whose other pixels are loud:
                // reading one would saturate a channel.
                let mut backing = IntermediateImage::new(w + 3, h + 2);
                let pitch = w + 3;
                for (i, p) in backing.pix.iter_mut().enumerate() {
                    *p = if i % pitch < w && i / pitch < h {
                        hostile_pixel(&mut state)
                    } else {
                        IPixel { r: 1e6, g: 1e6, b: 1e6, a: 1e6 }
                    };
                }
                let window = SharedIntermediate::new(&mut backing).window(w, h);
                assert_sampler_matches_scalar(&window, &fact, seed);
            }
        }
    }
}
