//! Kernel dispatch and the span blend of the compositing loop.
//!
//! The per-voxel work term of the whole renderer is the 4-tap bilinear
//! resample + RGBA over-blend of the compositing loop. The scalar reference
//! (`blend_footprint` in [`crate::composite`]) does it one pixel at a time,
//! querying the run cursors per tap. Every other rung composites the steps
//! of a parallel projection in *spans*: the traversal hands this module a
//! run of contiguous destination pixels and the two voxel scanlines' taps
//! under it, expanded dense into a small window (`TapWindow`), and one loop
//! blends them in the pixels' native array-of-structures layout — a pixel
//! is one `[r, g, b, a]` vector, a voxel is one 4-byte load widened to it,
//! the four weights are broadcasts and `1 − p.a` is an in-register permute.
//! There is no gather, no transpose and no scatter. `blend_span` is that
//! loop written portably over `[f32; 4]` (on x86_64 LLVM compiles a pixel's
//! every step to one 128-bit operation); the one `std::arch` variant is the
//! AVX2 blend, two pixels per operation.
//!
//! # Bit-exactness policy
//!
//! The scalar `blend_footprint` is the reference; every rung must produce
//! **bit-identical** intermediate (and hence final) images. The vector is
//! the pixel's four channels, never a reduction across taps or pixels:
//! every channel performs the exact scalar single-precision sequence
//!
//! ```text
//! c  = ((0 + w0·t0) + w1·t1) + w2·t2) + w3·t3     (per channel, tap order)
//! c  = c · (1/255)          a = min(a · (1/255), 1)
//! c  = c · cue              (rgb only; cue = 1 when depth cueing is off)
//! p.c = p.c + (1 − p.a) · c
//! ```
//!
//! with plain mul-then-add (Rust never contracts into FMA), so each
//! channel's IEEE result equals the scalar result. Taps the scalar kernel
//! skips (zero weight, or a query landing in a transparent run, outside the
//! scanline or on an absent row) are a zero contribution here: the window
//! holds a zero voxel for them, all accumulated values are non-negative,
//! and `x + (+0.0) == x` and `x · 1.0 == x` bit-exactly for non-negative
//! `x`, so skipped taps, the alpha channel's unit cue and the colour
//! channels' `min(c, ∞)` cannot drift. A span's pixels are non-opaque when
//! it starts and each is written once, so blending them together and
//! marking the saturated ones afterwards is invisible too.
//!
//! Every *untraced* caller dispatches here, profiling frames included: the
//! modeled cost of a pixel depends only on which of its taps lie in a
//! stored run, which the window expansion knows, so a span books `work` and
//! `voxels_fetched` exactly as the scalar kernel does. A real tracer stays
//! scalar by design: it observes every tap's load as it happens. So do
//! perspective steps, by measurement: their runs of compositable pixels are
//! too short to pay for a window.
//!
//! # Dispatch
//!
//! [`dispatched_kernel`] picks the widest kernel the host supports, probed
//! once via `is_x86_feature_detected!` and cached in a `OnceLock`. The
//! default-on `simd` cargo feature enables the dispatch and compiles the
//! `std::arch` variant; disabling it (or setting `SWR_FORCE_SCALAR=1`, or
//! calling [`set_force_scalar`]) pins the scalar reference kernel for A/B
//! comparisons.

use crate::image::IPixel;
use swr_volume::RgbaVoxel;

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// A compositing kernel implementation, in increasing vector width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdKernel {
    /// The reference scalar epilogue (`blend_footprint`), one pixel at a
    /// time.
    Scalar,
    /// Spans through the portable `blend_span`, one pixel per 128-bit
    /// operation on x86_64.
    Sse2,
    /// Spans through the `std::arch::x86_64` AVX2 blend, two pixels per
    /// 256-bit operation.
    Avx2,
    /// Spans through the portable `blend_span`, one pixel per 128-bit
    /// operation on aarch64.
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

    /// `f32` lanes per blend operation: 4 is one `[r, g, b, a]` pixel, 8 is
    /// two, 1 is the scalar reference (no span path).
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

/// Resamples one 2×2 footprint — `taps` and `w` in the reference's tap
/// order `[a·x0, a·x1, b·x0, b·x1]` — and blends it front-to-back into
/// `px`: the module's operation sequence, written the same for all four
/// channels (the alpha cap and the unit cue are per-channel constants) so
/// that it compiles to one 128-bit operation per step.
#[inline(always)]
fn blend_pixel(px: &mut IPixel, taps: [RgbaVoxel; 4], w: [f32; 4], cue: f32) {
    let t = taps.map(|v| [v.r as f32, v.g as f32, v.b as f32, v.a as f32]);
    let cap = [f32::INFINITY, f32::INFINITY, f32::INFINITY, 1.0];
    let cue = [cue, cue, cue, 1.0];
    let p = [px.r, px.g, px.b, px.a];
    let k = 1.0 - px.a;
    let mut o = [0f32; 4];
    for ch in 0..4 {
        let c = ((w[0] * t[0][ch] + w[1] * t[1][ch]) + w[2] * t[2][ch]) + w[3] * t[3][ch];
        let c = (c * (1.0 / 255.0)).min(cap[ch]) * cue[ch];
        o[ch] = p[ch] + k * c;
    }
    *px = IPixel {
        r: o[0],
        g: o[1],
        b: o[2],
        a: o[3],
    };
}

/// Blends one span of a parallel-projection step: pixel `p` of `pix`
/// resamples taps `p` and `p + 1` of the two window rows with the
/// scanline's constant weights `w`. `kernel` must be
/// [`available`](SimdKernel::available).
#[inline]
pub(crate) fn blend_span(
    kernel: SimdKernel,
    pix: &mut [IPixel],
    ta: &[RgbaVoxel],
    tb: &[RgbaVoxel],
    w: [f32; 4],
    cue: f32,
) {
    // A real check in release builds too: the AVX2 variant reads and writes
    // through raw pointers on the strength of it.
    assert!(ta.len() > pix.len() && tb.len() > pix.len());
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if kernel == SimdKernel::Avx2 {
        // SAFETY: the caller's `available()` saw the CPU report AVX2, and
        // the assert above is the length contract.
        return unsafe { x86::blend_span_avx2(pix, ta, tb, w, cue) };
    }
    let _ = kernel;
    for (p, px) in pix.iter_mut().enumerate() {
        blend_pixel(px, [ta[p], ta[p + 1], tb[p], tb[p + 1]], w, cue);
    }
}

/// The AVX2 span blend: [`blend_span`]'s loop over pixel pairs, the two
/// pixels' channels side by side in one 256-bit vector.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod x86 {
    use super::{IPixel, RgbaVoxel};
    use std::arch::x86_64::*;

    /// # Safety
    /// The CPU must support AVX2, and `ta` and `tb` must each be longer
    /// than `pix`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn blend_span_avx2(
        pix: &mut [IPixel],
        ta: &[RgbaVoxel],
        tb: &[RgbaVoxel],
        w: [f32; 4],
        cue: f32,
    ) {
        let n = pix.len();
        let (pix, ta, tb) = (pix.as_mut_ptr() as *mut f32, ta.as_ptr(), tb.as_ptr());
        let inf = f32::INFINITY;
        let [w0, w1, w2, w3] = w.map(|w| _mm256_set1_ps(w));
        let inv255 = _mm256_set1_ps(1.0 / 255.0);
        let one = _mm256_set1_ps(1.0);
        let alpha_cap = _mm256_setr_ps(inf, inf, inf, 1.0, inf, inf, inf, 1.0);
        let cue = _mm256_setr_ps(cue, cue, cue, 1.0, cue, cue, cue, 1.0);
        let mut p = 0;
        while p + 2 <= n {
            // SAFETY: `RgbaVoxel` is four `#[repr(C)]` bytes and `IPixel`
            // four `#[repr(C)]` `f32`s. Voxel loads cover entries
            // `p ..= p + 2 <= n`, inside both rows by the caller's
            // contract; the pixel load and store cover pixels `p`, `p + 1`.
            unsafe {
                let tap = |row: *const RgbaVoxel, t: usize| {
                    let v = _mm_loadl_epi64(row.add(t) as *const __m128i);
                    _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(v))
                };
                let c = _mm256_mul_ps(w0, tap(ta, p));
                let c = _mm256_add_ps(c, _mm256_mul_ps(w1, tap(ta, p + 1)));
                let c = _mm256_add_ps(c, _mm256_mul_ps(w2, tap(tb, p)));
                let c = _mm256_add_ps(c, _mm256_mul_ps(w3, tap(tb, p + 1)));
                let c = _mm256_mul_ps(_mm256_min_ps(_mm256_mul_ps(c, inv255), alpha_cap), cue);
                let dst = pix.add(4 * p);
                let px = _mm256_loadu_ps(dst);
                let k = _mm256_sub_ps(one, _mm256_permute_ps::<0xFF>(px));
                _mm256_storeu_ps(dst, _mm256_add_ps(px, _mm256_mul_ps(k, c)));
            }
            p += 2;
        }
        if p < n {
            // SAFETY: as above, for the odd last pixel `p = n - 1`: voxel
            // entries `p` and `p + 1 = n`, one pixel.
            unsafe {
                let tap = |row: *const RgbaVoxel, t: usize| {
                    let v = _mm_cvtsi32_si128((row.add(t) as *const i32).read_unaligned());
                    _mm_cvtepi32_ps(_mm_cvtepu8_epi32(v))
                };
                let lo = _mm256_castps256_ps128;
                let c = _mm_mul_ps(lo(w0), tap(ta, p));
                let c = _mm_add_ps(c, _mm_mul_ps(lo(w1), tap(ta, p + 1)));
                let c = _mm_add_ps(c, _mm_mul_ps(lo(w2), tap(tb, p)));
                let c = _mm_add_ps(c, _mm_mul_ps(lo(w3), tap(tb, p + 1)));
                let c = _mm_mul_ps(
                    _mm_min_ps(_mm_mul_ps(c, lo(inv255)), lo(alpha_cap)),
                    lo(cue),
                );
                let dst = pix.add(4 * p);
                let px = _mm_loadu_ps(dst);
                let k = _mm_sub_ps(lo(one), _mm_shuffle_ps::<0xFF>(px, px));
                _mm_storeu_ps(dst, _mm_add_ps(px, _mm_mul_ps(k, c)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every rung's span blend against the per-pixel sequence, on every
    /// length up to a few pairs past the AVX2 variant's odd tail.
    #[test]
    fn span_blend_rungs_agree_on_every_length() {
        let vox = |i: usize| RgbaVoxel {
            r: (i * 37 % 251) as u8,
            g: (i * 11 % 256) as u8,
            b: (i * 5 % 200) as u8,
            a: [0, 40, 255, 7, 128][i % 5],
        };
        let ta: Vec<RgbaVoxel> = (0..12).map(vox).collect();
        let tb: Vec<RgbaVoxel> = (40..52).map(vox).collect();
        let w = [0.21, 0.09, 0.49, 0.21];
        let rungs = [SimdKernel::Sse2, SimdKernel::Avx2, SimdKernel::Neon];
        for kernel in rungs.into_iter().filter(|k| k.available()) {
            for n in 0..ta.len() {
                let start = |p: usize| IPixel {
                    r: 0.1 * p as f32,
                    g: 0.05,
                    b: 0.0,
                    a: 0.07 * p as f32,
                };
                let mut want: Vec<IPixel> = (0..n).map(start).collect();
                let mut got = want.clone();
                for (p, px) in want.iter_mut().enumerate() {
                    blend_pixel(px, [ta[p], ta[p + 1], tb[p], tb[p + 1]], w, 0.9);
                }
                blend_span(kernel, &mut got, &ta[..=n], &tb[..=n], w, 0.9);
                assert_eq!(got, want, "{} n = {n}", kernel.name());
            }
        }
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
