//! Image buffers: the intermediate (composited) image with its opaque-pixel
//! skip links, and the final warped image.
//!
//! The intermediate image is the central shared data structure of the
//! parallel algorithms: who writes which scanlines during compositing, and
//! who reads them back during the warp, determines the true-sharing
//! communication the paper analyzes. Its storage layout (a single contiguous
//! pixel array plus a contiguous skip-link array) is therefore part of the
//! reproduction: memory traces use the real addresses of these buffers.

use crate::costs;
use crate::tracer::{Tracer, WorkKind};
use std::marker::PhantomData;

/// An intermediate-image pixel: premultiplied RGB plus accumulated opacity,
/// in `f32` (compositing accumulates; quantization happens at the warp).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct IPixel {
    pub r: f32,
    pub g: f32,
    pub b: f32,
    pub a: f32,
}

impl IPixel {
    /// A cleared pixel.
    pub const CLEAR: IPixel = IPixel {
        r: 0.0,
        g: 0.0,
        b: 0.0,
        a: 0.0,
    };
}

/// The sheared, composited intermediate image.
///
/// Per pixel it stores an [`IPixel`] and a *skip link*: `skip[x] == x` means
/// pixel `x` is still accepting light; `skip[x] > x` means it is opaque and
/// the link points at a candidate next non-opaque pixel in the same scanline
/// (links are path-compressed during traversal, VolPack's "dynamic
/// run-length encoding" of the image).
#[derive(Debug, Clone)]
pub struct IntermediateImage {
    w: usize,
    h: usize,
    pub(crate) pix: Vec<IPixel>,
    pub(crate) skip: Vec<u32>,
}

impl IntermediateImage {
    /// Creates a cleared intermediate image.
    pub fn new(w: usize, h: usize) -> Self {
        assert!(w > 0 && h > 0, "image dimensions must be positive");
        IntermediateImage {
            w,
            h,
            pix: vec![IPixel::CLEAR; w * h],
            skip: (0..(w * h) as u32).map(|i| i % w as u32).collect(),
        }
    }

    /// Width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.w
    }

    /// Height in pixels (scanlines).
    #[inline]
    pub fn height(&self) -> usize {
        self.h
    }

    /// Resets all pixels and skip links for a new frame.
    pub fn clear(&mut self) {
        self.pix.fill(IPixel::CLEAR);
        for (i, s) in self.skip.iter_mut().enumerate() {
            *s = (i % self.w) as u32;
        }
    }

    /// Resets one scanline's pixels and skip links, leaving the rest of the
    /// image untouched. The fault-recovery path uses this to recomposite a
    /// scanline a panicked worker left in a partial state.
    pub fn clear_row(&mut self, y: usize) {
        self.row_view(y).clear();
    }

    /// Read-only pixel access; out-of-bounds coordinates return a cleared
    /// pixel (the warp samples slightly outside the image at its border).
    #[inline]
    pub fn get(&self, x: isize, y: isize) -> IPixel {
        if x < 0 || y < 0 || x >= self.w as isize || y >= self.h as isize {
            IPixel::CLEAR
        } else {
            self.pix[y as usize * self.w + x as usize]
        }
    }

    /// Mutable view of one scanline (pixels + skip links).
    pub fn row_view(&mut self, y: usize) -> RowView<'_> {
        assert!(y < self.h);
        let w = self.w;
        RowView {
            pix: &mut self.pix[y * w..(y + 1) * w],
            skip: &mut self.skip[y * w..(y + 1) * w],
            y,
        }
    }

    /// Fraction of pixels marked opaque — a cheap early-termination metric.
    pub fn opaque_fraction(&self) -> f64 {
        let n = self
            .skip
            .iter()
            .enumerate()
            .filter(|(i, &s)| s as usize != i % self.w)
            .count();
        n as f64 / self.pix.len() as f64
    }
}

/// Exclusive view of one intermediate-image scanline.
pub struct RowView<'a> {
    /// The scanline's pixels.
    pub pix: &'a mut [IPixel],
    /// The scanline's skip links (local x coordinates).
    pub skip: &'a mut [u32],
    /// Scanline index (for diagnostics).
    pub y: usize,
}

impl RowView<'_> {
    /// Width of the scanline.
    #[inline]
    pub fn width(&self) -> usize {
        self.pix.len()
    }

    /// Resets the scanline's pixels and skip links.
    pub(crate) fn clear(&mut self) {
        self.pix.fill(IPixel::CLEAR);
        for (x, s) in self.skip.iter_mut().enumerate() {
            *s = x as u32;
        }
    }

    /// Follows skip links from `x` to the first non-opaque pixel at or after
    /// it, path-compressing on the way. Returns `width()` when the rest of
    /// the scanline is opaque.
    ///
    /// Emits the link loads/stores and the per-hop work to `tracer`.
    #[inline]
    pub fn next_unopaque<T: Tracer>(&mut self, x: usize, tracer: &mut T) -> usize {
        let w = self.width();
        let mut cur = x;
        // Find the root.
        loop {
            if cur >= w {
                break;
            }
            if T::TRACING {
                tracer.read(&self.skip[cur] as *const u32 as usize, 4);
            }
            tracer.work(WorkKind::Traverse, costs::PIXEL_SKIP);
            let nxt = self.skip[cur] as usize;
            if nxt == cur {
                break;
            }
            cur = nxt;
        }
        // Path-compress: point every visited link at the root.
        let mut p = x;
        while p < w {
            let nxt = self.skip[p] as usize;
            if nxt == p {
                break;
            }
            if nxt != cur && cur <= u32::MAX as usize {
                self.skip[p] = cur.min(w) as u32;
                if T::TRACING {
                    tracer.write(&self.skip[p] as *const u32 as usize, 4);
                }
            }
            p = nxt;
        }
        cur
    }

    /// Marks pixel `x` opaque: its link starts pointing past itself.
    #[inline]
    pub fn mark_opaque<T: Tracer>(&mut self, x: usize, tracer: &mut T) {
        debug_assert!(x < self.width());
        self.skip[x] = (x + 1).min(self.width()) as u32;
        if T::TRACING {
            tracer.write(&self.skip[x] as *const u32 as usize, 4);
        }
        tracer.work(WorkKind::Traverse, costs::OPAQUE_UPDATE);
    }

    /// Whether pixel `x` is marked opaque.
    #[inline]
    pub fn is_opaque(&self, x: usize) -> bool {
        self.skip[x] as usize != x
    }
}

/// Shared handle to an intermediate image for the parallel compositors.
///
/// The parallel algorithms assign each scanline to exactly one worker at a
/// time (ownership moves only through the work queues / steal protocol), so
/// per-row exclusive access is guaranteed by the scheduler rather than the
/// borrow checker.
pub struct SharedIntermediate<'a> {
    img: *mut IntermediateImage,
    /// Raw buffer pointers captured at construction so that no reference to
    /// the image struct (or the `Vec` headers) is ever materialized while
    /// workers hold disjoint row views — concurrent `&mut` to the same
    /// struct, however briefly, would be undefined behavior.
    pix: *mut IPixel,
    skip: *mut u32,
    w: usize,
    h: usize,
    /// Physical row pitch in pixels. Equal to `w` for a plain handle; a
    /// [`window`](SharedIntermediate::window) keeps the backing image's pitch
    /// while shrinking the logical dimensions, so a max-size double buffer
    /// can present an exactly-sized image to the compositor and warp.
    stride: usize,
    _lt: PhantomData<&'a mut IntermediateImage>,
}

unsafe impl Send for SharedIntermediate<'_> {}
unsafe impl Sync for SharedIntermediate<'_> {}

impl<'a> SharedIntermediate<'a> {
    /// Wraps an exclusively borrowed image.
    pub fn new(img: &'a mut IntermediateImage) -> Self {
        SharedIntermediate {
            pix: img.pix.as_mut_ptr(),
            skip: img.skip.as_mut_ptr(),
            w: img.w,
            h: img.h,
            stride: img.w,
            _lt: PhantomData,
            img: img as *mut IntermediateImage,
        }
    }

    /// A logically `w × h` view of the same backing buffer. Reads outside
    /// the logical bounds return [`IPixel::CLEAR`] and row views are sliced
    /// to the logical width, so compositing and warping through a window are
    /// bit-identical to using an exactly `w × h` image — provided the
    /// logical region's rows hold the right data (the pipeline's first-touch
    /// clearing protocol guarantees this).
    pub fn window(&self, w: usize, h: usize) -> SharedIntermediate<'a> {
        assert!(
            w > 0 && h > 0 && w <= self.stride && h <= self.h,
            "window {w}x{h} exceeds backing image {}x{}",
            self.stride,
            self.h
        );
        SharedIntermediate {
            img: self.img,
            pix: self.pix,
            skip: self.skip,
            w,
            h,
            stride: self.stride,
            _lt: PhantomData,
        }
    }

    /// Width of the underlying image.
    pub fn width(&self) -> usize {
        self.w
    }

    /// Height of the underlying image.
    pub fn height(&self) -> usize {
        self.h
    }

    /// Exclusive view of scanline `y`.
    ///
    /// # Safety
    /// No other thread may hold a view of the same scanline concurrently.
    pub unsafe fn row_view(&self, y: usize) -> RowView<'a> {
        assert!(y < self.h);
        let w = self.w;
        // SAFETY: caller guarantees exclusive access to scanline `y`; the
        // bounds assert above keeps the slice inside the allocation (a
        // window's logical width never exceeds the physical stride).
        let pix = unsafe { std::slice::from_raw_parts_mut(self.pix.add(y * self.stride), w) };
        let skip = unsafe { std::slice::from_raw_parts_mut(self.skip.add(y * self.stride), w) };
        RowView { pix, skip, y }
    }

    /// Resets scanline `y`'s logical pixels and skip links in place.
    ///
    /// The pipelined renderer's workers call this on each row the first time
    /// they touch it in a frame (first-touch initialization: the thread that
    /// will composite a band also pages and warms it, the NUMA groundwork
    /// from the paper's capacity-miss discussion), and the driver uses it
    /// for the warp's guard rows.
    ///
    /// # Safety
    /// No other thread may access scanline `y` concurrently.
    pub unsafe fn clear_row(&self, y: usize) {
        // SAFETY: the caller's contract is `row_view`'s.
        unsafe { self.row_view(y) }.clear();
    }

    /// Read-only access to the whole *backing* image (a window's logical
    /// dimensions are not reflected here — windowed callers should read
    /// through [`get_pixel`](SharedIntermediate::get_pixel) instead).
    ///
    /// # Safety
    /// No thread may be mutating any scanline while the reference lives (all
    /// row views dropped, e.g. after the inter-phase barrier).
    pub unsafe fn image(&self) -> &'a IntermediateImage {
        // SAFETY: caller guarantees no scanline is being mutated.
        unsafe { &*self.img }
    }

    /// Reads pixel `(x, y)` through the raw buffer pointer (no reference to
    /// the image is formed, so rows other threads are still compositing are
    /// not asserted quiescent).
    ///
    /// # Safety
    /// No thread may be concurrently *writing* row `y`.
    #[inline]
    pub unsafe fn get_pixel(&self, x: isize, y: isize) -> IPixel {
        if x < 0 || y < 0 || x >= self.w as isize || y >= self.h as isize {
            IPixel::CLEAR
        } else {
            // SAFETY: in-bounds per the check above; caller guarantees no
            // concurrent writer of row `y`.
            unsafe { std::ptr::read(self.pix.add(y as usize * self.stride + x as usize)) }
        }
    }

    /// Pointer to pixel `(0, 0)` and the physical row pitch in pixels: what
    /// the warp samples and computes trace addresses from.
    #[inline]
    pub(crate) fn raw_parts(&self) -> (*const IPixel, usize) {
        (self.pix, self.stride)
    }
}

/// An 8-bit RGBA pixel of the final image.
pub type Rgba8 = [u8; 4];

/// The final (warped) image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinalImage {
    w: usize,
    h: usize,
    pix: Vec<Rgba8>,
}

impl FinalImage {
    /// Creates a black, fully transparent image.
    pub fn new(w: usize, h: usize) -> Self {
        assert!(w > 0 && h > 0);
        FinalImage {
            w,
            h,
            pix: vec![[0; 4]; w * h],
        }
    }

    /// Width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.w
    }

    /// Height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.h
    }

    /// Pixel at `(u, v)`.
    #[inline]
    pub fn get(&self, u: usize, v: usize) -> Rgba8 {
        self.pix[v * self.w + u]
    }

    /// Sets pixel `(u, v)`.
    #[inline]
    pub fn set(&mut self, u: usize, v: usize, p: Rgba8) {
        self.pix[v * self.w + u] = p;
    }

    /// Address of pixel `(u, v)` — for memory tracing of warp stores.
    #[inline]
    pub fn pixel_addr(&self, u: usize, v: usize) -> usize {
        &self.pix[v * self.w + u] as *const Rgba8 as usize
    }

    /// All pixels, row-major.
    pub fn pixels(&self) -> &[Rgba8] {
        &self.pix
    }

    /// Clears the image to transparent black.
    pub fn clear(&mut self) {
        self.pix.fill([0; 4]);
    }

    /// Encodes the image as a binary PPM (P6), alpha dropped over black.
    pub fn to_ppm(&self) -> Vec<u8> {
        let mut out = format!("P6\n{} {}\n255\n", self.w, self.h).into_bytes();
        for p in &self.pix {
            out.extend_from_slice(&p[..3]);
        }
        out
    }

    /// Mean luminance of the image (useful in tests: did we draw anything?).
    pub fn mean_luma(&self) -> f64 {
        let sum: u64 = self
            .pix
            .iter()
            .map(|p| (p[0] as u64 + p[1] as u64 + p[2] as u64) / 3)
            .sum();
        sum as f64 / self.pix.len() as f64
    }
}

/// Shared handle to a final image for parallel warps; pixel ownership is
/// disjoint by construction (tiles, or row-band membership tests).
pub struct SharedFinal<'a> {
    pix: *mut Rgba8,
    w: usize,
    h: usize,
    /// Physical row pitch in pixels; `w` unless this is a
    /// [`window`](SharedFinal::window) of a larger backing image.
    stride: usize,
    _lt: PhantomData<&'a mut FinalImage>,
}

unsafe impl Send for SharedFinal<'_> {}
unsafe impl Sync for SharedFinal<'_> {}

impl<'a> SharedFinal<'a> {
    /// Wraps an exclusively borrowed image.
    pub fn new(img: &'a mut FinalImage) -> Self {
        SharedFinal {
            pix: img.pix.as_mut_ptr(),
            w: img.w,
            h: img.h,
            stride: img.w,
            _lt: PhantomData,
        }
    }

    /// A logically `w × h` view of the same backing buffer (see
    /// [`SharedIntermediate::window`]).
    pub fn window(&self, w: usize, h: usize) -> SharedFinal<'a> {
        assert!(
            w > 0 && h > 0 && w <= self.stride && h <= self.h,
            "window {w}x{h} exceeds backing image {}x{}",
            self.stride,
            self.h
        );
        SharedFinal {
            pix: self.pix,
            w,
            h,
            stride: self.stride,
            _lt: PhantomData,
        }
    }

    /// Width of the underlying image.
    pub fn width(&self) -> usize {
        self.w
    }

    /// Height of the underlying image.
    pub fn height(&self) -> usize {
        self.h
    }

    /// Writes pixel `(u, v)` and returns its address for tracing.
    ///
    /// # Safety
    /// `u < width()` and `v < height()` (checked in debug builds only), and
    /// no other thread may write the same pixel concurrently.
    #[inline]
    pub unsafe fn set(&self, u: usize, v: usize, p: Rgba8) -> usize {
        debug_assert!(u < self.w && v < self.h);
        // SAFETY: in-bounds and unshared per the caller contract.
        let slot = unsafe { self.pix.add(v * self.stride + u) };
        unsafe { std::ptr::write(slot, p) };
        slot as usize
    }

    /// Pointer to pixel `(0, v)`; the row's `width()` pixels lie behind it.
    ///
    /// # Safety
    /// `v < height()`.
    #[inline]
    pub(crate) unsafe fn row_ptr(&self, v: usize) -> *mut Rgba8 {
        // SAFETY: row `v` starts inside the allocation (caller contract).
        unsafe { self.pix.add(v * self.stride) }
    }

    /// Clears the logical area to transparent black.
    ///
    /// # Safety
    /// No other thread may access the image concurrently.
    pub unsafe fn fill_black(&self) {
        for v in 0..self.h {
            // SAFETY: each row's logical prefix is inside the allocation.
            unsafe { std::ptr::write_bytes(self.pix.add(v * self.stride), 0, self.w) };
        }
    }

    /// Copies the logical area out into an owned, exactly-sized image.
    /// The pipeline uses this to hand a completed frame to the consumer
    /// while the backing double buffer is immediately reused.
    ///
    /// # Safety
    /// No other thread may be writing the image concurrently (the frame's
    /// warp must be complete).
    pub unsafe fn snapshot(&self) -> FinalImage {
        let mut out = FinalImage::new(self.w, self.h);
        for v in 0..self.h {
            // SAFETY: logical row prefix is in bounds; destination row is
            // exactly `w` pixels.
            let src = unsafe { std::slice::from_raw_parts(self.pix.add(v * self.stride), self.w) };
            out.pix[v * self.w..(v + 1) * self.w].copy_from_slice(src);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::NullTracer;

    #[test]
    fn intermediate_starts_clear_with_identity_links() {
        let img = IntermediateImage::new(8, 3);
        assert_eq!(img.get(3, 1), IPixel::CLEAR);
        assert_eq!(img.opaque_fraction(), 0.0);
    }

    #[test]
    fn out_of_bounds_reads_are_clear() {
        let img = IntermediateImage::new(4, 4);
        assert_eq!(img.get(-1, 0), IPixel::CLEAR);
        assert_eq!(img.get(0, 99), IPixel::CLEAR);
    }

    #[test]
    fn skip_links_jump_over_opaque_spans() {
        let mut img = IntermediateImage::new(10, 1);
        let mut t = NullTracer;
        let mut row = img.row_view(0);
        for x in 2..6 {
            row.mark_opaque(x, &mut t);
        }
        assert_eq!(row.next_unopaque(0, &mut t), 0);
        assert_eq!(row.next_unopaque(2, &mut t), 6);
        assert_eq!(row.next_unopaque(4, &mut t), 6);
        // After compression, the link at 2 points (near) the root.
        assert!(row.skip[2] >= 5);
    }

    #[test]
    fn whole_row_opaque_returns_width() {
        let mut img = IntermediateImage::new(5, 1);
        let mut t = NullTracer;
        let mut row = img.row_view(0);
        for x in 0..5 {
            row.mark_opaque(x, &mut t);
        }
        assert_eq!(row.next_unopaque(0, &mut t), 5);
    }

    #[test]
    fn clear_resets_links_and_pixels() {
        let mut img = IntermediateImage::new(6, 2);
        let mut t = NullTracer;
        {
            let mut row = img.row_view(1);
            row.pix[3] = IPixel {
                r: 1.0,
                g: 0.5,
                b: 0.2,
                a: 0.9,
            };
            row.mark_opaque(3, &mut t);
        }
        assert!(img.opaque_fraction() > 0.0);
        img.clear();
        assert_eq!(img.get(3, 1), IPixel::CLEAR);
        assert_eq!(img.opaque_fraction(), 0.0);
    }

    #[test]
    fn shared_intermediate_rows_are_disjoint() {
        let mut img = IntermediateImage::new(4, 4);
        let shared = SharedIntermediate::new(&mut img);
        // SAFETY: rows 0 and 2 are distinct.
        let r0 = unsafe { shared.row_view(0) };
        let r2 = unsafe { shared.row_view(2) };
        r0.pix[0].r = 1.0;
        r2.pix[0].r = 2.0;
        let _ = (r0, r2); // views released before reading the whole image
                          // SAFETY: no views outstanding.
        let whole = unsafe { shared.image() };
        assert_eq!(whole.get(0, 0).r, 1.0);
        assert_eq!(whole.get(0, 2).r, 2.0);
    }

    #[test]
    fn final_image_round_trip_and_ppm() {
        let mut img = FinalImage::new(3, 2);
        img.set(2, 1, [10, 20, 30, 255]);
        assert_eq!(img.get(2, 1), [10, 20, 30, 255]);
        let ppm = img.to_ppm();
        assert!(ppm.starts_with(b"P6\n3 2\n255\n"));
        assert_eq!(ppm.len(), 11 + 3 * 2 * 3);
        // The last pixel's RGB is at the tail.
        assert_eq!(&ppm[ppm.len() - 3..], &[10, 20, 30]);
    }

    #[test]
    fn shared_final_writes_land() {
        let mut img = FinalImage::new(4, 4);
        let shared = SharedFinal::new(&mut img);
        // SAFETY: single thread, distinct pixels.
        unsafe {
            shared.set(1, 1, [1, 1, 1, 1]);
            shared.set(2, 3, [9, 9, 9, 9]);
        }
        assert_eq!(img.get(1, 1), [1, 1, 1, 1]);
        assert_eq!(img.get(2, 3), [9, 9, 9, 9]);
    }

    #[test]
    fn intermediate_window_behaves_like_exact_image() {
        // A 3x2 window over a 5x4 backing buffer: logical reads, row views,
        // and out-of-bounds CLEAR must match an exactly-sized image.
        let mut backing = IntermediateImage::new(5, 4);
        backing.pix.fill(IPixel {
            r: 9.0,
            g: 9.0,
            b: 9.0,
            a: 9.0,
        });
        let shared = SharedIntermediate::new(&mut backing);
        let win = shared.window(3, 2);
        assert_eq!(win.width(), 3);
        assert_eq!(win.height(), 2);
        // SAFETY: single thread.
        unsafe {
            win.clear_row(0);
            win.clear_row(1);
            let mut row = win.row_view(1);
            assert_eq!(row.width(), 3);
            row.pix[2].r = 1.5;
            row.mark_opaque(2, &mut NullTracer);
            assert_eq!(win.get_pixel(2, 1).r, 1.5);
            // Outside the logical bounds but inside the backing buffer:
            // still CLEAR, exactly like an exactly-sized 3x2 image.
            assert_eq!(win.get_pixel(3, 1), IPixel::CLEAR);
            assert_eq!(win.get_pixel(0, 2), IPixel::CLEAR);
        }
        // The stale backing pixel beyond the window was untouched.
        assert_eq!(backing.get(4, 3).r, 9.0);
    }

    #[test]
    fn final_window_set_fill_and_snapshot() {
        let mut backing = FinalImage::new(6, 5);
        backing.pix.fill([7; 4]);
        let shared = SharedFinal::new(&mut backing);
        let win = shared.window(4, 3);
        // SAFETY: single thread.
        let snap = unsafe {
            win.fill_black();
            win.set(3, 2, [1, 2, 3, 4]);
            win.snapshot()
        };
        assert_eq!(snap.width(), 4);
        assert_eq!(snap.height(), 3);
        assert_eq!(snap.get(3, 2), [1, 2, 3, 4]);
        assert_eq!(snap.get(0, 0), [0, 0, 0, 0]);
        // Backing pixels outside the window retain their old contents.
        assert_eq!(backing.get(5, 4), [7; 4]);
        assert_eq!(backing.get(4, 0), [7; 4]);
    }

    #[test]
    fn mean_luma_sees_content() {
        let mut img = FinalImage::new(2, 2);
        assert_eq!(img.mean_luma(), 0.0);
        img.set(0, 0, [255, 255, 255, 255]);
        assert!(img.mean_luma() > 0.0);
    }
}
