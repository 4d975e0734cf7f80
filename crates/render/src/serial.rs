//! The complete serial shear-warp renderer.

use crate::composite::{
    composite_scanline_slice_src, composite_scanline_slice_untraced_src, CompositeOpts,
    ScanlineSliceStats,
};
use crate::image::{FinalImage, IntermediateImage};
use crate::source::{BrickRowPin, VolumeSrc};
use crate::tracer::{NullTracer, Tracer};
use crate::warp::warp_full;
use swr_error::Error;
use swr_geom::{Factorization, ViewSpec};
use swr_telemetry::{us_to_secs, FrameClock, FrameTelemetry, SpanKind, TimeUnit, WorkerLog};
use swr_volume::EncodedVolume;

/// Statistics for one serially rendered frame.
#[derive(Debug, Clone, Default)]
pub struct SerialStats {
    /// Wall-clock seconds in the compositing phase.
    pub composite_secs: f64,
    /// Wall-clock seconds in the warp phase.
    pub warp_secs: f64,
    /// Aggregate compositing statistics.
    pub composite: ScanlineSliceStats,
    /// Final pixels written by the warp.
    pub warped_pixels: u64,
}

/// The serial renderer (Lacroute's algorithm): slice-major compositing over
/// the run-length encoded volume, then a full-image warp.
///
/// The intermediate image buffer is reused across frames, as a renderer
/// driving an animation would.
#[derive(Debug, Default)]
pub struct SerialRenderer {
    inter: Option<IntermediateImage>,
    /// Compositing options (early termination, profiling model).
    pub opts: CompositeOpts,
    /// Telemetry of the last rendered frame: one worker lane with
    /// composite/warp (and profile) phase spans, plus the frame metrics.
    pub last_telemetry: Option<FrameTelemetry>,
}

impl SerialRenderer {
    /// Creates a renderer with default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures the intermediate image matches the factorization, clearing it.
    fn prepare_intermediate(&mut self, fact: &Factorization) -> &mut IntermediateImage {
        let (w, h) = (fact.inter_w, fact.inter_h);
        match &mut self.inter {
            Some(img) if img.width() == w && img.height() == h => {
                img.clear();
            }
            slot => *slot = Some(IntermediateImage::new(w, h)),
        }
        self.inter.as_mut().expect("just initialized")
    }

    /// Renders one frame.
    pub fn render(&mut self, enc: &EncodedVolume, view: &ViewSpec) -> FinalImage {
        self.render_traced(enc, view, &mut NullTracer).0
    }

    /// Renders one frame from either storage layout.
    pub fn render_src(&mut self, src: VolumeSrc<'_>, view: &ViewSpec) -> FinalImage {
        self.render_inner(src, view, &mut NullTracer, None).0
    }

    /// Renders one frame after validating the view, returning
    /// [`Error::InvalidView`] instead of panicking on degenerate view
    /// specifications or a view built for a different volume.
    pub fn try_render(
        &mut self,
        enc: &EncodedVolume,
        view: &ViewSpec,
    ) -> Result<FinalImage, Error> {
        self.try_render_src(VolumeSrc::Flat(enc), view)
    }

    /// [`Self::try_render`] from either storage layout.
    pub fn try_render_src(
        &mut self,
        src: VolumeSrc<'_>,
        view: &ViewSpec,
    ) -> Result<FinalImage, Error> {
        view.try_validate()?;
        if src.dims() != view.dims {
            return Err(Error::InvalidView {
                reason: format!(
                    "view dims {:?} do not match the encoded volume dims {:?}",
                    view.dims,
                    src.dims()
                ),
            });
        }
        Ok(self.render_src(src, view))
    }

    /// Renders one frame, reporting every memory access and work unit to
    /// `tracer`, and optionally recording the per-scanline work profile into
    /// `profile` (`profile.len()` must equal the intermediate height).
    pub fn render_traced<T: Tracer>(
        &mut self,
        enc: &EncodedVolume,
        view: &ViewSpec,
        tracer: &mut T,
    ) -> (FinalImage, SerialStats) {
        self.render_inner(VolumeSrc::Flat(enc), view, tracer, None)
    }

    /// [`Self::render_traced`] from either storage layout.
    pub fn render_traced_src<T: Tracer>(
        &mut self,
        src: VolumeSrc<'_>,
        view: &ViewSpec,
        tracer: &mut T,
    ) -> (FinalImage, SerialStats) {
        self.render_inner(src, view, tracer, None)
    }

    /// Renders one frame while collecting a per-scanline work profile
    /// (models the profiled frames of the new parallel algorithm, §4.2).
    pub fn render_profiled<T: Tracer>(
        &mut self,
        enc: &EncodedVolume,
        view: &ViewSpec,
        tracer: &mut T,
        profile: &mut Vec<u64>,
    ) -> (FinalImage, SerialStats) {
        self.render_inner(VolumeSrc::Flat(enc), view, tracer, Some(profile))
    }

    fn render_inner<T: Tracer>(
        &mut self,
        src: VolumeSrc<'_>,
        view: &ViewSpec,
        tracer: &mut T,
        mut profile: Option<&mut Vec<u64>>,
    ) -> (FinalImage, SerialStats) {
        let fact = Factorization::from_view(view);
        let rle = src.for_axis(fact.principal);
        let mut opts = self.opts;
        if profile.is_some() {
            opts.profile = true;
        }
        if let Some(p) = profile.as_deref_mut() {
            p.clear();
            p.resize(fact.inter_h, 0);
        }

        // One clock and one span log time the whole frame; the phase
        // seconds in `SerialStats` are derived from the same spans the
        // telemetry exports, so the two can never disagree.
        let clock = FrameClock::new();
        let mut log = WorkerLog::new(0, 64);
        let profiling = profile.is_some();
        // Untraced, unprofiled frames compile the modeled-cost bookkeeping
        // out. An untraced profiled frame keeps it but runs the same vector
        // kernel; only a real tracer takes the scalar reference. The image
        // is bit-identical in all three.
        let fast = !T::TRACING && !profiling && !opts.profile;

        let inter = self.prepare_intermediate(&fact);
        let mut stats = SerialStats::default();
        let t0 = clock.now_us();

        // Slice-major traversal, front-to-back — the serial storage-order
        // streaming that gives shear-warp its uniprocessor speed. The whole
        // image is one band, taller than the two brick rows a pin holds, so
        // bricks stay pinned across a slice's scanlines but not its slab's
        // slices.
        let mut pin = BrickRowPin::new(rle);
        for m in 0..fact.slice_count() {
            let k = fact.slice_for_step(m);
            // Only the scanlines this slice can touch: its voxel rows span
            // [off_v, off_v + scale·(n_j − 1)] plus the bilinear footprint.
            let xf = fact.slice_xform(k);
            let n_j = rle.std_dims()[1] as f64;
            let y_lo = (xf.off_v - 1.0).ceil().max(0.0) as usize;
            let y_hi = (((xf.off_v + xf.scale * n_j).floor()) as usize).min(fact.inter_h - 1);
            for y in y_lo..=y_hi {
                let mut row = inter.row_view(y);
                if fast {
                    stats.composite.composited +=
                        composite_scanline_slice_untraced_src(&mut pin, &fact, &mut row, k, &opts);
                } else {
                    let s =
                        composite_scanline_slice_src(&mut pin, &fact, &mut row, k, &opts, tracer);
                    if let Some(p) = profile.as_deref_mut() {
                        p[y] += s.work;
                    }
                    stats.composite.merge(&s);
                }
            }
        }
        let t1 = clock.now_us();
        log.record(
            if profiling {
                SpanKind::Profile
            } else {
                SpanKind::Composite
            },
            t0,
            t1,
            0,
            fact.inter_h as u32,
        );
        stats.composite_secs = us_to_secs(t1 - t0);

        let mut out = FinalImage::new(fact.final_w, fact.final_h);
        stats.warped_pixels = warp_full(inter, &fact, &mut out, tracer);
        let t2 = clock.now_us();
        log.record(SpanKind::Warp, t1, t2, 0, fact.final_h as u32);
        stats.warp_secs = us_to_secs(t2 - t1);

        let mut telemetry = FrameTelemetry::new(TimeUnit::Micros, "serial");
        telemetry.workers.push(log);
        telemetry
            .metrics
            .inc("composited_pixels", stats.composite.composited);
        telemetry.metrics.inc("warped_pixels", stats.warped_pixels);
        if profiling {
            telemetry.metrics.inc("profiled_frames", 1);
        }
        telemetry
            .metrics
            .set_gauge("composite_secs", stats.composite_secs);
        telemetry.metrics.set_gauge("warp_secs", stats.warp_secs);
        telemetry.finish(clock.now_us());
        self.last_telemetry = Some(telemetry);
        (out, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::CountingTracer;
    use swr_volume::{classify, Phantom, TransferFunction};

    fn small_scene() -> (EncodedVolume, ViewSpec) {
        let vol = Phantom::MriBrain.generate([24, 24, 16], 11);
        let c = classify(&vol, &TransferFunction::mri_default());
        let enc = EncodedVolume::encode(&c);
        let view = ViewSpec::new([24, 24, 16]).rotate_y(0.5).rotate_x(0.2);
        (enc, view)
    }

    #[test]
    fn renders_nonempty_image() {
        let (enc, view) = small_scene();
        let mut r = SerialRenderer::new();
        let img = r.render(&enc, &view);
        assert!(img.mean_luma() > 0.5, "image should not be black");
    }

    #[test]
    fn rendering_is_deterministic_and_buffer_reuse_safe() {
        let (enc, view) = small_scene();
        let mut r = SerialRenderer::new();
        let a = r.render(&enc, &view);
        let b = r.render(&enc, &view); // reuses the intermediate buffer
        assert_eq!(a, b);
        // A different view changes the image.
        let view2 = ViewSpec::new([24, 24, 16]).rotate_y(1.5);
        let c = r.render(&enc, &view2);
        assert_ne!(a, c);
    }

    #[test]
    fn stats_and_traces_are_populated() {
        let (enc, view) = small_scene();
        let mut r = SerialRenderer::new();
        let mut t = CountingTracer::default();
        let (_, stats) = r.render_traced(&enc, &view, &mut t);
        assert!(stats.composite.composited > 0);
        assert!(stats.warped_pixels > 0);
        assert!(t.reads > 0 && t.writes > 0);
        assert!(t.composite_cycles > 0 && t.warp_cycles > 0);
    }

    #[test]
    fn profile_covers_occupied_scanlines() {
        let (enc, view) = small_scene();
        let mut r = SerialRenderer::new();
        let mut profile = Vec::new();
        let mut t = NullTracer;
        let (img_p, _) = r.render_profiled(&enc, &view, &mut t, &mut profile);
        let fact = Factorization::from_view(&view);
        assert_eq!(profile.len(), fact.inter_h);
        assert!(profile.iter().any(|&w| w > 0));
        // Top and bottom of the intermediate image carry almost no work
        // compared with the peak (Figure 10's empty-region observation);
        // only per-slice setup cost remains there.
        let peak = *profile.iter().max().unwrap();
        assert!(profile[0] * 20 < peak, "edge {} vs peak {peak}", profile[0]);
        assert!(profile[fact.inter_h - 1] * 20 < peak);
        // Profiling must not change the rendered image.
        let img = SerialRenderer::new().render(&enc, &view);
        assert_eq!(img, img_p);
    }

    #[test]
    fn early_termination_preserves_the_image() {
        let (enc, view) = small_scene();
        let mut with = SerialRenderer::new();
        let mut without = SerialRenderer::new();
        without.opts.early_termination = false;
        let a = with.render(&enc, &view);
        let b = without.render(&enc, &view);
        // Early termination only skips contributions once a pixel exceeds
        // the opacity threshold; the residue is bounded by
        // (1 - threshold) * 255 ≈ 13 quantization steps.
        let bound = ((1.0 - with.opts.opaque_threshold as f64) * 255.0).ceil() as i32 + 1;
        let mut max_diff = 0i32;
        for (pa, pb) in a.pixels().iter().zip(b.pixels()) {
            for ch in 0..4 {
                max_diff = max_diff.max((pa[ch] as i32 - pb[ch] as i32).abs());
            }
        }
        assert!(
            max_diff <= bound,
            "early termination changed the image by {max_diff} (> {bound})"
        );
        // And it must reduce work.
        let mut t1 = CountingTracer::default();
        let mut t2 = CountingTracer::default();
        with.render_traced(&enc, &view, &mut t1);
        without.render_traced(&enc, &view, &mut t2);
        assert!(t1.total_cycles() < t2.total_cycles());
    }

    #[test]
    fn telemetry_spans_are_the_timing_source() {
        let (enc, view) = small_scene();
        let mut r = SerialRenderer::new();
        let (_, stats) = r.render_traced(&enc, &view, &mut NullTracer);
        let t = r.last_telemetry.as_ref().expect("telemetry recorded");
        assert_eq!(t.unit, swr_telemetry::TimeUnit::Micros);
        assert_eq!(t.label, "serial");
        let composite = t.span_total(SpanKind::Composite);
        let warp = t.span_total(SpanKind::Warp);
        assert_eq!(t.span_count(SpanKind::Composite), 1);
        assert_eq!(t.span_count(SpanKind::Warp), 1);
        // Stats seconds are derived from the same spans.
        assert!((us_to_secs(composite) - stats.composite_secs).abs() < 1e-9);
        assert!((us_to_secs(warp) - stats.warp_secs).abs() < 1e-9);
        assert!(t.metrics.counter("composited_pixels") > 0);
        // A profiled render labels its compositing span as profiling.
        let mut profile = Vec::new();
        r.render_profiled(&enc, &view, &mut NullTracer, &mut profile);
        let t = r.last_telemetry.as_ref().unwrap();
        assert_eq!(t.span_count(SpanKind::Profile), 1);
        assert_eq!(t.metrics.counter("profiled_frames"), 1);
    }

    #[test]
    fn axis_aligned_views_along_all_axes() {
        let (enc, _) = small_scene();
        let q = std::f64::consts::FRAC_PI_2;
        for (rx, ry) in [(0.0, 0.0), (0.0, q), (q, 0.0)] {
            let view = ViewSpec::new([24, 24, 16]).rotate_x(rx).rotate_y(ry);
            let img = SerialRenderer::new().render(&enc, &view);
            assert!(img.mean_luma() > 0.1, "rx={rx} ry={ry}");
        }
    }
}
