//! The *new* parallel shear-warp renderer (§4), one frame at a time.
//!
//! The frame itself — partition from the work profile, composite and steal,
//! wait on the band's rows and warp it without a barrier, contain and
//! repair faults — is written once for this renderer and the pipeline; see
//! the [crate docs](crate#the-new-algorithms-frame). What this renderer
//! adds is the single-frame way of running it: the intermediate image,
//! scheduler state and work profile are kept from one call to the next (an
//! animation loop allocates nothing per frame once the image size settles),
//! each call spawns a scope of `nprocs` threads that pin themselves, run
//! the frame's worker body once and join, and the joined frame is resolved
//! on the calling thread and leaves its spans and metrics in
//! [`NewParallelRenderer::last_telemetry`].

use crate::fault::FaultPlan;
use crate::frame::{self, FrameBufs, FrameCtx, FrameState, ProfileState};
use crate::placement::{pin_current_thread, PinLedger};
use crate::telem;
use crate::{Error, ParallelConfig, RenderStats};
use swr_geom::{Factorization, ViewSpec};
use swr_render::{
    CompositeOpts, FinalImage, IntermediateImage, SharedFinal, SharedIntermediate, VolumeSrc,
};
use swr_telemetry::{us_to_secs, FrameClock, FrameTelemetry, SpanKind};
use swr_volume::EncodedVolume;

/// The new parallel renderer. Holds the work profile across frames, as an
/// animation loop would.
#[derive(Debug, Default)]
pub struct NewParallelRenderer {
    /// Configuration (processor count, steal chunk, profile period).
    pub cfg: ParallelConfig,
    /// Compositing options (early termination, depth cueing).
    pub composite_opts: CompositeOpts,
    /// Deterministic fault injection for the containment tests.
    pub fault: Option<FaultPlan>,
    /// Telemetry of the most recent frame: per-worker spans plus the
    /// metrics registry. `None` until a frame completes. With the
    /// `telemetry` feature off the spans are absent (recording compiles
    /// away) but the metrics registry is still populated from the stats.
    pub last_telemetry: Option<FrameTelemetry>,
    inter: Option<IntermediateImage>,
    state: FrameState,
    /// Monotone frame counter tagging this renderer's completion epochs.
    frame_epoch: u64,
    profile: ProfileState,
}

impl NewParallelRenderer {
    /// Creates a renderer with the given configuration.
    pub fn new(cfg: ParallelConfig) -> Self {
        NewParallelRenderer {
            cfg,
            ..Default::default()
        }
    }

    /// The per-scanline profile from the last profiled frame, if any.
    pub fn profile(&self) -> Option<&[u64]> {
        self.profile.profile()
    }

    /// Forces the next frame to collect a fresh profile.
    pub fn invalidate_profile(&mut self) {
        self.profile.invalidate();
    }

    /// Renders one frame, panicking on any fault (legacy API).
    pub fn render(&mut self, enc: &EncodedVolume, view: &ViewSpec) -> FinalImage {
        self.try_render(enc, view).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Renders one frame with statistics, panicking on any fault
    /// (legacy API).
    pub fn render_with_stats(
        &mut self,
        enc: &EncodedVolume,
        view: &ViewSpec,
    ) -> (FinalImage, RenderStats) {
        self.try_render_with_stats(enc, view)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Renders one frame, returning a typed error on invalid inputs,
    /// unrecovered worker panics, or a stalled scheduler.
    pub fn try_render(
        &mut self,
        enc: &EncodedVolume,
        view: &ViewSpec,
    ) -> Result<FinalImage, Error> {
        self.try_render_with_stats(enc, view).map(|(img, _)| img)
    }

    /// Renders one frame from either storage layout (legacy panicking
    /// form).
    pub fn render_src(&mut self, src: VolumeSrc<'_>, view: &ViewSpec) -> FinalImage {
        self.try_render_with_stats_src(src, view)
            .map(|(img, _)| img)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Renders one frame, returning execution statistics (including any
    /// recorded degradation) or a typed error.
    pub fn try_render_with_stats(
        &mut self,
        enc: &EncodedVolume,
        view: &ViewSpec,
    ) -> Result<(FinalImage, RenderStats), Error> {
        self.try_render_with_stats_src(VolumeSrc::Flat(enc), view)
    }

    /// [`Self::try_render_with_stats`] from either storage layout.
    pub fn try_render_with_stats_src(
        &mut self,
        src: VolumeSrc<'_>,
        view: &ViewSpec,
    ) -> Result<(FinalImage, RenderStats), Error> {
        self.cfg.try_validate()?;
        view.try_validate()?;
        let fact = Factorization::from_view(view);
        let nprocs = self.cfg.nprocs;

        // The intermediate image is *not* cleared here: each worker zeroes
        // the rows of a chunk the first time it touches them, and arming the
        // frame clears only the two guard rows the warp reads beyond the
        // composited region.
        let inter = match &mut self.inter {
            Some(img) if img.width() == fact.inter_w && img.height() == fact.inter_h => {
                self.inter.as_mut().expect("checked above")
            }
            slot => {
                *slot = Some(IntermediateImage::new(fact.inter_w, fact.inter_h));
                slot.as_mut().expect("just set")
            }
        };
        let mut out = FinalImage::new(fact.final_w, fact.final_h);
        let mut stats = RenderStats::default();

        let clock = FrameClock::new();
        let mut driver = telem::driver_log();
        let logs = telem::worker_logs(nprocs);
        let ctx = FrameCtx {
            cfg: &self.cfg,
            composite_opts: self.composite_opts,
            fault: self.fault.as_ref(),
            clock,
        };
        let bufs = FrameBufs {
            rle: src.for_axis(fact.principal),
            inter: SharedIntermediate::new(inter),
            out: SharedFinal::new(&mut out),
        };

        let part_start = clock.now_us();
        self.frame_epoch += 1;
        self.state.resize(fact.inter_h, nprocs);
        let profile = &mut self.profile;
        let plan = frame::plan(
            &ctx,
            profile,
            bufs.rle,
            fact,
            view.model,
            0,
            self.frame_epoch,
        );
        let state = &self.state;
        state.arm(&ctx, &plan, &bufs);
        if telem::collect() {
            driver.record(
                SpanKind::Partition,
                part_start,
                clock.now_us(),
                plan.region.start as u32,
                plan.region.len() as u32,
            );
        }

        // Worker pin outcomes for the core.pinned / core.numa_node gauges.
        let pins = PinLedger::new();
        crossbeam::scope(|s| {
            for p in 0..nprocs {
                let (ctx, plan, bufs, logs, pins) = (&ctx, &plan, &bufs, &logs, &pins);
                s.spawn(move |_| {
                    // Pin before the first-touch row zeroing, so the pages a
                    // worker faults in stay local to the CPU that composites
                    // them for the whole frame.
                    pins.record(pin_current_thread(ctx.cfg.placement, p, nprocs));
                    // The log is checked out once per frame; recording into
                    // it is lock-free from here on.
                    frame::work(ctx, state, plan, bufs, p, &mut logs[p].lock());
                });
            }
        })
        .expect("worker panics are contained via catch_unwind");
        // The phases overlap (that is the point); report the frame total as
        // composite time and leave warp at zero unless callers time phases
        // via the capture path.
        stats.composite_secs = us_to_secs(clock.now_us());

        // The scope join ordered every worker's effects before this point.
        frame::resolve(&ctx, state, &plan, &bufs, profile, &mut driver, &mut stats)?;
        let frames_since_profile = profile.frames_since();
        self.last_telemetry = Some(telem::finish_frame(
            "new",
            &clock,
            driver,
            logs,
            &stats,
            |m| {
                m.inc("watchdog.arms", state.watchdog_arms());
                m.set_gauge("profile.frames_since", frames_since_profile as f64);
                m.set_gauge("core.pinned", pins.pinned() as f64);
                m.set_gauge("core.numa_node", pins.max_numa_node() as f64);
            },
        ));
        Ok((out, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swr_render::SerialRenderer;
    use swr_volume::{classify, Phantom};

    fn scene() -> (EncodedVolume, ViewSpec) {
        let vol = Phantom::MriBrain.generate([24, 24, 16], 11);
        let c = classify(&vol, &Phantom::MriBrain.default_transfer());
        (
            EncodedVolume::encode(&c),
            ViewSpec::new([24, 24, 16]).rotate_y(0.5).rotate_x(0.2),
        )
    }

    #[test]
    fn matches_serial_bit_exactly() {
        let (enc, view) = scene();
        let serial = SerialRenderer::new().render(&enc, &view);
        for procs in [1, 2, 3, 5] {
            let mut r = NewParallelRenderer::new(ParallelConfig::with_procs(procs));
            // First frame profiles and uses equal partitions; second frame
            // uses the profile. Both must match the serial image.
            assert_eq!(r.render(&enc, &view), serial, "frame 1, procs = {procs}");
            assert_eq!(r.render(&enc, &view), serial, "frame 2, procs = {procs}");
        }
    }

    #[test]
    fn profile_is_collected_then_reused() {
        let (enc, view) = scene();
        let mut r = NewParallelRenderer::new(ParallelConfig {
            profile_every: 3,
            ..ParallelConfig::with_procs(2)
        });
        let (_, s1) = r.render_with_stats(&enc, &view);
        assert!(s1.profiled, "first frame must profile");
        assert!(r.profile().is_some());
        let (_, s2) = r.render_with_stats(&enc, &view);
        assert!(!s2.profiled);
        let (_, s3) = r.render_with_stats(&enc, &view);
        assert!(!s3.profiled);
        let (_, s4) = r.render_with_stats(&enc, &view);
        assert!(s4.profiled, "k = 3 frames elapsed");
    }

    #[test]
    fn angle_policy_reprofiles_every_15_degrees() {
        let (enc, _) = scene();
        let mut r = NewParallelRenderer::new(ParallelConfig {
            profile_every_degrees: Some(15.0),
            ..ParallelConfig::with_procs(2)
        });
        // 3 degrees per frame: profiled frames at 0°, 15°, 30°, ...
        let mut profiled_frames = Vec::new();
        for frame in 0..12 {
            let view = ViewSpec::new([24, 24, 16]).rotate_y((frame as f64 * 3.0).to_radians());
            let (_, stats) = r.render_with_stats(&enc, &view);
            if stats.profiled {
                profiled_frames.push(frame);
            }
        }
        assert_eq!(
            profiled_frames,
            vec![0, 5, 10],
            "profile every 15° at 3°/frame"
        );
    }

    #[test]
    fn profile_concentrates_on_occupied_rows() {
        let (enc, view) = scene();
        let mut r = NewParallelRenderer::new(ParallelConfig::with_procs(2));
        r.render(&enc, &view);
        let profile = r.profile().expect("profiled on first frame");
        let fact = Factorization::from_view(&view);
        assert_eq!(profile.len(), fact.inter_h);
        assert!(profile[0] == 0, "clipped empty rows are never composited");
        assert!(profile.iter().sum::<u64>() > 0);
    }

    #[test]
    fn ablations_still_render_correctly() {
        let (enc, view) = scene();
        let serial = SerialRenderer::new().render(&enc, &view);
        for (clip, prof, steal) in [
            (false, true, true),
            (true, false, true),
            (false, false, false),
        ] {
            let cfg = ParallelConfig {
                empty_region_clip: clip,
                profiled_partition: prof,
                steal,
                ..ParallelConfig::with_procs(3)
            };
            let mut r = NewParallelRenderer::new(cfg);
            assert_eq!(
                r.render(&enc, &view),
                serial,
                "clip={clip} prof={prof} steal={steal}"
            );
            assert_eq!(r.render(&enc, &view), serial);
        }
    }

    #[test]
    fn empty_volume_renders_black() {
        let c = classify(
            &swr_volume::Volume::zeros([16, 16, 16]),
            &Phantom::MriBrain.default_transfer(),
        );
        let enc = EncodedVolume::encode(&c);
        let view = ViewSpec::new([16, 16, 16]).rotate_y(0.3);
        let mut r = NewParallelRenderer::new(ParallelConfig::with_procs(2));
        let img = r.render(&enc, &view);
        assert_eq!(img.mean_luma(), 0.0);
        // Serial output for the empty volume is all-zero too.
        assert_eq!(img, SerialRenderer::new().render(&enc, &view));
    }

    #[test]
    fn view_changes_keep_rendering_consistent() {
        let (enc, _) = scene();
        let mut r = NewParallelRenderer::new(ParallelConfig::with_procs(3));
        for deg in [0.0f64, 20.0, 95.0, 180.0, 275.0] {
            let view = ViewSpec::new([24, 24, 16]).rotate_y(deg.to_radians());
            let img = r.render(&enc, &view);
            assert_eq!(
                img,
                SerialRenderer::new().render(&enc, &view),
                "angle {deg}"
            );
        }
    }

    #[test]
    fn invalid_config_is_typed_not_panicking() {
        let (enc, view) = scene();
        let mut r = NewParallelRenderer::new(ParallelConfig::with_procs(0));
        let e = r.try_render(&enc, &view).expect_err("nprocs = 0");
        assert!(matches!(e, Error::InvalidConfig { .. }), "{e}");
        assert!(e.to_string().contains("nprocs"), "{e}");
    }

    #[test]
    fn contained_worker_panic_repairs_bit_identically() {
        let (enc, view) = scene();
        let serial = SerialRenderer::new().render(&enc, &view);
        let mut r = NewParallelRenderer::new(ParallelConfig::with_procs(3));
        r.fault = Some(FaultPlan::new(1).panic_at(0));
        let (img, stats) = r.try_render_with_stats(&enc, &view).expect("recovered");
        assert_eq!(img, serial, "repaired frame must match serial bit-exactly");
        assert_eq!(stats.worker_panics, 1);
        assert!(stats.degraded);
    }

    #[test]
    fn telemetry_labels_profiling_waits_and_staleness() {
        let (enc, view) = scene();
        let mut r = NewParallelRenderer::new(ParallelConfig::with_procs(3));
        r.render(&enc, &view); // frame 1: profiles
        let t1 = r.last_telemetry.clone().expect("telemetry after frame 1");
        r.render(&enc, &view); // frame 2: reuses the profile
        let t2 = r.last_telemetry.as_ref().expect("telemetry after frame 2");
        assert_eq!(t2.label, "new");
        assert_eq!(t2.workers.len(), 4, "driver lane + 3 workers");
        assert_eq!(t2.metrics.gauge("profile.frames_since"), Some(1.0));
        if cfg!(feature = "telemetry") {
            // Frame 1 composites under the profiling label, frame 2 plain.
            assert!(t1.span_count(SpanKind::Profile) > 0);
            assert_eq!(t1.span_count(SpanKind::Composite), 0);
            assert!(t2.span_count(SpanKind::Composite) > 0);
            assert_eq!(t2.span_count(SpanKind::Profile), 0);
            // Every worker with a nonempty band records exactly one wait on
            // the completion flags, and the default watchdog armed each one.
            let waits = t2.span_count(SpanKind::Wait) as u64;
            assert!(waits > 0);
            assert_eq!(t2.metrics.counter("watchdog.arms"), waits);
            // No global barrier in the new algorithm.
            assert_eq!(t2.span_count(SpanKind::Barrier), 0);
        }
    }

    #[test]
    fn panic_repair_is_visible_in_telemetry() {
        let (enc, view) = scene();
        let mut r = NewParallelRenderer::new(ParallelConfig::with_procs(3));
        r.fault = Some(FaultPlan::new(1).panic_at(0));
        let (_, stats) = r.try_render_with_stats(&enc, &view).expect("recovered");
        let t = r
            .last_telemetry
            .as_ref()
            .expect("telemetry survives repair");
        assert_eq!(
            t.metrics.counter("stats.worker_panics"),
            stats.worker_panics
        );
        assert_eq!(
            t.metrics.counter("stats.repaired_rows"),
            stats.repaired_rows
        );
        assert_eq!(t.metrics.gauge("stats.degraded"), Some(1.0));
        if cfg!(feature = "telemetry") {
            assert_eq!(t.workers[0].kind_count(SpanKind::Repair), 1);
        }
    }
}
