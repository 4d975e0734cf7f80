//! Multi-frame pipelined animation rendering: a persistent worker pool with
//! cross-frame composite/warp overlap.
//!
//! The paper's new algorithm removes the barrier *inside* a frame (§4.5) but
//! still joins every worker at the end of each frame; its future-work
//! discussion points at overlapping successive frames to hide the residual
//! load imbalance. [`AnimationPipeline`] does exactly that for an animation.
//! Each frame is planned, armed, worked and resolved by the same four
//! functions the single-frame
//! [`NewParallelRenderer`](crate::NewParallelRenderer) calls (see the
//! [crate docs](crate#the-new-algorithms-frame)), so per-frame pixels,
//! stats, containment and repair are the same by construction. What this
//! module adds is how frames *overlap*:
//!
//! * **Persistent pool** — `nprocs` workers are spawned (and pinned) once
//!   per animation, not once per frame. Each worker loops over frame
//!   indices, parked on a release gate between frames.
//! * **Two-frame window** — frame state (intermediate + final image, the
//!   frame's scheduler state, span logs) is double-buffered by frame parity.
//!   The driver publishes frame *N+1* before resolving frame *N*, so a
//!   worker that has finished compositing and warping its band of frame *N*
//!   immediately starts compositing its band of frame *N+1* while stragglers
//!   are still warping frame *N*. Frame *N*'s epoch is `N+1`, so a flag left
//!   in a reused slot by frame *N−2* can never release frame *N*'s warp, and
//!   the watchdog measures each wait from its own start, so a frame-*N+1*
//!   waiter outwaiting frame-*N* stragglers is not a false stall.
//! * **Back-pressure and in-order delivery** — completed frames are
//!   snapshotted into owned [`FinalImage`]s and handed to the caller through
//!   a small bounded SPSC ring, in frame order; the caller consumes frame
//!   *N* while *N+1* renders. A full ring blocks the driver, which delays
//!   the next publish, which parks the workers — the window never exceeds
//!   two frames in flight.

use crate::fault::FaultPlan;
use crate::frame::{self, FrameBufs, FrameCtx, FramePlan, FrameState, ProfileState};
use crate::placement::{pin_current_thread, PinLedger};
use crate::telem;
use crate::{Error, ParallelConfig, RenderStats};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;
use swr_geom::{Factorization, ViewSpec};
use swr_render::{
    CompositeOpts, FinalImage, IntermediateImage, SharedFinal, SharedIntermediate, VolumeSrc,
};
use swr_telemetry::{
    us_to_secs, Correlation, FrameClock, FrameTelemetry, MetricsRegistry, SpanKind, WorkerLog,
};
use swr_volume::EncodedVolume;

/// Completed frames buffered between the driver and the consumer. Two is
/// enough to decouple them; more would only grow latency and memory.
const RING_CAP: usize = 2;

/// Frames of telemetry retained per animation (the earliest frames win —
/// they are the ones equivalence and overlap assertions inspect). Dropping
/// the tail bounds memory for long animations.
const TELEMETRY_CAP: usize = 256;

/// One published frame: its plan, shared by `Arc` so each worker picks it
/// up with one lock acquisition per frame.
#[derive(Debug)]
struct Published {
    plan: FramePlan,
    /// Clock tick at which the frame was released to the workers.
    publish_us: u64,
}

/// One parity slot of the two-frame window: the frame's scheduler state,
/// sized once (at the animation's maximum intermediate height), plus what
/// only a pipeline needs around it. Everything is mutated through atomics
/// and mutexes, so the driver can re-arm a slot between frames while
/// workers run the other one.
struct SlotState {
    published: Mutex<Option<Arc<Published>>>,
    frame: FrameState,
    /// Workers that have fully finished this slot's frame. The driver
    /// resolves the frame once this reaches `nprocs`.
    finished: Mutex<usize>,
    finished_cv: Condvar,
    /// Per-worker span logs for the slot's current frame, swapped out at
    /// resolve time into that frame's telemetry.
    logs: Vec<Mutex<WorkerLog>>,
    driver_log: Mutex<WorkerLog>,
}

impl SlotState {
    fn new(h_max: usize, nprocs: usize) -> Self {
        let mut frame = FrameState::default();
        frame.resize(h_max, nprocs);
        SlotState {
            published: Mutex::new(None),
            frame,
            finished: Mutex::new(0),
            finished_cv: Condvar::new(),
            logs: telem::worker_logs(nprocs),
            driver_log: Mutex::new(telem::driver_log()),
        }
    }

    /// Marks this worker's frame complete and wakes the driver when it is
    /// the last one. Called on every exit path — success, contained panic,
    /// or stall — so the driver's resolve wait always terminates.
    fn arrive(&self, nprocs: usize) {
        let mut n = self.finished.lock();
        *n += 1;
        if *n == nprocs {
            self.finished_cv.notify_all();
        }
    }
}

/// What the release gate tells a waiting worker about frame `n`.
enum GateOutcome {
    /// Frame `n` is published: render it.
    Proceed,
    /// The animation is over and frame `n` will never be published: exit.
    Exit,
}

/// The publish gate: workers park here between frames. `released` counts
/// published frames, so a worker asking about frame `n` proceeds exactly
/// when `released > n`. Shutdown never cancels an already-published frame —
/// every published frame is fully processed by all workers, which is what
/// keeps the driver's resolve waits and the row-flag waits terminating.
struct Gate {
    state: Mutex<(u64, bool)>,
    cv: Condvar,
}

impl Gate {
    fn new() -> Self {
        Gate {
            state: Mutex::new((0, false)),
            cv: Condvar::new(),
        }
    }

    fn release(&self, frame: usize) {
        let mut s = self.state.lock();
        s.0 = frame as u64 + 1;
        self.cv.notify_all();
    }

    fn shutdown(&self) {
        let mut s = self.state.lock();
        s.1 = true;
        self.cv.notify_all();
    }

    fn wait_for(&self, frame: usize) -> GateOutcome {
        let mut s = self.state.lock();
        loop {
            if s.0 > frame as u64 {
                return GateOutcome::Proceed;
            }
            if s.1 {
                return GateOutcome::Exit;
            }
            self.cv.wait(&mut s);
        }
    }
}

/// A completed frame on its way to the sink.
type Delivery = (usize, FinalImage, RenderStats);

/// The bounded in-order SPSC hand-off of completed frames.
struct Ring {
    /// The queued deliveries plus the closed flag.
    state: Mutex<(VecDeque<Delivery>, bool)>,
    /// Signaled when space frees up (or the ring closes).
    space: Condvar,
    /// Signaled when a frame arrives (or the ring closes).
    item: Condvar,
}

impl Ring {
    fn new() -> Self {
        Ring {
            state: Mutex::new((VecDeque::with_capacity(RING_CAP), false)),
            space: Condvar::new(),
            item: Condvar::new(),
        }
    }

    /// Blocks while the ring is full; drops the frame if the ring closed
    /// (the consumer is gone — its panic is already propagating).
    fn push(&self, frame: (usize, FinalImage, RenderStats)) {
        let mut s = self.state.lock();
        while s.0.len() >= RING_CAP && !s.1 {
            self.space.wait(&mut s);
        }
        if !s.1 {
            s.0.push_back(frame);
            self.item.notify_all();
        }
    }

    /// Blocks until a frame is available; `None` once the ring is closed
    /// *and* drained.
    fn pop(&self) -> Option<(usize, FinalImage, RenderStats)> {
        let mut s = self.state.lock();
        loop {
            if let Some(f) = s.0.pop_front() {
                self.space.notify_all();
                return Some(f);
            }
            if s.1 {
                return None;
            }
            self.item.wait(&mut s);
        }
    }

    fn close(&self) {
        let mut s = self.state.lock();
        s.1 = true;
        self.item.notify_all();
        self.space.notify_all();
    }
}

/// Unblocks everything if the consumer unwinds (a panicking `sink`), so the
/// scope join cannot deadlock: workers see the shutdown at their next gate
/// wait, the driver's ring pushes turn into drops.
struct ShutdownGuard<'a> {
    gate: &'a Gate,
    ring: &'a Ring,
}

impl Drop for ShutdownGuard<'_> {
    fn drop(&mut self) {
        self.ring.close();
        self.gate.shutdown();
    }
}

/// A multi-frame animation renderer: persistent worker pool, two frames in
/// flight, in-order frame delivery. See the module docs for the design and
/// [`AnimationPipeline::try_render_animation`] for the API.
#[derive(Debug, Default)]
pub struct AnimationPipeline {
    /// Configuration (processor count, steal chunk, profile period) — the
    /// same knobs as the single-frame renderers.
    pub cfg: ParallelConfig,
    /// Compositing options (early termination, depth cueing).
    pub composite_opts: CompositeOpts,
    /// Deterministic fault injection. Unlike the single-frame renderers the
    /// task/warp counters run across the whole animation, so one plan can
    /// target a panic inside any phase of any frame.
    pub fault: Option<FaultPlan>,
    /// Per-frame telemetry of the most recent animation, frame-ordered.
    /// Spans carry their frame id and all frames share one clock, so an
    /// exported trace shows frame N+1's composite spans overlapping frame
    /// N's warp spans. Capped at `TELEMETRY_CAP` (256) frames, earliest kept.
    /// A *failed* animation retains the frames resolved before the fault —
    /// including a final partial frame harvested at the fault itself — so
    /// a supervisor can feed a flight recorder with the spans of the frame
    /// that died.
    pub telemetry: Vec<FrameTelemetry>,
    /// Correlation ids stamped onto every frame's telemetry (the service
    /// sets this per request; standalone renders leave it `None`).
    pub correlation: Option<Correlation>,
    state: ProfileState,
}

impl AnimationPipeline {
    /// Creates a pipeline with the given configuration.
    pub fn new(cfg: ParallelConfig) -> Self {
        AnimationPipeline {
            cfg,
            ..Default::default()
        }
    }

    /// The per-scanline profile from the last profiled frame, if any.
    pub fn profile(&self) -> Option<&[u64]> {
        self.state.profile()
    }

    /// Restart hook for supervisors (`swr-serve`'s session supervisor and
    /// anything else that reuses one pipeline across failures): drops the
    /// cached cross-frame state (work profile + staleness clock), rearms
    /// any attached fault plan's counters, and clears retained telemetry.
    /// The pipeline behaves as freshly constructed on its next animation —
    /// in particular the first frame re-profiles — without reallocating.
    pub fn reset(&mut self) {
        self.state = ProfileState::default();
        if let Some(fp) = &self.fault {
            fp.reset();
        }
        self.telemetry.clear();
    }

    /// Detaches the fault plan, returning it. The retry ladder in
    /// `swr-serve` uses this to re-attempt a faulted request without the
    /// deterministic fault re-firing on the retry.
    pub fn take_fault(&mut self) -> Option<FaultPlan> {
        self.fault.take()
    }

    /// Renders `views` in order, delivering each completed frame to `sink`
    /// as `(frame_index, image, stats)` while later frames are still
    /// rendering. Returns after every frame is delivered, or with the first
    /// typed error (which also stops the animation).
    ///
    /// `sink` runs on the calling thread. A slow sink exerts back-pressure:
    /// at most `RING_CAP` (two) completed frames are buffered ahead of it.
    pub fn try_render_animation(
        &mut self,
        enc: &EncodedVolume,
        views: &[ViewSpec],
        sink: impl FnMut(usize, FinalImage, &RenderStats),
    ) -> Result<(), Error> {
        self.try_render_animation_src(VolumeSrc::Flat(enc), views, sink)
    }

    /// Layout-polymorphic form of [`AnimationPipeline::try_render_animation`]:
    /// renders from any [`VolumeSrc`] (flat per-axis RLE or bricked, possibly
    /// streamed through a bounded [`BrickCache`](swr_volume::BrickCache)).
    /// Output is bit-identical across layouts for the same views.
    pub fn try_render_animation_src(
        &mut self,
        src: VolumeSrc<'_>,
        views: &[ViewSpec],
        mut sink: impl FnMut(usize, FinalImage, &RenderStats),
    ) -> Result<(), Error> {
        self.cfg.try_validate()?;
        for view in views {
            view.try_validate()?;
        }
        if views.is_empty() {
            return Ok(());
        }
        let nprocs = self.cfg.nprocs;
        let facts: Vec<Factorization> = views.iter().map(Factorization::from_view).collect();
        // Double buffers sized to the animation's largest frame; each frame
        // renders through an exactly-sized logical window of them.
        let (mut iw, mut ih, mut fw, mut fh) = (1usize, 1usize, 1usize, 1usize);
        for f in &facts {
            iw = iw.max(f.inter_w);
            ih = ih.max(f.inter_h);
            fw = fw.max(f.final_w);
            fh = fh.max(f.final_h);
        }
        let mut inter_a = IntermediateImage::new(iw, ih);
        let mut inter_b = IntermediateImage::new(iw, ih);
        let mut final_a = FinalImage::new(fw, fh);
        let mut final_b = FinalImage::new(fw, fh);
        let state = std::mem::take(&mut self.state);
        let pool = Pool {
            ctx: FrameCtx {
                cfg: &self.cfg,
                composite_opts: self.composite_opts,
                fault: self.fault.as_ref(),
                clock: FrameClock::new(),
            },
            correlation: self.correlation,
            src,
            views,
            facts: &facts,
            slots: [SlotState::new(ih, nprocs), SlotState::new(ih, nprocs)],
            gate: Gate::new(),
            ring: Ring::new(),
            pins: PinLedger::new(),
            shared_inter: [
                SharedIntermediate::new(&mut inter_a),
                SharedIntermediate::new(&mut inter_b),
            ],
            shared_final: [
                SharedFinal::new(&mut final_a),
                SharedFinal::new(&mut final_b),
            ],
        };

        // The vendored scoped-thread shim has no join handles, so the
        // driver parks its result here before the scope joins it. The
        // telemetry rides outside the Result so a faulted animation still
        // hands back the frames it resolved before dying.
        type DriverOut = (Result<ProfileState, Error>, Vec<FrameTelemetry>);
        let driver_out: Mutex<Option<DriverOut>> = Mutex::new(None);
        let scope_out = crossbeam::scope(|s| {
            let pool = &pool;
            for p in 0..nprocs {
                s.spawn(move |_| pool.work(p));
            }
            let out_slot = &driver_out;
            s.spawn(move |_| *out_slot.lock() = Some(pool.run(state)));

            // Consume on the caller's thread: frame N is delivered while
            // frame N+1 renders. The guard unblocks the pool if `sink`
            // unwinds.
            let _guard = ShutdownGuard {
                gate: &pool.gate,
                ring: &pool.ring,
            };
            while let Some((frame, img, stats)) = pool.ring.pop() {
                if let Some(fp) = pool.ctx.fault {
                    // Delivery-stage fault injection: a panic here unwinds
                    // through the guard above exactly like a real sink bug.
                    fp.on_sink();
                }
                sink(frame, img, &stats);
            }
        });
        if let Err(payload) = scope_out {
            // A panic in `sink` (workers and the driver contain theirs):
            // keep whatever telemetry the driver parked — a supervisor's
            // flight recorder wants the dying frames — then re-raise it on
            // the caller's thread.
            if let Some((_, telemetry)) = driver_out.lock().take() {
                self.telemetry = telemetry;
            }
            std::panic::resume_unwind(payload);
        }
        let (out, telemetry) = driver_out
            .lock()
            .take()
            .expect("the driver completes before the scope joins");
        self.telemetry = telemetry;
        self.state = out?;
        Ok(())
    }

    /// Convenience form of [`AnimationPipeline::try_render_animation`]
    /// collecting every frame in order.
    pub fn try_render_all(
        &mut self,
        enc: &EncodedVolume,
        views: &[ViewSpec],
    ) -> Result<Vec<FinalImage>, Error> {
        let mut frames = Vec::with_capacity(views.len());
        self.try_render_animation(enc, views, |_, img, _| frames.push(img))?;
        Ok(frames)
    }

    /// Convenience form of [`AnimationPipeline::try_render_animation_src`]
    /// collecting every frame in order.
    pub fn try_render_all_src(
        &mut self,
        src: VolumeSrc<'_>,
        views: &[ViewSpec],
    ) -> Result<Vec<FinalImage>, Error> {
        let mut frames = Vec::with_capacity(views.len());
        self.try_render_animation_src(src, views, |_, img, _| frames.push(img))?;
        Ok(frames)
    }
}

/// Everything the pool's threads — `nprocs` workers and the driver — share
/// for the length of one animation.
struct Pool<'a, 'img> {
    ctx: FrameCtx<'a>,
    correlation: Option<Correlation>,
    src: VolumeSrc<'a>,
    views: &'a [ViewSpec],
    facts: &'a [Factorization],
    slots: [SlotState; 2],
    gate: Gate,
    ring: Ring,
    pins: PinLedger,
    shared_inter: [SharedIntermediate<'img>; 2],
    shared_final: [SharedFinal<'img>; 2],
}

impl<'a, 'img> Pool<'a, 'img> {
    /// Frame `frame`'s exactly-sized windows of its parity's double buffers.
    fn bufs(&self, fact: &Factorization, frame: usize) -> FrameBufs<'a, 'img> {
        FrameBufs {
            rle: self.src.for_axis(fact.principal),
            inter: self.shared_inter[frame % 2].window(fact.inter_w, fact.inter_h),
            out: self.shared_final[frame % 2].window(fact.final_w, fact.final_h),
        }
    }

    /// The persistent worker loop: one gate wait and one frame of work per
    /// published frame, until shutdown.
    fn work(&self, p: usize) {
        let nprocs = self.ctx.cfg.nprocs;
        // Pin once for the whole animation, before any frame's first-touch
        // writes, so a worker's pages stay on its node across every frame.
        self.pins
            .record(pin_current_thread(self.ctx.cfg.placement, p, nprocs));
        for frame in 0.. {
            match self.gate.wait_for(frame) {
                GateOutcome::Proceed => {}
                GateOutcome::Exit => return,
            }
            let slot = &self.slots[frame % 2];
            let published = slot
                .published
                .lock()
                .clone()
                .expect("gate released only after publish");
            let plan = &published.plan;
            let bufs = self.bufs(&plan.fact, frame);
            // A contained panic or a stall ends this worker's share of this
            // frame only: it is repaired at resolve, the next one proceeds.
            frame::work(
                &self.ctx,
                &slot.frame,
                plan,
                &bufs,
                p,
                &mut slot.logs[p].lock(),
            );
            slot.arrive(nprocs);
        }
    }

    /// The driver loop: publish frame N+1, then resolve frame N — the
    /// two-frame window falls straight out of this ordering. Always shuts
    /// the gate and closes the ring on the way out, error or not.
    fn run(&self, state: ProfileState) -> (Result<ProfileState, Error>, Vec<FrameTelemetry>) {
        let mut telemetry = Vec::new();
        let out = self.drive(state, &mut telemetry);
        self.gate.shutdown();
        self.ring.close();
        (out, telemetry)
    }

    fn drive(
        &self,
        mut state: ProfileState,
        telemetry: &mut Vec<FrameTelemetry>,
    ) -> Result<ProfileState, Error> {
        let nframes = self.views.len();
        // The driver's own handles on each in-flight frame.
        let mut in_flight: [Option<Arc<Published>>; 2] = [None, None];
        let mut last_completion_us = 0u64;
        for frame in 0..nframes {
            in_flight[frame % 2] = Some(self.publish(frame, &mut state));
            if frame >= 1 {
                let published = in_flight[(frame - 1) % 2].take().expect("published");
                self.resolve(&published, &mut state, telemetry, &mut last_completion_us)?;
            }
        }
        let published = in_flight[(nframes - 1) % 2].take().expect("published");
        self.resolve(&published, &mut state, telemetry, &mut last_completion_us)?;
        Ok(state)
    }

    /// Plans `frame`, arms its parity slot and releases the workers into
    /// it. The slot is quiescent here: its previous frame (`frame - 2`) was
    /// resolved before this call, and workers touch a slot only between
    /// gate release and their arrival.
    fn publish(&self, frame: usize, state: &mut ProfileState) -> Arc<Published> {
        let slot = &self.slots[frame % 2];
        let clock = &self.ctx.clock;
        let fact = self.facts[frame].clone();
        let bufs = self.bufs(&fact, frame);
        let part_start = clock.now_us();
        let model = self.views[frame].model;
        let epoch = frame as u64 + 1;
        let plan = frame::plan(&self.ctx, state, bufs.rle, fact, model, frame, epoch);
        slot.frame.arm(&self.ctx, &plan, &bufs);
        *slot.finished.lock() = 0;
        // A clean logical final image: band warps only write pixels whose
        // source row lands in the composited region.
        // SAFETY: the slot (and thus its buffers) is quiescent until the
        // gate release below.
        unsafe { bufs.out.fill_black() };

        let publish_us = clock.now_us();
        if telem::collect() {
            slot.driver_log.lock().record_in_frame(
                SpanKind::Partition,
                part_start,
                publish_us,
                plan.region.start as u32,
                plan.region.len() as u32,
                frame as u32,
            );
        }
        let published = Arc::new(Published { plan, publish_us });
        *slot.published.lock() = Some(published.clone());
        self.gate.release(frame);
        published
    }

    /// Waits for every worker to finish the frame, resolves it (repairing
    /// any contained damage serially and harvesting the profile, as for a
    /// single frame), assembles its telemetry, and delivers the snapshot in
    /// order through the ring.
    fn resolve(
        &self,
        published: &Published,
        state: &mut ProfileState,
        telemetry: &mut Vec<FrameTelemetry>,
        last_completion_us: &mut u64,
    ) -> Result<(), Error> {
        let plan = &published.plan;
        let slot = &self.slots[plan.frame % 2];
        {
            let mut finished = slot.finished.lock();
            while *finished < self.ctx.cfg.nprocs {
                slot.finished_cv.wait(&mut finished);
            }
        }
        // From here the slot is quiescent: every worker has arrived and
        // will not touch it again before the next publish.
        let bufs = self.bufs(&plan.fact, plan.frame);
        let mut stats = RenderStats::default();
        let resolved = frame::resolve(
            &self.ctx,
            &slot.frame,
            plan,
            &bufs,
            state,
            &mut slot.driver_log.lock(),
            &mut stats,
        );
        if let Err(e) = resolved {
            // Dump hook: harvest the dying frame's spans before the typed
            // error stops the animation, so a supervisor's flight recorder
            // sees what every worker was doing when the frame failed.
            if telemetry.len() < TELEMETRY_CAP {
                let kind = match e {
                    Error::Stalled { .. } => "stall",
                    _ => "worker_panic",
                };
                let end = self.ctx.clock.now_us();
                telemetry.push(self.harvest(published, end, &stats, |m| {
                    m.inc("frame.faulted", 1);
                    m.inc(&format!("frame.faulted.{kind}"), 1);
                }));
            }
            return Err(e);
        }

        let completion_us = self.ctx.clock.now_us();
        // Stamp the resolve tick so consumers can time pipelined frames by
        // completion gaps: the ring can release two buffered frames
        // back-to-back, making sink-arrival gaps collapse to ~0 and wrecking
        // any min-frame-time statistic derived from them.
        stats.completion_us = completion_us;
        stats.composite_secs = us_to_secs(completion_us.saturating_sub(published.publish_us));
        // How long this frame overlapped its predecessor: the stretch from
        // this frame's publish to the previous frame's completion, during
        // which both were in flight.
        let overlap_us = last_completion_us.saturating_sub(published.publish_us);
        *last_completion_us = completion_us;

        if telemetry.len() < TELEMETRY_CAP {
            let frames_since = state.frames_since();
            telemetry.push(self.harvest(published, completion_us, &stats, |m| {
                m.inc("watchdog.arms", slot.frame.watchdog_arms());
                m.set_gauge("profile.frames_since", frames_since as f64);
                m.set_gauge("pipeline.overlap_us", overlap_us as f64);
                m.set_gauge("pipeline.in_flight_max", 2.0);
                m.set_gauge("core.pinned", self.pins.pinned() as f64);
                m.set_gauge("core.numa_node", self.pins.max_numa_node() as f64);
            }));
        }

        // SAFETY: the frame's warp is complete and the slot is quiescent.
        let img = unsafe { bufs.out.snapshot() };
        self.ring.push((plan.frame, img, stats));
        Ok(())
    }

    /// Swaps the slot's span logs out into one frame of telemetry (fresh
    /// logs go back in), stamped with the pipeline's correlation ids and
    /// scoped to the frame's publish→`end` interval. The animation shares
    /// one clock, so spans of overlapping frames stay comparable.
    fn harvest(
        &self,
        published: &Published,
        end: u64,
        stats: &RenderStats,
        extra: impl FnOnce(&mut MetricsRegistry),
    ) -> FrameTelemetry {
        let frame = published.plan.frame;
        let slot = &self.slots[frame % 2];
        let mut driver = telem::driver_log();
        std::mem::swap(&mut driver, &mut slot.driver_log.lock());
        let workers = telem::worker_logs(self.ctx.cfg.nprocs);
        for (fresh, log) in workers.iter().zip(&slot.logs) {
            std::mem::swap(&mut *fresh.lock(), &mut *log.lock());
        }
        let clock = &self.ctx.clock;
        let mut t = telem::finish_frame("pipeline", clock, driver, workers, stats, extra);
        t.frame_span.start = published.publish_us;
        t.frame_span.end = end;
        t.frame_span.frame = frame as u32;
        t.correlation = self.correlation;
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NewParallelRenderer;
    use std::panic::AssertUnwindSafe;
    use swr_error::panic_message;
    use swr_volume::{classify, Phantom};

    fn scene(frames: usize) -> (EncodedVolume, Vec<ViewSpec>) {
        let vol = Phantom::MriBrain.generate([24, 24, 16], 11);
        let c = classify(&vol, &Phantom::MriBrain.default_transfer());
        let views = (0..frames)
            .map(|i| {
                ViewSpec::new([24, 24, 16])
                    .rotate_y((i as f64 * 3.0).to_radians())
                    .rotate_x(0.2)
            })
            .collect();
        (EncodedVolume::encode(&c), views)
    }

    #[test]
    fn pipelined_frames_match_the_single_frame_renderer() {
        let (enc, views) = scene(6);
        let mut reference = NewParallelRenderer::new(ParallelConfig::with_procs(3));
        let mut pipe = AnimationPipeline::new(ParallelConfig::with_procs(3));
        let frames = pipe
            .try_render_all(&enc, &views)
            .expect("animation renders");
        assert_eq!(frames.len(), views.len());
        for (i, (view, img)) in views.iter().zip(&frames).enumerate() {
            assert_eq!(
                img,
                &reference.try_render(&enc, view).expect("reference"),
                "frame {i}"
            );
        }
    }

    #[test]
    fn frames_are_delivered_in_order() {
        let (enc, views) = scene(5);
        let mut pipe = AnimationPipeline::new(ParallelConfig::with_procs(2));
        let mut seen = Vec::new();
        pipe.try_render_animation(&enc, &views, |frame, img, stats| {
            assert!(img.width() > 0);
            assert!(stats.composited_pixels > 0);
            seen.push(frame);
        })
        .expect("animation renders");
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn empty_view_list_is_a_no_op() {
        let (enc, _) = scene(1);
        let mut pipe = AnimationPipeline::new(ParallelConfig::with_procs(2));
        pipe.try_render_animation(&enc, &[], |_, _, _| panic!("no frames expected"))
            .expect("empty animation");
        assert!(pipe.telemetry.is_empty());
    }

    #[test]
    fn invalid_config_is_typed_not_panicking() {
        let (enc, views) = scene(1);
        let mut pipe = AnimationPipeline::new(ParallelConfig::with_procs(0));
        let e = pipe
            .try_render_all(&enc, &views)
            .expect_err("nprocs = 0 must be rejected");
        assert!(matches!(e, Error::InvalidConfig { .. }), "{e}");
    }

    #[test]
    fn sink_panic_unwinds_without_deadlock() {
        let (enc, views) = scene(4);
        let mut pipe = AnimationPipeline::new(ParallelConfig::with_procs(2));
        let unwound = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pipe.try_render_animation(&enc, &views, |frame, _, _| {
                if frame == 1 {
                    panic!("sink exploded");
                }
            })
        }));
        let msg = panic_message(unwound.expect_err("sink panic propagates").as_ref());
        assert!(msg.contains("sink exploded"), "{msg}");
    }

    #[test]
    fn injected_sink_fault_unwinds_without_deadlock() {
        let (enc, views) = scene(4);
        let mut pipe = AnimationPipeline::new(ParallelConfig::with_procs(2));
        pipe.fault = Some(FaultPlan::new(0).panic_in_sink_at(1));
        let mut delivered = Vec::new();
        let unwound = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pipe.try_render_animation(&enc, &views, |frame, _, _| delivered.push(frame))
        }));
        let msg = panic_message(unwound.expect_err("sink fault propagates").as_ref());
        assert!(msg.contains("sink panic delivering frame 1"), "{msg}");
        // Frame 0 reached the sink before the armed delivery; frame 1's
        // delivery panicked before the sink saw it.
        assert_eq!(delivered, vec![0]);
    }

    #[test]
    fn reset_restores_a_fresh_pipeline_after_a_sink_fault() {
        let (enc, views) = scene(3);
        let mut reference = NewParallelRenderer::new(ParallelConfig::with_procs(2));
        let mut pipe = AnimationPipeline::new(ParallelConfig::with_procs(2));
        pipe.fault = Some(FaultPlan::new(0).panic_in_sink_at(0));
        let unwound = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pipe.try_render_animation(&enc, &views, |_, _, _| {})
        }));
        assert!(unwound.is_err(), "armed sink fault must fire");
        // Supervisor restart: detach the fault, reset, and the same
        // pipeline renders the animation bit-identically to the
        // single-frame renderer.
        assert!(pipe.take_fault().is_some());
        pipe.reset();
        assert!(pipe.profile().is_none(), "profile state dropped");
        assert!(pipe.telemetry.is_empty(), "telemetry cleared");
        let frames = pipe
            .try_render_all(&enc, &views)
            .expect("clean after reset");
        for (view, img) in views.iter().zip(&frames) {
            assert_eq!(img, &reference.try_render(&enc, view).expect("reference"));
        }
    }
}
