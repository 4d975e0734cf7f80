//! Multi-frame pipelined animation rendering: a persistent worker pool with
//! cross-frame composite/warp overlap.
//!
//! The paper's new algorithm removes the barrier *inside* a frame (§4.5) but
//! still joins every worker at the end of each frame; its future-work
//! discussion points at overlapping successive frames to hide the residual
//! load imbalance. [`AnimationPipeline`] does exactly that for an animation:
//!
//! * **Persistent pool** — `nprocs` workers are spawned once per animation,
//!   not once per frame. Each worker loops over frame indices, parked on a
//!   release gate between frames.
//! * **Two-frame window** — frame state (intermediate + final image, row
//!   flags, steal queues) is double-buffered by frame parity. The driver
//!   publishes frame *N+1* before resolving frame *N*, so a worker that has
//!   finished compositing and warping its band of frame *N* immediately
//!   starts compositing its band of frame *N+1* while stragglers are still
//!   warping frame *N*.
//! * **Epoch-tagged completion flags** — the per-row flags are generation
//!   counters ([`FrameScratch`]'s epoch scheme): a frame-*N* wait is
//!   satisfied only by values `>= N+1`, so a stale flag left in a reused
//!   slot by frame *N−2* can never release frame *N*'s warp.
//! * **Back-pressure and in-order delivery** — completed frames are
//!   snapshotted into owned [`FinalImage`]s and handed to the caller through
//!   a small bounded SPSC ring, in frame order; the caller consumes frame
//!   *N* while *N+1* renders. A full ring blocks the driver, which delays
//!   the next publish, which parks the workers — the window never exceeds
//!   two frames in flight.
//!
//! Per-frame output is bit-identical to the non-pipelined
//! [`NewParallelRenderer`](crate::NewParallelRenderer): partitions only
//! decide *who* composites a row, never its value, and the warp writes every
//! final pixel exactly once. Worker panics in either phase of either
//! in-flight frame are contained exactly as in the single-frame renderer and
//! repaired serially when that frame is resolved; the watchdog measures each
//! wait from its own start, so a frame-*N+1* waiter outwaiting frame-*N*
//! stragglers is not a false stall.

use crate::fault::FaultPlan;
use crate::new_renderer::{
    composite_chunk_rows, extend_band, recomposite_row, rewarp_unfinished_bands, wait_for_rows,
    WaitOutcome, UNCLAIMED,
};
use crate::old_renderer::{pop_or_steal, StealQueue};
use crate::pad::CachePadded;
use crate::partition::{balanced_contiguous, equal_contiguous, partition_chunks};
use crate::placement::{pin_current_thread, PinLedger};
use crate::prefix::parallel_prefix_sum;
use crate::telem;
use crate::{Error, ParallelConfig, RenderStats};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use swr_error::panic_message;
use swr_geom::{Factorization, Mat4, ViewSpec};
use swr_render::{
    composite::occupied_y_bounds_src, warp_row_band, CompositeOpts, FinalImage, IntermediateImage,
    NullTracer, SharedFinal, SharedIntermediate, VolumeSrc,
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

/// Everything the workers need to know about one published frame. Shared by
/// `Arc` so each worker picks it up with one lock acquisition per frame.
#[derive(Debug)]
struct SlotParams {
    /// Frame index in the animation.
    frame: usize,
    /// Completion epoch (`frame + 1`; 0 means "never completed").
    epoch: u64,
    fact: Factorization,
    region: Range<usize>,
    partitions: Vec<Range<usize>>,
    profiling: bool,
    opts: CompositeOpts,
    /// Clock tick at which the frame was released to the workers.
    publish_us: u64,
}

/// One parity slot of the two-frame window: scheduler state sized once (at
/// the animation's maximum intermediate height), mutated only through
/// atomics and mutexes so the driver can re-arm it between frames while
/// workers run the other slot.
struct SlotState {
    params: Mutex<Option<Arc<SlotParams>>>,
    /// Per-row completion epochs (see [`FrameScratch`] for the scheme).
    rows_done: Vec<AtomicU64>,
    /// Which worker last claimed each row (stall diagnostics).
    row_claim: Vec<CachePadded<AtomicUsize>>,
    /// Profile collection target on profiling frames.
    new_profile: Vec<AtomicU64>,
    /// Per-worker warp completion epochs.
    warp_done: Vec<AtomicU64>,
    /// Per-worker steal queues.
    queues: Vec<StealQueue>,
    /// Compositors still running this slot's frame (lost-row proof).
    active: CachePadded<AtomicUsize>,
    steals: CachePadded<AtomicU64>,
    composited: CachePadded<AtomicU64>,
    watchdog_arms: CachePadded<AtomicU64>,
    panics: Mutex<Vec<(usize, String)>>,
    stalled: Mutex<Option<(usize, u64)>>,
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
        let cap = if telem::collect() { telem::SPAN_CAP } else { 0 };
        SlotState {
            params: Mutex::new(None),
            rows_done: (0..h_max).map(|_| AtomicU64::new(0)).collect(),
            row_claim: (0..h_max)
                .map(|_| CachePadded::new(AtomicUsize::new(UNCLAIMED)))
                .collect(),
            new_profile: (0..h_max).map(|_| AtomicU64::new(0)).collect(),
            warp_done: (0..nprocs).map(|_| AtomicU64::new(0)).collect(),
            queues: (0..nprocs).map(|_| StealQueue::default()).collect(),
            active: CachePadded::new(AtomicUsize::new(0)),
            steals: CachePadded::new(AtomicU64::new(0)),
            composited: CachePadded::new(AtomicU64::new(0)),
            watchdog_arms: CachePadded::new(AtomicU64::new(0)),
            panics: Mutex::new(Vec::new()),
            stalled: Mutex::new(None),
            finished: Mutex::new(0),
            finished_cv: Condvar::new(),
            logs: (0..nprocs)
                .map(|p| Mutex::new(WorkerLog::new(p, cap)))
                .collect(),
            driver_log: Mutex::new(WorkerLog::new(
                WorkerLog::DRIVER,
                if telem::collect() { 256 } else { 0 },
            )),
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

/// The work-profile state that persists across frames (and across
/// animations on the same pipeline), identical to the non-pipelined
/// renderer's bookkeeping.
#[derive(Debug, Default)]
struct ProfileState {
    profile: Vec<u64>,
    valid: bool,
    frames_since: usize,
    last_model: Option<Mat4>,
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
    /// N's warp spans. Capped at [`TELEMETRY_CAP`] frames (earliest kept).
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
        self.state.valid.then_some(self.state.profile.as_slice())
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
    /// at most [`RING_CAP`] completed frames are buffered ahead of it.
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
        let slots = [SlotState::new(ih, nprocs), SlotState::new(ih, nprocs)];
        let gate = Gate::new();
        let ring = Ring::new();
        let clock = FrameClock::new();
        let state = std::mem::take(&mut self.state);
        let pins = PinLedger::new();
        let placement = self.cfg.placement;

        let shared_inter = [
            SharedIntermediate::new(&mut inter_a),
            SharedIntermediate::new(&mut inter_b),
        ];
        let shared_final = [
            SharedFinal::new(&mut final_a),
            SharedFinal::new(&mut final_b),
        ];

        let drive = DriverCtx {
            cfg: &self.cfg,
            composite_opts: self.composite_opts,
            correlation: self.correlation,
            fault: self.fault.as_ref(),
            src,
            views,
            facts: &facts,
            slots: &slots,
            gate: &gate,
            ring: &ring,
            clock: &clock,
            shared_inter: &shared_inter,
            shared_final: &shared_final,
            nprocs,
            pins: &pins,
        };

        // The vendored scoped-thread shim has no join handles, so the
        // driver parks its result here before the scope joins it. The
        // telemetry rides outside the Result so a faulted animation still
        // hands back the frames it resolved before dying.
        type DriverOut = (Result<ProfileState, Error>, Vec<FrameTelemetry>);
        let driver_out: Mutex<Option<DriverOut>> = Mutex::new(None);
        let scope_out = crossbeam::scope(|s| {
            for p in 0..nprocs {
                let worker = WorkerCtx {
                    p,
                    nprocs,
                    steal: self.cfg.steal,
                    watchdog: self.cfg.watchdog_timeout,
                    fault: self.fault.as_ref(),
                    src,
                    placement,
                    pins: &pins,
                    slots: &slots,
                    gate: &gate,
                    clock: &clock,
                    shared_inter: &shared_inter,
                    shared_final: &shared_final,
                };
                s.spawn(move |_| worker.run());
            }
            let out_slot = &driver_out;
            s.spawn(move |_| *out_slot.lock() = Some(drive.run(state)));

            // Consume on the caller's thread: frame N is delivered while
            // frame N+1 renders. The guard unblocks the pool if `sink`
            // unwinds.
            let _guard = ShutdownGuard {
                gate: &gate,
                ring: &ring,
            };
            let fault = self.fault.as_ref();
            while let Some((frame, img, stats)) = ring.pop() {
                if let Some(fp) = fault {
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

/// Everything one worker thread captures for the animation.
struct WorkerCtx<'a, 'img> {
    p: usize,
    nprocs: usize,
    steal: bool,
    watchdog: Option<std::time::Duration>,
    fault: Option<&'a FaultPlan>,
    src: VolumeSrc<'a>,
    placement: crate::placement::Placement,
    pins: &'a PinLedger,
    slots: &'a [SlotState; 2],
    gate: &'a Gate,
    clock: &'a FrameClock,
    shared_inter: &'a [SharedIntermediate<'img>; 2],
    shared_final: &'a [SharedFinal<'img>; 2],
}

impl WorkerCtx<'_, '_> {
    /// The persistent worker loop: one gate wait and one frame of work per
    /// published frame, until shutdown.
    fn run(&self) {
        // Pin once for the whole animation, before any frame's first-touch
        // writes, so a worker's pages stay on its node across every frame.
        self.pins
            .record(pin_current_thread(self.placement, self.p, self.nprocs));
        for frame in 0.. {
            match self.gate.wait_for(frame) {
                GateOutcome::Proceed => {}
                GateOutcome::Exit => return,
            }
            let slot = &self.slots[frame % 2];
            self.render_frame(slot, frame);
            slot.arrive(self.nprocs);
        }
    }

    /// One worker's share of one frame: composite its queue (plus steals),
    /// then wait on the rows its band reads and warp the band — the same
    /// protocol as the single-frame renderer, against this slot's epoch.
    fn render_frame(&self, slot: &SlotState, frame: usize) {
        let p = self.p;
        let params = slot
            .params
            .lock()
            .clone()
            .expect("gate released only after publish");
        let epoch = params.epoch;
        let fact = &params.fact;
        let rle = self.src.for_axis(fact.principal);
        let inter = self.shared_inter[frame % 2].window(fact.inter_w, fact.inter_h);
        let out = self.shared_final[frame % 2].window(fact.final_w, fact.final_h);
        let collect = telem::collect();
        let mut wlog = slot.logs[p].lock();
        let wlog = &mut *wlog;
        let clock = self.clock;

        let compose = catch_unwind(AssertUnwindSafe(|| {
            let mut local_pixels = 0u64;
            while let Some((rows, victim)) =
                pop_or_steal(p, &slot.queues, self.steal, &slot.steals, None)
            {
                let chunk_start = if collect { clock.now_us() } else { 0 };
                if let Some(v) = victim {
                    if collect {
                        wlog.record_in_frame(
                            SpanKind::Steal,
                            chunk_start,
                            chunk_start,
                            v as u32,
                            rows.start as u32,
                            frame as u32,
                        );
                    }
                }
                if let Some(fp) = self.fault {
                    fp.on_task(p);
                }
                for y in rows.clone() {
                    slot.row_claim[y].store(p, Ordering::Relaxed);
                }
                local_pixels += composite_chunk_rows(
                    rle,
                    fact,
                    &inter,
                    rows.clone(),
                    &params.opts,
                    &slot.new_profile,
                );
                if collect {
                    wlog.record_in_frame(
                        if params.profiling {
                            SpanKind::Profile
                        } else {
                            SpanKind::Composite
                        },
                        chunk_start,
                        clock.now_us(),
                        rows.start as u32,
                        rows.len() as u32,
                        frame as u32,
                    );
                }
                for y in rows {
                    slot.rows_done[y].store(epoch, Ordering::Release);
                }
            }
            slot.composited.fetch_add(local_pixels, Ordering::Relaxed);
        }));
        // Retire whatever happened — the lost-row proof needs every worker
        // to reach zero, and the Release RMW publishes the row flags.
        slot.active.fetch_sub(1, Ordering::Release);
        if let Err(payload) = compose {
            slot.panics
                .lock()
                .push((p, panic_message(payload.as_ref())));
            return; // this frame is repaired at resolve; next frame proceeds
        }

        let mut band = params.partitions[p].clone();
        if band.is_empty() {
            slot.warp_done[p].store(epoch, Ordering::Release);
            return;
        }
        extend_band(&mut band, params.region.start);
        let wait_hi = band.end.min(fact.inter_h - 1);
        if self.watchdog.is_some() {
            slot.watchdog_arms.fetch_add(1, Ordering::Relaxed);
        }
        let wait_from = clock.elapsed();
        let wait_start = if collect { clock.now_us() } else { 0 };
        let outcome = wait_for_rows(
            &slot.rows_done,
            epoch,
            &slot.active,
            band.start..wait_hi + 1,
            self.watchdog,
            clock,
            wait_from,
        );
        if collect {
            wlog.record_in_frame(
                SpanKind::Wait,
                wait_start,
                clock.now_us(),
                band.start as u32,
                (wait_hi + 1 - band.start) as u32,
                frame as u32,
            );
        }
        match outcome {
            WaitOutcome::Ready => {}
            WaitOutcome::Stalled { row, waited_ms } => {
                slot.stalled.lock().get_or_insert((row, waited_ms));
                return; // warp_done stays below epoch: resolve re-warps
            }
        }
        let warp_start = if collect { clock.now_us() } else { 0 };
        let warp = catch_unwind(AssertUnwindSafe(|| {
            if let Some(fp) = self.fault {
                fp.on_warp(p);
            }
            warp_row_band(&inter, fact, &out, (band.start, band.end), &mut NullTracer);
        }));
        if collect {
            wlog.record_in_frame(
                SpanKind::Warp,
                warp_start,
                clock.now_us(),
                band.start as u32,
                (band.end - band.start) as u32,
                frame as u32,
            );
        }
        match warp {
            Ok(()) => slot.warp_done[p].store(epoch, Ordering::Release),
            Err(payload) => {
                slot.panics
                    .lock()
                    .push((p, panic_message(payload.as_ref())));
            }
        }
    }
}

/// Everything the driver thread captures for the animation.
struct DriverCtx<'a, 'img> {
    cfg: &'a ParallelConfig,
    composite_opts: CompositeOpts,
    correlation: Option<Correlation>,
    fault: Option<&'a FaultPlan>,
    src: VolumeSrc<'a>,
    views: &'a [ViewSpec],
    facts: &'a [Factorization],
    slots: &'a [SlotState; 2],
    gate: &'a Gate,
    ring: &'a Ring,
    clock: &'a FrameClock,
    shared_inter: &'a [SharedIntermediate<'img>; 2],
    shared_final: &'a [SharedFinal<'img>; 2],
    nprocs: usize,
    pins: &'a PinLedger,
}

impl DriverCtx<'_, '_> {
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
        let mut cum_profile: Vec<u64> = Vec::new();
        // The driver's own copies of each in-flight frame's parameters.
        let mut in_flight: [Option<Arc<SlotParams>>; 2] = [None, None];
        let mut last_completion_us = 0u64;
        for frame in 0..nframes {
            in_flight[frame % 2] = Some(self.publish(frame, &mut state, &mut cum_profile));
            if frame >= 1 {
                let params = in_flight[(frame - 1) % 2].take().expect("published");
                self.resolve(params, &mut state, telemetry, &mut last_completion_us)?;
            }
        }
        let params = in_flight[(nframes - 1) % 2].take().expect("published");
        self.resolve(params, &mut state, telemetry, &mut last_completion_us)?;
        Ok(state)
    }

    /// Arms the parity slot for `frame` and releases the workers into it.
    /// The slot is quiescent here: its previous frame (`frame - 2`) was
    /// resolved before this call, and workers touch a slot only between
    /// gate release and their arrival.
    fn publish(
        &self,
        frame: usize,
        state: &mut ProfileState,
        cum_profile: &mut Vec<u64>,
    ) -> Arc<SlotParams> {
        let slot = &self.slots[frame % 2];
        let epoch = frame as u64 + 1;
        let fact = self.facts[frame].clone();
        let h = fact.inter_h;
        let rle = self.src.for_axis(fact.principal);
        let part_start = self.clock.now_us();

        let region: Range<usize> = if self.cfg.empty_region_clip {
            match occupied_y_bounds_src(rle, &fact) {
                Some((lo, hi)) => lo..hi + 1,
                None => 0..0, // empty volume: an all-empty frame
            }
        } else {
            0..h
        };

        // Profile staleness policy, evaluated against the newest *resolved*
        // profile: with two frames in flight, frame N+1 is published before
        // frame N's profile is harvested, so a fresh profile takes effect
        // two frames after collection. Partitions never affect pixels, so
        // this lag is invisible in the output.
        let have_profile = state.valid && state.profile.len() == h;
        let stale = match (self.cfg.profile_every_degrees, &state.last_model) {
            (Some(deg), Some(last)) => {
                last.rotation_angle_to(&self.views[frame].model)
                    .to_degrees()
                    >= deg
            }
            (Some(_), None) => true,
            (None, _) => state.frames_since + 1 >= self.cfg.profile_every,
        };
        let profiling =
            self.cfg.profiled_partition && !region.is_empty() && (!have_profile || stale);

        let partitions: Vec<Range<usize>> = if region.is_empty() {
            vec![0..0; self.nprocs]
        } else if self.cfg.profiled_partition && have_profile {
            cum_profile.clear();
            cum_profile.extend_from_slice(&state.profile[region.clone()]);
            if let Some(fp) = &self.fault {
                if fp.zero_profile {
                    cum_profile.fill(0);
                }
                if fp.corrupt_profile {
                    fp.scramble(cum_profile);
                }
            }
            let _cum = parallel_prefix_sum(cum_profile, self.nprocs);
            balanced_contiguous(region.clone(), cum_profile, self.nprocs)
        } else {
            equal_contiguous(region.clone(), self.nprocs)
        };
        let chunk_rows = self.cfg.effective_chunk_rows(region.len().max(1));

        // Re-arm the slot. Row completion flags are *not* reset: the epoch
        // comparison makes the stale values (at most `epoch - 2`) inert.
        for (y, flag) in slot.rows_done.iter().enumerate().take(h) {
            if !region.contains(&y) {
                flag.store(epoch, Ordering::Release);
            }
        }
        for claim in slot.row_claim.iter().take(h) {
            claim.store(UNCLAIMED, Ordering::Relaxed);
        }
        if profiling {
            for counter in slot.new_profile.iter().take(h) {
                counter.store(0, Ordering::Relaxed);
            }
        }
        for (queue, chunks) in slot
            .queues
            .iter()
            .zip(partition_chunks(&partitions, chunk_rows))
        {
            let mut q = queue.lock();
            q.clear();
            q.extend(chunks);
        }
        if let Some(n) = self.fault.and_then(|fp| fp.truncate_queue) {
            let mut q = slot.queues[0].lock();
            for _ in 0..n {
                q.pop_back();
            }
        }
        slot.active.store(self.nprocs, Ordering::Release);
        slot.steals.store(0, Ordering::Relaxed);
        slot.composited.store(0, Ordering::Relaxed);
        slot.watchdog_arms.store(0, Ordering::Relaxed);
        slot.panics.lock().clear();
        *slot.stalled.lock() = None;
        *slot.finished.lock() = 0;

        // Guard rows for the warp's bilinear taps just outside the region,
        // and a clean logical final image (band warps only write pixels
        // whose source row lands in the composited region).
        let inter = self.shared_inter[frame % 2].window(fact.inter_w, h);
        // SAFETY: the slot (and thus its buffers) is quiescent until the
        // gate release below.
        unsafe {
            if region.start > 0 {
                inter.clear_row(region.start - 1);
            }
            if region.end < h {
                inter.clear_row(region.end);
            }
            self.shared_final[frame % 2]
                .window(fact.final_w, fact.final_h)
                .fill_black();
        }

        let publish_us = self.clock.now_us();
        if telem::collect() {
            slot.driver_log.lock().record_in_frame(
                SpanKind::Partition,
                part_start,
                publish_us,
                region.start as u32,
                region.len() as u32,
                frame as u32,
            );
        }
        let params = Arc::new(SlotParams {
            frame,
            epoch,
            fact,
            region,
            partitions,
            profiling,
            opts: CompositeOpts {
                profile: profiling,
                ..self.composite_opts
            },
            publish_us,
        });
        *slot.params.lock() = Some(params.clone());
        self.gate.release(frame);
        params
    }

    /// Waits for every worker to finish `params.frame`, repairs any
    /// contained damage serially (bit-identically, as in the single-frame
    /// renderer), harvests the profile, assembles the frame's telemetry,
    /// and delivers the snapshot in order through the ring.
    fn resolve(
        &self,
        params: Arc<SlotParams>,
        state: &mut ProfileState,
        telemetry: &mut Vec<FrameTelemetry>,
        last_completion_us: &mut u64,
    ) -> Result<(), Error> {
        let frame = params.frame;
        let epoch = params.epoch;
        let slot = &self.slots[frame % 2];
        {
            let mut finished = slot.finished.lock();
            while *finished < self.nprocs {
                slot.finished_cv.wait(&mut finished);
            }
        }
        // From here the slot is quiescent: every worker has arrived and
        // will not touch it again before the next publish.
        let mut stats = RenderStats {
            profiled: params.profiling,
            steals: slot.steals.load(Ordering::Relaxed),
            composited_pixels: slot.composited.load(Ordering::Relaxed),
            ..RenderStats::default()
        };
        let worker_panics = std::mem::take(&mut *slot.panics.lock());
        let first_stall = slot.stalled.lock().take();
        let lost: Vec<usize> = params
            .region
            .clone()
            .filter(|&y| slot.rows_done[y].load(Ordering::Acquire) < epoch)
            .collect();

        let fact = &params.fact;
        let inter = self.shared_inter[frame % 2].window(fact.inter_w, fact.inter_h);
        let out = self.shared_final[frame % 2].window(fact.final_w, fact.final_h);
        if !worker_panics.is_empty() {
            stats.worker_panics = worker_panics.len() as u64;
            if !self.cfg.recover_panics {
                let (worker, message) = worker_panics[0].clone();
                self.harvest_faulted(&params, &stats, telemetry, "worker_panic");
                return Err(Error::WorkerPanicked { worker, message });
            }
            stats.degraded = true;
            stats.repaired_rows = lost.len() as u64;
            let repair_start = self.clock.now_us();
            let rle = self.src.for_axis(fact.principal);
            for &y in &lost {
                recomposite_row(rle, fact, &inter, y, &params.opts);
            }
            rewarp_unfinished_bands(
                &inter,
                fact,
                &out,
                &params.partitions,
                &params.region,
                &slot.warp_done,
                epoch,
            );
            if telem::collect() {
                slot.driver_log.lock().record_in_frame(
                    SpanKind::Repair,
                    repair_start,
                    self.clock.now_us(),
                    lost.len() as u32,
                    stats.worker_panics as u32,
                    frame as u32,
                );
            }
        } else if first_stall.is_some() || !lost.is_empty() {
            let (row, waited_ms) =
                first_stall.unwrap_or_else(|| (lost[0], self.clock.elapsed().as_millis() as u64));
            let holder = match slot.row_claim[row].load(Ordering::Relaxed) {
                UNCLAIMED => None,
                w => Some(w),
            };
            self.harvest_faulted(&params, &stats, telemetry, "stall");
            return Err(Error::Stalled {
                row,
                holder,
                waited_ms,
            });
        }

        if params.profiling && !stats.degraded {
            state.profile.clear();
            state.profile.extend(
                slot.new_profile
                    .iter()
                    .take(fact.inter_h)
                    .map(|a| a.load(Ordering::Relaxed)),
            );
            state.valid = true;
            state.frames_since = 0;
            state.last_model = Some(self.views[frame].model);
        } else if params.profiling {
            // Partial counters from a panicked worker cannot be harvested.
            stats.profiled = false;
        } else {
            state.frames_since += 1;
        }

        let completion_us = self.clock.now_us();
        // Stamp the resolve tick so consumers can time pipelined frames by
        // completion gaps: the ring can release two buffered frames
        // back-to-back, making sink-arrival gaps collapse to ~0 and wrecking
        // any min-frame-time statistic derived from them.
        stats.completion_us = completion_us;
        stats.composite_secs = us_to_secs(completion_us.saturating_sub(params.publish_us));
        // How long this frame overlapped its predecessor: the stretch from
        // this frame's publish to the previous frame's completion, during
        // which both were in flight.
        let overlap_us = last_completion_us.saturating_sub(params.publish_us);
        *last_completion_us = completion_us;

        if telemetry.len() < TELEMETRY_CAP {
            let frames_since = state.frames_since;
            let t = self.harvest(&params, completion_us, &stats, |m| {
                m.inc("watchdog.arms", slot.watchdog_arms.load(Ordering::Relaxed));
                m.set_gauge("profile.frames_since", frames_since as f64);
                m.set_gauge("pipeline.overlap_us", overlap_us as f64);
                m.set_gauge("pipeline.in_flight_max", 2.0);
                m.set_gauge("core.pinned", self.pins.pinned() as f64);
                m.set_gauge("core.numa_node", self.pins.max_numa_node() as f64);
            });
            telemetry.push(t);
        }

        // SAFETY: the frame's warp is complete and the slot is quiescent.
        let img = unsafe { out.snapshot() };
        self.ring.push((frame, img, stats));
        Ok(())
    }

    /// Swaps the slot's span logs out into one frame of telemetry (fresh
    /// logs go back in), stamped with the pipeline's correlation ids and
    /// scoped to the frame's publish→`end` interval. The animation shares
    /// one clock, so spans of overlapping frames stay comparable.
    fn harvest(
        &self,
        params: &SlotParams,
        end: u64,
        stats: &RenderStats,
        extra: impl FnOnce(&mut MetricsRegistry),
    ) -> FrameTelemetry {
        let frame = params.frame;
        let slot = &self.slots[frame % 2];
        let cap = if telem::collect() { telem::SPAN_CAP } else { 0 };
        let driver = std::mem::replace(
            &mut *slot.driver_log.lock(),
            WorkerLog::new(WorkerLog::DRIVER, if telem::collect() { 256 } else { 0 }),
        );
        let workers: Vec<parking_lot::Mutex<WorkerLog>> = slot
            .logs
            .iter()
            .enumerate()
            .map(|(p, log)| {
                parking_lot::Mutex::new(std::mem::replace(&mut *log.lock(), WorkerLog::new(p, cap)))
            })
            .collect();
        let mut t = telem::finish_frame("pipeline", self.clock, driver, workers, stats, extra);
        t.frame_span.start = params.publish_us;
        t.frame_span.end = end;
        t.frame_span.frame = frame as u32;
        t.correlation = self.correlation;
        t
    }

    /// Dump hook for the fault paths: harvests the dying frame's spans
    /// into the telemetry before `resolve` returns its typed error, so a
    /// supervisor's flight recorder sees what every worker was doing when
    /// the frame failed. The frame is tagged with a `frame.faulted`
    /// counter and the fault kind.
    fn harvest_faulted(
        &self,
        params: &SlotParams,
        stats: &RenderStats,
        telemetry: &mut Vec<FrameTelemetry>,
        kind: &str,
    ) {
        if telemetry.len() >= TELEMETRY_CAP {
            return;
        }
        let end = self.clock.now_us();
        let t = self.harvest(params, end, stats, |m| {
            m.inc("frame.faulted", 1);
            m.inc(&format!("frame.faulted.{kind}"), 1);
        });
        telemetry.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NewParallelRenderer;
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

    /// Satellite regression: a reused slot's completion flags from frame N
    /// must never satisfy frame N+2's wait (same parity slot), even under
    /// adversarial interleavings. Stress loop over the real `wait_for_rows`.
    #[test]
    fn stale_epoch_flags_never_release_a_wait() {
        let rows = 64usize;
        let rows_done: Vec<AtomicU64> = (0..rows).map(|_| AtomicU64::new(0)).collect();
        for round in 0u64..200 {
            let old_epoch = round * 2 + 1;
            let new_epoch = old_epoch + 2;
            // The slot still carries frame N's flags (epoch `old_epoch`).
            for f in &rows_done {
                f.store(old_epoch, Ordering::Release);
            }
            let active = AtomicUsize::new(1);
            let clock = FrameClock::new();
            crossbeam::scope(|s| {
                let rows_done = &rows_done;
                let active = &active;
                s.spawn(move |_| {
                    // A compositor completes frame N+2's rows back-to-front,
                    // yielding to shuffle the interleaving across rounds.
                    for y in (0..rows).rev() {
                        if y % 7 == (round % 7) as usize {
                            std::thread::yield_now();
                        }
                        rows_done[y].store(new_epoch, Ordering::Release);
                    }
                    active.fetch_sub(1, Ordering::Release);
                });
                let outcome = wait_for_rows(
                    rows_done,
                    new_epoch,
                    active,
                    0..rows,
                    None,
                    &clock,
                    clock.elapsed(),
                );
                assert!(matches!(outcome, WaitOutcome::Ready));
                // The wait may only have returned once every row reached the
                // new epoch — stale frame-N flags must not have counted.
                for f in rows_done {
                    assert!(f.load(Ordering::Acquire) >= new_epoch);
                }
            })
            .expect("no panics");
        }
        // And with no compositor running, stale flags alone must prove a
        // stall immediately instead of being mistaken for completion.
        for f in &rows_done {
            f.store(3, Ordering::Release);
        }
        let active = AtomicUsize::new(0);
        let clock = FrameClock::new();
        let outcome = wait_for_rows(
            &rows_done,
            5,
            &active,
            0..rows,
            None,
            &clock,
            clock.elapsed(),
        );
        assert!(matches!(outcome, WaitOutcome::Stalled { row: 0, .. }));
    }
}
