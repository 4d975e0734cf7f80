//! The *new* parallel shear-warp renderer (§4), native threaded execution.
//!
//! Frame structure:
//!
//! 1. **Partition** — from the last collected per-scanline work profile,
//!    compute contiguous, predictively balanced partitions of the occupied
//!    band of the intermediate image (cumulative profile via prefix sum +
//!    equal-area boundaries, §4.3). Without a valid profile (first frame, or
//!    the intermediate image changed size) equal-count partitions are used.
//! 2. **Composite** — each processor works through its own partition from
//!    the front, in chunks (the steal unit); idle processors steal chunks
//!    from the *back* of the fullest victim (§4.4). Every `k` frames the
//!    compositor also collects the per-scanline work profile (§4.2),
//!    including its modeled instruction overhead.
//! 3. **Warp, without a barrier** (§4.5) — each processor warps exactly the
//!    final-image pixels owned by its partition band. Readiness is tracked
//!    with per-scanline completion flags, so a processor starts warping as
//!    soon as the rows its band reads (its own plus the first row of the
//!    next band) are composited — the global barrier is gone.
//!
//! # Fault containment
//!
//! Each worker runs its compositing and warp under `catch_unwind`. A
//! panicking worker records its payload, retires from the compositor count,
//! and leaves its unfinished rows flagged incomplete; survivors keep
//! working (with stealing enabled they usually drain most of the failed
//! worker's queue). Waiters on the completion flags cannot spin forever:
//! once every compositor has retired, an incomplete row is provably lost
//! and the waiter reports it at once; a configurable watchdog timeout
//! bounds every other wait. After the join, the frame is resolved — lost
//! rows are re-composited serially (slice order per row matches the worker
//! loop, so the repair is bit-identical) and unwarped bands re-warped, or a
//! typed [`enum@Error`] is returned. See the crate docs' *Failure model*.

use crate::fault::FaultPlan;
use crate::old_renderer::StealQueue;
use crate::pad::CachePadded;
use crate::partition::{balanced_contiguous, equal_contiguous, partition_chunks};
use crate::placement::{pin_current_thread, PinLedger};
use crate::prefix::parallel_prefix_sum;
use crate::telem;
use crate::{Error, ParallelConfig, RenderStats};
use parking_lot::Mutex;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;
use swr_error::panic_message;
use swr_geom::{Factorization, ViewSpec};
use swr_render::{
    composite::occupied_y_bounds_src, composite_scanline_slice_src,
    composite_scanline_slice_untraced_src, warp_row_band, AxisSrc, BrickRowPin, CompositeOpts,
    FinalImage, IntermediateImage, NullTracer, SharedFinal, SharedIntermediate, VolumeSrc,
};
use swr_telemetry::{us_to_secs, FrameClock, FrameTelemetry, SpanKind};
use swr_volume::EncodedVolume;

/// Row-claim sentinel: no worker ever claimed the row.
pub(crate) const UNCLAIMED: usize = usize::MAX;

/// Per-frame shared scheduler state, owned by the renderer and reused across
/// frames so an animation loop allocates nothing per frame once the image
/// size settles. The row-claim slots and steal queues are cache-line padded:
/// they are the hottest cross-worker state, and packing them densely would
/// reintroduce exactly the false sharing §5 of the paper measures.
///
/// Completion flags are **epoch counters**, not booleans: a row (or a
/// worker's warp) is complete for frame epoch `e` when its flag holds a
/// value `>= e`. Epochs strictly increase across an animation, so a flag
/// left over from an earlier frame in a reused scratch can never satisfy a
/// later frame's wait — the invariant the pipelined renderer's two-frame
/// in-flight window depends on.
#[derive(Debug, Default)]
pub(crate) struct FrameScratch {
    /// Per-row completion epochs (the new algorithm's barrier replacement).
    pub(crate) rows_done: Vec<AtomicU64>,
    /// Which worker last claimed each row (stall diagnostics).
    pub(crate) row_claim: Vec<CachePadded<AtomicUsize>>,
    /// Profile collection target on profiling frames; empty otherwise.
    pub(crate) new_profile: Vec<AtomicU64>,
    /// Per-worker warp completion epochs (repair bookkeeping).
    pub(crate) warp_done: Vec<AtomicU64>,
    /// Per-worker steal queues.
    pub(crate) queues: Vec<StealQueue>,
}

impl FrameScratch {
    /// Prepares for a frame of `h` intermediate rows and `nprocs` workers
    /// at the given epoch. Rows outside `region` are marked complete at
    /// `epoch` immediately; rows inside keep whatever older epoch they
    /// carry (strictly smaller, since epochs only grow), so completion
    /// state needs no per-row zeroing between frames.
    pub(crate) fn prepare(
        &mut self,
        h: usize,
        nprocs: usize,
        region: &Range<usize>,
        profiling: bool,
        epoch: u64,
    ) {
        self.rows_done.resize_with(h, AtomicU64::default);
        for (y, flag) in self.rows_done.iter_mut().enumerate() {
            if !region.contains(&y) {
                *flag.get_mut() = epoch;
            }
        }
        self.row_claim
            .resize_with(h, || CachePadded::new(AtomicUsize::new(UNCLAIMED)));
        for claim in self.row_claim.iter_mut() {
            *claim.get_mut() = UNCLAIMED;
        }
        self.new_profile.clear();
        if profiling {
            self.new_profile.resize_with(h, AtomicU64::default);
        }
        self.warp_done.resize_with(nprocs, AtomicU64::default);
        self.queues.resize_with(nprocs, StealQueue::default);
    }
}

/// What a worker's wait on the completion flags concluded.
pub(crate) enum WaitOutcome {
    /// All rows the band reads are composited.
    Ready,
    /// The row can never complete (all compositors retired) or the watchdog
    /// timeout expired while waiting on it.
    Stalled { row: usize, waited_ms: u64 },
}

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
    scratch: FrameScratch,
    /// Monotone frame counter tagging this renderer's completion epochs.
    frame_epoch: u64,
    /// Partition staging buffer (the profile slice fed to the prefix sum),
    /// reused across frames.
    cum_profile: Vec<u64>,
    profile: Vec<u64>,
    profile_valid: bool,
    frames_since_profile: usize,
    /// Model matrix of the last profiled frame (for the angle-based
    /// staleness policy).
    last_profile_model: Option<swr_geom::Mat4>,
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
        self.profile_valid.then_some(self.profile.as_slice())
    }

    /// Forces the next frame to collect a fresh profile.
    pub fn invalidate_profile(&mut self) {
        self.profile_valid = false;
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
        let rle = src.for_axis(fact.principal);
        let nprocs = self.cfg.nprocs;
        let h = fact.inter_h;

        // The intermediate image is *not* cleared here: each worker zeroes
        // the rows of a chunk the first time it touches them (see
        // `composite_chunk_rows`), and the driver clears only the two guard
        // rows the warp reads beyond the composited region.
        let inter = match &mut self.inter {
            Some(img) if img.width() == fact.inter_w && img.height() == h => {
                self.inter.as_mut().expect("checked above")
            }
            slot => {
                *slot = Some(IntermediateImage::new(fact.inter_w, h));
                slot.as_mut().expect("just set")
            }
        };
        let mut out = FinalImage::new(fact.final_w, fact.final_h);
        let mut stats = RenderStats::default();

        // §4.2: composite only the occupied band of the intermediate image.
        let region: Range<usize> = if self.cfg.empty_region_clip {
            match occupied_y_bounds_src(rle, &fact) {
                Some((lo, hi)) => lo..hi + 1,
                None => return Ok((out, stats)), // empty volume: nothing to draw
            }
        } else {
            0..h
        };

        // Profile staleness policy: refresh on startup, whenever the
        // intermediate image geometry changed, and then either every k
        // frames or — the paper's own choice — once the viewpoint has
        // rotated far enough since the last profiled frame (§4.2).
        let have_profile = self.profile_valid && self.profile.len() == h;
        let stale = match (self.cfg.profile_every_degrees, &self.last_profile_model) {
            (Some(deg), Some(last)) => last.rotation_angle_to(&view.model).to_degrees() >= deg,
            (Some(_), None) => true,
            (None, _) => self.frames_since_profile + 1 >= self.cfg.profile_every,
        };
        let profiling = self.cfg.profiled_partition && (!have_profile || stale);
        stats.profiled = profiling;

        let collect = telem::collect();
        let clock = FrameClock::new();
        let mut driver = telem::driver_log();
        let logs = telem::worker_logs(nprocs);

        // §4.3: contiguous, predictively balanced partitions.
        let part_start = clock.now_us();
        let partitions: Vec<Range<usize>> = if self.cfg.profiled_partition && have_profile {
            self.cum_profile.clear();
            self.cum_profile
                .extend_from_slice(&self.profile[region.clone()]);
            let cum_profile = &mut self.cum_profile;
            if let Some(fp) = &self.fault {
                if fp.zero_profile {
                    cum_profile.fill(0);
                }
                if fp.corrupt_profile {
                    fp.scramble(cum_profile);
                }
            }
            // The cumulative curve itself is computed with the parallel
            // prefix (its result equals the serial scan; balanced_contiguous
            // re-derives boundaries from the same values).
            let _cum = parallel_prefix_sum(cum_profile, nprocs);
            balanced_contiguous(region.clone(), cum_profile, nprocs)
        } else {
            equal_contiguous(region.clone(), nprocs)
        };
        let chunk_rows = self.cfg.effective_chunk_rows(region.len().max(1));

        // Per-frame shared state: completion flags, claim slots, profile
        // counters, warp flags, steal queues — all reused from last frame,
        // distinguished by this frame's epoch.
        self.frame_epoch += 1;
        let epoch = self.frame_epoch;
        self.scratch.prepare(h, nprocs, &region, profiling, epoch);
        // Guard rows: the extended first band bilinearly reads row
        // `region.start - 1` and the last band reads row `region.end`;
        // neither is composited, so both must be clear even when the image
        // carries a previous frame's pixels.
        if region.start > 0 {
            inter.clear_row(region.start - 1);
        }
        if region.end < h {
            inter.clear_row(region.end);
        }
        for (queue, chunks) in self
            .scratch
            .queues
            .iter_mut()
            .zip(partition_chunks(&partitions, chunk_rows))
        {
            let q = queue.get_mut();
            q.clear();
            q.extend(chunks);
        }
        if let Some(n) = self.fault.as_ref().and_then(|fp| fp.truncate_queue) {
            let q = self.scratch.queues[0].get_mut();
            for _ in 0..n {
                q.pop_back();
            }
        }
        let FrameScratch {
            rows_done,
            row_claim,
            new_profile,
            warp_done,
            queues,
        } = &self.scratch;
        if collect {
            driver.record(
                SpanKind::Partition,
                part_start,
                clock.now_us(),
                region.start as u32,
                region.len() as u32,
            );
        }

        // Containment state: compositors still running (a waiter that sees 0
        // with its row incomplete has proven the row lost), worker panic
        // payloads, and the first stall observed. The hot shared counters
        // each own their cache line.
        let active = CachePadded::new(AtomicUsize::new(nprocs));
        let panics: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
        let stalled: Mutex<Option<(usize, u64)>> = Mutex::new(None);

        let steals = CachePadded::new(AtomicU64::new(0));
        let composited = CachePadded::new(AtomicU64::new(0));
        // Worker pin outcomes for the core.pinned / core.numa_node gauges.
        let pins = PinLedger::new();
        let placement = self.cfg.placement;
        // Waits entered with the watchdog timeout armed (a backstop metric:
        // nonzero arms with zero stalls means the watchdog never fired).
        let watchdog_arms = CachePadded::new(AtomicU64::new(0));
        let opts = CompositeOpts {
            profile: profiling,
            ..self.composite_opts
        };
        let watchdog = self.cfg.watchdog_timeout;
        {
            let shared = SharedIntermediate::new(inter);
            let shared_out = SharedFinal::new(&mut out);
            let fact = &fact;
            let partitions = &partitions;
            let region = &region;
            let fault = self.fault.as_ref();
            crossbeam::scope(|s| {
                #[allow(clippy::needless_range_loop)]
                for p in 0..nprocs {
                    let steals: &AtomicU64 = &steals;
                    let composited: &AtomicU64 = &composited;
                    let shared = &shared;
                    let shared_out = &shared_out;
                    let active: &AtomicUsize = &active;
                    let panics = &panics;
                    let stalled = &stalled;
                    let watchdog_arms: &AtomicU64 = &watchdog_arms;
                    let logs = &logs;
                    let clock = &clock;
                    let steal = self.cfg.steal;
                    let pins = &pins;
                    s.spawn(move |_| {
                        // Pin before the first-touch row zeroing below, so
                        // the pages a worker faults in stay local to the
                        // CPU that composites them for the whole frame.
                        pins.record(pin_current_thread(placement, p, nprocs));
                        // Checked out once per frame; recording into it is
                        // lock-free from here on.
                        let mut wlog = logs[p].lock();
                        let wlog = &mut *wlog;
                        let compose = catch_unwind(AssertUnwindSafe(|| {
                            let mut local_pixels = 0u64;
                            while let Some((rows, victim)) =
                                crate::old_renderer::pop_or_steal(p, queues, steal, steals, None)
                            {
                                let chunk_start = if collect { clock.now_us() } else { 0 };
                                if let Some(v) = victim {
                                    if collect {
                                        wlog.mark(
                                            SpanKind::Steal,
                                            chunk_start,
                                            v as u32,
                                            rows.start as u32,
                                        );
                                    }
                                }
                                if let Some(fp) = fault {
                                    fp.on_task(p);
                                }
                                for y in rows.clone() {
                                    row_claim[y].store(p, Ordering::Relaxed);
                                }
                                local_pixels += composite_chunk_rows(
                                    rle,
                                    fact,
                                    shared,
                                    rows.clone(),
                                    &opts,
                                    new_profile,
                                );
                                if collect {
                                    // A profiling frame's compositing doubles
                                    // as profile collection (§4.2) — label it
                                    // so traces show the overhead.
                                    wlog.record(
                                        if profiling {
                                            SpanKind::Profile
                                        } else {
                                            SpanKind::Composite
                                        },
                                        chunk_start,
                                        clock.now_us(),
                                        rows.start as u32,
                                        rows.len() as u32,
                                    );
                                }
                                for y in rows {
                                    rows_done[y].store(epoch, Ordering::Release);
                                }
                            }
                            composited.fetch_add(local_pixels, Ordering::Relaxed);
                        }));
                        // Retire from the compositor count whatever happened:
                        // the waiters' lost-row proof depends on every worker
                        // reaching zero. The Release RMW chain means a waiter
                        // that loads 0 sees every row flag stored above.
                        active.fetch_sub(1, Ordering::Release);
                        if let Err(payload) = compose {
                            panics.lock().push((p, panic_message(payload.as_ref())));
                            return;
                        }

                        // §4.5: warp the own band as soon as the rows it
                        // reads are composited — no global barrier. The first
                        // band extends one row below the clipped region:
                        // final pixels just under it bilinearly read the
                        // region's first composited row.
                        let mut band = partitions[p].clone();
                        if band.is_empty() {
                            warp_done[p].store(epoch, Ordering::Release);
                            return;
                        }
                        extend_band(&mut band, region.start);
                        let wait_hi = band.end.min(h - 1);
                        if watchdog.is_some() {
                            watchdog_arms.fetch_add(1, Ordering::Relaxed);
                        }
                        let wait_from = clock.elapsed();
                        let wait_start = if collect { clock.now_us() } else { 0 };
                        let outcome = wait_for_rows(
                            rows_done,
                            epoch,
                            active,
                            band.start..wait_hi + 1,
                            watchdog,
                            clock,
                            wait_from,
                        );
                        if collect {
                            wlog.record(
                                SpanKind::Wait,
                                wait_start,
                                clock.now_us(),
                                band.start as u32,
                                (wait_hi + 1 - band.start) as u32,
                            );
                        }
                        match outcome {
                            WaitOutcome::Ready => {}
                            WaitOutcome::Stalled { row, waited_ms } => {
                                stalled.lock().get_or_insert((row, waited_ms));
                                return; // leave warp_done[p] false for repair
                            }
                        }
                        // The band warp only reads rows [start, end], all of
                        // which are now quiescent.
                        let warp_start = if collect { clock.now_us() } else { 0 };
                        let warp = catch_unwind(AssertUnwindSafe(|| {
                            if let Some(fp) = fault {
                                fp.on_warp(p);
                            }
                            let mut tracer = NullTracer;
                            warp_row_band(
                                shared,
                                fact,
                                shared_out,
                                (band.start, band.end),
                                &mut tracer,
                            );
                        }));
                        if collect {
                            wlog.record(
                                SpanKind::Warp,
                                warp_start,
                                clock.now_us(),
                                band.start as u32,
                                (band.end - band.start) as u32,
                            );
                        }
                        match warp {
                            Ok(()) => warp_done[p].store(epoch, Ordering::Release),
                            Err(payload) => {
                                panics.lock().push((p, panic_message(payload.as_ref())));
                            }
                        }
                    });
                }
            })
            .expect("worker panics are contained via catch_unwind");
        }
        // The phases overlap (that is the point); report the frame total as
        // composite time and leave warp at zero unless callers time phases
        // via the capture path.
        stats.composite_secs = us_to_secs(clock.now_us());
        stats.steals = steals.load(Ordering::Relaxed);
        stats.composited_pixels = composited.load(Ordering::Relaxed);

        // Resolve the frame: repair, typed error, or clean completion. The
        // scope join ordered every worker's effects before this point.
        let worker_panics = std::mem::take(&mut *panics.lock());
        let first_stall = stalled.lock().take();
        let lost: Vec<usize> = region
            .clone()
            .filter(|&y| rows_done[y].load(Ordering::Acquire) < epoch)
            .collect();

        if !worker_panics.is_empty() {
            stats.worker_panics = worker_panics.len() as u64;
            if !self.cfg.recover_panics {
                let (worker, message) = worker_panics[0].clone();
                return Err(Error::WorkerPanicked { worker, message });
            }
            stats.degraded = true;
            stats.repaired_rows = lost.len() as u64;
            let repair_start = clock.now_us();
            // Serial repair: re-composite each lost row from scratch (same
            // ascending-slice order as the worker loop, so the repaired row
            // is bit-identical), then re-warp every band whose warp did not
            // complete, replicating the exact band-extension rule of the
            // parallel path. The band warp writes each owned final pixel
            // deterministically, so any partial writes from a failed
            // attempt are overwritten.
            let repair_inter = SharedIntermediate::new(inter);
            for &y in &lost {
                recomposite_row(rle, &fact, &repair_inter, y, &opts);
            }
            let repaired_out = SharedFinal::new(&mut out);
            rewarp_unfinished_bands(
                &repair_inter,
                &fact,
                &repaired_out,
                &partitions,
                &region,
                warp_done,
                epoch,
            );
            if collect {
                driver.record(
                    SpanKind::Repair,
                    repair_start,
                    clock.now_us(),
                    lost.len() as u32,
                    stats.worker_panics as u32,
                );
            }
        } else if first_stall.is_some() || !lost.is_empty() {
            // Lost work without a panic: nothing trustworthy to repair from
            // (a queue was tampered with or a scheduler invariant broke) —
            // surface the first missing row.
            let (row, waited_ms) =
                first_stall.unwrap_or_else(|| (lost[0], clock.elapsed().as_millis() as u64));
            let holder = match row_claim[row].load(Ordering::Relaxed) {
                UNCLAIMED => None,
                w => Some(w),
            };
            return Err(Error::Stalled {
                row,
                holder,
                waited_ms,
            });
        }

        if profiling && !stats.degraded {
            self.profile = new_profile
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect();
            self.profile_valid = true;
            self.frames_since_profile = 0;
            self.last_profile_model = Some(view.model);
        } else if profiling {
            // A degraded profiling frame cannot harvest its counters — the
            // panicked worker's contributions are partial. Keep the old
            // profile (if any) and try again next frame.
            stats.profiled = false;
        } else {
            self.frames_since_profile += 1;
        }
        let frames_since_profile = self.frames_since_profile;
        self.last_telemetry = Some(telem::finish_frame(
            "new",
            &clock,
            driver,
            logs,
            &stats,
            |m| {
                m.inc("watchdog.arms", watchdog_arms.load(Ordering::Relaxed));
                m.set_gauge("profile.frames_since", frames_since_profile as f64);
                m.set_gauge("core.pinned", pins.pinned() as f64);
                m.set_gauge("core.numa_node", pins.max_numa_node() as f64);
            },
        ));
        Ok((out, stats))
    }
}

/// Composites every slice of the factorization through one chunk of
/// scanlines, zeroing each row immediately before its first slice.
///
/// The first-touch zeroing replaces the driver's whole-image clear: the
/// worker that will stream over a band every slice is also the thread that
/// writes its pages first. On a NUMA machine that places each band on the
/// compositing processor's node — the groundwork for the paper's §5
/// observation that the intermediate image dominates the per-processor
/// working set, so its capacity misses (and on ccNUMA, its page placement)
/// decide the compositing phase's memory time.
pub(crate) fn composite_chunk_rows(
    rle: AxisSrc<'_>,
    fact: &Factorization,
    shared: &SharedIntermediate<'_>,
    rows: Range<usize>,
    opts: &CompositeOpts,
    new_profile: &[AtomicU64],
) -> u64 {
    for y in rows.clone() {
        // SAFETY: row ownership moves only through the queues; each row is
        // in exactly one chunk, so this worker has exclusive access.
        unsafe { shared.clear_row(y) };
    }
    let mut pixels = 0u64;
    // A profiling frame (`opts.profile`) runs the same vector kernel with
    // the modeled-cost bookkeeping compiled in. Each row's work accumulates
    // locally across the slices and is published once: the chunk owns its
    // rows, so a per-(row, slice) atomic add would be pure traffic.
    let mut work = vec![0u64; if opts.profile { rows.len() } else { 0 }];
    // The chunk's scanlines read-share voxel rows, slice after slice: the
    // bricks under them stay pinned while the chunk stays in their brick
    // row, rather than being looked up per row.
    let mut pin = BrickRowPin::new(rle);
    for m in 0..fact.slice_count() {
        let k = fact.slice_for_step(m);
        for (i, y) in rows.clone().enumerate() {
            // SAFETY: as above — exclusive row access via chunk ownership.
            let mut row = unsafe { shared.row_view(y) };
            if opts.profile {
                let t = &mut NullTracer;
                let st = composite_scanline_slice_src(&mut pin, fact, &mut row, k, opts, t);
                pixels += st.composited;
                work[i] += st.work;
            } else {
                pixels += composite_scanline_slice_untraced_src(&mut pin, fact, &mut row, k, opts);
            }
        }
    }
    for (y, w) in rows.zip(work) {
        new_profile[y].store(w, Ordering::Relaxed);
    }
    pixels
}

/// Applies the warp's band-extension rule: the band that starts at the
/// composited region's first row also owns the final pixels just under it,
/// which bilinearly read one row below the region.
pub(crate) fn extend_band(band: &mut Range<usize>, region_start: usize) {
    if band.start == region_start {
        band.start = band.start.saturating_sub(1);
    }
}

/// Serially re-composites one lost row from scratch, visiting slices in the
/// same ascending order as the worker loop so the repair is bit-identical.
pub(crate) fn recomposite_row(
    rle: AxisSrc<'_>,
    fact: &Factorization,
    shared: &SharedIntermediate<'_>,
    y: usize,
    opts: &CompositeOpts,
) {
    // SAFETY: repair runs serially on the resolving thread after every
    // worker has retired from the frame.
    unsafe { shared.clear_row(y) };
    let mut row = unsafe { shared.row_view(y) };
    let mut pin = BrickRowPin::new(rle);
    for m in 0..fact.slice_count() {
        let k = fact.slice_for_step(m);
        composite_scanline_slice_src(&mut pin, fact, &mut row, k, opts, &mut NullTracer);
    }
}

/// Serially re-warps every band whose warp never completed for `epoch`,
/// replicating the parallel path's band-extension rule.
pub(crate) fn rewarp_unfinished_bands(
    inter: &SharedIntermediate<'_>,
    fact: &Factorization,
    out: &SharedFinal<'_>,
    partitions: &[Range<usize>],
    region: &Range<usize>,
    warp_done: &[AtomicU64],
    epoch: u64,
) {
    for (p, part) in partitions.iter().enumerate() {
        if warp_done[p].load(Ordering::Acquire) >= epoch {
            continue;
        }
        let mut band = part.clone();
        if band.is_empty() {
            continue;
        }
        extend_band(&mut band, region.start);
        warp_row_band(inter, fact, out, (band.start, band.end), &mut NullTracer);
    }
}

/// Spins until every row in `rows` is composited for frame `epoch`, proving
/// a stall instead of waiting forever: a row still incomplete after the last
/// compositor retires can never complete (the Release RMW chain on `active`
/// publishes every completed row flag), and `watchdog` bounds the wait in
/// all other cases. The watchdog deadline is measured from `wait_from` (this
/// wait's start), not from the clock origin — under the pipeline's two-frame
/// window a frame-N waiter may legitimately begin long after the shared
/// animation clock started.
pub(crate) fn wait_for_rows(
    rows_done: &[AtomicU64],
    epoch: u64,
    active: &AtomicUsize,
    rows: Range<usize>,
    watchdog: Option<Duration>,
    clock: &FrameClock,
    wait_from: Duration,
) -> WaitOutcome {
    let waited = |clock: &FrameClock| clock.elapsed().saturating_sub(wait_from);
    for y in rows {
        let mut spins = 0u32;
        loop {
            if rows_done[y].load(Ordering::Acquire) >= epoch {
                break;
            }
            if active.load(Ordering::Acquire) == 0 {
                // Re-check after synchronizing with the final retirement.
                if rows_done[y].load(Ordering::Acquire) >= epoch {
                    break;
                }
                return WaitOutcome::Stalled {
                    row: y,
                    waited_ms: waited(clock).as_millis() as u64,
                };
            }
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(1024) {
                if let Some(limit) = watchdog {
                    if waited(clock) >= limit {
                        return WaitOutcome::Stalled {
                            row: y,
                            waited_ms: waited(clock).as_millis() as u64,
                        };
                    }
                }
            }
            std::hint::spin_loop();
            std::thread::yield_now();
        }
    }
    WaitOutcome::Ready
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
