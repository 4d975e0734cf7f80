//! The new algorithm's frame (§4), written once: [`plan`],
//! [`FrameState::arm`], [`work`] and [`resolve`], in that order, are one
//! frame — the protocol and its failure model are laid out in the crate
//! docs — plus the scheduler primitives under them ([`StealQueue`],
//! [`pop_or_steal`], the row-flag wait), which the old renderer borrows.
//!
//! Nothing here knows how threads live; that is what the two callers differ
//! in. What they owe this module is ordering: a [`FrameState`] is armed only
//! while no worker is inside its frame, `work` runs once per processor
//! between the arm and the resolve, and `resolve` runs after every worker's
//! `work` has returned and its effects have been ordered before the caller
//! (a scope join, or an arrival count under a mutex). The intermediate image
//! is shared on the same terms: a row belongs to the worker whose chunk
//! holds it, and to the resolving thread afterwards.

use crate::fault::FaultPlan;
use crate::pad::CachePadded;
use crate::partition::{balanced_contiguous, equal_contiguous, partition_chunks};
use crate::prefix::parallel_prefix_sum;
use crate::telem;
use crate::{Error, ParallelConfig, RenderStats};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;
use swr_error::panic_message;
use swr_geom::{Factorization, Mat4};
use swr_render::{
    composite::occupied_y_bounds_src, composite_row, composite_scanline_slice_src,
    composite_scanline_slice_untraced_src, extend_band, warp_row_band, AxisSrc, BrickRowPin,
    CompositeOpts, NullTracer, SharedFinal, SharedIntermediate,
};
use swr_telemetry::{FrameClock, SpanKind, WorkerLog};

/// Row-claim sentinel: no worker ever claimed the row.
pub(crate) const UNCLAIMED: usize = usize::MAX;

/// Per-worker steal queue, padded so neighbouring workers' queue locks never
/// share a cache line (§5's false-sharing remedy).
pub(crate) type StealQueue = CachePadded<Mutex<VecDeque<Range<usize>>>>;

/// Pops the caller's queue, or steals from the back of the fullest victim.
/// Returns the chunk plus the victim it was stolen from (`None` for the
/// caller's own work), so callers can emit steal telemetry.
///
/// Steals are *adaptive*: once the victim's queue has dropped below one
/// chunk per processor (`queues.len()`), a stolen chunk is halved — the
/// thief takes the back half (floor one row) and the front half goes back
/// to the victim. Late-frame steals therefore move ever smaller row counts,
/// shrinking the end-of-frame straggler window where one worker churns
/// through a large stolen chunk while the rest idle at the barrier. When
/// `adapt` is given, the smallest chunk handed out is recorded into it
/// (`fetch_min`), so telemetry can report the final granularity.
pub(crate) fn pop_or_steal(
    me: usize,
    queues: &[StealQueue],
    steal: bool,
    steals: &AtomicU64,
    adapt: Option<&AtomicU64>,
) -> Option<(Range<usize>, Option<usize>)> {
    if let Some(r) = queues[me].lock().pop_front() {
        return Some((r, None));
    }
    if !steal {
        return None;
    }
    loop {
        // Victim selection: the queue with the most remaining chunks.
        let mut best: Option<(usize, usize)> = None;
        for (v, q) in queues.iter().enumerate() {
            if v == me {
                continue;
            }
            let len = q.lock().len();
            if len > 0 && best.is_none_or(|(_, l)| len > l) {
                best = Some((v, len));
            }
        }
        let (v, _) = best?;
        let stolen = {
            let mut q = queues[v].lock();
            match q.pop_back() {
                Some(r) if q.len() < queues.len() && r.len() > 1 => {
                    let mid = r.end - r.len() / 2;
                    q.push_back(r.start..mid);
                    Some(mid..r.end)
                }
                other => other,
            }
        };
        if let Some(r) = stolen {
            steals.fetch_add(1, Ordering::Relaxed);
            if let Some(a) = adapt {
                a.fetch_min(r.len() as u64, Ordering::Relaxed);
            }
            return Some((r, Some(v)));
        }
        // Raced with the victim finishing its queue; rescan.
    }
}

/// The typed error for work lost without a panic — nothing trustworthy to
/// repair from (a queue was tampered with, a scheduler invariant broke, or a
/// watchdog fired): the first stall a waiter recorded, else the first row
/// nobody composited. `None` when neither happened. `claim_of` reads the
/// row's claim word.
pub(crate) fn stalled_error(
    first_stall: Option<(usize, u64)>,
    lost: &[usize],
    clock: &FrameClock,
    claim_of: impl Fn(usize) -> usize,
) -> Option<Error> {
    let (row, waited_ms) = match (first_stall, lost.first()) {
        (Some(stall), _) => stall,
        (None, Some(&row)) => (row, clock.elapsed().as_millis() as u64),
        (None, None) => return None,
    };
    let holder = match claim_of(row) {
        UNCLAIMED => None,
        w => Some(w),
    };
    Some(Error::Stalled {
        row,
        holder,
        waited_ms,
    })
}

/// The work-profile state a renderer carries from frame to frame (and the
/// pipeline from animation to animation).
#[derive(Debug, Default)]
pub(crate) struct ProfileState {
    profile: Vec<u64>,
    valid: bool,
    frames_since: usize,
    /// Model matrix of the last profiled frame (for the angle-based
    /// staleness policy).
    last_model: Option<Mat4>,
    /// Partition staging buffer (the profile slice fed to the prefix sum),
    /// reused across frames.
    cum: Vec<u64>,
}

impl ProfileState {
    /// The per-scanline profile from the last profiled frame, if any.
    pub(crate) fn profile(&self) -> Option<&[u64]> {
        self.valid.then_some(self.profile.as_slice())
    }

    /// Forces the next frame to collect a fresh profile.
    pub(crate) fn invalidate(&mut self) {
        self.valid = false;
    }

    /// Frames resolved since the last harvested profile.
    pub(crate) fn frames_since(&self) -> usize {
        self.frames_since
    }
}

/// What a renderer lends the frame for its duration: its public knobs and
/// the clock every span, stat and watchdog deadline of the frame reads.
#[derive(Clone, Copy)]
pub(crate) struct FrameCtx<'a> {
    pub(crate) cfg: &'a ParallelConfig,
    pub(crate) composite_opts: CompositeOpts,
    pub(crate) fault: Option<&'a FaultPlan>,
    pub(crate) clock: FrameClock,
}

/// The buffers one frame renders through: the volume along the frame's
/// principal axis, and exactly-sized handles on the two images.
pub(crate) struct FrameBufs<'a, 'img> {
    pub(crate) rle: AxisSrc<'a>,
    pub(crate) inter: SharedIntermediate<'img>,
    pub(crate) out: SharedFinal<'img>,
}

/// Everything the workers need to know about one frame, fixed before the
/// first of them enters it.
#[derive(Debug)]
pub(crate) struct FramePlan {
    /// Frame index in the animation (span tag; 0 for a single frame).
    pub(crate) frame: usize,
    /// Completion epoch: a row or a band's warp is done for this frame when
    /// its flag holds a value `>= epoch`. Never 0 ("never completed").
    pub(crate) epoch: u64,
    pub(crate) fact: Factorization,
    /// The composited rows (§4.2's occupied band, or the whole image).
    pub(crate) region: Range<usize>,
    /// One contiguous band of `region` per processor; also its warp band.
    pub(crate) partitions: Vec<Range<usize>>,
    /// Whether the frame's compositing also collects the work profile.
    pub(crate) profiling: bool,
    pub(crate) opts: CompositeOpts,
    chunk_rows: usize,
    /// Model matrix of the view (what a harvested profile is dated with).
    model: Mat4,
}

/// Plans one frame. The one place that clips the region, applies the
/// profile staleness policy, injects the fault plan's profile damage and
/// partitions — so an empty volume is decided once too: a plan with an
/// empty region, `nprocs` empty partitions and no profiling, which the rest
/// of the protocol runs through like any other frame.
pub(crate) fn plan(
    ctx: &FrameCtx<'_>,
    profile: &mut ProfileState,
    rle: AxisSrc<'_>,
    fact: Factorization,
    model: Mat4,
    frame: usize,
    epoch: u64,
) -> FramePlan {
    let (cfg, nprocs, h) = (ctx.cfg, ctx.cfg.nprocs, fact.inter_h);
    // §4.2: composite only the occupied band of the intermediate image.
    let region: Range<usize> = if cfg.empty_region_clip {
        match occupied_y_bounds_src(rle, &fact) {
            Some((lo, hi)) => lo..hi + 1,
            None => 0..0,
        }
    } else {
        0..h
    };

    // Profile staleness policy: refresh on startup, whenever the
    // intermediate image geometry changed, and then either every k frames
    // or — the paper's own choice — once the viewpoint has rotated far
    // enough since the last profiled frame (§4.2). It is evaluated against
    // the newest *resolved* profile: a pipeline plans frame N+1 before it
    // harvests frame N, so there a fresh profile takes effect two frames
    // after collection. Partitions never affect pixels, so the lag is
    // invisible in the output.
    let have_profile = profile.valid && profile.profile.len() == h;
    let stale = match (cfg.profile_every_degrees, &profile.last_model) {
        (Some(deg), Some(last)) => last.rotation_angle_to(&model).to_degrees() >= deg,
        (Some(_), None) => true,
        (None, _) => profile.frames_since + 1 >= cfg.profile_every,
    };
    let profiling = cfg.profiled_partition && !region.is_empty() && (!have_profile || stale);

    // §4.3: contiguous, predictively balanced partitions.
    let partitions = if cfg.profiled_partition && have_profile {
        let cum = &mut profile.cum;
        cum.clear();
        cum.extend_from_slice(&profile.profile[region.clone()]);
        if let Some(fp) = ctx.fault {
            if fp.zero_profile {
                cum.fill(0);
            }
            if fp.corrupt_profile {
                fp.scramble(cum);
            }
        }
        // The cumulative curve itself is computed with the parallel prefix
        // (its result equals the serial scan; balanced_contiguous re-derives
        // boundaries from the same values).
        let _cum = parallel_prefix_sum(cum, nprocs);
        balanced_contiguous(region.clone(), cum, nprocs)
    } else {
        equal_contiguous(region.clone(), nprocs)
    };
    FramePlan {
        frame,
        epoch,
        chunk_rows: cfg.effective_chunk_rows(region.len().max(1)),
        region,
        partitions,
        profiling,
        opts: CompositeOpts {
            profile: profiling,
            ..ctx.composite_opts
        },
        fact,
        model,
    }
}

/// The shared scheduler state of one frame in flight, reused from frame to
/// frame so an animation allocates nothing per frame once the image size
/// settles. Everything is mutated through atomics and mutexes, so a
/// pipeline's driver can re-arm one instance while its workers run the
/// other. The row-claim slots, steal queues and hot counters are cache-line
/// padded: they are the hottest cross-worker state, and packing them densely
/// would reintroduce exactly the false sharing §5 of the paper measures.
///
/// Completion flags are **epoch counters**, not booleans: a row (or a
/// worker's warp) is complete for frame epoch `e` when its flag holds a
/// value `>= e`. Epochs strictly increase across the frames run through one
/// instance, so a flag left over from an earlier frame can never satisfy a
/// later frame's wait and nothing is zeroed between frames — the invariant
/// the pipeline's two-frame window depends on.
#[derive(Debug, Default)]
pub(crate) struct FrameState {
    /// Per-row completion epochs (the new algorithm's barrier replacement).
    rows_done: Vec<AtomicU64>,
    /// Which worker last claimed each row (stall diagnostics).
    row_claim: Vec<CachePadded<AtomicUsize>>,
    /// Profile collection target on profiling frames.
    new_profile: Vec<AtomicU64>,
    /// Per-worker warp completion epochs (repair bookkeeping).
    warp_done: Vec<AtomicU64>,
    /// Per-worker steal queues.
    queues: Vec<StealQueue>,
    /// Compositors still running (a waiter that sees 0 with its row
    /// incomplete has proven the row lost).
    active: CachePadded<AtomicUsize>,
    steals: CachePadded<AtomicU64>,
    composited: CachePadded<AtomicU64>,
    /// Waits entered with the watchdog timeout armed (a backstop metric:
    /// nonzero arms with zero stalls means the watchdog never fired).
    watchdog_arms: CachePadded<AtomicU64>,
    panics: Mutex<Vec<(usize, String)>>,
    /// The first stall a waiter observed.
    stalled: Mutex<Option<(usize, u64)>>,
}

impl FrameState {
    /// Sizes the state for frames of up to `h` intermediate rows on
    /// `nprocs` workers. New flags start at epoch 0, below every frame's.
    pub(crate) fn resize(&mut self, h: usize, nprocs: usize) {
        self.rows_done.resize_with(h, AtomicU64::default);
        self.row_claim
            .resize_with(h, || CachePadded::new(AtomicUsize::new(UNCLAIMED)));
        self.new_profile.resize_with(h, AtomicU64::default);
        self.warp_done.resize_with(nprocs, AtomicU64::default);
        self.queues.resize_with(nprocs, StealQueue::default);
    }

    /// Arms the state and the intermediate image for `plan`'s frame. Rows
    /// outside the region are complete at once; rows inside keep whatever
    /// older (strictly smaller) epoch they carry. The caller arms a frame
    /// only while no worker is inside it — before the spawn, or before the
    /// gate release with the state's previous frame resolved.
    pub(crate) fn arm(&self, ctx: &FrameCtx<'_>, plan: &FramePlan, bufs: &FrameBufs<'_, '_>) {
        let (h, region) = (plan.fact.inter_h, &plan.region);
        for (y, flag) in self.rows_done.iter().enumerate().take(h) {
            if !region.contains(&y) {
                flag.store(plan.epoch, Ordering::Release);
            }
        }
        for claim in self.row_claim.iter().take(h) {
            claim.store(UNCLAIMED, Ordering::Relaxed);
        }
        if plan.profiling {
            for counter in self.new_profile.iter().take(h) {
                counter.store(0, Ordering::Relaxed);
            }
        }
        for (queue, chunks) in self
            .queues
            .iter()
            .zip(partition_chunks(&plan.partitions, plan.chunk_rows))
        {
            let mut q = queue.lock();
            q.clear();
            q.extend(chunks);
        }
        if let Some(n) = ctx.fault.and_then(|fp| fp.truncate_queue) {
            let mut q = self.queues[0].lock();
            for _ in 0..n {
                q.pop_back();
            }
        }
        self.active.store(self.queues.len(), Ordering::Release);
        self.steals.store(0, Ordering::Relaxed);
        self.composited.store(0, Ordering::Relaxed);
        self.watchdog_arms.store(0, Ordering::Relaxed);
        self.panics.lock().clear();
        *self.stalled.lock() = None;

        // Guard rows: the extended first band bilinearly reads row
        // `region.start - 1` and the last band reads row `region.end`;
        // neither is composited, so both must be clear even when the image
        // carries an earlier frame's pixels. (The rows in between are
        // zeroed by the worker that first touches them.)
        // SAFETY: no worker is inside the frame (see above), so no row of
        // the image is being accessed.
        unsafe {
            if region.start > 0 {
                bufs.inter.clear_row(region.start - 1);
            }
            if region.end < h {
                bufs.inter.clear_row(region.end);
            }
        }
    }

    /// Waits this frame entered with the watchdog armed.
    pub(crate) fn watchdog_arms(&self) -> u64 {
        self.watchdog_arms.load(Ordering::Relaxed)
    }
}

/// Worker `p`'s share of one frame: composite its queue (plus steals), then
/// wait on the rows its band reads and warp the band. Returns on every path
/// — done, contained panic, or stall — with the damage, if any, recorded in
/// `state` for [`resolve`].
pub(crate) fn work(
    ctx: &FrameCtx<'_>,
    state: &FrameState,
    plan: &FramePlan,
    bufs: &FrameBufs<'_, '_>,
    p: usize,
    wlog: &mut WorkerLog,
) {
    let collect = telem::collect();
    let (clock, fact, epoch) = (&ctx.clock, &plan.fact, plan.epoch);
    let frame = plan.frame as u32;
    let compose = catch_unwind(AssertUnwindSafe(|| {
        let mut local_pixels = 0u64;
        while let Some((rows, victim)) =
            pop_or_steal(p, &state.queues, ctx.cfg.steal, &state.steals, None)
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
                        frame,
                    );
                }
            }
            if let Some(fp) = ctx.fault {
                fp.on_task(p);
            }
            for y in rows.clone() {
                state.row_claim[y].store(p, Ordering::Relaxed);
            }
            local_pixels += composite_chunk_rows(
                bufs.rle,
                fact,
                &bufs.inter,
                rows.clone(),
                &plan.opts,
                &state.new_profile,
            );
            if collect {
                // A profiling frame's compositing doubles as profile
                // collection (§4.2) — label it so traces show the overhead.
                wlog.record_in_frame(
                    if plan.profiling {
                        SpanKind::Profile
                    } else {
                        SpanKind::Composite
                    },
                    chunk_start,
                    clock.now_us(),
                    rows.start as u32,
                    rows.len() as u32,
                    frame,
                );
            }
            for y in rows {
                state.rows_done[y].store(epoch, Ordering::Release);
            }
        }
        state.composited.fetch_add(local_pixels, Ordering::Relaxed);
    }));
    // Retire from the compositor count whatever happened: the waiters'
    // lost-row proof depends on every worker reaching zero. The Release RMW
    // chain means a waiter that loads 0 sees every row flag stored above.
    state.active.fetch_sub(1, Ordering::Release);
    if let Err(payload) = compose {
        let message = panic_message(payload.as_ref());
        state.panics.lock().push((p, message));
        return;
    }

    // §4.5: warp the own band as soon as the rows it reads are composited —
    // no global barrier.
    let band = extend_band(plan.partitions[p].clone(), plan.region.start);
    if band.0 == band.1 {
        state.warp_done[p].store(epoch, Ordering::Release);
        return;
    }
    let wait_rows = band.0..band.1.min(fact.inter_h - 1) + 1;
    if ctx.cfg.watchdog_timeout.is_some() {
        state.watchdog_arms.fetch_add(1, Ordering::Relaxed);
    }
    let wait_from = clock.elapsed();
    let wait_start = if collect { clock.now_us() } else { 0 };
    let outcome = wait_for_rows(
        &state.rows_done,
        epoch,
        &state.active,
        wait_rows.clone(),
        ctx.cfg.watchdog_timeout,
        clock,
        wait_from,
    );
    if collect {
        wlog.record_in_frame(
            SpanKind::Wait,
            wait_start,
            clock.now_us(),
            wait_rows.start as u32,
            wait_rows.len() as u32,
            frame,
        );
    }
    if let WaitOutcome::Stalled { row, waited_ms } = outcome {
        state.stalled.lock().get_or_insert((row, waited_ms));
        return; // warp_done[p] stays below epoch: resolve re-warps the band
    }
    // The band warp only reads rows [start, end], all of which are now
    // quiescent.
    let warp_start = if collect { clock.now_us() } else { 0 };
    let warp = catch_unwind(AssertUnwindSafe(|| {
        if let Some(fp) = ctx.fault {
            fp.on_warp(p);
        }
        warp_row_band(&bufs.inter, fact, &bufs.out, band, &mut NullTracer);
    }));
    if collect {
        wlog.record_in_frame(
            SpanKind::Warp,
            warp_start,
            clock.now_us(),
            band.0 as u32,
            (band.1 - band.0) as u32,
            frame,
        );
    }
    match warp {
        Ok(()) => state.warp_done[p].store(epoch, Ordering::Release),
        Err(payload) => {
            let message = panic_message(payload.as_ref());
            state.panics.lock().push((p, message));
        }
    }
}

/// Resolves a frame every worker has left: fills `stats`, then repairs the
/// contained damage serially, or returns the typed error, or — on a clean
/// frame — just harvests the profile. The caller orders every worker's
/// effects before this call (scope join / arrival count).
pub(crate) fn resolve(
    ctx: &FrameCtx<'_>,
    state: &FrameState,
    plan: &FramePlan,
    bufs: &FrameBufs<'_, '_>,
    profile: &mut ProfileState,
    driver: &mut WorkerLog,
    stats: &mut RenderStats,
) -> Result<(), Error> {
    let (fact, epoch) = (&plan.fact, plan.epoch);
    stats.profiled = plan.profiling;
    stats.steals = state.steals.load(Ordering::Relaxed);
    stats.composited_pixels = state.composited.load(Ordering::Relaxed);
    let worker_panics = std::mem::take(&mut *state.panics.lock());
    let first_stall = state.stalled.lock().take();
    let lost: Vec<usize> = plan
        .region
        .clone()
        .filter(|&y| state.rows_done[y].load(Ordering::Acquire) < epoch)
        .collect();

    if !worker_panics.is_empty() {
        stats.worker_panics = worker_panics.len() as u64;
        if !ctx.cfg.recover_panics {
            let (worker, message) = worker_panics[0].clone();
            return Err(Error::WorkerPanicked { worker, message });
        }
        stats.degraded = true;
        stats.repaired_rows = lost.len() as u64;
        let repair_start = ctx.clock.now_us();
        // Serial repair: re-composite each lost row from scratch (same
        // ascending-slice order as the worker loop, so the repaired row is
        // bit-identical), then re-warp every band whose warp did not
        // complete, under the same band-extension rule. The band warp writes
        // each owned final pixel deterministically, so any partial writes
        // from a failed attempt are overwritten.
        for &y in &lost {
            // SAFETY: every worker has left the frame; this thread is the
            // only one touching the image.
            let mut row = unsafe { bufs.inter.row_view(y) };
            composite_row(bufs.rle, fact, &mut row, &plan.opts);
        }
        for (p, part) in plan.partitions.iter().enumerate() {
            if state.warp_done[p].load(Ordering::Acquire) < epoch {
                let band = extend_band(part.clone(), plan.region.start);
                warp_row_band(&bufs.inter, fact, &bufs.out, band, &mut NullTracer);
            }
        }
        if telem::collect() {
            driver.record_in_frame(
                SpanKind::Repair,
                repair_start,
                ctx.clock.now_us(),
                lost.len() as u32,
                stats.worker_panics as u32,
                plan.frame as u32,
            );
        }
    } else if let Some(e) = stalled_error(first_stall, &lost, &ctx.clock, |y| {
        state.row_claim[y].load(Ordering::Relaxed)
    }) {
        return Err(e);
    }

    if plan.profiling && !stats.degraded {
        profile.profile.clear();
        profile.profile.extend(
            state
                .new_profile
                .iter()
                .take(fact.inter_h)
                .map(|a| a.load(Ordering::Relaxed)),
        );
        profile.valid = true;
        profile.frames_since = 0;
        profile.last_model = Some(plan.model);
    } else if plan.profiling {
        // A degraded profiling frame cannot harvest its counters — the
        // panicked worker's contributions are partial. Keep the old profile
        // (if any) and try again next frame.
        stats.profiled = false;
    } else {
        profile.frames_since += 1;
    }
    Ok(())
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
///
/// Kept out of line, as it was when two callers shared it: with `work` its
/// only caller it would otherwise be inlined into the `catch_unwind` closure
/// there, and compiled in that context `orbit_mri256` ran 0.5 % slower in 10
/// of 10 pairs; out of line it is level with the parent. (`stream_mri192_q`
/// moved the other way, − 2.2 % out of line against + 0.5 % inlined, both
/// far inside its bound: EXPERIMENTS.md, "One frame executor".)
#[inline(never)]
fn composite_chunk_rows(
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

/// What a worker's wait on the completion flags concluded.
enum WaitOutcome {
    /// All rows the band reads are composited.
    Ready,
    /// The row can never complete (all compositors retired) or the watchdog
    /// timeout expired while waiting on it.
    Stalled { row: usize, waited_ms: u64 },
}

/// Spins until every row in `rows` is composited for frame `epoch`, proving
/// a stall instead of waiting forever: a row still incomplete after the last
/// compositor retires can never complete (the Release RMW chain on `active`
/// publishes every completed row flag), and `watchdog` bounds the wait in
/// all other cases. The watchdog deadline is measured from `wait_from` (this
/// wait's start), not from the clock origin — under the pipeline's two-frame
/// window a frame-N waiter may legitimately begin long after the shared
/// animation clock started.
fn wait_for_rows(
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
