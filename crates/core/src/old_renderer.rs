//! The *old* parallel shear-warp renderer (§3.1), native threaded execution.
//!
//! Compositing: interleaved chunks of intermediate-image scanlines in
//! per-processor queues, with dynamic stealing from the back of the
//! fullest victim. A global barrier separates the phases. Warp: square
//! tiles of the final image, statically assigned round-robin (no stealing —
//! "there is little computation in the warp phase").
//!
//! # Fault containment
//!
//! The inter-phase barrier is an arrival counter rather than
//! `std::sync::Barrier`: every worker — including one whose compositing
//! panicked under `catch_unwind` — increments it before retiring, so the
//! barrier wait terminates by construction and a single panic can never
//! deadlock the survivors. After the join the frame is resolved exactly as
//! in the new renderer: lost scanlines are re-composited serially and the
//! whole image re-warped (bit-identical to an undisturbed render), or a
//! typed [`enum@Error`] is returned. See the crate docs' *Failure model*.

use crate::fault::FaultPlan;
use crate::frame::{pop_or_steal, stalled_error, StealQueue, UNCLAIMED};
use crate::pad::CachePadded;
use crate::partition::{interleaved_chunks, make_tiles};
use crate::placement::{pin_current_thread, PinLedger};
use crate::telem;
use crate::{Error, ParallelConfig, RenderStats};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use swr_error::panic_message;
use swr_geom::{Factorization, ViewSpec};
use swr_render::{
    composite_row, composite_scanline_slice_untraced_src, warp_full, warp_tile, BrickRowPin,
    CompositeOpts, FinalImage, IntermediateImage, NullTracer, SharedFinal, SharedIntermediate,
    VolumeSrc,
};
use swr_telemetry::{us_to_secs, FrameClock, FrameTelemetry, SpanKind};
use swr_volume::EncodedVolume;

/// The old parallel renderer.
#[derive(Debug, Default)]
pub struct OldParallelRenderer {
    /// Configuration (processor count, chunk/tile sizes, stealing).
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
}

impl OldParallelRenderer {
    /// Creates a renderer with the given configuration.
    pub fn new(cfg: ParallelConfig) -> Self {
        OldParallelRenderer {
            cfg,
            ..Default::default()
        }
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
    /// unrecovered worker panics, or lost work.
    pub fn try_render(
        &mut self,
        enc: &EncodedVolume,
        view: &ViewSpec,
    ) -> Result<FinalImage, Error> {
        self.try_render_with_stats(enc, view).map(|(img, _)| img)
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

    /// Renders one frame from any [`VolumeSrc`] layout (flat per-axis RLE or
    /// bricked, possibly streamed). Output is bit-identical across layouts.
    pub fn render_src(&mut self, src: VolumeSrc<'_>, view: &ViewSpec) -> FinalImage {
        self.try_render_with_stats_src(src, view)
            .map(|(img, _)| img)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Layout-polymorphic form of [`OldParallelRenderer::try_render_with_stats`].
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

        // Reuse the intermediate buffer across frames.
        let (w, h) = (fact.inter_w, fact.inter_h);
        let inter = match &mut self.inter {
            Some(img) if img.width() == w && img.height() == h => {
                img.clear();
                self.inter.as_mut().expect("checked above")
            }
            slot => {
                *slot = Some(IntermediateImage::new(w, h));
                slot.as_mut().expect("just set")
            }
        };

        let collect = telem::collect();
        let clock = FrameClock::new();
        let mut driver = telem::driver_log();
        let logs = telem::worker_logs(nprocs);

        // The old algorithm "blindly composites the intermediate image from
        // the very beginning to the end": chunks cover every scanline.
        let part_start = clock.now_us();
        let chunk_rows = self.cfg.effective_chunk_rows(h);
        let queues: Vec<StealQueue> = interleaved_chunks(0..h, chunk_rows, nprocs)
            .into_iter()
            .map(|v| CachePadded::new(Mutex::new(v.into())))
            .collect();
        if let Some(n) = self.fault.as_ref().and_then(|fp| fp.truncate_queue) {
            let mut q = queues[0].lock();
            for _ in 0..n {
                q.pop_back();
            }
        }
        let tile_lists = make_tiles(fact.final_w, fact.final_h, self.cfg.tile_size, nprocs);
        if collect {
            driver.record(
                SpanKind::Partition,
                part_start,
                clock.now_us(),
                chunk_rows as u32,
                h as u32,
            );
        }

        let mut out = FinalImage::new(fact.final_w, fact.final_h);
        let mut stats = RenderStats::default();
        // Hot shared counters each own their cache line: workers bump them
        // from every chunk, and sharing a line would ping-pong it.
        let steals = CachePadded::new(AtomicU64::new(0));
        let composited = CachePadded::new(AtomicU64::new(0));
        // Smallest chunk the adaptive steal protocol handed out this frame
        // (stays at the configured size when no steal was ever halved).
        let min_chunk = CachePadded::new(AtomicU64::new(chunk_rows as u64));
        // Completion bookkeeping for the repair path.
        let rows_done: Vec<AtomicBool> = (0..h).map(|_| AtomicBool::new(false)).collect();
        let row_claim: Vec<AtomicUsize> = (0..h).map(|_| AtomicUsize::new(UNCLAIMED)).collect();
        // Arrival-counter barrier: panicked workers arrive too, so the wait
        // terminates even when a worker dies mid-composite.
        let arrived = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        let panics: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
        // The first barrier wait the watchdog cut short, as (row, waited ms).
        let stalled: Mutex<Option<(usize, u64)>> = Mutex::new(None);
        let composite_end_us = AtomicU64::new(0);
        let opts = self.composite_opts;
        let watchdog = self.cfg.watchdog_timeout;
        let pins = PinLedger::new();
        let placement = self.cfg.placement;
        {
            let shared = SharedIntermediate::new(inter);
            let shared_out = SharedFinal::new(&mut out);
            let fact = &fact;
            let fault = self.fault.as_ref();
            crossbeam::scope(|s| {
                #[allow(clippy::needless_range_loop)]
                for p in 0..nprocs {
                    let queues = &queues;
                    let steals: &AtomicU64 = &steals;
                    let composited: &AtomicU64 = &composited;
                    let min_chunk: &AtomicU64 = &min_chunk;
                    let rows_done = &rows_done;
                    let row_claim = &row_claim;
                    let arrived = &arrived;
                    let abort = &abort;
                    let panics = &panics;
                    let stalled = &stalled;
                    let shared = &shared;
                    let shared_out = &shared_out;
                    let tiles = &tile_lists[p];
                    let composite_end_us = &composite_end_us;
                    let logs = &logs;
                    let clock = &clock;
                    let steal = self.cfg.steal;
                    let pins = &pins;
                    s.spawn(move |_| {
                        // Pin before the first queue pop: all of this
                        // worker's intermediate-row writes then stay on its
                        // node for the warp phase to read back locally.
                        pins.record(pin_current_thread(placement, p, nprocs));
                        // Checked out once per frame; recording into it is
                        // lock-free from here on.
                        let mut wlog = logs[p].lock();
                        let wlog = &mut *wlog;
                        let compose = catch_unwind(AssertUnwindSafe(|| {
                            let mut local_pixels = 0u64;
                            while let Some((rows, victim)) =
                                pop_or_steal(p, queues, steal, steals, Some(min_chunk))
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
                                // Slice-outer traversal within the chunk keeps
                                // the volume streaming in storage order, and
                                // its bricks pinned across the chunk's rows.
                                let mut pin = BrickRowPin::new(rle);
                                for m in 0..fact.slice_count() {
                                    let k = fact.slice_for_step(m);
                                    for y in rows.clone() {
                                        // SAFETY: each scanline belongs to exactly
                                        // one chunk and each chunk is popped once.
                                        let mut row = unsafe { shared.row_view(y) };
                                        local_pixels += composite_scanline_slice_untraced_src(
                                            &mut pin, fact, &mut row, k, &opts,
                                        );
                                    }
                                }
                                if collect {
                                    wlog.record(
                                        SpanKind::Composite,
                                        chunk_start,
                                        clock.now_us(),
                                        rows.start as u32,
                                        rows.len() as u32,
                                    );
                                }
                                for y in rows {
                                    rows_done[y].store(true, Ordering::Release);
                                }
                            }
                            composited.fetch_add(local_pixels, Ordering::Relaxed);
                        }));
                        // Publish the failure *before* arriving so that any
                        // worker released by our arrival already sees it.
                        if compose.is_err() {
                            abort.store(true, Ordering::Release);
                        }
                        let n = arrived.fetch_add(1, Ordering::AcqRel) + 1;
                        if n == nprocs {
                            composite_end_us.store(clock.now_us(), Ordering::Relaxed);
                        }
                        if let Err(payload) = compose {
                            panics.lock().push((p, panic_message(payload.as_ref())));
                            return;
                        }
                        // Barrier wait. Terminates by construction (every
                        // worker arrives); the watchdog is a pure backstop,
                        // measured from this wait's own start. A waiter it
                        // cuts short leaves its tiles un-warped, so it must
                        // say so: the frame resolves to `Error::Stalled`
                        // naming the first row a straggler still holds.
                        let barrier_start = if collect { clock.now_us() } else { 0 };
                        let wait_from = clock.elapsed();
                        let mut spins = 0u32;
                        while arrived.load(Ordering::Acquire) < nprocs {
                            spins = spins.wrapping_add(1);
                            if spins.is_multiple_of(1024) {
                                let waited = clock.elapsed().saturating_sub(wait_from);
                                if watchdog.is_some_and(|limit| waited >= limit) {
                                    let row = rows_done
                                        .iter()
                                        .position(|done| !done.load(Ordering::Acquire))
                                        .unwrap_or(0);
                                    let waited_ms = waited.as_millis() as u64;
                                    stalled.lock().get_or_insert((row, waited_ms));
                                    return;
                                }
                            }
                            std::hint::spin_loop();
                            std::thread::yield_now();
                        }
                        if collect {
                            wlog.record(
                                SpanKind::Barrier,
                                barrier_start,
                                clock.now_us(),
                                nprocs as u32,
                                0,
                            );
                        }
                        if abort.load(Ordering::Acquire) {
                            // A sibling died: its rows may be torn, so a
                            // tile warp would read garbage. Skip it — the
                            // resolution below re-warps serially or errors.
                            return;
                        }

                        // Warp phase: static tiles; all compositing is done.
                        // SAFETY: every worker passed the barrier, so no row
                        // is being mutated any more.
                        let warp = catch_unwind(AssertUnwindSafe(|| {
                            let mut tracer = NullTracer;
                            let inter_ref = unsafe { shared.image() };
                            for (i, tile) in tiles.iter().enumerate() {
                                let tile_start = if collect { clock.now_us() } else { 0 };
                                // Tiles are disjoint rectangles, so final-image
                                // writes never collide.
                                warp_tile(inter_ref, fact, shared_out, *tile, &mut tracer);
                                if collect {
                                    wlog.record(
                                        SpanKind::Warp,
                                        tile_start,
                                        clock.now_us(),
                                        i as u32,
                                        tiles.len() as u32,
                                    );
                                }
                            }
                        }));
                        if let Err(payload) = warp {
                            panics.lock().push((p, panic_message(payload.as_ref())));
                        }
                    });
                }
            })
            .expect("worker panics are contained via catch_unwind");
        }
        let total_us = clock.now_us();
        let composite_us = composite_end_us.load(Ordering::Relaxed);
        stats.composite_secs = us_to_secs(composite_us);
        stats.warp_secs = us_to_secs(total_us.saturating_sub(composite_us));
        stats.steals = steals.load(Ordering::Relaxed);
        stats.composited_pixels = composited.load(Ordering::Relaxed);

        // Resolve the frame: repair, typed error, or clean completion.
        let worker_panics = std::mem::take(&mut *panics.lock());
        let lost: Vec<usize> = (0..h)
            .filter(|&y| !rows_done[y].load(Ordering::Acquire))
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
            // Re-composite each lost row; per row the slice order matches
            // the worker loop, so the repair is bit-identical.
            for &y in &lost {
                composite_row(rle, &fact, &mut inter.row_view(y), &opts);
            }
            // The tile warp was skipped on abort; redo it serially over the
            // now-complete intermediate image.
            warp_full(&*inter, &fact, &mut out, &mut NullTracer);
            if collect {
                driver.record(
                    SpanKind::Repair,
                    repair_start,
                    clock.now_us(),
                    lost.len() as u32,
                    stats.worker_panics as u32,
                );
            }
        } else if let Some(e) = stalled_error(stalled.lock().take(), &lost, &clock, |y| {
            row_claim[y].load(Ordering::Relaxed)
        }) {
            // Lost work without a panic (a truncated queue, or a barrier
            // wait the watchdog cut short): the warp ran over incomplete
            // rows or skipped tiles, so the image cannot be trusted.
            return Err(e);
        }
        let final_chunk_rows = min_chunk.load(Ordering::Relaxed);
        self.last_telemetry = Some(telem::finish_frame(
            "old",
            &clock,
            driver,
            logs,
            &stats,
            |m| {
                m.set_gauge("old.final_chunk_rows", final_chunk_rows as f64);
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
    use std::ops::Range;
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
            let mut r = OldParallelRenderer::new(ParallelConfig::with_procs(procs));
            let (img, stats) = r.render_with_stats(&enc, &view);
            assert_eq!(img, serial, "procs = {procs}");
            assert!(stats.composited_pixels > 0);
        }
    }

    #[test]
    fn stealing_can_be_disabled() {
        let (enc, view) = scene();
        let cfg = ParallelConfig {
            steal: false,
            ..ParallelConfig::with_procs(3)
        };
        let mut r = OldParallelRenderer::new(cfg);
        let (img, stats) = r.render_with_stats(&enc, &view);
        assert_eq!(stats.steals, 0);
        assert_eq!(img, SerialRenderer::new().render(&enc, &view));
    }

    #[test]
    fn buffer_reuse_across_frames_and_views() {
        let (enc, view) = scene();
        let mut r = OldParallelRenderer::new(ParallelConfig::with_procs(2));
        let a = r.render(&enc, &view);
        let b = r.render(&enc, &view);
        assert_eq!(a, b);
        let view2 = ViewSpec::new([24, 24, 16]).rotate_y(1.9);
        let c = r.render(&enc, &view2);
        assert_eq!(c, SerialRenderer::new().render(&enc, &view2));
    }

    #[test]
    fn tiny_tiles_and_chunks_still_correct() {
        let (enc, view) = scene();
        let cfg = ParallelConfig {
            chunk_rows: 1,
            tile_size: 3,
            ..ParallelConfig::with_procs(4)
        };
        let mut r = OldParallelRenderer::new(cfg);
        assert_eq!(
            r.render(&enc, &view),
            SerialRenderer::new().render(&enc, &view)
        );
    }

    #[test]
    fn telemetry_covers_both_phases_per_worker() {
        let (enc, view) = scene();
        let mut r = OldParallelRenderer::new(ParallelConfig::with_procs(3));
        let (_, stats) = r.render_with_stats(&enc, &view);
        let t = r.last_telemetry.as_ref().expect("telemetry after a frame");
        assert_eq!(t.label, "old");
        assert_eq!(t.workers.len(), 4, "driver lane + 3 workers");
        assert_eq!(
            t.metrics.counter("stats.composited_pixels"),
            stats.composited_pixels
        );
        if cfg!(feature = "telemetry") {
            // Driver partitioned; every worker hit the barrier exactly once.
            // (A worker can record zero composite spans if thieves drained
            // its queue before it started, so only the totals are certain.)
            assert_eq!(t.workers[0].kind_count(SpanKind::Partition), 1);
            for w in &t.workers[1..] {
                assert_eq!(w.kind_count(SpanKind::Barrier), 1, "worker {}", w.worker);
            }
            assert!(t.span_count(SpanKind::Composite) > 0);
            assert!(t.span_count(SpanKind::Warp) > 0);
            // Steal marks never outnumber the counted steals.
            assert!(t.span_count(SpanKind::Steal) as u64 <= stats.steals);
        }
    }

    fn queues_from(chunks: Vec<Vec<Range<usize>>>) -> Vec<StealQueue> {
        chunks
            .into_iter()
            .map(|v| CachePadded::new(Mutex::new(v.into())))
            .collect()
    }

    #[test]
    fn steal_from_drained_victim_halves_the_chunk() {
        // Victim holds a single 8-row chunk: below `nprocs` (= 2 queues)
        // chunks remain after the pop, so the thief gets the back half and
        // the victim keeps the front half.
        let queues = queues_from(vec![vec![], vec![0..8]]);
        let steals = AtomicU64::new(0);
        let adapt = AtomicU64::new(8);
        let (r, victim) =
            pop_or_steal(0, &queues, true, &steals, Some(&adapt)).expect("steal succeeds");
        assert_eq!(r, 4..8);
        assert_eq!(victim, Some(1));
        assert_eq!(queues[1].lock().front().cloned(), Some(0..4));
        assert_eq!(adapt.load(Ordering::Relaxed), 4);
        assert_eq!(steals.load(Ordering::Relaxed), 1);
        // Stealing again halves again: 0..4 → thief takes 2..4.
        let (r, _) = pop_or_steal(0, &queues, true, &steals, Some(&adapt)).expect("second steal");
        assert_eq!(r, 2..4);
        assert_eq!(adapt.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn steal_from_full_victim_takes_a_whole_chunk() {
        // Two chunks remain after the pop — not below `nprocs` (= 2), so no
        // halving happens.
        let queues = queues_from(vec![vec![], vec![0..4, 4..8, 8..12]]);
        let steals = AtomicU64::new(0);
        let adapt = AtomicU64::new(4);
        let (r, _) = pop_or_steal(0, &queues, true, &steals, Some(&adapt)).expect("steal");
        assert_eq!(r, 8..12, "back chunk stolen whole");
        assert_eq!(queues[1].lock().len(), 2);
        assert_eq!(adapt.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn single_row_chunks_are_never_split() {
        let queues = queues_from(vec![vec![], vec![5..6]]);
        let steals = AtomicU64::new(0);
        let adapt = AtomicU64::new(7);
        let (r, _) = pop_or_steal(0, &queues, true, &steals, Some(&adapt)).expect("steal");
        assert_eq!(r, 5..6);
        assert!(queues[1].lock().is_empty());
        assert_eq!(adapt.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn own_chunks_pop_without_adaptation() {
        let queues = queues_from(vec![vec![0..4], vec![]]);
        let steals = AtomicU64::new(0);
        let adapt = AtomicU64::new(4);
        let (r, victim) = pop_or_steal(0, &queues, true, &steals, Some(&adapt)).expect("own work");
        assert_eq!(r, 0..4);
        assert_eq!(victim, None);
        assert_eq!(steals.load(Ordering::Relaxed), 0);
        assert_eq!(adapt.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn final_chunk_rows_gauge_is_recorded() {
        let (enc, view) = scene();
        let mut r = OldParallelRenderer::new(ParallelConfig::with_procs(3));
        let (_, _) = r.render_with_stats(&enc, &view);
        let t = r.last_telemetry.as_ref().expect("telemetry after a frame");
        let g = t
            .metrics
            .gauge("old.final_chunk_rows")
            .expect("gauge present");
        assert!(g >= 1.0, "gauge = {g}");
    }

    #[test]
    fn contained_worker_panic_repairs_bit_identically() {
        let (enc, view) = scene();
        let serial = SerialRenderer::new().render(&enc, &view);
        let mut r = OldParallelRenderer::new(ParallelConfig::with_procs(3));
        r.fault = Some(FaultPlan::new(2).panic_at(1));
        let (img, stats) = r.try_render_with_stats(&enc, &view).expect("recovered");
        assert_eq!(img, serial, "repaired frame must match serial bit-exactly");
        assert_eq!(stats.worker_panics, 1);
        assert!(stats.degraded);
    }
}
