//! The coordinator: spawns shard workers, partitions the intermediate image
//! into owned bands, routes halo scanlines between owners, merges the warped
//! spans into the final image in a deterministic order, and repairs the
//! bands of workers that die mid-frame.
//!
//! ## Determinism of the merge
//!
//! Each final pixel is owned by exactly one band (the warp's per-pixel
//! ownership test), so at most one worker computes a non-zero value for it;
//! the merge writes only non-zero pixels over a cleared image, making the
//! result independent of message arrival order — and bit-identical to the
//! in-process renderers.
//!
//! ## The repair ladder
//!
//! Worker death (EOF on its link, detected by the reader thread or the
//! shared-memory child watcher) degrades the frame, never kills it:
//!
//! 1. If the dead worker had not yet shipped its band's first scanline, the
//!    coordinator composites that one scanline itself and forwards it, so
//!    the band below is not wedged waiting for its halo.
//! 2. The dead band is recomposited locally and warped straight into the
//!    merged image (owned pixels only — overlap-free by construction).
//! 3. If no worker survives frame start, the whole frame falls back to the
//!    serial renderer.

use crate::codec::{write_frame, Frame, MsgKind, COORDINATOR_ID};
use crate::shm::ShmMap;
use crate::transport::{resolve_worker_bin, spawn_worker, ShardTransport};
use crate::wire::{
    decode_final_spans, decode_inter_row, decode_report, encode_assignment, encode_inter_row,
    FrameAssignment,
};
use crate::SceneSpec;
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::ops::Range;
use std::path::PathBuf;
use std::process::Child;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use swr_core::equal_contiguous;
use swr_error::Error;
use swr_geom::{Factorization, ViewSpec};
use swr_render::composite::occupied_y_bounds_src;
use swr_render::{
    composite_row, extend_band, warp_row_band, AxisSrc, CompositeOpts, FinalImage,
    IntermediateImage, NullTracer, SerialRenderer, SharedFinal, VolumeSrc,
};
use swr_volume::EncodedVolume;

/// Configuration of a sharded multi-process render session.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of worker processes (each owns one band per frame).
    pub shards: usize,
    /// Byte transport between coordinator and workers.
    pub transport: ShardTransport,
    /// Explicit worker binary; `None` resolves via `SWR_SHARD_BIN` or
    /// siblings of the current executable.
    pub worker_bin: Option<PathBuf>,
    /// Per-frame deadline before unresponsive workers are declared dead.
    pub frame_deadline_ms: u64,
    /// Fault injection: SIGKILL this shard after its first tile of the
    /// frame reaches the coordinator (exercises the repair ladder).
    pub kill_shard: Option<usize>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 2,
            transport: ShardTransport::default(),
            worker_bin: None,
            frame_deadline_ms: 30_000,
            kill_shard: None,
        }
    }
}

impl ShardConfig {
    fn try_validate(&self) -> Result<(), Error> {
        if self.shards == 0 || self.shards > 256 {
            return Err(Error::InvalidConfig {
                reason: format!("shard count {} out of range 1..=256", self.shards),
            });
        }
        if self.frame_deadline_ms == 0 {
            return Err(Error::InvalidConfig {
                reason: "frame deadline must be positive".into(),
            });
        }
        Ok(())
    }
}

/// Per-frame statistics of the sharded path (the source of the
/// `shard.tiles_routed` / `shard.bytes_moved` / `shard.ring_full_spins`
/// telemetry counters).
#[derive(Debug, Clone, Default)]
pub struct ShardFrameStats {
    /// Tile messages that crossed the hub (halo rows in, halo rows
    /// forwarded, span batches in).
    pub tiles_routed: u64,
    /// Payload bytes moved across process boundaries, counted per hop.
    pub bytes_moved: u64,
    /// Busy-wait spins on full shared-memory rings (workers + coordinator).
    pub ring_full_spins: u64,
    /// Tiles dropped because they carried a stale epoch.
    pub stale_tiles: u64,
    /// Shards whose bands were recomposited locally after death.
    pub repaired_shards: Vec<usize>,
    /// Whole frame fell back to the serial renderer (no workers alive).
    pub fallback_serial: bool,
}

impl ShardFrameStats {
    /// True when any worker died and the frame needed repair.
    pub fn degraded(&self) -> bool {
        !self.repaired_shards.is_empty() || self.fallback_serial
    }
}

/// Events reader and watcher threads deliver to the frame loop.
enum Event {
    Frame(usize, Frame),
    Dead(usize),
}

struct WorkerSlot {
    writer: Box<dyn Write + Send>,
    child: Arc<Mutex<Child>>,
    shm: Option<Arc<ShmMap>>,
    /// Coordinator-side full-ring spin counter (shm transport only).
    spins: Option<Arc<std::sync::atomic::AtomicU64>>,
    alive: bool,
}

impl WorkerSlot {
    /// Sends a frame; on failure marks the worker dead and reports `false`.
    fn send(&mut self, frame: &Frame) -> bool {
        if !self.alive {
            return false;
        }
        if write_frame(&mut self.writer, frame).is_err() {
            self.alive = false;
            return false;
        }
        true
    }

    fn kill(&self) {
        if let Ok(mut c) = self.child.lock() {
            let _ = c.kill();
        }
        if let Some(map) = &self.shm {
            map.close_both();
        }
    }
}

/// A multi-process sharded renderer: the drop-in counterpart of the
/// in-process renderers whose frames are produced by a fleet of `swr-shard`
/// worker processes.
pub struct ShardedRenderer {
    cfg: ShardConfig,
    enc: EncodedVolume,
    slots: Vec<WorkerSlot>,
    rx: Receiver<Event>,
    stop: Arc<AtomicBool>,
    epoch: u64,
    kill_done: bool,
    serial: SerialRenderer,
    /// Stats of the most recent frame.
    pub last_stats: ShardFrameStats,
}

fn reader_thread(shard: usize, mut reader: Box<dyn std::io::Read + Send>, tx: Sender<Event>) {
    loop {
        match crate::codec::read_frame(&mut reader) {
            Ok(Some(frame)) => {
                if tx.send(Event::Frame(shard, frame)).is_err() {
                    return; // coordinator gone
                }
            }
            Ok(None) | Err(_) => {
                let _ = tx.send(Event::Dead(shard));
                return;
            }
        }
    }
}

/// Shared-memory links carry no EOF of their own: this watcher polls the
/// child and closes both rings when it exits, waking the blocked reader.
fn watcher_thread(child: Arc<Mutex<Child>>, map: Arc<ShmMap>, stop: Arc<AtomicBool>) {
    loop {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let exited = match child.lock() {
            Ok(mut c) => !matches!(c.try_wait(), Ok(None)),
            Err(_) => true,
        };
        if exited {
            map.close_both();
            return;
        }
        std::thread::sleep(Duration::from_millis(15));
    }
}

impl ShardedRenderer {
    /// Builds the session: spawns the worker fleet, waits for every hello,
    /// and ships the scene description to each process.
    pub fn try_new(scene: &SceneSpec, cfg: ShardConfig) -> Result<ShardedRenderer, Error> {
        cfg.try_validate()?;
        let enc = scene.try_build()?;
        let bin = resolve_worker_bin(cfg.worker_bin.as_deref())?;
        let (tx, rx) = channel();
        let stop = Arc::new(AtomicBool::new(false));
        let mut slots: Vec<WorkerSlot> = Vec::with_capacity(cfg.shards);

        let spawn_all = (0..cfg.shards).try_for_each(|shard| -> Result<(), Error> {
            let spawned = spawn_worker(&bin, shard, cfg.transport)?;
            let child = Arc::new(Mutex::new(spawned.child));
            let link = spawned.link;
            if let Some(map) = &link.shm {
                let (c, m, s) = (Arc::clone(&child), Arc::clone(map), Arc::clone(&stop));
                std::thread::spawn(move || watcher_thread(c, m, s));
            }
            let rtx = tx.clone();
            std::thread::spawn(move || reader_thread(shard, link.reader, rtx));
            slots.push(WorkerSlot {
                writer: link.writer,
                child,
                shm: link.shm,
                spins: link.full_spins,
                alive: true,
            });
            Ok(())
        });
        if let Err(e) = spawn_all {
            for slot in &slots {
                slot.kill();
                if let Ok(mut c) = slot.child.lock() {
                    let _ = c.wait();
                }
            }
            stop.store(true, Ordering::Relaxed);
            return Err(e);
        }

        let mut renderer = ShardedRenderer {
            cfg,
            enc,
            slots,
            rx,
            stop,
            epoch: 0,
            kill_done: false,
            serial: SerialRenderer::new(),
            last_stats: ShardFrameStats::default(),
        };

        // Rendezvous: every worker announces itself before work is sent.
        let mut hellos = vec![false; renderer.cfg.shards];
        let deadline = Instant::now() + Duration::from_secs(30);
        while hellos.iter().any(|h| !h) {
            let left = deadline.saturating_duration_since(Instant::now());
            match renderer.rx.recv_timeout(left) {
                Ok(Event::Frame(s, f)) if f.kind == MsgKind::Hello => hellos[s] = true,
                Ok(Event::Frame(_, _)) => {}
                Ok(Event::Dead(s)) => {
                    renderer.shutdown();
                    return Err(Error::Protocol {
                        reason: format!("shard worker {s} died during startup"),
                    });
                }
                Err(_) => {
                    renderer.shutdown();
                    return Err(Error::Protocol {
                        reason: "shard workers did not all connect within 30s".into(),
                    });
                }
            }
        }

        let session = Frame {
            kind: MsgKind::SessionStart,
            shard: COORDINATOR_ID,
            epoch: 0,
            rect: [0; 4],
            payload: scene.encode(),
        };
        for slot in &mut renderer.slots {
            slot.send(&session);
        }
        if renderer.slots.iter().all(|s| !s.alive) {
            renderer.shutdown();
            return Err(Error::Protocol {
                reason: "all shard workers died before the session started".into(),
            });
        }
        Ok(renderer)
    }

    /// Number of workers still alive.
    pub fn alive(&self) -> usize {
        self.slots.iter().filter(|s| s.alive).count()
    }

    /// Renders one frame through the shard fleet. The result is bit-identical
    /// to the in-process renderers on the same scene and view, including
    /// frames degraded by worker death.
    pub fn try_render(&mut self, view: &ViewSpec) -> Result<FinalImage, Error> {
        view.try_validate()?;
        if self.enc.dims() != view.dims {
            return Err(Error::InvalidView {
                reason: format!(
                    "view dims {:?} do not match the encoded volume dims {:?}",
                    view.dims,
                    self.enc.dims()
                ),
            });
        }
        let fact = Factorization::from_view(view);
        let mut out = FinalImage::new(fact.final_w, fact.final_h);
        let mut stats = ShardFrameStats::default();

        let src = VolumeSrc::Flat(&self.enc);
        let axis_src = src.for_axis(fact.principal);
        let region: Range<usize> = match occupied_y_bounds_src(axis_src, &fact) {
            Some((lo, hi)) => lo..hi + 1,
            None => {
                self.last_stats = stats;
                return Ok(out); // empty volume: nothing to draw
            }
        };

        self.epoch += 1;
        let epoch = self.epoch;
        let bands = equal_contiguous(region.clone(), self.cfg.shards);

        if self.alive() == 0 {
            stats.fallback_serial = true;
            let img = self.serial.try_render(&self.enc, view)?;
            self.last_stats = stats;
            return Ok(img);
        }

        // The shard that waits for halo row `r` (its band ends there).
        let consumer_of: HashMap<usize, usize> = bands
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.is_empty() && b.end != region.end)
            .map(|(i, b)| (b.end, i))
            .collect();

        // Work orders. A dead-at-start shard goes straight to repair.
        let mut pending: HashSet<usize> = HashSet::new();
        let mut repair: Vec<usize> = Vec::new();
        for (i, band) in bands.iter().enumerate() {
            if band.is_empty() {
                continue;
            }
            let assignment = FrameAssignment {
                view: view.clone(),
                region: (region.start as u32, region.end as u32),
                band: (band.start as u32, band.end as u32),
                send_first_row: band.start != region.start,
                expect_halo: band.end != region.end,
            };
            let frame = Frame {
                kind: MsgKind::FrameStart,
                shard: COORDINATOR_ID,
                epoch,
                rect: [0, band.start as u32, 0, (band.end - band.start) as u32],
                payload: encode_assignment(&assignment),
            };
            if self.slots[i].send(&frame) {
                pending.insert(i);
            } else {
                repair.push(i);
            }
        }

        // Halo scanlines received this frame, kept for forwarding and as
        // repair input (row index → raw InterRow payload).
        let mut halo_cache: HashMap<usize, Vec<u8>> = HashMap::new();
        // Lazily created scratch image for substitute halos and band repair;
        // `local_rows` tracks which rows of it hold composited/decoded data.
        let mut repair_inter: Option<IntermediateImage> = None;
        let mut local_rows: HashSet<usize> = HashSet::new();
        let opts = CompositeOpts::default();
        let spin_base: u64 = self
            .slots
            .iter()
            .filter_map(|s| s.spins.as_ref())
            .map(|c| c.load(Ordering::Relaxed))
            .sum();

        let deadline = Instant::now() + Duration::from_millis(self.cfg.frame_deadline_ms);
        while !pending.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                // Unresponsive workers: kill, repair their bands locally.
                for s in pending.drain() {
                    self.slots[s].kill();
                    self.slots[s].alive = false;
                    repair.push(s);
                }
                break;
            }
            let event = match self.rx.recv_timeout(left) {
                Ok(ev) => ev,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => {
                    for s in pending.drain() {
                        repair.push(s);
                    }
                    break;
                }
            };
            match event {
                Event::Frame(s, f) => {
                    let kill_now =
                        self.cfg.kill_shard == Some(s) && !self.kill_done && f.epoch == epoch;
                    match f.kind {
                        MsgKind::InterRow => {
                            if f.epoch != epoch {
                                stats.stale_tiles += 1;
                                continue;
                            }
                            stats.tiles_routed += 1;
                            stats.bytes_moved += f.payload.len() as u64;
                            let row = f.rect[1] as usize;
                            if let Some(&t) = consumer_of.get(&row) {
                                if self.slots[t].alive && pending.contains(&t) {
                                    let fwd = Frame {
                                        kind: MsgKind::InterRow,
                                        shard: COORDINATOR_ID,
                                        epoch,
                                        rect: f.rect,
                                        payload: f.payload.clone(),
                                    };
                                    if self.slots[t].send(&fwd) {
                                        stats.tiles_routed += 1;
                                        stats.bytes_moved += fwd.payload.len() as u64;
                                    } else {
                                        handle_death(
                                            &mut self.slots,
                                            t,
                                            epoch,
                                            &fact,
                                            axis_src,
                                            &region,
                                            &bands,
                                            &consumer_of,
                                            &mut pending,
                                            &mut repair,
                                            &mut halo_cache,
                                            &mut repair_inter,
                                            &mut local_rows,
                                            &opts,
                                            &mut stats,
                                        );
                                    }
                                }
                            }
                            halo_cache.insert(row, f.payload);
                        }
                        MsgKind::FinalSpans => {
                            if f.epoch != epoch {
                                stats.stale_tiles += 1;
                                continue;
                            }
                            stats.tiles_routed += 1;
                            stats.bytes_moved += f.payload.len() as u64;
                            merge_spans(&mut out, &f.payload)?;
                        }
                        MsgKind::FrameDone => {
                            if f.epoch != epoch {
                                stats.stale_tiles += 1;
                                continue;
                            }
                            if let Ok(rep) = decode_report(&f.payload) {
                                stats.ring_full_spins += rep.ring_full_spins;
                            }
                            pending.remove(&s);
                        }
                        MsgKind::Hello => {}
                        _ => {
                            // Protocol violation: retire the worker.
                            self.slots[s].kill();
                            handle_death(
                                &mut self.slots,
                                s,
                                epoch,
                                &fact,
                                axis_src,
                                &region,
                                &bands,
                                &consumer_of,
                                &mut pending,
                                &mut repair,
                                &mut halo_cache,
                                &mut repair_inter,
                                &mut local_rows,
                                &opts,
                                &mut stats,
                            );
                        }
                    }
                    if kill_now {
                        // Fault injection: the shard dies right after its
                        // first tile of this frame reaches the hub. Declare
                        // it dead immediately — the SIGKILL races with tiles
                        // already buffered in the transport, and the repair
                        // ladder must run either way.
                        self.kill_done = true;
                        self.slots[s].kill();
                        handle_death(
                            &mut self.slots,
                            s,
                            epoch,
                            &fact,
                            axis_src,
                            &region,
                            &bands,
                            &consumer_of,
                            &mut pending,
                            &mut repair,
                            &mut halo_cache,
                            &mut repair_inter,
                            &mut local_rows,
                            &opts,
                            &mut stats,
                        );
                    }
                }
                Event::Dead(s) => {
                    handle_death(
                        &mut self.slots,
                        s,
                        epoch,
                        &fact,
                        axis_src,
                        &region,
                        &bands,
                        &consumer_of,
                        &mut pending,
                        &mut repair,
                        &mut halo_cache,
                        &mut repair_inter,
                        &mut local_rows,
                        &opts,
                        &mut stats,
                    );
                }
            }
        }

        // Coordinator-side ring-writer spins this frame.
        let spin_now: u64 = self
            .slots
            .iter()
            .filter_map(|s| s.spins.as_ref())
            .map(|c| c.load(Ordering::Relaxed))
            .sum();
        stats.ring_full_spins += spin_now.saturating_sub(spin_base);

        // Repair: recomposite each lost band locally and warp it straight
        // into the merged image (owned pixels only, so overwrite-safe).
        repair.sort_unstable();
        repair.dedup();
        for &s in &repair {
            let band = &bands[s];
            if band.is_empty() {
                continue;
            }
            let inter = repair_inter
                .get_or_insert_with(|| IntermediateImage::new(fact.inter_w, fact.inter_h));
            for y in band.clone() {
                if local_rows.insert(y) {
                    composite_row(axis_src, &fact, &mut inter.row_view(y), &opts);
                }
            }
            if band.end != region.end && !local_rows.contains(&band.end) {
                let mut decoded = false;
                if let Some(payload) = halo_cache.get(&band.end) {
                    decoded = decode_inter_row(payload, inter.row_view(band.end).pix).is_ok();
                }
                if !decoded {
                    composite_row(axis_src, &fact, &mut inter.row_view(band.end), &opts);
                }
                local_rows.insert(band.end);
            }
            let warp_band = extend_band(band.clone(), region.start);
            let shared = SharedFinal::new(&mut out);
            warp_row_band(&*inter, &fact, &shared, warp_band, &mut NullTracer);
            stats.repaired_shards.push(s);
        }

        self.last_stats = stats;
        Ok(out)
    }

    /// Orderly teardown: shutdown frames, bounded reaping, hard kill last.
    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        let bye = Frame::control(MsgKind::Shutdown, COORDINATOR_ID, self.epoch);
        for slot in &mut self.slots {
            slot.send(&bye);
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        for slot in &self.slots {
            loop {
                let exited = match slot.child.lock() {
                    Ok(mut c) => !matches!(c.try_wait(), Ok(None)),
                    Err(_) => true,
                };
                if exited {
                    break;
                }
                if Instant::now() >= deadline {
                    slot.kill();
                    if let Ok(mut c) = slot.child.lock() {
                        let _ = c.wait();
                    }
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            if let Some(map) = &slot.shm {
                map.close_both();
            }
        }
    }
}

impl Drop for ShardedRenderer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Marks a worker dead, schedules its band for repair, and — if the band
/// below is still waiting for a halo this worker never sent — composites
/// the substitute halo scanline and forwards it.
#[allow(clippy::too_many_arguments)]
fn handle_death(
    slots: &mut [WorkerSlot],
    s: usize,
    epoch: u64,
    fact: &Factorization,
    axis_src: AxisSrc<'_>,
    region: &Range<usize>,
    bands: &[Range<usize>],
    consumer_of: &HashMap<usize, usize>,
    pending: &mut HashSet<usize>,
    repair: &mut Vec<usize>,
    halo_cache: &mut HashMap<usize, Vec<u8>>,
    repair_inter: &mut Option<IntermediateImage>,
    local_rows: &mut HashSet<usize>,
    opts: &CompositeOpts,
    stats: &mut ShardFrameStats,
) {
    if !slots[s].alive && !pending.contains(&s) {
        return;
    }
    slots[s].alive = false;
    if let Some(map) = &slots[s].shm {
        map.close_both();
    }
    if pending.remove(&s) {
        repair.push(s);
    }
    let band = &bands[s];
    if band.is_empty() || band.start == region.start || halo_cache.contains_key(&band.start) {
        return;
    }
    let Some(&t) = consumer_of.get(&band.start) else {
        return;
    };
    if !slots[t].alive || !pending.contains(&t) {
        return;
    }
    // Substitute halo: composited whole, so it is bit-identical to the
    // scanline the dead worker would have sent.
    let inter =
        repair_inter.get_or_insert_with(|| IntermediateImage::new(fact.inter_w, fact.inter_h));
    if local_rows.insert(band.start) {
        composite_row(axis_src, fact, &mut inter.row_view(band.start), opts);
    }
    let payload = encode_inter_row(inter.row_view(band.start).pix);
    halo_cache.insert(band.start, payload.clone());
    let fwd = Frame {
        kind: MsgKind::InterRow,
        shard: COORDINATOR_ID,
        epoch,
        rect: [0, band.start as u32, fact.inter_w as u32, 1],
        payload,
    };
    if slots[t].send(&fwd) {
        stats.tiles_routed += 1;
        stats.bytes_moved += fwd.payload.len() as u64;
    }
}

/// Merges one span batch into the final image: non-zero pixels win (each is
/// owned by exactly one band, so order cannot matter), zeros are the shared
/// background and need no write.
fn merge_spans(out: &mut FinalImage, payload: &[u8]) -> Result<(), Error> {
    let spans = decode_final_spans(payload)?;
    let (w, h) = (out.width(), out.height());
    for span in spans {
        let v = span.v as usize;
        let u0 = span.u0 as usize;
        if v >= h || u0 + span.pixels.len() > w {
            return Err(Error::Protocol {
                reason: format!(
                    "span at ({u0}, {v}) length {} exceeds final image {w}x{h}",
                    span.pixels.len()
                ),
            });
        }
        for (i, px) in span.pixels.iter().enumerate() {
            if *px != [0, 0, 0, 0] {
                out.set(u0 + i, v, *px);
            }
        }
    }
    Ok(())
}
