//! The shard worker: the event loop behind the `swr-shard` binary.
//!
//! A worker owns one contiguous band of intermediate-image scanlines per
//! frame. It composites each owned scanline whole (all slices in ascending
//! front-to-back order — bit-identical to the serial order by construction),
//! ships its first scanline to the coordinator as soon as it is finished
//! (the halo the band below needs, routed asynchronously while the rest of
//! the band is still compositing), waits for its own halo scanline from the
//! band above, warps exactly the final pixels its band owns, and streams
//! the warped spans back to the coordinator.

use crate::codec::{read_frame, write_frame, Frame, MsgKind, MAX_PAYLOAD};
use crate::transport::{worker_connect_from_env, Link};
use crate::wire::{
    decode_assignment, decode_inter_row, encode_final_spans, encode_inter_row, encode_report,
    FinalSpan, FrameAssignment, PayloadWriter, WorkerFrameReport,
};
use std::sync::atomic::Ordering;
use swr_error::Error;
use swr_geom::Factorization;
use swr_render::{
    composite_row, extend_band, warp_row_band, CompositeOpts, FinalImage, IntermediateImage,
    NullTracer, SharedFinal, VolumeSrc,
};
use swr_volume::EncodedVolume;

/// Flush a `FinalSpans` message once the batch reaches this payload size, so
/// large frames stream through a small ring instead of requiring one giant
/// frame (which would also bounce off [`MAX_PAYLOAD`]).
const SPAN_FLUSH_BYTES: usize = 1 << 20;

fn proto(reason: impl Into<String>) -> Error {
    Error::Protocol {
        reason: reason.into(),
    }
}

/// What interrupted (or concluded) the handling of one `FrameStart`.
enum AfterFrame {
    /// Band rendered and reported.
    Completed,
    /// A newer `FrameStart` preempted this frame while waiting for the halo
    /// (the coordinator abandoned the epoch); carry it into the main loop.
    Preempted(Frame),
    /// Orderly shutdown arrived mid-frame.
    Shutdown,
}

/// Runs the worker event loop to completion. This is the entire body of the
/// `swr-shard` binary; exit code comes from the returned error, if any.
pub fn run_worker() -> Result<(), Error> {
    let (shard, mut link) = worker_connect_from_env()?;
    let shard = u16::try_from(shard).map_err(|_| proto("shard id exceeds u16"))?;
    let mut hello = PayloadWriter::new();
    hello.u32(shard as u32);
    hello.u32(std::process::id());
    write_frame(
        &mut link.writer,
        &Frame {
            kind: MsgKind::Hello,
            shard,
            epoch: 0,
            rect: [0; 4],
            payload: hello.finish(),
        },
    )?;

    let mut enc: Option<EncodedVolume> = None;
    let mut pending: Option<Frame> = None;
    loop {
        let frame = match pending.take() {
            Some(f) => f,
            None => match read_frame(&mut link.reader)? {
                Some(f) => f,
                None => return Ok(()), // coordinator closed the link
            },
        };
        match frame.kind {
            MsgKind::SessionStart => {
                let scene = crate::SceneSpec::decode(&frame.payload)?;
                enc = Some(scene.try_build()?);
            }
            MsgKind::FrameStart => {
                let Some(enc) = enc.as_ref() else {
                    return Err(proto("FrameStart before SessionStart"));
                };
                match render_band(shard, &mut link, enc, &frame)? {
                    AfterFrame::Completed => {}
                    AfterFrame::Preempted(f) => pending = Some(f),
                    AfterFrame::Shutdown => return Ok(()),
                }
            }
            MsgKind::Shutdown => return Ok(()),
            // A late-forwarded halo from an epoch this worker already left
            // behind; drop it (the epoch tag exists exactly for this).
            MsgKind::InterRow => {}
            other => {
                return Err(proto(format!(
                    "unexpected {other:?} frame at worker top level"
                )))
            }
        }
    }
}

/// Handles one `FrameStart`: composite the band, exchange halos, warp, and
/// stream the result back.
fn render_band(
    shard: u16,
    link: &mut Link,
    enc: &EncodedVolume,
    start: &Frame,
) -> Result<AfterFrame, Error> {
    let epoch = start.epoch;
    let a: FrameAssignment = decode_assignment(&start.payload)?;
    a.view.try_validate()?;
    let fact = Factorization::from_view(&a.view);
    let region = a.region.0 as usize..a.region.1 as usize;
    let band = a.band.0 as usize..a.band.1 as usize;
    if region.end > fact.inter_h {
        return Err(proto(format!(
            "assignment region {region:?} exceeds intermediate height {}",
            fact.inter_h
        )));
    }
    let spin_base = link
        .full_spins
        .as_ref()
        .map(|c| c.load(Ordering::Relaxed))
        .unwrap_or(0);
    let mut bytes_sent = 0u64;

    // Fresh, fully cleared intermediate image: rows outside the band double
    // as the warp's guard rows (region.start - 1 and region.end), exactly
    // the rows `NewParallelRenderer` clears before its barrier-free warp.
    let src = VolumeSrc::Flat(enc).for_axis(fact.principal);
    let mut inter = IntermediateImage::new(fact.inter_w, fact.inter_h);
    let opts = CompositeOpts::default();

    // Composite each owned scanline whole (rows are mutually independent,
    // so this reproduces the serial compositing bit-for-bit). The first row
    // is shipped the moment it completes so the band below can start its
    // warp while we are still compositing.
    for y in band.clone() {
        let mut row = inter.row_view(y);
        composite_row(src, &fact, &mut row, &opts);
        if y == band.start && a.send_first_row {
            let payload = encode_inter_row(row.pix);
            bytes_sent += payload.len() as u64;
            write_frame(
                &mut link.writer,
                &Frame {
                    kind: MsgKind::InterRow,
                    shard,
                    epoch,
                    rect: [0, y as u32, fact.inter_w as u32, 1],
                    payload,
                },
            )?;
        }
    }

    // The warp of band [lo, hi) bilinearly reads rows lo-1..=hi; the only
    // row not locally composited or statically clear is `hi` — the first
    // scanline of the band above, routed to us through the coordinator.
    if a.expect_halo && !band.is_empty() {
        loop {
            let f = read_frame(&mut link.reader)?
                .ok_or_else(|| proto("link closed while waiting for halo scanline"))?;
            match f.kind {
                MsgKind::InterRow => {
                    if f.expect_epoch(epoch).is_err() {
                        continue; // stale tile from an abandoned frame
                    }
                    let y = f.rect[1] as usize;
                    if y != band.end {
                        return Err(proto(format!(
                            "halo scanline {y} does not border band {band:?}"
                        )));
                    }
                    let row = inter.row_view(y);
                    decode_inter_row(&f.payload, row.pix)?;
                    break;
                }
                MsgKind::FrameStart => return Ok(AfterFrame::Preempted(f)),
                MsgKind::Shutdown => return Ok(AfterFrame::Shutdown),
                other => {
                    return Err(proto(format!(
                        "unexpected {other:?} frame while waiting for halo"
                    )))
                }
            }
        }
    }

    // Partition-preserving warp of exactly the final pixels this band owns,
    // under the in-process renderers' own band-extension rule, so pixels
    // mapping just below the region have an owner here too.
    let warp_band = extend_band(band.clone(), region.start);
    let mut fin = FinalImage::new(fact.final_w, fact.final_h);
    if warp_band.0 < warp_band.1 {
        let shared = SharedFinal::new(&mut fin);
        warp_row_band(&inter, &fact, &shared, warp_band, &mut NullTracer);
    }

    // Stream the owned spans back: for each final scanline, the same
    // u-interval the banded warp visited (affine slack + exact per-pixel
    // ownership happened above; here we just ship the interval).
    let mut batch: Vec<FinalSpan> = Vec::new();
    let mut batch_bytes = 0usize;
    if warp_band.0 < warp_band.1 {
        let (lo, hi) = (warp_band.0 as f64, warp_band.1 as f64);
        let w = fact.final_w as i64;
        for v in 0..fact.final_h {
            let Some((ul, uh)) = fact.band_u_interval(v as f64, lo, hi) else {
                continue;
            };
            let u_start = if ul.is_finite() {
                (ul.floor() as i64 - 1).max(0)
            } else {
                0
            };
            let u_end = if uh.is_finite() {
                (uh.ceil() as i64 + 1).min(w)
            } else {
                w
            };
            if u_start >= u_end {
                continue;
            }
            let pixels: Vec<[u8; 4]> = (u_start..u_end).map(|u| fin.get(u as usize, v)).collect();
            batch_bytes += 12 + pixels.len() * 4;
            batch.push(FinalSpan {
                v: v as u32,
                u0: u_start as u32,
                pixels,
            });
            if batch_bytes >= SPAN_FLUSH_BYTES.min(MAX_PAYLOAD / 2) {
                bytes_sent += flush_spans(shard, link, epoch, &mut batch)? as u64;
                batch_bytes = 0;
            }
        }
    }
    if !batch.is_empty() {
        bytes_sent += flush_spans(shard, link, epoch, &mut batch)? as u64;
    }

    let spins_now = link
        .full_spins
        .as_ref()
        .map(|c| c.load(Ordering::Relaxed))
        .unwrap_or(0);
    let report = WorkerFrameReport {
        rows_composited: band.len() as u32,
        ring_full_spins: spins_now - spin_base,
        bytes_sent,
    };
    write_frame(
        &mut link.writer,
        &Frame {
            kind: MsgKind::FrameDone,
            shard,
            epoch,
            rect: [0; 4],
            payload: encode_report(&report),
        },
    )?;
    Ok(AfterFrame::Completed)
}

/// Sends one `FinalSpans` frame and clears the batch; returns payload bytes.
fn flush_spans(
    shard: u16,
    link: &mut Link,
    epoch: u64,
    batch: &mut Vec<FinalSpan>,
) -> Result<usize, Error> {
    let (mut u0, mut v0, mut u1, mut v1) = (u32::MAX, u32::MAX, 0u32, 0u32);
    for s in batch.iter() {
        u0 = u0.min(s.u0);
        v0 = v0.min(s.v);
        u1 = u1.max(s.u0 + s.pixels.len() as u32);
        v1 = v1.max(s.v + 1);
    }
    let payload = encode_final_spans(batch);
    let len = payload.len();
    write_frame(
        &mut link.writer,
        &Frame {
            kind: MsgKind::FinalSpans,
            shard,
            epoch,
            rect: [u0, v0, u1.saturating_sub(u0), v1.saturating_sub(v0)],
            payload,
        },
    )?;
    batch.clear();
    Ok(len)
}
