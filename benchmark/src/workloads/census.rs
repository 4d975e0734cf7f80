//! The layer census: every traced run measures every layer that needs no
//! live server or worker fleet, on the workload's own volume and views, so
//! each per-layer metric is a measurement on every workload. What only one
//! workload can measure (a live `swr-serve`, a live shard fleet, its own
//! per-op spans) is that workload's [`LOCAL`](crate::metrics::LOCAL) part.

use super::serve::render_line;
use super::{animation_pass, render_pass};
use crate::harness::{
    pixel_digest, sequential_pass, Check, FrameNote, FrameRef, LapOutcome, Scene, THREADS,
};
use crate::metrics::Layers;
use crate::ops::{orbit_angles, splitmix64, LAP_OPS};
use crate::span::Recorder;
use crate::stats::{median, percentile, Lap};
use shearwarp::core::{
    balanced_contiguous, parallel_prefix_sum, AnimationPipeline, NewParallelRenderer,
    OldParallelRenderer, ParallelConfig,
};
use shearwarp::geom::{Factorization, ViewSpec};
use shearwarp::render::{
    composite_scanline_slice_untraced_src, warp_full, CompositeOpts, FinalImage, IntermediateImage,
    NullTracer, SerialRenderer, VolumeSrc,
};
use shearwarp::serve::protocol::{frame_response, image_hash, Quality, Request};
use shearwarp::shard::codec::{decode_frame, encode_frame, Frame, MsgKind};
use shearwarp::telemetry::{chrome_trace, run_metrics_json};
use shearwarp::volume::BrickedVolume;
use std::hint::black_box;
use std::time::Instant;

/// Brick edge of the streamed layout at full scale.
const BRICK: usize = 32;

/// Brick edge for a volume shrunk by `shrink` (tests), so that a shrunk
/// volume still spans many bricks.
pub fn brick_extent(shrink: usize) -> usize {
    (BRICK / shrink).max(2)
}
/// Resident budget of the streamed layout: the flat encoded bytes over this.
pub const BUDGET_DIVISOR: u64 = 4;
/// Probes that need no full lap run on every `SUBSET_STRIDE`-th view.
const SUBSET_STRIDE: usize = 4;

/// Runs every probe; `layers` ends up with every
/// [`PER_LAYER`](crate::metrics::PER_LAYER) metric but the set-up spans and
/// the two `harness.*` ones, which the traced run itself records.
pub fn census(scene: &Scene<'_>, layers: &mut Layers, check: &mut Check) {
    let flat = VolumeSrc::Flat(scene.enc);
    let sub_views: Vec<ViewSpec> = scene.views.iter().step_by(SUBSET_STRIDE).cloned().collect();
    let sub_refs: Vec<FrameRef> = scene.refs.iter().step_by(SUBSET_STRIDE).cloned().collect();
    let mut off = Recorder::new(false);

    layers.set(
        "volume.encoded_mib",
        scene.enc.storage_bytes() as f64 / (1 << 20) as f64,
    );
    layers.set("volume.transparent_frac", scene.enc.transparent_fraction());
    probe_geom(scene.views, layers);
    probe_render(flat, &sub_views, &sub_refs, layers, check);

    // `core`: one lap of each renderer over the same views. `new` against
    // serial and old is the paper's headline, stated natively.
    let mut new = NewParallelRenderer::new(ParallelConfig::with_procs(THREADS));
    let new_lap = render_pass(
        "census new",
        flat,
        scene.views,
        scene.refs,
        &mut new,
        LAP_OPS,
        &mut off,
    );
    probe_core_split(&new_lap, layers);
    probe_partition(&new, layers);
    probe_telemetry(&new, layers);
    let mut serial = SerialRenderer::new();
    let serial_lap = plain_lap(scene, check, |v| serial.render(scene.enc, v));
    let mut old = OldParallelRenderer::new(ParallelConfig::with_procs(THREADS));
    let old_lap = plain_lap(scene, check, |v| old.render(scene.enc, v));
    let new_p50 = percentile(&new_lap.lap.lat_ms, 0.5);
    let serial_p50 = percentile(&serial_lap.lat_ms, 0.5);
    layers.set("ref.serial_frames_per_s", serial_lap.rate());
    layers.set("ref.old_frames_per_s", old_lap.rate());
    layers.set(
        "core.speedup_vs_serial",
        new_lap.lap.rate() / serial_lap.rate(),
    );
    layers.set("core.speedup_vs_old", new_lap.lap.rate() / old_lap.rate());
    layers.set(
        "core.parallel_efficiency",
        serial_p50 / (THREADS as f64 * new_p50),
    );
    layers.set("core.overhead_ms", new_p50 - serial_p50 / THREADS as f64);

    // The same views through the pipeline: what overlapping warp N with
    // composite N+1 buys over one frame per call.
    let mut pipeline = AnimationPipeline::new(ParallelConfig::with_procs(THREADS));
    let piped = animation_pass(&mut pipeline, scene.enc, scene.views, scene.refs, &mut off);
    layers.set("core.pipeline_gain", piped.lap.rate() / new_lap.lap.rate());
    check.merge(piped.check);
    check.merge(new_lap.check);
    // A 1-view animation call, whole: pool spawn, one frame that overlaps
    // nothing, pool join.
    let us: Vec<f64> = scene.views[..5]
        .iter()
        .map(|v| {
            let t = Instant::now();
            let r = pipeline.try_render_animation(scene.enc, std::slice::from_ref(v), |_, _, _| {});
            if let Err(e) = r {
                check.problem(format!("1-view animation: {e}"));
            }
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    layers.set("core.pool_spawn_us", median(&us));

    probe_bricks(scene, &sub_views, &sub_refs, &mut new, layers, check);
    probe_serve_replay(scene, &sub_views, layers, check);
    probe_codec(&scene.views[0], scene.seed, layers, check);
}

/// One verified lap of a renderer that reports no stats.
fn plain_lap(
    scene: &Scene<'_>,
    check: &mut Check,
    mut render: impl FnMut(&ViewSpec) -> FinalImage,
) -> Lap {
    let out = sequential_pass(
        "reference renderer",
        LAP_OPS,
        scene.refs,
        &mut Recorder::new(false),
        &[],
        |i, _| Ok((render(&scene.views[i]), FrameNote::default())),
    );
    check.merge(out.check);
    out.lap
}

/// `geom`: the factorization is < 0.1 % of any frame; recorded so a
/// regression shows.
fn probe_geom(views: &[ViewSpec], layers: &mut Layers) {
    let us: Vec<f64> = views
        .iter()
        .map(|v| {
            let t = Instant::now();
            black_box(Factorization::from_view(black_box(v)));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    layers.set("geom.factorize_us", median(&us));
}

/// `render`: single-threaded decomposition of a frame into its compositing
/// loop and its warp, through the public kernels, in the serial renderer's
/// traversal order. The decomposed frame must hash-equal the reference, or
/// the split would be of some other computation.
fn probe_render(
    src: VolumeSrc<'_>,
    views: &[ViewSpec],
    refs: &[FrameRef],
    layers: &mut Layers,
    check: &mut Check,
) {
    let opts = CompositeOpts::default();
    let mut inter: Option<IntermediateImage> = None;
    let (mut comp_ms, mut warp_ms) = (Vec::new(), Vec::new());
    let (mut composited, mut warped) = (0u64, 0u64);
    for (view, reference) in views.iter().zip(refs) {
        let fact = Factorization::from_view(view);
        let rle = src.for_axis(fact.principal);
        let img = match &mut inter {
            Some(img) if (img.width(), img.height()) == (fact.inter_w, fact.inter_h) => {
                img.clear();
                img
            }
            slot => slot.insert(IntermediateImage::new(fact.inter_w, fact.inter_h)),
        };
        let t0 = Instant::now();
        let n_j = rle.std_dims()[1] as f64;
        for m in 0..fact.slice_count() {
            let k = fact.slice_for_step(m);
            let xf = fact.slice_xform(k);
            let y_lo = (xf.off_v - 1.0).ceil().max(0.0) as usize;
            let y_hi = ((xf.off_v + xf.scale * n_j).floor() as usize).min(fact.inter_h - 1);
            for y in y_lo..=y_hi {
                let mut row = img.row_view(y);
                composited += composite_scanline_slice_untraced_src(rle, &fact, &mut row, k, &opts);
            }
        }
        let t1 = Instant::now();
        let mut out = FinalImage::new(fact.final_w, fact.final_h);
        warped += warp_full(&*img, &fact, &mut out, &mut NullTracer);
        let t2 = Instant::now();
        comp_ms.push((t1 - t0).as_secs_f64() * 1e3);
        warp_ms.push((t2 - t1).as_secs_f64() * 1e3);
        if pixel_digest(&out) != reference.digest {
            check.problem("a decomposed frame differs from the reference".into());
        }
    }
    let frames = comp_ms.len() as f64;
    let (c, w) = (median(&comp_ms), median(&warp_ms));
    layers.set("render.composite_ms", c);
    layers.set("render.warp_ms", w);
    layers.set("render.composite_share", c / (c + w));
    layers.set("render.composited_mpix", composited as f64 / frames / 1e6);
    layers.set(
        "render.composite_mpix_per_s",
        composited as f64 / 1e3 / comp_ms.iter().sum::<f64>(),
    );
    layers.set(
        "render.warped_mpix_per_s",
        warped as f64 / 1e3 / warp_ms.iter().sum::<f64>(),
    );
}

/// `core`: op latencies split by what the renderer's `RenderStats` said
/// about each frame.
fn probe_core_split(lap: &LapOutcome, layers: &mut Layers) {
    let by = |profiled: bool| -> Vec<f64> {
        lap.notes
            .iter()
            .zip(&lap.lap.lat_ms)
            .filter(|(n, _)| n.profiled == profiled)
            .map(|(_, &ms)| ms)
            .collect()
    };
    let (profiled, unprofiled) = (by(true), by(false));
    // Tiny laps can profile every frame (or none); then the other side
    // reads the side that exists rather than a made-up 0.
    let all = median(&lap.lap.lat_ms);
    let or_all = |v: &[f64]| if v.is_empty() { all } else { median(v) };
    layers.set("core.frame_ms_profiled", or_all(&profiled));
    layers.set("core.frame_ms_unprofiled", or_all(&unprofiled));
    let frames = lap.notes.len().max(1) as f64;
    layers.set("core.profiled_frames", profiled.len() as f64);
    layers.set(
        "core.steals_per_frame",
        lap.notes.iter().map(|n| n.steals).sum::<u64>() as f64 / frames,
    );
    layers.set(
        "core.degraded_frames",
        lap.notes.iter().filter(|n| n.degraded).count() as f64,
    );
}

/// `core` partitioning: the prefix sum and the balanced split the renderer
/// performs on its work profile each frame, timed on the profile the lap
/// left behind. Imbalance = max band work ÷ mean band work.
fn probe_partition(renderer: &NewParallelRenderer, layers: &mut Layers) {
    let Some(profile) = renderer.profile() else {
        return;
    };
    let mut us = Vec::new();
    let mut parts = Vec::new();
    for _ in 0..50 {
        let t = Instant::now();
        black_box(parallel_prefix_sum(black_box(profile), THREADS));
        parts = balanced_contiguous(0..profile.len(), profile, THREADS);
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let work: Vec<f64> = parts
        .iter()
        .map(|r| profile[r.clone()].iter().sum::<u64>() as f64)
        .collect();
    let mean = work.iter().sum::<f64>() / work.len() as f64;
    layers.set("core.partition_us", median(&us));
    if mean > 0.0 {
        layers.set(
            "core.imbalance",
            work.iter().copied().fold(0.0, f64::max) / mean,
        );
    }
}

/// `telemetry`: export cost of the last frame's telemetry. Export is off
/// the frame path, so this should move no end-to-end metric.
fn probe_telemetry(renderer: &NewParallelRenderer, layers: &mut Layers) {
    let Some(t) = renderer.last_telemetry.as_ref() else {
        return;
    };
    let t0 = Instant::now();
    let bytes = chrome_trace(&[t]).to_string().len() + run_metrics_json(&[t]).to_string().len();
    black_box(bytes);
    layers.set("telemetry.export_ms", t0.elapsed().as_secs_f64() * 1e3);
    let spans: usize = t.workers.iter().map(|w| w.spans().len()).sum();
    layers.set("telemetry.spans_per_frame", spans as f64);
}

/// `volume` bricks: the same views, the same renderer, three layouts —
/// flat → in-memory bricked → streamed under a quarter-size budget —
/// separates the bricked layout's cost from streaming's.
fn probe_bricks(
    scene: &Scene<'_>,
    views: &[ViewSpec],
    refs: &[FrameRef],
    renderer: &mut NewParallelRenderer,
    layers: &mut Layers,
    check: &mut Check,
) {
    let budget = scene.enc.storage_bytes() as u64 / BUDGET_DIVISOR;
    let t = Instant::now();
    let streamed =
        match BrickedVolume::from_encoded_streamed(scene.enc, brick_extent(scene.shrink), budget) {
            Ok(v) => v,
            Err(e) => return check.problem(format!("brick spill: {e}")),
        };
    layers.set("volume.brick_build_s", t.elapsed().as_secs_f64());
    let resident = BrickedVolume::from_encoded(scene.enc, brick_extent(scene.shrink));
    let mut off = Recorder::new(false);
    let mut p50 = |what: &str, src: VolumeSrc<'_>, check: &mut Check| {
        let out = render_pass(what, src, views, refs, renderer, views.len(), &mut off);
        check.merge(out.check);
        percentile(&out.lap.lat_ms, 0.5)
    };
    let flat = p50("flat layout", VolumeSrc::Flat(scene.enc), check);
    let bricked = p50("bricked layout", VolumeSrc::Bricked(&resident), check);
    let before = streamed.cache_stats().unwrap_or_default();
    let stream = p50("streamed layout", VolumeSrc::Bricked(&streamed), check);
    let after = streamed.cache_stats().unwrap_or_default();
    layers.set("volume.brick_penalty_ms", bricked - flat);
    layers.set("volume.stream_penalty_ms", stream - bricked);
    set_cache_counters(&before, &after, layers, check);
}

/// Brick-cache counters over an interval, and the hard bound the cache
/// promises: peak resident bytes never exceed the budget.
pub fn set_cache_counters(
    before: &shearwarp::volume::BrickCacheStats,
    after: &shearwarp::volume::BrickCacheStats,
    layers: &mut Layers,
    check: &mut Check,
) {
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    layers.set("volume.brick_hits", hits as f64);
    layers.set("volume.brick_misses", misses as f64);
    layers.set(
        "volume.brick_evictions",
        (after.evictions - before.evictions) as f64,
    );
    layers.set(
        "volume.brick_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    layers.set(
        "volume.brick_peak_resident_mib",
        after.peak_resident_bytes as f64 / (1 << 20) as f64,
    );
    if after.peak_resident_bytes > after.budget_bytes {
        check.problem(format!(
            "brick cache peak {} exceeds its budget {}",
            after.peak_resident_bytes, after.budget_bytes
        ));
    }
}

/// `serve`, replayed: the server-side steps of a pixel request, through the
/// same public functions the session calls, on this workload's own views.
fn probe_serve_replay(
    scene: &Scene<'_>,
    views: &[ViewSpec],
    layers: &mut Layers,
    check: &mut Check,
) {
    let parse_us: Vec<f64> = orbit_angles(scene.seed)
        .iter()
        .map(|&a| {
            let line = render_line(7, a, true);
            let t = Instant::now();
            if black_box(Request::parse(&line)).is_err() {
                check.problem(format!("request does not parse: {line}"));
            }
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let mut pipeline = AnimationPipeline::new(ParallelConfig::with_procs(1));
    let (mut render_ms, mut serialize_ms, mut hash_ms, mut kib) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for view in views {
        let mut frame: Option<FinalImage> = None;
        let t = Instant::now();
        let r =
            pipeline.try_render_animation(scene.enc, std::slice::from_ref(view), |_, img, _| {
                frame = Some(img);
            });
        render_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let Some(img) = frame.filter(|_| r.is_ok()) else {
            check.problem("1-thread pipeline replay failed".into());
            continue;
        };
        let t = Instant::now();
        let text = frame_response(7, 0, &img, Quality::Full, 1, false, 5, true).to_string();
        serialize_ms.push(t.elapsed().as_secs_f64() * 1e3);
        kib.push(text.len() as f64 / 1024.0);
        let t = Instant::now();
        black_box(image_hash(&img));
        hash_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    if render_ms.len() != serialize_ms.len() {
        return;
    }
    layers.set("serve.parse_us", median(&parse_us));
    layers.set("serve.render_ms", median(&render_ms));
    // `frame_response` hashes the image itself: serialize_ms includes
    // hash_ms.
    layers.set("serve.serialize_ms", median(&serialize_ms));
    layers.set("serve.hash_ms", median(&hash_ms));
    layers.set("serve.resp_kib", median(&kib));
}

/// `shard` codec: encode + decode of a halo-row-sized tile (one
/// intermediate scanline: 4 + 16·width bytes of seeded noise).
fn probe_codec(view: &ViewSpec, seed: u64, layers: &mut Layers, check: &mut Check) {
    let width = Factorization::from_view(view).inter_w;
    let mut state = seed;
    let payload: Vec<u8> = (0..4 + 16 * width)
        .map(|_| {
            state = splitmix64(state);
            state as u8
        })
        .collect();
    let tile = Frame {
        kind: MsgKind::InterRow,
        shard: 0,
        epoch: 1,
        rect: [0, 0, width as u32, 1],
        payload,
    };
    const ROUNDS: usize = 2000;
    let t = Instant::now();
    for _ in 0..ROUNDS {
        let round_trip = encode_frame(black_box(&tile)).and_then(|b| decode_frame(&b));
        match round_trip {
            Ok(f) if f == tile => {}
            _ => return check.problem("tile codec round trip failed".into()),
        }
    }
    let mib = (ROUNDS * tile.payload.len()) as f64 / (1 << 20) as f64;
    layers.set("shard.codec_mib_per_s", mib / t.elapsed().as_secs_f64());
}
