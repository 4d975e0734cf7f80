//! Multi-frame pipeline tests: the [`AnimationPipeline`] keeps two frames
//! in flight on a persistent worker pool, yet every delivered frame must be
//! **bit-identical** to the non-pipelined new renderer's output — including
//! under injected worker panics in either phase of either in-flight frame —
//! and every fault must surface as a repaired frame or a typed error, never
//! a hang or a torn image.

use shearwarp::prelude::*;
use shearwarp::telemetry::SpanKind;
use std::sync::Once;

fn quiet_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        std::panic::set_hook(Box::new(|_| {}));
    });
}

fn dataset() -> EncodedVolume {
    let vol = Phantom::MriBrain.generate([24, 24, 16], 11);
    EncodedVolume::encode(&classify(&vol, &TransferFunction::mri_default()))
}

/// A rotation sweep wide enough to cross principal-axis changes (the
/// intermediate image changes dimensions mid-animation).
fn rotation_views(frames: usize, perspective: bool) -> Vec<ViewSpec> {
    (0..frames)
        .map(|i| {
            let mut v = ViewSpec::new([24, 24, 16])
                .rotate_y((i as f64 * 11.0).to_radians())
                .rotate_x(0.2);
            if perspective {
                v = v.with_perspective(96.0);
            }
            v
        })
        .collect()
}

/// Per-frame reference images from the non-pipelined new renderer (same
/// config, same profile policy, rendered strictly one frame at a time).
fn reference_frames(
    enc: &EncodedVolume,
    views: &[ViewSpec],
    cfg: ParallelConfig,
) -> Vec<FinalImage> {
    let mut r = NewParallelRenderer::new(cfg);
    views
        .iter()
        .map(|v| r.try_render(enc, v).expect("reference frame"))
        .collect()
}

#[test]
fn ortho_rotation_sweep_is_bit_identical_across_proc_counts() {
    let enc = dataset();
    let views = rotation_views(8, false);
    for procs in [1, 2, 3, 5] {
        let cfg = ParallelConfig::with_procs(procs);
        let reference = reference_frames(&enc, &views, cfg);
        let mut pipe = AnimationPipeline::new(cfg);
        let frames = pipe.try_render_all(&enc, &views).expect("animation");
        assert_eq!(frames.len(), views.len());
        for (i, (got, want)) in frames.iter().zip(&reference).enumerate() {
            assert_eq!(got, want, "procs {procs}, frame {i}");
        }
    }
}

#[test]
fn perspective_rotation_sweep_is_bit_identical() {
    let enc = dataset();
    let views = rotation_views(6, true);
    let cfg = ParallelConfig::with_procs(3);
    let reference = reference_frames(&enc, &views, cfg);
    let mut pipe = AnimationPipeline::new(cfg);
    let frames = pipe.try_render_all(&enc, &views).expect("animation");
    for (i, (got, want)) in frames.iter().zip(&reference).enumerate() {
        assert_eq!(got, want, "frame {i}");
    }
}

#[test]
fn reused_pipeline_renders_a_second_animation_correctly() {
    let enc = dataset();
    let cfg = ParallelConfig::with_procs(2);
    let mut pipe = AnimationPipeline::new(cfg);
    let first = rotation_views(3, false);
    pipe.try_render_all(&enc, &first).expect("first animation");
    // The second animation reuses the pipeline's profile state, exactly as
    // a renderer instance does across frames.
    let second = rotation_views(5, false);
    let reference = {
        let mut r = NewParallelRenderer::new(cfg);
        for v in &first {
            r.try_render(&enc, v).expect("reference warm-up");
        }
        second
            .iter()
            .map(|v| r.try_render(&enc, v).expect("reference"))
            .collect::<Vec<_>>()
    };
    let frames = pipe
        .try_render_all(&enc, &second)
        .expect("second animation");
    for (i, (got, want)) in frames.iter().zip(&reference).enumerate() {
        assert_eq!(got, want, "frame {i} of the second animation");
    }
}

/// Counts the injection points one animation offers: compositing tasks and
/// non-empty warp bands, both counted globally across all in-flight frames.
fn count_animation_work(
    enc: &EncodedVolume,
    views: &[ViewSpec],
    cfg: ParallelConfig,
) -> (u64, u64) {
    let mut pipe = AnimationPipeline::new(cfg);
    pipe.fault = Some(FaultPlan::new(0));
    pipe.try_render_all(enc, views)
        .expect("unfaulted animation");
    let plan = pipe.fault.as_ref().expect("still attached");
    (plan.tasks_seen(), plan.warps_seen())
}

#[test]
fn composite_panic_at_every_task_repairs_bit_identically() {
    quiet_panics();
    let enc = dataset();
    let views = rotation_views(4, false);
    let cfg = ParallelConfig::with_procs(3);
    let reference = reference_frames(&enc, &views, cfg);
    let (tasks, _) = count_animation_work(&enc, &views, cfg);
    assert!(
        tasks > views.len() as u64,
        "animation too small to hit every in-flight frame: {tasks} tasks"
    );
    for n in 0..tasks {
        let mut pipe = AnimationPipeline::new(cfg);
        pipe.fault = Some(FaultPlan::new(n).panic_at(n));
        let mut degraded_frames = 0u64;
        let mut frames = Vec::new();
        pipe.try_render_animation(&enc, &views, |_, img, stats| {
            if stats.degraded {
                degraded_frames += 1;
            }
            frames.push(img);
        })
        .unwrap_or_else(|e| panic!("task {n}: expected recovery, got {e}"));
        for (i, (got, want)) in frames.iter().zip(&reference).enumerate() {
            assert_eq!(got, want, "panic at task {n}, frame {i}");
        }
        assert_eq!(degraded_frames, 1, "task {n}: exactly one frame degrades");
    }
}

#[test]
fn warp_panic_at_every_band_repairs_bit_identically() {
    quiet_panics();
    let enc = dataset();
    let views = rotation_views(4, false);
    let cfg = ParallelConfig::with_procs(3);
    let reference = reference_frames(&enc, &views, cfg);
    let (_, bands) = count_animation_work(&enc, &views, cfg);
    assert!(
        bands > views.len() as u64,
        "animation offers too few warp bands: {bands}"
    );
    // Band indexes run across the whole animation, so the early indexes
    // land while frame 0/1 are both in flight and the late ones while the
    // last two frames are.
    for n in 0..bands {
        let mut pipe = AnimationPipeline::new(cfg);
        pipe.fault = Some(FaultPlan::new(n).panic_in_warp_at(n));
        let frames = pipe
            .try_render_all(&enc, &views)
            .unwrap_or_else(|e| panic!("warp band {n}: expected recovery, got {e}"));
        for (i, (got, want)) in frames.iter().zip(&reference).enumerate() {
            assert_eq!(got, want, "panic in warp band {n}, frame {i}");
        }
        let degraded = pipe
            .telemetry
            .iter()
            .filter(|t| t.metrics.counter("stats.worker_panics") > 0)
            .count();
        assert_eq!(degraded, 1, "warp band {n}: exactly one frame degrades");
    }
}

#[test]
fn unrecovered_pipeline_panic_is_a_typed_error() {
    quiet_panics();
    let enc = dataset();
    let views = rotation_views(4, false);
    let cfg = ParallelConfig {
        recover_panics: false,
        ..ParallelConfig::with_procs(3)
    };
    let mut pipe = AnimationPipeline::new(cfg);
    pipe.fault = Some(FaultPlan::new(0).panic_at(0));
    let e = pipe
        .try_render_all(&enc, &views)
        .expect_err("recovery disabled");
    assert!(matches!(e, Error::WorkerPanicked { .. }), "{e}");
    assert!(e.to_string().contains("injected fault"), "{e}");
    assert_eq!(e.exit_code(), 3);
}

#[test]
fn truncated_queue_stalls_the_pipeline_with_a_typed_error() {
    let enc = dataset();
    let views = rotation_views(3, false);
    let cfg = ParallelConfig {
        steal: false, // the truncated chunks cannot be rescued
        ..ParallelConfig::with_procs(3)
    };
    let mut pipe = AnimationPipeline::new(cfg);
    pipe.fault = Some(FaultPlan::new(0).truncating_queue(1000));
    let e = pipe
        .try_render_all(&enc, &views)
        .expect_err("lost rows must be detected");
    assert!(matches!(e, Error::Stalled { holder: None, .. }), "{e}");
    assert_eq!(e.exit_code(), 3);
}

/// One frame through each of the two callers of the shared frame executor,
/// freshly constructed (so both profile and partition equally) and under
/// the same fault plan.
fn one_frame_each(
    enc: &EncodedVolume,
    view: &ViewSpec,
    cfg: ParallelConfig,
    fault: &dyn Fn() -> FaultPlan,
) -> [Result<(FinalImage, RenderStats)>; 2] {
    let mut single = NewParallelRenderer::new(cfg);
    single.fault = Some(fault());
    let mut pipe = AnimationPipeline::new(cfg);
    pipe.fault = Some(fault());
    let mut delivered = None;
    let piped = pipe.try_render_animation(enc, std::slice::from_ref(view), |_, img, stats| {
        delivered = Some((img, stats.clone()));
    });
    [
        single.try_render_with_stats(enc, view),
        piped.map(|()| delivered.expect("one frame delivered")),
    ]
}

/// The single-frame renderer and a 1-view pipeline run the same `work` and
/// `resolve`: a panic at any task or warp band a frame offers is repaired
/// to the same pixels and booked the same way by both, and a dropped chunk
/// is the same typed stall. Fails if the two are ever given different
/// bodies again.
#[test]
fn single_frame_and_pipeline_agree_under_every_fault() {
    quiet_panics();
    let enc = dataset();
    let view = rotation_views(2, false).remove(1);
    let serial = SerialRenderer::new().render(&enc, &view);
    // No stealing and no clip: which rows each worker composites, and so
    // the task count and the dropped chunk, are fixed by the geometry.
    let cfg = ParallelConfig {
        steal: false,
        chunk_rows: 3,
        empty_region_clip: false,
        ..ParallelConfig::with_procs(3)
    };
    let (tasks, bands) = count_animation_work(&enc, std::slice::from_ref(&view), cfg);
    assert!(tasks > 3 && bands == 3, "{tasks} tasks, {bands} bands");
    let check = |what: String, fault: &dyn Fn() -> FaultPlan| {
        let [single, piped] = one_frame_each(&enc, &view, cfg, fault);
        let (img_s, stats_s) = single.unwrap_or_else(|e| panic!("{what}, single: {e}"));
        let (img_p, stats_p) = piped.unwrap_or_else(|e| panic!("{what}, pipeline: {e}"));
        assert_eq!(img_s, serial, "{what}, single");
        assert_eq!(img_p, serial, "{what}, pipeline");
        assert_eq!(stats_s.worker_panics, 1, "{what}");
        assert_eq!(stats_p.worker_panics, stats_s.worker_panics, "{what}");
        assert!(stats_s.degraded, "{what}");
        assert_eq!(stats_p.degraded, stats_s.degraded, "{what}");
    };
    for n in 0..tasks {
        check(format!("task {n}"), &|| FaultPlan::new(n).panic_at(n));
    }
    for b in 0..bands {
        check(format!("warp band {b}"), &|| {
            FaultPlan::new(b).panic_in_warp_at(b)
        });
    }

    // Worker 0 loses the last chunk of its band: it finishes the rest,
    // waits on its band bottom-up and proves the chunk's first row lost.
    let h = Factorization::from_view(&view).inter_h;
    let band0 = shearwarp::core::equal_contiguous(0..h, cfg.nprocs)[0].clone();
    let dropped = band0.end - ((band0.len() - 1) % cfg.chunk_rows + 1)..band0.end;
    let stalls = one_frame_each(&enc, &view, cfg, &|| FaultPlan::new(0).truncating_queue(1));
    for (who, result) in ["single", "pipeline"].into_iter().zip(stalls) {
        match result {
            Err(Error::Stalled { row, holder, .. }) => {
                assert_eq!(row, dropped.start, "{who}: dropped chunk {dropped:?}");
                assert_eq!(holder, None, "{who}: the chunk was never claimed");
            }
            other => panic!("{who}: expected a stall, got {:?}", other.map(|(_, s)| s)),
        }
    }
}

/// One clean frame records the same spans, lane by lane, whichever caller
/// ran it: one `Partition` on the driver lane; on each worker its chunks
/// (a first frame profiles), then one `Wait` and one `Warp`.
#[cfg(feature = "telemetry")]
#[test]
fn single_frame_and_pipeline_record_the_same_spans() {
    let enc = dataset();
    let view = rotation_views(2, false).remove(1);
    let cfg = ParallelConfig {
        steal: false,
        ..ParallelConfig::with_procs(3)
    };
    let lanes = |t: &FrameTelemetry| -> Vec<Vec<SpanKind>> {
        let kinds =
            |w: &shearwarp::telemetry::WorkerLog| w.spans().iter().map(|s| s.kind).collect();
        t.workers.iter().map(kinds).collect()
    };
    let mut single = NewParallelRenderer::new(cfg);
    single.try_render(&enc, &view).expect("single frame");
    let single = lanes(single.last_telemetry.as_ref().expect("telemetry"));
    let mut pipe = AnimationPipeline::new(cfg);
    pipe.try_render_all(&enc, std::slice::from_ref(&view))
        .expect("one-view animation");
    assert_eq!(lanes(&pipe.telemetry[0]), single);

    assert_eq!(single[0], [SpanKind::Partition], "driver lane");
    for (p, lane) in single[1..].iter().enumerate() {
        let (chunks, tail) = lane.split_at(lane.len() - 2);
        assert!(!chunks.is_empty(), "worker {p}");
        assert!(
            chunks.iter().all(|&k| k == SpanKind::Profile),
            "worker {p}: {lane:?}"
        );
        assert_eq!(tail, [SpanKind::Wait, SpanKind::Warp], "worker {p}");
    }
}

#[cfg(feature = "telemetry")]
#[test]
fn telemetry_shows_cross_frame_overlap() {
    let enc = dataset();
    let views = rotation_views(5, false);
    let mut pipe = AnimationPipeline::new(ParallelConfig::with_procs(3));
    pipe.try_render_all(&enc, &views).expect("animation");
    let telem = &pipe.telemetry;
    assert_eq!(telem.len(), views.len(), "one telemetry frame per frame");
    for (i, t) in telem.iter().enumerate() {
        assert_eq!(t.label, "pipeline");
        assert_eq!(t.frame_span.frame as usize, i, "frame id on the frame span");
        assert!(t.frame_span.end >= t.frame_span.start);
        // Driver lane + one lane per worker.
        assert_eq!(t.workers.len(), 4);
        // Every recorded span carries this frame's id.
        for w in &t.workers {
            for s in w.spans() {
                assert_eq!(s.frame as usize, i, "span {:?} in frame {i}", s.kind);
            }
        }
        let overlap = t
            .metrics
            .gauge("pipeline.overlap_us")
            .expect("overlap gauge on every frame");
        assert!(overlap >= 0.0);
        if i == 0 {
            assert_eq!(overlap, 0.0, "frame 0 has no predecessor to overlap");
        }
        assert_eq!(t.metrics.gauge("pipeline.in_flight_max"), Some(2.0));
    }
    // The driver publishes frame N+1 before resolving frame N, so every
    // later frame was in flight while its predecessor finished: the overlap
    // gauge must be visibly positive somewhere in the animation.
    assert!(
        telem[1..]
            .iter()
            .any(|t| t.metrics.gauge("pipeline.overlap_us").unwrap_or(0.0) > 0.0),
        "no frame overlapped its predecessor"
    );
    // All frames share one clock: frame N+1's composite work starts before
    // frame N's frame span closes (the overlap the trace exporter shows).
    let starts: Vec<u64> = telem
        .iter()
        .map(|t| {
            t.workers
                .iter()
                .flat_map(|w| w.spans())
                .filter(|s| matches!(s.kind, SpanKind::Composite | SpanKind::Profile))
                .map(|s| s.start)
                .min()
                .unwrap_or(u64::MAX)
        })
        .collect();
    assert!(
        (1..telem.len()).any(|i| starts[i] < telem[i - 1].frame_span.end),
        "no frame started compositing before its predecessor completed"
    );
}

#[cfg(feature = "telemetry")]
#[test]
fn pipeline_trace_exports_and_validates() {
    let enc = dataset();
    let views = rotation_views(4, false);
    let mut pipe = AnimationPipeline::new(ParallelConfig::with_procs(2));
    pipe.try_render_all(&enc, &views).expect("animation");
    let refs: Vec<&FrameTelemetry> = pipe.telemetry.iter().collect();
    let doc = chrome_trace(&refs);
    validate_chrome_trace(&doc).expect("trace validates");
}
