//! End-to-end telemetry tests: exported documents must round-trip through
//! the JSON parser and validate against the Chrome trace-event schema;
//! panic-repair accounting must agree between `RenderStats` and the metrics
//! registry in **both** parallel renderers; and the memsim replay must emit
//! traces structurally compatible with the native renderers' (same span
//! vocabulary, same exporters, virtual-time unit).

use shearwarp::core::{capture_frame, CaptureConfig};
use shearwarp::memsim::{try_replay_traced, Platform};
use shearwarp::prelude::*;
use shearwarp::telemetry::SpanKind;
use std::sync::Once;

fn quiet_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        std::panic::set_hook(Box::new(|_| {}));
    });
}

fn scene() -> (EncodedVolume, ViewSpec) {
    let vol = Phantom::MriBrain.generate([24, 24, 16], 11);
    let c = classify(&vol, &TransferFunction::mri_default());
    let enc = EncodedVolume::encode(&c);
    let view = ViewSpec::new([24, 24, 16]).rotate_y(0.5).rotate_x(0.2);
    (enc, view)
}

/// The telemetry a renderer leaves behind after one frame.
fn telemetry_of<R, F>(r: &mut R, take: F) -> FrameTelemetry
where
    F: FnOnce(&mut R) -> Option<FrameTelemetry>,
{
    take(r).expect("renderer must leave last_telemetry after a frame")
}

#[test]
fn new_renderer_panic_repair_agrees_with_metrics() {
    quiet_panics();
    let (enc, view) = scene();
    let mut r = NewParallelRenderer::new(ParallelConfig::with_procs(4));
    r.fault = Some(FaultPlan::new(0).panic_at(1));
    let (_img, stats) = r
        .try_render_with_stats(&enc, &view)
        .expect("repaired frame");
    assert_eq!(stats.worker_panics, 1);
    let t = telemetry_of(&mut r, |r| r.last_telemetry.take());
    let counter = |n: &str| t.metrics.counter(n);
    assert_eq!(counter("stats.worker_panics"), stats.worker_panics);
    assert_eq!(counter("stats.repaired_rows"), stats.repaired_rows);
    assert_eq!(counter("stats.steals"), stats.steals);
    if cfg!(feature = "telemetry") {
        let driver = t.worker(usize::MAX).expect("driver lane");
        assert_eq!(driver.kind_count(SpanKind::Repair), 1, "one repair pass");
    }
}

#[test]
fn old_renderer_panic_repair_agrees_with_metrics() {
    quiet_panics();
    let (enc, view) = scene();
    let mut r = OldParallelRenderer::new(ParallelConfig::with_procs(4));
    r.fault = Some(FaultPlan::new(0).panic_at(1));
    let (_img, stats) = r
        .try_render_with_stats(&enc, &view)
        .expect("repaired frame");
    assert_eq!(stats.worker_panics, 1);
    let t = telemetry_of(&mut r, |r| r.last_telemetry.take());
    let counter = |n: &str| t.metrics.counter(n);
    assert_eq!(counter("stats.worker_panics"), stats.worker_panics);
    assert_eq!(counter("stats.repaired_rows"), stats.repaired_rows);
    if cfg!(feature = "telemetry") {
        let driver = t.worker(usize::MAX).expect("driver lane");
        assert_eq!(driver.kind_count(SpanKind::Repair), 1, "one repair pass");
    }
}

#[test]
fn exported_documents_round_trip_through_the_parser() {
    let (enc, view) = scene();
    let mut r = NewParallelRenderer::new(ParallelConfig::with_procs(3));
    r.try_render(&enc, &view).expect("frame");
    let t = telemetry_of(&mut r, |r| r.last_telemetry.take());

    let trace = chrome_trace(&[&t]);
    let back = Json::parse(&trace.to_string()).expect("trace parses");
    assert_eq!(back, trace, "trace JSON must round-trip exactly");
    validate_chrome_trace(&back).expect("trace validates");

    let metrics = run_metrics_json(&[&t]);
    let back = Json::parse(&metrics.to_string()).expect("metrics parse");
    assert_eq!(back, metrics, "metrics JSON must round-trip exactly");
    assert_eq!(
        back.get("schema").and_then(Json::as_str),
        Some("swr-telemetry/v1")
    );

    let table = breakdown_table(&t);
    assert!(table.contains("driver"));
    assert!(table.contains("worker 0"));
}

/// Span names used by any trace, as a sorted set.
fn span_names(doc: &Json) -> std::collections::BTreeSet<String> {
    doc.get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents")
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .map(str::to_string)
        .collect()
}

#[test]
fn native_and_replay_traces_share_one_span_vocabulary() {
    let (enc, view) = scene();

    let mut r = NewParallelRenderer::new(ParallelConfig::with_procs(2));
    r.try_render(&enc, &view).expect("native frame");
    let native = telemetry_of(&mut r, |r| r.last_telemetry.take());
    let native_doc = chrome_trace(&[&native]);
    validate_chrome_trace(&native_doc).expect("native trace validates");

    let cfg = CaptureConfig::from_parallel(&ParallelConfig::with_procs(2), 16);
    let mut cap = capture_frame(&enc, &view, &cfg, true, false);
    let profile = cap.profile.clone();
    let wl = cap.new_workload(2, &profile);
    let (_r, replay) = try_replay_traced(&Platform::ideal_dsm(), &wl).expect("replay");
    let replay_doc = chrome_trace(&[&replay]);
    validate_chrome_trace(&replay_doc).expect("replay trace validates");

    // Both traces draw their span names from the one SpanKind vocabulary, so
    // the same Perfetto queries and exporters apply to either.
    let vocabulary: std::collections::BTreeSet<String> = SpanKind::ALL
        .iter()
        .map(|k| k.as_str().to_string())
        .collect();
    for doc in [&native_doc, &replay_doc] {
        for name in span_names(doc) {
            assert!(
                name == "frame" || vocabulary.contains(&name),
                "span name {name} outside the shared vocabulary"
            );
        }
    }
    // And the units are declared so tooling can tell real from virtual time.
    let unit = |doc: &Json| {
        doc.get("otherData")
            .and_then(|o| o.get("unit"))
            .and_then(Json::as_str)
            .map(str::to_string)
    };
    assert_eq!(unit(&native_doc).as_deref(), Some("us"));
    assert_eq!(unit(&replay_doc).as_deref(), Some("cycles"));
}

/// An all-transparent volume is a frame like any other: the renderer must
/// not hand back the previous frame's spans and metrics as its telemetry.
#[test]
fn an_empty_frame_does_not_leave_the_previous_frames_telemetry_behind() {
    let (enc, view) = scene();
    let mut r = NewParallelRenderer::new(ParallelConfig::with_procs(2));
    let (_, stats) = r.try_render_with_stats(&enc, &view).expect("populated");
    assert!(stats.composited_pixels > 0);
    let t = r.last_telemetry.as_ref().expect("populated telemetry");
    assert_eq!(
        t.metrics.counter("stats.composited_pixels"),
        stats.composited_pixels
    );

    let empty = classify(
        &Volume::zeros([24, 24, 16]),
        &TransferFunction::mri_default(),
    );
    let empty = EncodedVolume::encode(&empty);
    let (img, stats) = r.try_render_with_stats(&empty, &view).expect("empty");
    assert_eq!(img.mean_luma(), 0.0);
    assert_eq!(stats.composited_pixels, 0);
    let t = r.last_telemetry.as_ref().expect("empty-frame telemetry");
    assert_eq!(
        t.metrics.counter("stats.composited_pixels"),
        0,
        "telemetry still reports the populated frame"
    );
}
