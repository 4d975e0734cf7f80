//! Deterministic fault-injection tests: every injected fault must yield
//! either a **bit-identical** fallback image or a **typed error** — never a
//! hang, a torn image, or an unexplained panic. No test here uses
//! `#[should_panic]`: the `try_*` APIs surface faults as values.

use shearwarp::prelude::*;
use std::sync::Once;
use std::time::Duration;

/// Silence the default panic hook: these tests inject dozens of contained
/// worker panics and the hook would spray their backtraces over the output.
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

/// Counts the compositing tasks one frame offers by attaching a plan with
/// no fault armed.
fn count_tasks_new(enc: &EncodedVolume, view: &ViewSpec, procs: usize) -> u64 {
    let mut r = NewParallelRenderer::new(ParallelConfig::with_procs(procs));
    r.fault = Some(FaultPlan::new(0));
    r.try_render(enc, view).expect("unfaulted frame");
    r.fault.as_ref().expect("still attached").tasks_seen()
}

fn count_tasks_old(enc: &EncodedVolume, view: &ViewSpec, procs: usize) -> u64 {
    let mut r = OldParallelRenderer::new(ParallelConfig::with_procs(procs));
    r.fault = Some(FaultPlan::new(0));
    r.try_render(enc, view).expect("unfaulted frame");
    r.fault.as_ref().expect("still attached").tasks_seen()
}

#[test]
fn new_renderer_panic_at_every_task_repairs_bit_identically() {
    quiet_panics();
    let (enc, view) = scene();
    let serial = SerialRenderer::new().render(&enc, &view);
    let tasks = count_tasks_new(&enc, &view, 3);
    assert!(
        tasks > 2,
        "scene too small to be interesting: {tasks} tasks"
    );
    for n in 0..tasks {
        let mut r = NewParallelRenderer::new(ParallelConfig::with_procs(3));
        r.fault = Some(FaultPlan::new(n).panic_at(n));
        let (img, stats) = r
            .try_render_with_stats(&enc, &view)
            .unwrap_or_else(|e| panic!("task {n}: expected recovery, got {e}"));
        assert_eq!(img, serial, "panic at task {n} must repair bit-identically");
        assert_eq!(stats.worker_panics, 1, "task {n}");
        assert!(stats.degraded, "task {n}");
    }
}

#[test]
fn old_renderer_panic_at_every_task_repairs_bit_identically() {
    quiet_panics();
    let (enc, view) = scene();
    let serial = SerialRenderer::new().render(&enc, &view);
    let tasks = count_tasks_old(&enc, &view, 3);
    assert!(
        tasks > 2,
        "scene too small to be interesting: {tasks} tasks"
    );
    for n in 0..tasks {
        let mut r = OldParallelRenderer::new(ParallelConfig::with_procs(3));
        r.fault = Some(FaultPlan::new(n).panic_at(n));
        let (img, stats) = r
            .try_render_with_stats(&enc, &view)
            .unwrap_or_else(|e| panic!("task {n}: expected recovery, got {e}"));
        assert_eq!(img, serial, "panic at task {n} must repair bit-identically");
        assert_eq!(stats.worker_panics, 1, "task {n}");
        assert!(stats.degraded, "task {n}");
    }
}

#[test]
fn unrecovered_panic_is_a_typed_error() {
    quiet_panics();
    let (enc, view) = scene();
    let cfg = ParallelConfig {
        recover_panics: false,
        ..ParallelConfig::with_procs(3)
    };

    let mut r = NewParallelRenderer::new(cfg);
    r.fault = Some(FaultPlan::new(1).panic_at(0));
    let e = r.try_render(&enc, &view).expect_err("recovery disabled");
    assert!(matches!(e, Error::WorkerPanicked { .. }), "{e}");
    assert!(e.to_string().contains("injected fault"), "{e}");
    assert_eq!(e.exit_code(), 3);

    let mut r = OldParallelRenderer::new(cfg);
    r.fault = Some(FaultPlan::new(1).panic_at(0));
    let e = r.try_render(&enc, &view).expect_err("recovery disabled");
    assert!(matches!(e, Error::WorkerPanicked { .. }), "{e}");
}

#[test]
fn corrupted_profile_still_renders_bit_identically() {
    let (enc, view) = scene();
    let serial = SerialRenderer::new().render(&enc, &view);
    let mut r = NewParallelRenderer::new(ParallelConfig::with_procs(3));
    assert_eq!(r.try_render(&enc, &view).expect("profiling frame"), serial);
    // Frame 2 partitions from a scrambled profile: load balance degrades,
    // output must not.
    r.fault = Some(FaultPlan::new(99).corrupting_profile());
    let (img, stats) = r.try_render_with_stats(&enc, &view).expect("frame 2");
    assert_eq!(img, serial, "corrupt profile must only affect load balance");
    assert_eq!(stats.worker_panics, 0);
    assert!(!stats.degraded);
}

#[test]
fn zeroed_profile_falls_back_to_equal_partitions() {
    let (enc, view) = scene();
    let serial = SerialRenderer::new().render(&enc, &view);
    let mut r = NewParallelRenderer::new(ParallelConfig::with_procs(4));
    assert_eq!(r.try_render(&enc, &view).expect("profiling frame"), serial);
    r.fault = Some(FaultPlan::new(0).zeroing_profile());
    let (img, stats) = r.try_render_with_stats(&enc, &view).expect("frame 2");
    assert_eq!(img, serial, "zeroed profile must fall back cleanly");
    assert!(!stats.degraded);
}

#[test]
fn truncated_queue_stalls_with_typed_error_not_a_hang() {
    let (enc, view) = scene();
    let watchdog = Duration::from_secs(30);
    let cfg = ParallelConfig {
        watchdog_timeout: Some(watchdog),
        // No stealing: the truncated chunks cannot be rescued, so the rows
        // they covered are provably lost.
        steal: false,
        ..ParallelConfig::with_procs(3)
    };
    let mut r = NewParallelRenderer::new(cfg);
    r.fault = Some(FaultPlan::new(0).truncating_queue(1000));
    let t0 = std::time::Instant::now();
    let e = r
        .try_render(&enc, &view)
        .expect_err("lost rows must be detected");
    let elapsed = t0.elapsed();
    assert!(matches!(e, Error::Stalled { .. }), "{e}");
    assert!(e.to_string().contains("stalled"), "{e}");
    assert_eq!(e.exit_code(), 3);
    // Lost-work detection is immediate once the compositors retire — far
    // inside the watchdog budget, not a timeout-length hang.
    assert!(
        elapsed < watchdog / 2,
        "stall detection took {elapsed:?} against a {watchdog:?} watchdog"
    );
    if let Error::Stalled { holder, .. } = e {
        assert_eq!(holder, None, "truncated rows were never claimed");
    }
}

#[test]
fn old_renderer_truncated_queue_is_detected() {
    let (enc, view) = scene();
    let cfg = ParallelConfig {
        steal: false,
        ..ParallelConfig::with_procs(3)
    };
    let mut r = OldParallelRenderer::new(cfg);
    r.fault = Some(FaultPlan::new(0).truncating_queue(1000));
    let e = r
        .try_render(&enc, &view)
        .expect_err("lost rows must be detected");
    assert!(matches!(e, Error::Stalled { holder: None, .. }), "{e}");
}

#[test]
fn rendering_recovers_across_frames_after_a_fault() {
    quiet_panics();
    let (enc, view) = scene();
    let serial = SerialRenderer::new().render(&enc, &view);
    let mut r = NewParallelRenderer::new(ParallelConfig::with_procs(3));

    // Frame 1: a worker dies during the profiling frame.
    r.fault = Some(FaultPlan::new(3).panic_at(0));
    let (img, stats) = r.try_render_with_stats(&enc, &view).expect("recovered");
    assert_eq!(img, serial);
    assert!(stats.degraded);
    assert!(
        !stats.profiled,
        "a degraded frame must not harvest its partial profile counters"
    );

    // Frame 2, fault cleared: profiles afresh and renders cleanly.
    r.fault = None;
    let (img, stats) = r.try_render_with_stats(&enc, &view).expect("clean frame");
    assert_eq!(img, serial);
    assert!(!stats.degraded);
    assert!(
        stats.profiled,
        "the profile is re-collected after the fault"
    );

    // Frame 3 uses the recovered profile.
    let (img, stats) = r.try_render_with_stats(&enc, &view).expect("steady state");
    assert_eq!(img, serial);
    assert!(!stats.profiled);
}

#[test]
fn reused_plan_rearms_with_reset() {
    quiet_panics();
    let (enc, view) = scene();
    let serial = SerialRenderer::new().render(&enc, &view);
    let mut r = NewParallelRenderer::new(ParallelConfig::with_procs(2));
    r.fault = Some(FaultPlan::new(0).panic_at(1));
    for frame in 0..3 {
        let (img, stats) = r
            .try_render_with_stats(&enc, &view)
            .expect("every frame recovers");
        assert_eq!(img, serial, "frame {frame}");
        assert_eq!(stats.worker_panics, 1, "frame {frame}");
        r.fault.as_ref().expect("attached").reset();
    }
}

#[test]
fn exit_code_table_matches_the_swrender_contract() {
    // The CLI's documented table: 1 I/O, 2 usage, 3 render fault,
    // 4 service/session. Every fault this suite injects must land in
    // class 3; the service layer's refusals land in class 4; and the
    // client-side wire mapping must agree with both.
    let render_faults = [
        Error::WorkerPanicked {
            worker: 0,
            message: "injected".into(),
        },
        Error::Stalled {
            row: 3,
            holder: None,
            waited_ms: 1,
        },
    ];
    for e in &render_faults {
        assert_eq!(e.exit_code(), 3, "{e}");
        assert_eq!(swr_error::wire_exit_code(e.wire_code()), 3, "{e}");
    }
    let service_faults = [
        Error::Overloaded {
            reason: "budget exhausted".into(),
        },
        Error::DeadlineExceeded {
            budget_ms: 5,
            elapsed_ms: 9,
        },
        Error::Protocol {
            reason: "bad line".into(),
        },
        Error::SessionFailed {
            session: 1,
            message: "supervised".into(),
        },
    ];
    for e in &service_faults {
        assert_eq!(e.exit_code(), 4, "{e}");
        assert_eq!(swr_error::wire_exit_code(e.wire_code()), 4, "{e}");
    }
    assert_eq!(
        Error::InvalidView { reason: "x".into() }.exit_code(),
        2,
        "usage class unchanged"
    );
}

#[test]
fn clean_frames_report_no_degradation() {
    let (enc, view) = scene();
    let mut r = NewParallelRenderer::new(ParallelConfig::with_procs(3));
    let (_, stats) = r.try_render_with_stats(&enc, &view).expect("clean");
    assert_eq!(stats.worker_panics, 0);
    assert_eq!(stats.repaired_rows, 0);
    assert!(!stats.degraded);
    let mut r = OldParallelRenderer::new(ParallelConfig::with_procs(3));
    let (_, stats) = r.try_render_with_stats(&enc, &view).expect("clean");
    assert_eq!(stats.worker_panics, 0);
    assert!(!stats.degraded);
}

/// The old renderer's barrier watchdog used to `return` a waiter out of the
/// frame — its warp tiles skipped — with nothing recorded, so the frame
/// resolved to `Ok` over a partly black image. One worker composites the
/// whole image as a single chunk while the other idles at the barrier —
/// each pinned to its own CPU where the host has two, so the waiter spins
/// fast enough to reach its watchdog check inside the frame. For any
/// timeout the frame is the serial image or a typed stall, never a wrong
/// `Ok`.
#[test]
fn old_renderer_fired_barrier_watchdog_is_a_typed_stall_never_a_wrong_image() {
    let dims = [64, 64, 48];
    let vol = Phantom::MriBrain.generate(dims, 11);
    let enc = EncodedVolume::encode(&classify(&vol, &TransferFunction::mri_default()));
    let view = ViewSpec::new(dims).rotate_y(0.5).rotate_x(0.2);
    let serial = SerialRenderer::new().render(&enc, &view);
    for micros in [1, 20, 200, 2_000] {
        let cfg = ParallelConfig {
            steal: false,
            chunk_rows: 100_000,
            watchdog_timeout: Some(Duration::from_micros(micros)),
            placement: Placement::Compact,
            ..ParallelConfig::with_procs(2)
        };
        let mut r = OldParallelRenderer::new(cfg);
        for frame in 0..5 {
            match r.try_render(&enc, &view) {
                Ok(img) => assert!(
                    img == serial,
                    "watchdog {micros} µs, frame {frame}: Ok with a wrong image"
                ),
                Err(e) => assert!(
                    matches!(e, Error::Stalled { .. }),
                    "watchdog {micros} µs, frame {frame}: {e}"
                ),
            }
        }
    }
}
