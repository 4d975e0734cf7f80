//! The six workloads, the passes more than one of them makes, and the layer
//! census every traced run ends with.

mod animate;
mod census;
mod orbit;
mod retransfer;
mod serve;
mod shard;
mod stream;

pub use census::census;

use crate::harness::{
    run_traced, run_untraced, sequential_pass, Args, Check, EndToEnd, FrameNote, FrameRef,
    LapOutcome, Workload,
};
use crate::metrics::Layers;
use crate::procfs;
use crate::span::Recorder;
use crate::stats::Lap;
use shearwarp::core::{AnimationPipeline, NewParallelRenderer};
use shearwarp::geom::ViewSpec;
use shearwarp::render::VolumeSrc;
use shearwarp::volume::EncodedVolume;
use std::time::Instant;

/// What one run of one workload produced.
pub enum Report {
    EndToEnd(EndToEnd),
    Layers(Layers),
}

/// Runs the named workload, traced or not.
pub fn run(args: &Args) -> Result<(Report, Check), String> {
    fn go<W: Workload>(args: &Args) -> Result<(Report, Check), String> {
        if args.trace {
            run_traced::<W>(args).map(|(l, c)| (Report::Layers(l), c))
        } else {
            run_untraced::<W>(args).map(|(e, c)| (Report::EndToEnd(e), c))
        }
    }
    match args.workload.as_str() {
        "orbit_mri256" => go::<orbit::Orbit>(args),
        "animate_ct256_zoom2" => go::<animate::Animate>(args),
        "serve_mri128_px" => go::<serve::Serve>(args),
        "stream_mri192_q" => go::<stream::Stream>(args),
        "shard_mri256_shm2" => go::<shard::Shard>(args),
        "retransfer_mri64" => go::<retransfer::Retransfer>(args),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// One verified pass of the per-frame `new` renderer over `views`, from any
/// storage layout.
fn render_pass(
    what: &str,
    src: VolumeSrc<'_>,
    views: &[ViewSpec],
    refs: &[FrameRef],
    renderer: &mut NewParallelRenderer,
    ops: usize,
    rec: &mut Recorder,
) -> LapOutcome {
    sequential_pass(what, ops, refs, rec, &[], |i, rec| {
        rec.time("core.render", i as u64, || {
            renderer.try_render_with_stats_src(src, &views[i % views.len()])
        })
        .map(|(img, stats)| (img, FrameNote::from(&stats)))
        .map_err(|e| e.to_string())
    })
}

/// One animation call over `views`, every frame verified in the sink. An
/// op's latency is the gap between consecutive sink deliveries (the first:
/// from the call), and its span tiles the call the same way — frames
/// overlap inside the pipeline, so outside timing can attribute nothing
/// finer.
fn animation_pass(
    pipeline: &mut AnimationPipeline,
    enc: &EncodedVolume,
    views: &[ViewSpec],
    refs: &[FrameRef],
    rec: &mut Recorder,
) -> LapOutcome {
    let mut check = Check::default();
    let mut notes = Vec::with_capacity(views.len());
    let mut lat_ms = Vec::with_capacity(views.len());
    let cpu0 = procfs::cpu_ms(&[]);
    let t_lap = Instant::now();
    let mut last = t_lap;
    let mut open = rec.enter("op", 0);
    let result = pipeline.try_render_animation(enc, views, |i, img, stats| {
        let now = Instant::now();
        rec.exit(open);
        open = rec.enter("op", i as u64 + 1);
        lat_ms.push((now - last).as_secs_f64() * 1e3);
        last = now;
        let note = FrameNote::from(stats);
        check.frame("animate", &img, &refs[i], note.degraded);
        notes.push(note);
    });
    rec.exit(open);
    let wall_s = t_lap.elapsed().as_secs_f64();
    let cpu_ms = procfs::cpu_ms(&[]) - cpu0;

    if let Err(e) = result {
        check.problem(format!("animation stopped: {e}"));
    }
    for i in notes.len()..views.len() {
        check.fail(format!("animate op {i}: never delivered"));
    }
    LapOutcome {
        lap: Lap {
            wall_s,
            cpu_ms,
            lat_ms,
            streams: 1,
            coupled: true,
        },
        check,
        notes,
    }
}

/// Whole workloads at 1/8 scale: every path the real runs take, in well
/// under a second each.
#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// The root build's worker binary. A missing binary fails the test
    /// loudly: skipping would leave the sharded path unexercised.
    fn shard_bin() -> PathBuf {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
        let candidates = [
            std::env::var_os("SWR_SHARD_BIN").map(PathBuf::from),
            std::env::var_os("CARGO_TARGET_DIR")
                .map(|d| PathBuf::from(d).join("release/swr-shard")),
            Some(root.join("target/release/swr-shard")),
            Some(root.join("target/debug/swr-shard")),
        ];
        candidates
            .into_iter()
            .flatten()
            .find(|p| p.is_file())
            .expect("swr-shard not built: run `cargo build --release` at the repository root first")
    }

    fn tiny(workload: &str, seed: u64, trace: bool) -> Args {
        let out_dir = std::env::temp_dir().join(format!(
            "swr-e2e-test-{}-{workload}-{seed}",
            std::process::id()
        ));
        Args {
            workload: workload.into(),
            seed,
            seconds: 0.05,
            trace,
            shard_bin: Some(shard_bin()),
            out_dir,
            shrink: 8,
        }
    }

    fn layers_of(workload: &str, seed: u64) -> Layers {
        let args = tiny(workload, seed, true);
        let (report, check) = run(&args).expect("workload runs");
        let _ = std::fs::remove_dir_all(&args.out_dir);
        assert_eq!(
            (check.failed, &check.problems),
            (0, &Vec::new()),
            "{workload}"
        );
        match report {
            Report::Layers(l) => l,
            Report::EndToEnd(_) => unreachable!("traced run"),
        }
    }

    #[test]
    fn every_workload_runs_clean_untraced() {
        for (name, _) in crate::metrics::WORKLOADS {
            let (report, check) = run(&tiny(name, 5, false)).expect(name);
            assert_eq!((check.failed, &check.problems), (0, &Vec::new()), "{name}");
            assert!(check.attempted >= 2 * crate::ops::LAP_OPS as u64, "{name}");
            let Report::EndToEnd(e) = report else {
                unreachable!("untraced run")
            };
            for v in [
                e.laps.frames_per_s,
                e.laps.frame_ms_p50,
                e.laps.frame_ms_p90,
                e.setup_s,
                e.laps.cpu_ms_per_frame.max(f64::MIN_POSITIVE),
                e.peak_rss_mib,
            ] {
                assert!(v.is_finite() && v > 0.0, "{name}: {v}");
            }
        }
    }

    #[test]
    fn same_seed_gives_identical_exact_counts() {
        for (workload, exact) in [
            (
                "orbit_mri256",
                &["render.composited_mpix", "core.profiled_frames"][..],
            ),
            (
                "shard_mri256_shm2",
                &["shard.tiles_per_frame", "shard.bytes_per_frame"][..],
            ),
        ] {
            let (a, b) = (layers_of(workload, 11), layers_of(workload, 11));
            for name in exact {
                assert!(a.get(name) > Some(0.0), "{workload}: {name} not measured");
                assert_eq!(a.get(name), b.get(name), "{workload}: {name}");
            }
        }
    }

    #[test]
    fn every_traced_run_measures_every_per_layer_metric() {
        // `layers_of` fails on any problem, and an unmeasured per-layer
        // metric is one.
        for workload in [
            "animate_ct256_zoom2",
            "serve_mri128_px",
            "stream_mri192_q",
            "retransfer_mri64",
        ] {
            assert_eq!(layers_of(workload, 3).missing(), Vec::<&str>::new());
        }
    }
}
