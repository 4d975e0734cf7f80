//! The paper's parallel shear-warp renderers.
//!
//! Two complete parallel algorithms are implemented, exactly as contrasted in
//! the paper:
//!
//! * **Old** ([`OldParallelRenderer`], §3.1): the compositing phase
//!   partitions the intermediate image into small *interleaved chunks* of
//!   scanlines, assigned round-robin, with dynamic task stealing; a global
//!   barrier separates it from the warp phase, which partitions the *final*
//!   image into square tiles assigned round-robin. Because a processor warps
//!   pixels it did not composite, the intermediate image is re-communicated
//!   between phases — the true-sharing bottleneck the paper measures.
//!
//! * **New** ([`NewParallelRenderer`], §4): each processor gets one
//!   *contiguous* block of intermediate-image scanlines, sized from a
//!   per-scanline **work profile** collected every *k* frames (§4.2), turned
//!   into a cumulative distribution with a parallel prefix sum and split by
//!   equal area with binary search (§4.3), augmented with chunk-granularity
//!   stealing (§4.4). The warp reuses the *same* partition (§4.5): each
//!   processor warps exactly the final-image pixels whose inverse-mapped row
//!   falls in its band, so it reads (almost only) what it just composited,
//!   the inter-phase barrier disappears (replaced by per-row completion
//!   flags / task dependencies), and write-sharing on the final image is
//!   eliminated.
//!
//! Both renderers come in two execution modes sharing the same inner loops:
//! *native* (real threads, used for correctness — all renderers produce
//! bit-identical images — and wall-clock measurements) and *capture*
//! ([`capture`]), which records per-task memory traces for the
//! `swr-memsim` multiprocessor models that regenerate the paper's figures.
//!
//! # The new algorithm's frame
//!
//! Natively the new algorithm's frame is one protocol, written once in the
//! private `frame` module and run by two callers:
//!
//! 1. **plan** — clip to the occupied band of the intermediate image, decide
//!    whether the work profile is stale (`profile_every` frames, or
//!    `profile_every_degrees` of rotation, since the last profiled frame),
//!    and cut the band into one contiguous partition per processor from the
//!    profile's prefix sum. An empty volume is a plan like any other: an
//!    empty band and `nprocs` empty partitions.
//! 2. **arm** — load the partitions into per-processor steal queues in
//!    chunks and stamp the frame's *epoch*. Row and warp completion flags
//!    are epoch counters, complete when `>= epoch`, so a flag left by an
//!    earlier frame never satisfies a later one and nothing is zeroed
//!    between frames.
//! 3. **work**, once per processor — composite the own queue, steal from the
//!    back of the fullest victim, then wait on the flags of exactly the rows
//!    the own band reads and warp that band. No barrier.
//! 4. **resolve**, once every worker has left the frame — list the rows
//!    nobody composited; repair, or return the typed error; harvest the
//!    profile.
//!
//! [`NewParallelRenderer`] runs it one frame per call: it keeps the buffers
//! and the profile between calls, spawns a scope of `nprocs` threads around
//! *work*, and leaves the frame's telemetry in `last_telemetry`.
//! [`AnimationPipeline`] runs it two frames at a time: a pool spawned once
//! per animation, parked on a gate between frames, with a driver that arms
//! frame *N+1* (in the other of two parity slots) before it resolves frame
//! *N* and hands finished frames to the caller in order through a bounded
//! ring. The sharded renderer (`swr-shard`) gives each band to a process
//! instead; what it shares with the frame above are the two band rules
//! every executor needs, `swr_render::extend_band` and
//! `swr_render::composite_row`. The old renderer keeps its own frame — it
//! is the paper's baseline — but takes its steal queues from the same
//! module.
//!
//! # Failure model
//!
//! The renderers never hang and never return a torn image. Every fallible
//! entry point has a `try_*` form returning `Result<_, `[`enum@Error`]`>`;
//! the legacy panicking APIs are thin wrappers that panic with the error's
//! `Display` text.
//!
//! * **Validation** — [`ParallelConfig::try_validate`] and
//!   `ViewSpec::try_validate` reject degenerate inputs (`nprocs == 0`, zero
//!   tile size, singular model matrices) with
//!   [`Error::InvalidConfig`](swr_error::Error) /
//!   [`Error::InvalidView`](swr_error::Error) before any thread starts.
//! * **Worker-panic containment** — *work* runs compositing and the warp
//!   each under one `catch_unwind` (the old renderer likewise). A panicking
//!   worker records its payload, retires from the compositor count and
//!   leaves its unfinished rows flagged incomplete; survivors finish their
//!   own partitions (and, with stealing enabled, most of the failed
//!   worker's queue too). *resolve* then re-composites the lost scanlines
//!   serially — slice order within a row is the worker loop's, so the row
//!   is **bit-identical** — and re-warps the bands whose warp did not
//!   finish, with the degradation recorded in [`RenderStats`]
//!   (`worker_panics`, `repaired_rows`, `degraded`). Setting
//!   [`ParallelConfig::recover_panics`]` = false` turns the repair into a
//!   typed [`Error::WorkerPanicked`](swr_error::Error) instead.
//! * **Scheduler watchdog** — a waiter that observes every compositor
//!   retired while its row is still incomplete has proven the row lost and
//!   reports it at once; [`ParallelConfig::watchdog_timeout`] bounds the
//!   wait in all other cases, measured from the wait's own start. Work lost
//!   without a panic (a truncated queue, a fired watchdog — in the old
//!   renderer, a barrier wait cut short) yields
//!   [`Error::Stalled`](swr_error::Error) naming the row and the worker
//!   that last claimed it — never an indefinite spin, never an `Ok` over
//!   rows or tiles nobody finished.
//! * **Fault injection** — [`fault::FaultPlan`] deterministically injects
//!   worker panics at the Nth compositing task or Nth warp band, corrupted
//!   or zeroed work profiles, and truncated steal queues, so the containment
//!   paths above are exercised by ordinary tests.
//!
//! Because both callers run the same *work* and *resolve*, all of this holds
//! per frame in the pipeline too: a panic in either phase of either
//! in-flight frame is repaired when that frame is resolved and the other
//! frame is unaffected, and a frame simply queued behind its predecessor is
//! never misreported as stalled.
//!
//! # Modules
//!
//! * `frame` (private) — the new algorithm's plan / arm / work / resolve,
//!   the steal queues and `pop_or_steal`, the row-flag wait.
//! * [`new_renderer`], [`pipeline`] — its two callers (above).
//! * [`old_renderer`] — the §3.1 baseline: interleaved chunks, a barrier,
//!   warp tiles.
//! * [`partition`], [`prefix`] — interleaved / equal / profile-balanced
//!   partitions and the (parallel) prefix sum behind the last.
//! * [`capture`] — one frame as a `swr-memsim` workload.
//! * [`fault`] — deterministic fault injection.
//! * [`placement`], [`pad`] — worker pinning and cache-line padding.
//!
//! # Example
//!
//! ```
//! use swr_core::{NewParallelRenderer, OldParallelRenderer, ParallelConfig};
//! use swr_geom::ViewSpec;
//! use swr_render::SerialRenderer;
//! use swr_volume::{classify, EncodedVolume, Phantom};
//!
//! let dims = Phantom::MriBrain.paper_dims(24);
//! let raw = Phantom::MriBrain.generate(dims, 42);
//! let enc = EncodedVolume::encode(&classify(&raw, &Phantom::MriBrain.default_transfer()));
//! let view = ViewSpec::new(dims).rotate_y(0.4);
//!
//! // All three renderers produce bit-identical images.
//! let serial = SerialRenderer::new().render(&enc, &view);
//! let old = OldParallelRenderer::new(ParallelConfig::with_procs(3)).render(&enc, &view);
//! let new = NewParallelRenderer::new(ParallelConfig::with_procs(3)).render(&enc, &view);
//! assert_eq!(serial, old);
//! assert_eq!(serial, new);
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod capture;
pub mod fault;
pub(crate) mod frame;
pub mod new_renderer;
pub mod old_renderer;
pub mod pad;
pub mod partition;
pub mod pipeline;
pub mod placement;
pub mod prefix;
pub(crate) mod telem;

pub use capture::{capture_frame, try_capture_frame, CaptureConfig, CapturedFrame};
pub use fault::FaultPlan;
pub use new_renderer::NewParallelRenderer;
pub use old_renderer::OldParallelRenderer;
pub use pad::CachePadded;
pub use partition::{balanced_contiguous, equal_contiguous, interleaved_chunks, make_tiles};
pub use pipeline::AnimationPipeline;
pub use placement::{host_cpus, pin_current_thread, PinLedger, PinOutcome, Placement};
pub use prefix::{parallel_prefix_sum, prefix_sum};
pub use swr_error::Error;
pub use swr_telemetry::{FrameTelemetry, Json, MetricsRegistry};

use std::time::Duration;

/// Configuration shared by the parallel renderers.
#[derive(Debug, Clone, Copy)]
pub struct ParallelConfig {
    /// Number of worker threads / simulated processors.
    pub nprocs: usize,
    /// Scanlines per compositing chunk: the old algorithm's task size, and
    /// the new algorithm's steal unit (§4.4). `0` selects a heuristic.
    pub chunk_rows: usize,
    /// Side length of the old algorithm's square warp tiles.
    pub tile_size: usize,
    /// Profile refresh period in frames (the paper's *k*, §4.2).
    pub profile_every: usize,
    /// Alternative staleness policy: re-profile once the viewpoint has
    /// rotated this many degrees since the last profiled frame (the paper
    /// chose *k* "such that profiles are computed once every 15 degrees of
    /// rotation"). When set, this takes precedence over `profile_every`.
    pub profile_every_degrees: Option<f64>,
    /// Enable dynamic task stealing in the compositing phase.
    pub steal: bool,
    /// New algorithm: composite only the occupied band of the intermediate
    /// image (§4.2's empty-region optimization).
    pub empty_region_clip: bool,
    /// New algorithm: use the work profile for partitioning; when `false`,
    /// fall back to equal-scanline-count contiguous partitions (ablation).
    pub profiled_partition: bool,
    /// Upper bound on how long a worker may wait for a scanline completion
    /// flag before the scheduler is declared stalled
    /// ([`Error::Stalled`](swr_error::Error)). `None` disables the timeout;
    /// lost work is still detected immediately once all compositors retire.
    pub watchdog_timeout: Option<Duration>,
    /// When a worker panics: `true` completes the frame by serial repair of
    /// the lost scanlines (bit-identical output, degradation recorded in
    /// [`RenderStats`]); `false` surfaces
    /// [`Error::WorkerPanicked`](swr_error::Error) instead.
    pub recover_panics: bool,
    /// Thread-placement policy for pool workers: each worker pins itself
    /// to one CPU before touching band memory, keeping the first-touch
    /// pages local to the processor that composites them. The default
    /// reads the `SWR_PIN` environment variable (unset ⇒ no pinning), so
    /// pinning can be enabled without touching call sites.
    pub placement: Placement,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            nprocs: 4,
            chunk_rows: 0,
            tile_size: 32,
            profile_every: 8,
            profile_every_degrees: None,
            steal: true,
            empty_region_clip: true,
            profiled_partition: true,
            watchdog_timeout: Some(Duration::from_secs(10)),
            recover_panics: true,
            placement: Placement::from_env(),
        }
    }
}

impl ParallelConfig {
    /// Config with a given processor count and defaults otherwise.
    pub fn with_procs(nprocs: usize) -> Self {
        ParallelConfig {
            nprocs,
            ..Default::default()
        }
    }

    /// Checks the configuration, returning
    /// [`Error::InvalidConfig`](swr_error::Error) on degenerate settings.
    pub fn try_validate(&self) -> Result<(), Error> {
        let invalid = |reason: String| Err(Error::InvalidConfig { reason });
        if self.nprocs == 0 {
            return invalid("nprocs must be >= 1".into());
        }
        if self.tile_size == 0 {
            return invalid("tile_size must be >= 1".into());
        }
        if self.profile_every == 0 {
            return invalid("profile_every must be >= 1".into());
        }
        if let Some(deg) = self.profile_every_degrees {
            if !deg.is_finite() || deg <= 0.0 {
                return invalid(format!(
                    "profile_every_degrees must be finite and positive, got {deg}"
                ));
            }
        }
        if self.watchdog_timeout == Some(Duration::ZERO) {
            return invalid("watchdog timeout must be nonzero (use None to disable)".into());
        }
        Ok(())
    }

    /// Panicking form of [`ParallelConfig::try_validate`].
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }

    /// Effective chunk size for an intermediate image of `rows` scanlines:
    /// the explicit setting, or a heuristic giving each processor several
    /// chunks to keep stealing granular without destroying locality.
    pub fn effective_chunk_rows(&self, rows: usize) -> usize {
        if self.chunk_rows > 0 {
            return self.chunk_rows;
        }
        (rows / (self.nprocs.max(1) * 8)).clamp(1, 16)
    }
}

/// Per-frame statistics of a native parallel render.
#[derive(Debug, Clone, Default)]
pub struct RenderStats {
    /// Wall-clock seconds of the compositing phase (including partitioning).
    pub composite_secs: f64,
    /// Wall-clock seconds of the warp phase.
    pub warp_secs: f64,
    /// Chunks stolen by idle processors.
    pub steals: u64,
    /// Whether this frame collected a work profile.
    pub profiled: bool,
    /// Total pixels composited across processors.
    pub composited_pixels: u64,
    /// Worker threads that panicked during this frame (contained).
    pub worker_panics: u64,
    /// Scanlines re-composited serially after a worker failure.
    pub repaired_rows: u64,
    /// Whether any part of this frame ran on the serial fallback path.
    pub degraded: bool,
    /// Clock tick (µs, frame-clock domain) at which the frame was fully
    /// resolved. Zero for renderers that do not pipeline frames; the
    /// animation pipeline stamps it so consumers can measure inter-frame
    /// delivery by *completion* gaps rather than sink-arrival gaps (which
    /// collapse to ~0 when back-pressure releases two buffered frames
    /// back-to-back).
    pub completion_us: u64,
}

impl RenderStats {
    /// Mirrors every field into a [`MetricsRegistry`]: seconds and flags as
    /// gauges, monotonic quantities as counters. The registry names are the
    /// stable export surface (`swrender --metrics`).
    pub fn fill_metrics(&self, m: &mut MetricsRegistry) {
        m.set_gauge("stats.composite_secs", self.composite_secs);
        m.set_gauge("stats.warp_secs", self.warp_secs);
        m.inc("stats.steals", self.steals);
        m.set_gauge("stats.profiled", f64::from(u8::from(self.profiled)));
        m.inc("stats.composited_pixels", self.composited_pixels);
        m.inc("stats.worker_panics", self.worker_panics);
        m.inc("stats.repaired_rows", self.repaired_rows);
        m.set_gauge("stats.degraded", f64::from(u8::from(self.degraded)));
    }

    /// Machine-readable form of the stats, round-trippable through
    /// [`RenderStats::from_json`].
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("composite_secs", Json::F64(self.composite_secs))
            .with("warp_secs", Json::F64(self.warp_secs))
            .with("steals", Json::U64(self.steals))
            .with("profiled", Json::Bool(self.profiled))
            .with("composited_pixels", Json::U64(self.composited_pixels))
            .with("worker_panics", Json::U64(self.worker_panics))
            .with("repaired_rows", Json::U64(self.repaired_rows))
            .with("degraded", Json::Bool(self.degraded))
            .with("completion_us", Json::U64(self.completion_us))
    }

    /// Parses the object produced by [`RenderStats::to_json`]. Missing keys
    /// default to zero/false; a non-object is an error.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        if v.as_obj().is_none() {
            return Err("RenderStats: expected a JSON object".into());
        }
        let f = |k: &str| v.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let u = |k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(0);
        let b = |k: &str| matches!(v.get(k), Some(Json::Bool(true)));
        Ok(RenderStats {
            composite_secs: f("composite_secs"),
            warp_secs: f("warp_secs"),
            steals: u("steals"),
            profiled: b("profiled"),
            composited_pixels: u("composited_pixels"),
            worker_panics: u("worker_panics"),
            repaired_rows: u("repaired_rows"),
            degraded: b("degraded"),
            completion_us: u("completion_us"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_heuristic_is_sane() {
        let cfg = ParallelConfig::with_procs(8);
        let c = cfg.effective_chunk_rows(512);
        assert!((1..=16).contains(&c));
        // Explicit setting wins.
        let cfg = ParallelConfig {
            chunk_rows: 3,
            ..cfg
        };
        assert_eq!(cfg.effective_chunk_rows(512), 3);
        // Tiny images still get at least one row per chunk.
        let cfg = ParallelConfig::with_procs(32);
        assert_eq!(cfg.effective_chunk_rows(8), 1);
    }

    #[test]
    fn chunk_heuristic_survives_zero_procs() {
        // nprocs == 0 is rejected by try_validate, but the heuristic itself
        // must not divide by zero if called on an unvalidated config.
        let cfg = ParallelConfig::with_procs(0);
        assert_eq!(cfg.effective_chunk_rows(512), 16);
        assert_eq!(cfg.effective_chunk_rows(0), 1);
    }

    #[test]
    fn config_validation_types_each_degenerate_setting() {
        assert!(ParallelConfig::default().try_validate().is_ok());
        let bad = [
            ParallelConfig {
                nprocs: 0,
                ..Default::default()
            },
            ParallelConfig {
                tile_size: 0,
                ..Default::default()
            },
            ParallelConfig {
                profile_every: 0,
                ..Default::default()
            },
            ParallelConfig {
                profile_every_degrees: Some(0.0),
                ..Default::default()
            },
            ParallelConfig {
                profile_every_degrees: Some(f64::NAN),
                ..Default::default()
            },
            ParallelConfig {
                watchdog_timeout: Some(Duration::ZERO),
                ..Default::default()
            },
        ];
        for cfg in bad {
            let e = cfg.try_validate().expect_err("must be rejected");
            assert!(matches!(e, Error::InvalidConfig { .. }), "{e}");
            assert_eq!(e.exit_code(), 2);
        }
        // Disabling the watchdog entirely is allowed.
        let cfg = ParallelConfig {
            watchdog_timeout: None,
            ..Default::default()
        };
        assert!(cfg.try_validate().is_ok());
    }

    #[test]
    fn render_stats_round_trip_through_json() {
        let stats = RenderStats {
            composite_secs: 0.125,
            warp_secs: 0.0625,
            steals: 7,
            profiled: true,
            composited_pixels: 123_456,
            worker_panics: 1,
            repaired_rows: 42,
            degraded: true,
            completion_us: 987_654,
        };
        let text = stats.to_json().to_string();
        let back = RenderStats::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.composite_secs, stats.composite_secs);
        assert_eq!(back.warp_secs, stats.warp_secs);
        assert_eq!(back.steals, stats.steals);
        assert_eq!(back.profiled, stats.profiled);
        assert_eq!(back.composited_pixels, stats.composited_pixels);
        assert_eq!(back.worker_panics, stats.worker_panics);
        assert_eq!(back.repaired_rows, stats.repaired_rows);
        assert_eq!(back.degraded, stats.degraded);
        assert_eq!(back.completion_us, stats.completion_us);
        // Defaults fill in for absent keys; non-objects are rejected.
        assert!(RenderStats::from_json(&Json::parse("{}").unwrap()).is_ok());
        assert!(RenderStats::from_json(&Json::U64(3)).is_err());
    }

    #[test]
    fn stats_metrics_names_are_stable() {
        let mut m = MetricsRegistry::new();
        RenderStats {
            steals: 2,
            ..Default::default()
        }
        .fill_metrics(&mut m);
        assert_eq!(m.counter("stats.steals"), 2);
        assert!(m.gauge("stats.composite_secs").is_some());
        assert!(m.gauge("stats.degraded").is_some());
    }
}
