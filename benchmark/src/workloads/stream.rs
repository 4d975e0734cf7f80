//! `stream_mri192_q`: the MRI brain at 192×192×125, bricked (32³) and
//! streamed from the spill file through a `BrickCache` a quarter the size
//! of the flat encoding — a working set 4× the cache. The flat, cache-free
//! `orbit_mri256` is its bypass.
//!
//! It renders on **one** thread. On two, the cache's hit path (a shard
//! mutex and a shared `hits` counter, ~420 000 lookups a frame at
//! 256×256×167, where all of this was measured) makes a lap run at either
//! ≈ 17 or ≈ 20 frames/s — fixed for the life of each
//! `BrickedVolume`, decided by where the allocator happens to put the cache
//! (four instances built back to back in one process: 20.4, 16.5, 20.2,
//! 16.9, each stable lap after lap) — against ≈ 17.5 on one thread for
//! every instance. A two-mode metric cannot gate anything, so the
//! end-to-end workload measures the path where the number is a property of
//! the code; the census's layout passes keep the two-thread numbers
//! (`volume.stream_penalty_ms`) on the books.

use super::census::{brick_extent, set_cache_counters, BUDGET_DIVISOR};
use super::render_pass;
use crate::harness::{
    build_encoded, reference_frames, Args, Check, FrameRef, LapOutcome, Scene, TracedLaps, Workload,
};
use crate::metrics::Layers;
use crate::ops::{orbit_views, PHANTOM_SEED};
use crate::span::Recorder;
use shearwarp::core::{NewParallelRenderer, ParallelConfig};
use shearwarp::geom::ViewSpec;
use shearwarp::render::VolumeSrc;
use shearwarp::volume::{BrickCacheStats, BrickedVolume, EncodedVolume, Phantom};

pub struct Stream {
    /// Kept for the reference hashes and the census; the timed laps never
    /// touch it.
    enc: EncodedVolume,
    streamed: BrickedVolume,
    views: Vec<ViewSpec>,
    renderer: NewParallelRenderer,
    refs: Vec<FrameRef>,
    seed: u64,
    shrink: usize,
    /// Cache counters before and after the most recent pass.
    last_delta: (BrickCacheStats, BrickCacheStats),
}

/// 192×192×125: a one-thread lap is 2.8 s, so a run times three; at
/// `orbit_mri256`'s 256×256×167 it is 5.8 s and only two fit, too few for
/// the memory-bound streaming path, the workload neighbours disturb most.
const BASE: usize = 192;

/// See the module docs: the streamed hit path is bimodal on two threads.
const STREAM_THREADS: usize = 1;

fn cache_stats(v: &BrickedVolume) -> BrickCacheStats {
    v.cache_stats().expect("a streamed volume has a cache")
}

impl Workload for Stream {
    fn setup(args: &Args, rec: &mut Recorder) -> Result<Self, String> {
        let enc = build_encoded(Phantom::MriBrain, BASE / args.shrink, PHANTOM_SEED, rec);
        let budget = enc.storage_bytes() as u64 / BUDGET_DIVISOR;
        let streamed = rec
            .time("volume.brick_build", 0, || {
                BrickedVolume::from_encoded_streamed(&enc, brick_extent(args.shrink), budget)
            })
            .map_err(|e| format!("brick spill: {e}"))?;
        let views = orbit_views(args.seed, enc.dims(), 1.0);
        let mut renderer = NewParallelRenderer::new(ParallelConfig::with_procs(STREAM_THREADS));
        rec.time("core.render", 0, || {
            renderer.try_render_with_stats_src(VolumeSrc::Bricked(&streamed), &views[0])
        })
        .map_err(|e| format!("first frame: {e}"))?;
        let now = cache_stats(&streamed);
        Ok(Stream {
            enc,
            streamed,
            views,
            renderer,
            refs: Vec::new(),
            seed: args.seed,
            shrink: args.shrink,
            last_delta: (now, now),
        })
    }

    fn reference(&mut self, _rec: &mut Recorder) {
        self.refs = reference_frames(VolumeSrc::Flat(&self.enc), &self.views);
    }

    fn pass(&mut self, ops: usize, rec: &mut Recorder) -> LapOutcome {
        let before = cache_stats(&self.streamed);
        let out = render_pass(
            "stream",
            VolumeSrc::Bricked(&self.streamed),
            &self.views,
            &self.refs,
            &mut self.renderer,
            ops,
            rec,
        );
        self.last_delta = (before, cache_stats(&self.streamed));
        out
    }

    fn scene(&self) -> Scene<'_> {
        Scene {
            enc: &self.enc,
            views: &self.views,
            refs: &self.refs,
            seed: self.seed,
            shrink: self.shrink,
        }
    }

    /// Here the brick-cache counters are the workload's own: the delta over
    /// the traced lap (the most recent pass) replaces the census's subset.
    fn probe_local(&mut self, _run: &TracedLaps, layers: &mut Layers, check: &mut Check) {
        let (before, after) = self.last_delta;
        set_cache_counters(&before, &after, layers, check);
        if after.misses == before.misses || after.evictions == before.evictions {
            check.problem("the streamed lap never missed or never evicted".into());
        }
    }
}
