//! `animate_ct256_zoom2`: the CT head, 256³ at zoom 2, through the
//! `AnimationPipeline` — one `try_render_animation` call per lap. The thin
//! opaque shell terminates rays early, so compositing is cheap and the 4×
//! larger warp is over half the frame.

use super::animation_pass;
use crate::harness::{
    build_encoded, reference_frames, Args, FrameRef, LapOutcome, Scene, Workload, THREADS,
};
use crate::ops::{orbit_views, PHANTOM_SEED};
use crate::span::Recorder;
use shearwarp::core::{AnimationPipeline, ParallelConfig};
use shearwarp::geom::ViewSpec;
use shearwarp::render::VolumeSrc;
use shearwarp::volume::{EncodedVolume, Phantom};

pub struct Animate {
    enc: EncodedVolume,
    views: Vec<ViewSpec>,
    pipeline: AnimationPipeline,
    refs: Vec<FrameRef>,
    seed: u64,
    shrink: usize,
}

impl Workload for Animate {
    fn setup(args: &Args, rec: &mut Recorder) -> Result<Self, String> {
        let enc = build_encoded(Phantom::CtHead, 256 / args.shrink, PHANTOM_SEED, rec);
        let views = orbit_views(args.seed, enc.dims(), 2.0);
        let mut pipeline = AnimationPipeline::new(ParallelConfig::with_procs(THREADS));
        rec.time("core.render_animation", 0, || {
            pipeline.try_render_animation(&enc, &views[..1], |_, _, _| {})
        })
        .map_err(|e| format!("first frame: {e}"))?;
        Ok(Animate {
            enc,
            views,
            pipeline,
            refs: Vec::new(),
            seed: args.seed,
            shrink: args.shrink,
        })
    }

    fn reference(&mut self, _rec: &mut Recorder) {
        self.refs = reference_frames(VolumeSrc::Flat(&self.enc), &self.views);
    }

    /// One animation call over the first `ops` views.
    fn pass(&mut self, ops: usize, rec: &mut Recorder) -> LapOutcome {
        animation_pass(
            &mut self.pipeline,
            &self.enc,
            &self.views[..ops],
            &self.refs,
            rec,
        )
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
}
