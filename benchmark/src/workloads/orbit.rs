//! `orbit_mri256`: the paper's experiment at the paper's size — the MRI
//! brain, 256×256×167, one `NewParallelRenderer` frame per call.

use super::render_pass;
use crate::harness::{
    build_encoded, reference_frames, Args, FrameRef, LapOutcome, Scene, Workload, THREADS,
};
use crate::ops::{orbit_views, PHANTOM_SEED};
use crate::span::Recorder;
use shearwarp::core::{NewParallelRenderer, ParallelConfig};
use shearwarp::geom::ViewSpec;
use shearwarp::render::VolumeSrc;
use shearwarp::volume::{EncodedVolume, Phantom};

pub struct Orbit {
    enc: EncodedVolume,
    views: Vec<ViewSpec>,
    renderer: NewParallelRenderer,
    refs: Vec<FrameRef>,
    seed: u64,
    shrink: usize,
}

impl Workload for Orbit {
    fn setup(args: &Args, rec: &mut Recorder) -> Result<Self, String> {
        let enc = build_encoded(Phantom::MriBrain, 256 / args.shrink, PHANTOM_SEED, rec);
        let views = orbit_views(args.seed, enc.dims(), 1.0);
        let mut renderer = NewParallelRenderer::new(ParallelConfig::with_procs(THREADS));
        rec.time("core.render", 0, || renderer.try_render(&enc, &views[0]))
            .map_err(|e| format!("first frame: {e}"))?;
        Ok(Orbit {
            enc,
            views,
            renderer,
            refs: Vec::new(),
            seed: args.seed,
            shrink: args.shrink,
        })
    }

    fn reference(&mut self, _rec: &mut Recorder) {
        self.refs = reference_frames(VolumeSrc::Flat(&self.enc), &self.views);
    }

    fn pass(&mut self, ops: usize, rec: &mut Recorder) -> LapOutcome {
        render_pass(
            "orbit",
            VolumeSrc::Flat(&self.enc),
            &self.views,
            &self.refs,
            &mut self.renderer,
            ops,
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
