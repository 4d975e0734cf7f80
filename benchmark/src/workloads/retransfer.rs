//! `retransfer_mri64`: the `volume` layer as a write path. Each op edits
//! the transfer function, re-classifies and re-encodes the MRI brain
//! (64×64×42), invalidates the work profile and renders one frame at a
//! fixed view — what a user dragging an opacity knot pays per update.
//! Sized so a run times six or seven 100-edit laps: the single-threaded,
//! allocation-heavy classify is the op most exposed to noisy neighbours,
//! and a median over two laps (all that fits at 96×96×63; at 128×128×83 a
//! lap is 9.5 s) swung ±8 % from run to run. Classify + encode stay the
//! bulk of the op at every size.

use crate::harness::{
    on_threads, reference_frames, sequential_pass, Args, Check, FrameNote, FrameRef, LapOutcome,
    Scene, TracedLaps, Workload, THREADS,
};
use crate::metrics::Layers;
use crate::ops::{edited_transfer, orbit_angles, orbit_views, transfer_edits, view, PHANTOM_SEED};
use crate::span::Recorder;
use crate::stats::median;
use shearwarp::core::{NewParallelRenderer, ParallelConfig};
use shearwarp::geom::ViewSpec;
use shearwarp::render::{SerialRenderer, VolumeSrc};
use shearwarp::volume::{classify, EncodedVolume, Phantom, Volume};

pub struct Retransfer {
    raw: Volume,
    view: ViewSpec,
    /// One lap's edits; op `i` applies `edits[i % len]`.
    edits: Vec<i32>,
    renderer: NewParallelRenderer,
    /// The serial frame each edit must produce.
    refs: Vec<FrameRef>,
    /// The default classification and an orbit round it: the layer census
    /// runs on these (the timed laps re-encode per op and never use them).
    enc: EncodedVolume,
    orbit: Vec<ViewSpec>,
    orbit_refs: Vec<FrameRef>,
    seed: u64,
    shrink: usize,
}

impl Workload for Retransfer {
    fn setup(args: &Args, rec: &mut Recorder) -> Result<Self, String> {
        let phantom = Phantom::MriBrain;
        let dims = phantom.paper_dims(64 / args.shrink);
        let raw = rec.time("volume.generate", 0, || {
            phantom.generate(dims, PHANTOM_SEED)
        });
        let tf = phantom.default_transfer();
        let classified = rec.time("volume.classify", 0, || classify(&raw, &tf));
        let enc = rec.time("volume.encode", 0, || EncodedVolume::encode(&classified));
        let view = view(dims, orbit_angles(args.seed)[0], 1.0);
        let mut renderer = NewParallelRenderer::new(ParallelConfig::with_procs(THREADS));
        rec.time("core.render", 0, || renderer.try_render(&enc, &view))
            .map_err(|e| format!("first frame: {e}"))?;
        Ok(Retransfer {
            raw,
            view,
            edits: transfer_edits(args.seed),
            renderer,
            refs: Vec::new(),
            enc,
            orbit: orbit_views(args.seed, dims, 1.0),
            orbit_refs: Vec::new(),
            seed: args.seed,
            shrink: args.shrink,
        })
    }

    /// Serial-vs-`new` on every fresh encoding, outside the timed section:
    /// each edit's frame is rendered serially here, and every timed op must
    /// reproduce its edit's hash — on every lap.
    fn reference(&mut self, _rec: &mut Recorder) {
        self.orbit_refs = reference_frames(VolumeSrc::Flat(&self.enc), &self.orbit);
        self.refs = on_threads(&self.edits, |part| {
            let mut serial = SerialRenderer::new();
            part.iter()
                .map(|&shift| {
                    let c = classify(&self.raw, &edited_transfer(shift));
                    FrameRef::of(&serial.render(&EncodedVolume::encode(&c), &self.view))
                })
                .collect()
        });
    }

    fn pass(&mut self, ops: usize, rec: &mut Recorder) -> LapOutcome {
        let Retransfer {
            raw,
            view,
            edits,
            renderer,
            refs,
            ..
        } = self;
        sequential_pass("retransfer", ops, refs, rec, &[], |i, rec| {
            let op = i as u64;
            let tf = edited_transfer(edits[i % edits.len()]);
            let classified = rec.time("volume.classify", op, || classify(raw, &tf));
            let enc = rec.time("volume.encode", op, || EncodedVolume::encode(&classified));
            renderer.invalidate_profile();
            rec.time("core.render", op, || {
                renderer.try_render_with_stats(&enc, view)
            })
            .map(|(img, stats)| (img, FrameNote::from(&stats)))
            .map_err(|e| e.to_string())
        })
    }

    fn scene(&self) -> Scene<'_> {
        Scene {
            enc: &self.enc,
            views: &self.orbit,
            refs: &self.orbit_refs,
            seed: self.seed,
            shrink: self.shrink,
        }
    }

    /// The write path per op, from the traced lap's own spans.
    fn probe_local(&mut self, run: &TracedLaps, layers: &mut Layers, _check: &mut Check) {
        let ms = |name: &str| -> f64 {
            let d: Vec<f64> = run
                .log
                .spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_us() / 1e3)
                .collect();
            median(&d)
        };
        layers.set("volume.classify_ms", ms("volume.classify"));
        layers.set("volume.encode_ms", ms("volume.encode"));
    }
}
