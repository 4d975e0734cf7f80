//! `shard_mri256_shm2`: `orbit_mri256`'s frames produced by two `swr-shard`
//! worker processes over the shared-memory ring instead of two threads.

use crate::harness::{
    build_encoded, reference_frames, sequential_pass, Args, Check, FrameNote, FrameRef, LapOutcome,
    Scene, TracedLaps, Workload, THREADS,
};
use crate::metrics::Layers;
use crate::ops::{orbit_views, LAP_OPS, PHANTOM_SEED, WARMUP_OPS};
use crate::procfs;
use crate::span::Recorder;
use crate::stats::percentile;
use shearwarp::geom::ViewSpec;
use shearwarp::render::VolumeSrc;
use shearwarp::shard::{SceneSpec, ShardConfig, ShardTransport, ShardedRenderer};
use shearwarp::volume::{EncodedVolume, Phantom};
use std::path::{Path, PathBuf};
use std::time::Instant;

const BASE: usize = 256;

/// Per-pass sums of the coordinator's `last_stats`.
#[derive(Debug, Default, Clone, Copy)]
struct Routed {
    frames: u64,
    tiles: u64,
    bytes: u64,
    spins: u64,
    repaired: u64,
}

pub struct Shard {
    renderer: ShardedRenderer,
    scene: SceneSpec,
    bin: PathBuf,
    views: Vec<ViewSpec>,
    refs: Vec<FrameRef>,
    seed: u64,
    /// The coordinator's volume is private; this copy (same recipe, so
    /// bit-identical) feeds the reference hashes and the census.
    enc: Option<EncodedVolume>,
    try_new_s: f64,
    local_build_s: f64,
    routed: Routed,
}

fn spawn(
    scene: &SceneSpec,
    bin: &Path,
    transport: ShardTransport,
) -> Result<ShardedRenderer, String> {
    let cfg = ShardConfig {
        shards: THREADS,
        transport,
        worker_bin: Some(bin.to_path_buf()),
        ..ShardConfig::default()
    };
    ShardedRenderer::try_new(scene, cfg).map_err(|e| format!("shard fleet: {e}"))
}

/// One verified pass through a shard fleet.
fn fleet_pass(
    renderer: &mut ShardedRenderer,
    views: &[ViewSpec],
    refs: &[FrameRef],
    ops: usize,
    rec: &mut Recorder,
) -> (LapOutcome, Routed) {
    let children = procfs::shard_children();
    let mut routed = Routed::default();
    let out = sequential_pass("shard", ops, refs, rec, &children, |i, rec| {
        let img = rec
            .time("shard.render", i as u64, || {
                renderer.try_render(&views[i % views.len()])
            })
            .map_err(|e| e.to_string())?;
        let s = &renderer.last_stats;
        routed.frames += 1;
        routed.tiles += s.tiles_routed;
        routed.bytes += s.bytes_moved;
        routed.spins += s.ring_full_spins;
        routed.repaired += s.repaired_shards.len() as u64 + u64::from(s.fallback_serial);
        let note = FrameNote {
            degraded: s.degraded() || s.stale_tiles > 0,
            ..FrameNote::default()
        };
        Ok((img, note))
    });
    (out, routed)
}

impl Workload for Shard {
    fn setup(args: &Args, rec: &mut Recorder) -> Result<Self, String> {
        // Fail loudly, never skip: without the worker binary this workload
        // would silently measure the in-process fallback.
        let bin = args
            .shard_bin
            .clone()
            .ok_or("shard_mri256_shm2 needs --shard-bin (benchmark/run.sh passes the root build's swr-shard)")?;
        if !bin.is_file() {
            return Err(format!("swr-shard not found at {}", bin.display()));
        }
        let scene =
            SceneSpec::new("mri", BASE / args.shrink, PHANTOM_SEED).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let mut renderer = rec.time("shard.try_new", 0, || {
            spawn(&scene, &bin, ShardTransport::Shm)
        })?;
        let try_new_s = t.elapsed().as_secs_f64();
        let views = orbit_views(args.seed, Phantom::MriBrain.paper_dims(scene.base), 1.0);
        rec.time("shard.render", 0, || renderer.try_render(&views[0]))
            .map_err(|e| format!("first frame: {e}"))?;
        if renderer.last_stats.degraded() {
            return Err("first sharded frame was degraded".into());
        }
        Ok(Shard {
            renderer,
            scene,
            bin,
            views,
            refs: Vec::new(),
            seed: args.seed,
            enc: None,
            try_new_s,
            local_build_s: 0.0,
            routed: Routed::default(),
        })
    }

    fn reference(&mut self, rec: &mut Recorder) {
        let t = Instant::now();
        let enc = build_encoded(Phantom::MriBrain, self.scene.base, self.scene.seed, rec);
        self.local_build_s = t.elapsed().as_secs_f64();
        self.refs = reference_frames(VolumeSrc::Flat(&enc), &self.views);
        self.enc = Some(enc);
    }

    fn pass(&mut self, ops: usize, rec: &mut Recorder) -> LapOutcome {
        let (out, routed) = fleet_pass(&mut self.renderer, &self.views, &self.refs, ops, rec);
        self.routed = routed;
        out
    }

    fn children(&self) -> Vec<u32> {
        procfs::shard_children()
    }

    fn scene(&self) -> Scene<'_> {
        Scene {
            enc: self.enc.as_ref().expect("reference() ran"),
            views: &self.views,
            refs: &self.refs,
            seed: self.seed,
            shrink: BASE / self.scene.base,
        }
    }

    fn probe_local(&mut self, run: &TracedLaps, layers: &mut Layers, check: &mut Check) {
        // `try_new` builds the coordinator's scene before it spawns; the
        // same build, timed locally, is subtracted to leave spawn + hello.
        layers.set("shard.spawn_s", self.try_new_s - self.local_build_s);
        let shard_p50 = percentile(&run.untraced.lap.lat_ms, 0.5);
        layers.set("shard.frame_ms", shard_p50);
        // What going multi-process costs per frame: against the census's
        // lap of the same views on two threads in this process.
        let in_process = layers
            .get("core.frame_ms_unprofiled")
            .expect("the census ran");
        layers.set("shard.overhead_ms", shard_p50 - in_process);

        // Counters of the traced lap (the most recent pass); exact counts.
        let r = self.routed;
        let frames = r.frames.max(1) as f64;
        layers.set("shard.tiles_per_frame", r.tiles as f64 / frames);
        layers.set("shard.bytes_per_frame", r.bytes as f64 / frames);
        layers.set("shard.ring_full_spins", r.spins as f64);
        layers.set("shard.repaired", r.repaired as f64);

        // One lap over the socket transport: what the shm ring buys.
        let mut off = Recorder::new(false);
        match spawn(&self.scene, &self.bin, ShardTransport::Socket) {
            Ok(mut socket) => {
                let warm = fleet_pass(&mut socket, &self.views, &self.refs, WARMUP_OPS, &mut off);
                check.merge(warm.0.check);
                let (out, _) = fleet_pass(&mut socket, &self.views, &self.refs, LAP_OPS, &mut off);
                check.merge(out.check);
                layers.set("shard.socket_frames_per_s", out.lap.rate());
            }
            Err(e) => check.problem(format!("socket transport: {e}")),
        }
    }
}
