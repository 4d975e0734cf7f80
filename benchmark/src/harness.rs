//! What every workload shares: the [`Workload`] contract, the untraced and
//! traced run shapes, the correctness ledger, and the helpers that build
//! datasets, compute serial reference hashes and time sequential laps.

use crate::metrics::Layers;
use crate::ops::{LAP_OPS, WARMUP_OPS};
use crate::procfs;
use crate::span::{Recorder, SpanLog};
use crate::stats::{another_lap, median, summarize, Lap, LapSummary};
use crate::workloads::census;
use shearwarp::core::RenderStats;
use shearwarp::geom::ViewSpec;
use shearwarp::render::{FinalImage, SerialRenderer, VolumeSrc};
use shearwarp::serve::protocol::image_hash;
use shearwarp::volume::{classify, EncodedVolume, Phantom};
use std::path::PathBuf;
use std::time::Instant;

/// Render threads of every workload (fixed; `oversubscribed` is recorded
/// when the box has fewer CPUs).
pub const THREADS: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Parsed command line of a single-workload run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The root build's `swr-shard` (only the sharded workload needs it).
    pub shard_bin: Option<PathBuf>,
    /// Where span files go.
    pub out_dir: PathBuf,
    /// Divides every volume's base resolution. 1 on every real run; the
    /// unit tests drive whole workloads at 1/8 scale.
    pub shrink: usize,
}

/// Correctness ledger: every timed frame is checked against the serial
/// reference; a mismatch, typed error, shed, degraded or sub-`full` frame
/// counts as failed.
#[derive(Debug, Default)]
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, verbatim, for the report.
    pub problems: Vec<String>,
}

impl Check {
    pub fn pass(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        self.problem(what);
    }

    /// Records a broken layer assertion (not an op, so not `attempted`).
    pub fn problem(&mut self, what: String) {
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }

    /// Counts one delivered frame: it passes iff it was not degraded and
    /// its pixels digest equal to the serial reference's.
    pub fn frame(&mut self, what: &str, img: &FinalImage, reference: &FrameRef, degraded: bool) {
        if degraded {
            self.fail(format!("{what}: frame was degraded/repaired"));
        } else if pixel_digest(img) != reference.digest {
            self.fail(format!(
                "{what}: pixels differ from the serial frame (fnv {} != {})",
                image_hash(img),
                reference.fnv
            ));
        } else {
            self.pass();
        }
    }

    pub fn merge(&mut self, other: Check) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for p in other.problems {
            self.problem(p);
        }
    }
}

/// What the renderer reported about one op (the `core` ledger splits op
/// latencies by these).
#[derive(Debug, Clone, Copy, Default)]
pub struct FrameNote {
    pub profiled: bool,
    pub steals: u64,
    pub degraded: bool,
}

impl From<&RenderStats> for FrameNote {
    fn from(s: &RenderStats) -> Self {
        FrameNote {
            profiled: s.profiled,
            steals: s.steals,
            degraded: s.degraded || s.worker_panics > 0 || s.repaired_rows > 0,
        }
    }
}

/// One timed lap with its verification result.
#[derive(Debug, Default)]
pub struct LapOutcome {
    pub lap: Lap,
    pub check: Check,
    /// Per op, where the workload's renderer reports stats.
    pub notes: Vec<FrameNote>,
}

/// A workload: build → first frame, then laps over a fixed op list.
pub trait Workload: Sized {
    /// Builds the data and delivers the first frame (`setup_s` covers
    /// exactly this call). Layer calls made here are spanned under op 0.
    fn setup(args: &Args, rec: &mut Recorder) -> Result<Self, String>;
    /// Untimed: serial reference frame hashes of every distinct view.
    fn reference(&mut self, rec: &mut Recorder);
    /// One pass over `ops` ops (a lap when `ops == LAP_OPS`), timed, every
    /// delivered frame verified.
    fn pass(&mut self, ops: usize, rec: &mut Recorder) -> LapOutcome;
    /// Live child processes whose CPU and RSS belong to this workload.
    fn children(&self) -> Vec<u32> {
        Vec::new()
    }
    /// Traced run only: the volume and views the layer census runs on.
    fn scene(&self) -> Scene<'_>;
    /// Traced run only: the layer metrics only this workload can measure
    /// (its live server or fleet, its own per-op spans).
    fn probe_local(&mut self, _run: &TracedLaps, _layers: &mut Layers, _check: &mut Check) {}
}

/// The workload's volume and one lap of views with their serial hashes.
pub struct Scene<'a> {
    pub enc: &'a EncodedVolume,
    pub views: &'a [ViewSpec],
    pub refs: &'a [FrameRef],
    pub seed: u64,
    /// What divides the volume's base resolution (1 on real runs).
    pub shrink: usize,
}

/// What a traced run hands to [`Workload::probe_local`]: its untraced lap
/// and the spans of its traced lap.
pub struct TracedLaps {
    pub untraced: LapOutcome,
    pub log: SpanLog,
}

/// End-to-end result of an untraced run.
pub struct EndToEnd {
    pub laps: LapSummary,
    pub setup_s: f64,
    pub peak_rss_mib: f64,
    /// Frames per second of each timed lap, in order. Printed (with
    /// `laps.disturbance`) so a noisy run is visible; not gated.
    pub lap_rates: Vec<f64>,
}

/// Untraced run: set up, reference, warm up, timed laps until the
/// `--seconds` budget is spent — then set up twice more, so that `setup_s`
/// is a median of three while peak RSS is that of one instance's life (what
/// earlier instances leave in the allocator's arenas made it two-valued).
pub fn run_untraced<W: Workload>(args: &Args) -> Result<(EndToEnd, Check), String> {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut timed_setup = || {
        let t = Instant::now();
        let w = W::setup(args, &mut Recorder::new(false));
        setups.push(t.elapsed().as_secs_f64());
        w
    };
    let mut w = timed_setup()?;
    let mut rec = Recorder::new(false);
    w.reference(&mut rec);
    let mut check = w.pass(WARMUP_OPS, &mut rec).check;
    check.attempted = 0; // warm-up failures count, warm-up ops do not

    let mut laps = Vec::new();
    let mut elapsed = 0.0;
    let mut last = 0.0;
    while another_lap(laps.len(), elapsed, last, args.seconds) {
        let out = w.pass(LAP_OPS, &mut rec);
        last = out.lap.wall_s;
        elapsed += last;
        check.merge(out.check);
        laps.push(out.lap);
    }
    let peak_rss_mib = procfs::peak_rss_mib(&w.children());
    for _ in 1..SETUP_REPEATS {
        // The previous instance (its processes, its memory) goes first.
        drop(w);
        w = timed_setup()?;
    }
    Ok((
        EndToEnd {
            laps: summarize(&laps),
            setup_s: median(&setups),
            peak_rss_mib,
            lap_rates: laps.iter().map(Lap::rate).collect(),
        },
        check,
    ))
}

/// Traced run: one set-up with spans, then one untraced and one traced lap
/// (their rate gap is the tracing overhead), then the layer census on the
/// workload's own scene and the workload's local probes.
pub fn run_traced<W: Workload>(args: &Args) -> Result<(Layers, Check), String> {
    let name = &args.workload;
    let mut layers = Layers::default();
    let mut rec = Recorder::new(true);
    let mut w = W::setup(args, &mut rec)?;
    w.reference(&mut rec);
    let setup_log = std::mem::replace(&mut rec, Recorder::new(false)).into_log();
    for (span, metric) in [
        ("volume.generate", "volume.generate_s"),
        ("volume.classify", "volume.classify_s"),
        ("volume.encode", "volume.encode_s"),
    ] {
        // The first such call is the set-up's; later ones are per-op.
        if let Some(s) = setup_log.spans.iter().find(|s| s.name == span) {
            layers.set(metric, s.dur_us() / 1e6);
        }
    }

    let mut check = w.pass(WARMUP_OPS, &mut rec).check;
    check.attempted = 0;
    let untraced = w.pass(LAP_OPS, &mut rec);
    rec = Recorder::new(true);
    let mut traced = w.pass(LAP_OPS, &mut rec);
    let log = rec.into_log();
    check.merge(std::mem::take(&mut traced.check));

    if let Err(e) = log.validate() {
        check.problem(format!("span tree: {e}"));
    }
    let path = args.out_dir.join(format!("trace_{name}.json"));
    std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&path, log.to_json(name).to_string()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;

    layers.set(
        "harness.trace_overhead_frac",
        1.0 - traced.lap.rate() / untraced.lap.rate(),
    );
    layers.set(
        "harness.unattributed_ms",
        median(&log.unattributed_us()) / 1e3,
    );
    let run = TracedLaps { untraced, log };
    census(&w.scene(), &mut layers, &mut check);
    w.probe_local(&run, &mut layers, &mut check);
    for name in layers.missing() {
        check.problem(format!("per-layer metric {name} was not measured"));
    }
    Ok((layers, check))
}

/// Generates, classifies and encodes a phantom with its default transfer
/// function — the same recipe `swr-serve` and `swr-shard` use, so every
/// process derives bit-identical encodings.
pub fn build_encoded(
    phantom: Phantom,
    base: usize,
    seed: u64,
    rec: &mut Recorder,
) -> EncodedVolume {
    let dims = phantom.paper_dims(base);
    let raw = rec.time("volume.generate", 0, || phantom.generate(dims, seed));
    let tf = phantom.default_transfer();
    let classified = rec.time("volume.classify", 0, || classify(&raw, &tf));
    rec.time("volume.encode", 0, || EncodedVolume::encode(&classified))
}

/// Maps contiguous chunks of `items` on [`THREADS`] threads, in order. The
/// reference computations run through this: they are untimed, so only
/// their duration matters.
pub fn on_threads<T: Sync, R: Send>(items: &[T], f: impl Fn(&[T]) -> Vec<R> + Sync) -> Vec<R> {
    let chunk = items.len().div_ceil(THREADS).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| s.spawn(|| f(part)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference worker panicked"))
            .collect()
    })
}

/// What a delivered frame is compared to: the serial renderer's frame for
/// the same view, as two hashes of its RGBA bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameRef {
    /// [`pixel_digest`] — what in-process frames are compared by, inside
    /// the lap, because it costs ~1 % of a frame.
    pub digest: u64,
    /// `serve::protocol::image_hash` (FNV-1a 64, bytewise) — what the
    /// service puts in its responses, so what is compared over the socket.
    pub fnv: String,
}

impl FrameRef {
    pub fn of(img: &FinalImage) -> FrameRef {
        FrameRef {
            digest: pixel_digest(img),
            fnv: image_hash(img),
        }
    }
}

/// A 64-bit digest of the image's dimensions and RGBA bytes, eight pixels
/// per step on four independent multiply-xor lanes. Equal pixels give equal
/// digests; it exists because the bytewise FNV of `image_hash` costs several
/// milliseconds on a zoom-2 frame, too much to run beside the renderer.
pub fn pixel_digest(img: &FinalImage) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let word = |p: &[[u8; 4]]| {
        let ([a, b, c, d], [e, f, g, h]) = (p[0], p[1]);
        u64::from_le_bytes([a, b, c, d, e, f, g, h])
    };
    let mix = |lane: u64, w: u64| (lane ^ w).wrapping_mul(K).rotate_left(29);
    let mut lanes = [img.width() as u64, img.height() as u64, K, !K];
    let px = img.pixels();
    let mut blocks = px.chunks_exact(8);
    for block in &mut blocks {
        for (lane, pair) in lanes.iter_mut().zip(block.chunks_exact(2)) {
            *lane = mix(*lane, word(pair));
        }
    }
    for (i, p) in blocks.remainder().iter().enumerate() {
        lanes[i % 4] = mix(lanes[i % 4], u64::from(u32::from_le_bytes(*p)));
    }
    lanes.iter().fold(0, |h, &lane| mix(h, lane))
}

/// Serial-renderer reference of every view.
pub fn reference_frames(src: VolumeSrc<'_>, views: &[ViewSpec]) -> Vec<FrameRef> {
    on_threads(views, |part| {
        let mut r = SerialRenderer::new();
        part.iter()
            .map(|v| FrameRef::of(&r.render_src(src, v)))
            .collect()
    })
}

/// `ops` sequential ops, each timed under an `op` root span and verified
/// against `refs[i % len]` as soon as it is delivered — between the op
/// timers, so the frame can be dropped at once and a lap holds no more
/// memory than a frame. Lap wall time is the sum of the op latencies
/// (verification excluded); lap CPU brackets the loop (the digest is ~1 %
/// of it).
pub fn sequential_pass(
    what: &str,
    ops: usize,
    refs: &[FrameRef],
    rec: &mut Recorder,
    children: &[u32],
    mut op: impl FnMut(usize, &mut Recorder) -> Result<(FinalImage, FrameNote), String>,
) -> LapOutcome {
    let mut lat_ms = Vec::with_capacity(ops);
    let mut notes = Vec::with_capacity(ops);
    let mut check = Check::default();
    let cpu0 = procfs::cpu_ms(children);
    for i in 0..ops {
        let t = Instant::now();
        let root = rec.enter("op", i as u64);
        let delivered = op(i, rec);
        rec.exit(root);
        lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match delivered {
            Ok((img, note)) => {
                check.frame(what, &img, &refs[i % refs.len()], note.degraded);
                notes.push(note);
            }
            Err(e) => check.fail(format!("{what} op {i}: {e}")),
        }
    }
    let cpu_ms = procfs::cpu_ms(children) - cpu0;
    LapOutcome {
        lap: Lap {
            wall_s: lat_ms.iter().sum::<f64>() / 1e3,
            cpu_ms,
            lat_ms,
            streams: 1,
            coupled: false,
        },
        check,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pixel_digest_sees_every_pixel_and_the_shape() {
        let mut img = FinalImage::new(13, 7);
        let base = pixel_digest(&img);
        assert_eq!(base, pixel_digest(&FinalImage::new(13, 7)));
        assert_ne!(base, pixel_digest(&FinalImage::new(7, 13)), "shape counts");
        for v in 0..7 {
            for u in 0..13 {
                img.set(u, v, [0, 0, 1, 0]);
                assert_ne!(pixel_digest(&img), base, "pixel ({u},{v}) is not hashed");
                img.set(u, v, [0, 0, 0, 0]);
            }
        }
        assert_eq!(pixel_digest(&img), base);
    }
}
