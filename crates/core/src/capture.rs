//! Trace capture: turning one rendered frame into a [`FrameWorkload`] for
//! the `swr-memsim` multiprocessor models.
//!
//! Compositing tasks are independent (scanline ownership is exclusive, the
//! volume is read-only), so each *chunk atom* — a fixed-size run of
//! intermediate scanlines — is traced once, serially, with the real
//! renderer inner loops and real heap addresses. Per-processor-count
//! workloads are then assembled from the shared traces:
//!
//! * [`CapturedFrame::old_workload`] — atoms dealt round-robin (the old
//!   algorithm's interleaved chunks), barrier, then traced warp-tile tasks.
//! * [`CapturedFrame::new_workload`] — atoms grouped into contiguous
//!   profile-balanced partitions, preceded by parallel-prefix partitioning
//!   tasks and followed by per-band warp tasks whose *dependencies* (not a
//!   barrier) encode the new algorithm's row-readiness protocol.
//!
//! The replay scheduler performs queueing and stealing in virtual time, so
//! the same traces yield different load balance and sharing on different
//! platforms — exactly the experimental setup of the paper.

use crate::partition::{balanced_contiguous, equal_contiguous};
use crate::ParallelConfig;
use std::ops::Range;
use swr_geom::{Factorization, ViewSpec};
use swr_memsim::workload::TaskLabel;
use swr_memsim::{CollectingTracer, FrameWorkload, StealPolicy, TaskSpec, TaskTrace};
use swr_render::{
    composite::occupied_y_bounds, composite_scanline_slice, extend_band, warp_row_band, warp_tile,
    CompositeOpts, FinalImage, IntermediateImage, SharedFinal, Tile, Tracer, WorkKind,
};
use swr_volume::EncodedVolume;

/// Capture parameters.
#[derive(Debug, Clone, Copy)]
pub struct CaptureConfig {
    /// Scanlines per chunk atom (task/steal granularity).
    pub chunk_rows: usize,
    /// Old algorithm's warp tile side.
    pub tile_size: usize,
    /// Enable stealing in the replay.
    pub steal: bool,
    /// Replay cost of a steal (victim queue lock round-trip).
    pub steal_cycles: u64,
    /// Replay cost of popping the own queue.
    pub pop_cycles: u64,
    /// New algorithm: partition by profile (vs. equal scanline counts).
    pub profiled_partition: bool,
}

impl Default for CaptureConfig {
    fn default() -> Self {
        CaptureConfig {
            chunk_rows: 4,
            tile_size: 32,
            steal: true,
            steal_cycles: 120,
            pop_cycles: 15,
            profiled_partition: true,
        }
    }
}

impl CaptureConfig {
    /// Derives a capture config from a renderer config.
    pub fn from_parallel(cfg: &ParallelConfig, rows: usize) -> Self {
        CaptureConfig {
            chunk_rows: cfg.effective_chunk_rows(rows),
            tile_size: cfg.tile_size,
            steal: cfg.steal,
            profiled_partition: cfg.profiled_partition,
            ..Default::default()
        }
    }

    fn policy(&self) -> StealPolicy {
        if self.steal {
            StealPolicy::FromBack {
                steal_cycles: self.steal_cycles,
                pop_cycles: self.pop_cycles,
            }
        } else {
            StealPolicy::None
        }
    }
}

/// One frame's captured compositing traces plus everything needed to
/// assemble per-processor-count workloads.
pub struct CapturedFrame {
    fact: Factorization,
    inter: IntermediateImage,
    /// `(rows, trace)` per chunk atom, in scanline order.
    atoms: Vec<(Range<usize>, TaskTrace)>,
    /// The composited scanline range (clipped or full).
    range: Range<usize>,
    /// Measured per-scanline work of this frame (length = intermediate
    /// height) — usable as the *next* frame's prediction profile.
    pub profile: Vec<u64>,
    cfg: CaptureConfig,
    /// Scratch buffers whose addresses appear in traces. They must stay
    /// allocated (a later allocation at a freed address would alias the
    /// traced one), so they are *reused in place* across assemblies — same
    /// address, same size — instead of accumulating one copy per call.
    scratch: TraceScratch,
}

/// Reusable trace scratch. The final-image and cumulative-profile buffers
/// have sizes fixed by the captured factorization, so their slots are filled
/// once and reused forever; only the per-processor totals buffer depends on
/// `nprocs`, and a size change retires the old buffer into `retired` (kept
/// alive, never freed) rather than dropping it. Memory held is therefore
/// bounded by the number of *distinct* processor counts used, not by the
/// number of workloads assembled.
#[derive(Default)]
struct TraceScratch {
    final_img: Option<Box<FinalImage>>,
    cum: Option<Vec<u64>>,
    totals: Option<Vec<u64>>,
    retired: Vec<Box<dyn std::any::Any>>,
}

impl TraceScratch {
    /// Live scratch allocations: filled slots plus retired buffers.
    fn allocations(&self) -> usize {
        usize::from(self.final_img.is_some())
            + usize::from(self.cum.is_some())
            + usize::from(self.totals.is_some())
            + self.retired.len()
    }
}

/// Captures the compositing phase of one frame.
///
/// `clip` enables the new algorithm's empty-region optimization (§4.2);
/// `profile_overhead` additionally traces the profiling instructions (a
/// profiled frame of the new algorithm).
pub fn capture_frame(
    enc: &EncodedVolume,
    view: &ViewSpec,
    cfg: &CaptureConfig,
    clip: bool,
    profile_overhead: bool,
) -> CapturedFrame {
    try_capture_frame(enc, view, cfg, clip, profile_overhead).unwrap_or_else(|e| panic!("{e}"))
}

/// [`capture_frame`] returning a typed error instead of panicking on an
/// invalid view or a degenerate capture configuration.
pub fn try_capture_frame(
    enc: &EncodedVolume,
    view: &ViewSpec,
    cfg: &CaptureConfig,
    clip: bool,
    profile_overhead: bool,
) -> Result<CapturedFrame, crate::Error> {
    view.try_validate()?;
    if cfg.chunk_rows == 0 {
        return Err(crate::Error::InvalidConfig {
            reason: "capture chunk_rows must be >= 1".into(),
        });
    }
    let fact = Factorization::from_view(view);
    let rle = enc.for_axis(fact.principal);
    let h = fact.inter_h;
    let mut inter = IntermediateImage::new(fact.inter_w, h);
    let range = if clip {
        match occupied_y_bounds(rle, &fact) {
            Some((lo, hi)) => lo..hi + 1,
            None => 0..0,
        }
    } else {
        0..h
    };
    let opts = CompositeOpts {
        profile: profile_overhead,
        ..Default::default()
    };
    let mut profile = vec![0u64; h];
    let mut atoms = Vec::new();
    let mut start = range.start;
    while start < range.end {
        let rows = start..(start + cfg.chunk_rows).min(range.end);
        let mut tracer = CollectingTracer::new();
        for m in 0..fact.slice_count() {
            let k = fact.slice_for_step(m);
            for y in rows.clone() {
                let mut row = inter.row_view(y);
                let st = composite_scanline_slice(rle, &fact, &mut row, k, &opts, &mut tracer);
                profile[y] += st.work;
            }
        }
        atoms.push((rows.clone(), tracer.finish()));
        start = rows.end;
    }
    Ok(CapturedFrame {
        fact,
        inter,
        atoms,
        range,
        profile,
        cfg: *cfg,
        scratch: TraceScratch::default(),
    })
}

impl CapturedFrame {
    /// The factorization of the captured frame.
    pub fn factorization(&self) -> &Factorization {
        &self.fact
    }

    /// Number of chunk atoms.
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }

    /// The composited scanline range.
    pub fn range(&self) -> Range<usize> {
        self.range.clone()
    }

    /// Scratch allocations currently held for trace-address stability.
    /// Repeated workload assembly reuses buffers in place, so this stays
    /// constant unless the processor count changes (which retires one
    /// buffer) — the regression guard against unbounded keepalive growth.
    pub fn scratch_allocations(&self) -> usize {
        self.scratch.allocations()
    }

    /// Takes the final-image scratch (right size guaranteed: the
    /// factorization is fixed for the life of the capture).
    fn take_final_scratch(&mut self) -> Box<FinalImage> {
        self.scratch
            .final_img
            .take()
            .unwrap_or_else(|| Box::new(FinalImage::new(self.fact.final_w, self.fact.final_h)))
    }

    /// Assembles the **old** algorithm's workload for `nprocs` processors:
    /// interleaved compositing chunks (phase 0, stealable), a barrier, then
    /// round-robin warp tiles (phase 1, no stealing).
    pub fn old_workload(&mut self, nprocs: usize) -> FrameWorkload {
        assert!(nprocs > 0);
        let mut tasks: Vec<TaskSpec> = Vec::new();
        let mut queues: Vec<Vec<u32>> = vec![Vec::new(); nprocs];

        for (i, (_, trace)) in self.atoms.iter().enumerate() {
            queues[i % nprocs].push(tasks.len() as u32);
            tasks.push(TaskSpec {
                trace: trace.clone(),
                phase: 0,
                deps: vec![],
                stealable: true,
                label: TaskLabel::Composite,
            });
        }

        // Trace the warp tiles against the composited intermediate image.
        let mut scratch = self.take_final_scratch();
        {
            let shared = SharedFinal::new(&mut scratch);
            let mut i = 0usize;
            for v0 in (0..self.fact.final_h).step_by(self.cfg.tile_size) {
                for u0 in (0..self.fact.final_w).step_by(self.cfg.tile_size) {
                    let tile = Tile {
                        u0,
                        v0,
                        u1: (u0 + self.cfg.tile_size).min(self.fact.final_w),
                        v1: (v0 + self.cfg.tile_size).min(self.fact.final_h),
                    };
                    let mut tracer = CollectingTracer::new();
                    warp_tile(&self.inter, &self.fact, &shared, tile, &mut tracer);
                    queues[i % nprocs].push(tasks.len() as u32);
                    tasks.push(TaskSpec {
                        trace: tracer.finish(),
                        phase: 1,
                        deps: vec![],
                        stealable: false,
                        label: TaskLabel::Warp,
                    });
                    i += 1;
                }
            }
        }
        self.scratch.final_img = Some(scratch);

        let wl = FrameWorkload {
            tasks,
            queues,
            steal: self.cfg.policy(),
            barrier_between_phases: true,
        };
        debug_assert!(
            wl.try_validate().is_ok(),
            "assembled old workload must validate"
        );
        wl
    }

    /// Assembles the **new** algorithm's workload for `nprocs` processors.
    ///
    /// `profile` is the per-scanline prediction (typically the previous
    /// frame's measurement, length = intermediate height); partitions are
    /// contiguous atom runs balancing the predicted cost. Phase structure:
    /// per-processor partitioning tasks (parallel prefix over the profile),
    /// composite chunks depending on them, and per-band warp tasks depending
    /// on exactly the composite tasks whose rows they read — no barrier.
    pub fn new_workload(&mut self, nprocs: usize, profile: &[u64]) -> FrameWorkload {
        assert!(nprocs > 0);
        assert_eq!(profile.len(), self.fact.inter_h, "profile covers the image");
        let natoms = self.atoms.len();
        let mut tasks: Vec<TaskSpec> = Vec::new();
        let mut queues: Vec<Vec<u32>> = vec![Vec::new(); nprocs];

        // Partition in atom units so partitions reuse the captured traces.
        let atom_costs: Vec<u64> = self
            .atoms
            .iter()
            .map(|(rows, _)| rows.clone().map(|y| profile[y]).sum())
            .collect();
        let parts: Vec<Range<usize>> = if self.cfg.profiled_partition {
            balanced_contiguous(0..natoms, &atom_costs, nprocs)
        } else {
            equal_contiguous(0..natoms, nprocs)
        };

        // Phase 0: partitioning (parallel prefix over the profile region).
        // Each processor scans its block of the profile and writes the
        // cumulative array; a small combine follows.
        let cum = match self.scratch.cum.take() {
            Some(c) if c.len() == profile.len() => c,
            stale => {
                if let Some(c) = stale {
                    self.scratch.retired.push(Box::new(c));
                }
                vec![0u64; profile.len()]
            }
        };
        let totals = match self.scratch.totals.take() {
            Some(t) if t.len() == nprocs => t,
            stale => {
                if let Some(t) = stale {
                    self.scratch.retired.push(Box::new(t));
                }
                vec![0u64; nprocs]
            }
        };
        let region = self.range.clone();
        let blocks = equal_contiguous(region.clone(), nprocs);
        let mut partition_ids = Vec::with_capacity(nprocs);
        for (p, block) in blocks.iter().enumerate() {
            let mut tracer = CollectingTracer::new();
            for y in block.clone() {
                tracer.read(&profile[y] as *const u64 as usize, 8);
                tracer.work(WorkKind::Other, 3);
                tracer.write(&cum[y] as *const u64 as usize, 8);
            }
            // Combine: publish the block total, read all totals, then the
            // boundary binary search (log-cost).
            tracer.write(&totals[p] as *const u64 as usize, 8);
            for t in totals.iter() {
                tracer.read(t as *const u64 as usize, 8);
            }
            tracer.work(
                WorkKind::Other,
                30 + 10 * (usize::BITS - nprocs.leading_zeros()),
            );
            partition_ids.push(tasks.len() as u32);
            queues[p].push(tasks.len() as u32);
            tasks.push(TaskSpec {
                trace: tracer.finish(),
                phase: 0,
                deps: vec![],
                stealable: false,
                label: TaskLabel::Partition,
            });
        }
        self.scratch.cum = Some(cum);
        self.scratch.totals = Some(totals);

        // Phase 1: compositing chunks, contiguous per processor.
        // atom index → composite task id, for warp dependencies.
        let mut atom_task = vec![0u32; natoms];
        for (p, part) in parts.iter().enumerate() {
            for a in part.clone() {
                atom_task[a] = tasks.len() as u32;
                queues[p].push(tasks.len() as u32);
                tasks.push(TaskSpec {
                    trace: self.atoms[a].1.clone(),
                    phase: 1,
                    deps: partition_ids.clone(),
                    stealable: self.cfg.steal,
                    label: TaskLabel::Composite,
                });
            }
        }

        // Phase 2: per-band warps. Band rows = the partition's rows; the
        // bilinear footprint also reads the first row of the next band, so
        // that atom is a dependency too.
        let mut scratch = self.take_final_scratch();
        {
            let shared = SharedFinal::new(&mut scratch);
            for (p, part) in parts.iter().enumerate() {
                if part.is_empty() {
                    continue;
                }
                let rows = self.atoms[part.start].0.start..self.atoms[part.end - 1].0.end;
                let band = extend_band(rows, self.range.start);
                let mut tracer = CollectingTracer::new();
                warp_row_band(&self.inter, &self.fact, &shared, band, &mut tracer);
                let mut deps: Vec<u32> = part.clone().map(|a| atom_task[a]).collect();
                if part.end < natoms {
                    deps.push(atom_task[part.end]); // the boundary row's atom
                }
                queues[p].push(tasks.len() as u32);
                tasks.push(TaskSpec {
                    trace: tracer.finish(),
                    phase: 2,
                    deps,
                    stealable: false,
                    label: TaskLabel::Warp,
                });
            }
        }
        self.scratch.final_img = Some(scratch);

        let wl = FrameWorkload {
            tasks,
            queues,
            steal: self.cfg.policy(),
            barrier_between_phases: false,
        };
        debug_assert!(
            wl.try_validate().is_ok(),
            "assembled new workload must validate"
        );
        wl
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swr_memsim::{replay, replay_steady, Platform};
    use swr_volume::{classify, Phantom};

    fn scene() -> (EncodedVolume, ViewSpec) {
        let vol = Phantom::MriBrain.generate([20, 20, 14], 5);
        let c = classify(&vol, &Phantom::MriBrain.default_transfer());
        (
            EncodedVolume::encode(&c),
            ViewSpec::new([20, 20, 14]).rotate_y(0.4),
        )
    }

    #[test]
    fn capture_produces_atoms_and_profile() {
        let (enc, view) = scene();
        let cf = capture_frame(&enc, &view, &CaptureConfig::default(), true, false);
        assert!(cf.atom_count() > 0);
        assert!(cf.profile.iter().sum::<u64>() > 0);
        // Clipped range is a subset of the image.
        assert!(cf.range().len() <= cf.factorization().inter_h);
    }

    #[test]
    fn old_workload_replays_on_all_platforms() {
        let (enc, view) = scene();
        let mut cf = capture_frame(&enc, &view, &CaptureConfig::default(), false, false);
        for platform in [
            Platform::challenge(),
            Platform::dash(),
            Platform::ideal_dsm(),
            Platform::origin2000(),
        ] {
            let wl = cf.old_workload(4);
            let r = replay(&platform, &wl);
            assert!(r.total_cycles > 0, "{}", platform.name);
            assert!(r.busy_total() > 0);
            assert!(r.misses.total() > 0);
        }
    }

    #[test]
    fn new_workload_replays_and_beats_old_on_dsm() {
        let (enc, view) = scene();
        let cfg = CaptureConfig::default();
        let mut old_cf = capture_frame(&enc, &view, &cfg, false, false);
        let mut new_cf = capture_frame(&enc, &view, &cfg, true, false);
        let profile = new_cf.profile.clone();
        let platform = Platform::ideal_dsm();
        let p = 8;
        // Steady-state animation frames: caches warm, so the inter-phase
        // communication shows up as (true-)sharing misses.
        let old = replay_steady(&platform, &old_cf.old_workload(p), 1);
        let new = replay_steady(&platform, &new_cf.new_workload(p, &profile), 1);
        // The headline result: the new algorithm reduces sharing misses.
        assert!(
            old.misses.true_sharing > 0,
            "old algorithm must exhibit true sharing in steady state"
        );
        assert!(
            new.misses.true_sharing < old.misses.true_sharing,
            "true sharing: new {} vs old {}",
            new.misses.true_sharing,
            old.misses.true_sharing
        );
        assert!(new.total_cycles > 0 && old.total_cycles > 0);
    }

    #[test]
    fn new_workload_dependency_structure() {
        let (enc, view) = scene();
        let mut cf = capture_frame(&enc, &view, &CaptureConfig::default(), true, false);
        let profile = cf.profile.clone();
        let wl = cf.new_workload(3, &profile);
        wl.validate();
        assert!(!wl.barrier_between_phases);
        let parts = wl
            .tasks
            .iter()
            .filter(|t| t.label == TaskLabel::Partition)
            .count();
        let warps = wl
            .tasks
            .iter()
            .filter(|t| t.label == TaskLabel::Warp)
            .count();
        assert_eq!(parts, 3);
        assert!((1..=3).contains(&warps));
        // Every composite task depends on every partition task.
        for t in wl.tasks.iter().filter(|t| t.label == TaskLabel::Composite) {
            assert_eq!(t.deps.len(), 3);
        }
        // Warp tasks depend on at least their own atoms.
        for t in wl.tasks.iter().filter(|t| t.label == TaskLabel::Warp) {
            assert!(!t.deps.is_empty());
        }
    }

    #[test]
    fn repeated_assembly_does_not_grow_scratch() {
        let (enc, view) = scene();
        let mut cf = capture_frame(&enc, &view, &CaptureConfig::default(), true, false);
        let profile = cf.profile.clone();
        assert_eq!(cf.scratch_allocations(), 0, "nothing held before assembly");
        cf.old_workload(4);
        cf.new_workload(4, &profile);
        let baseline = cf.scratch_allocations();
        // The old keepalive design leaked one buffer set per call; reuse
        // must keep the count flat over many assemblies.
        for _ in 0..16 {
            cf.old_workload(4);
            cf.new_workload(4, &profile);
        }
        assert_eq!(cf.scratch_allocations(), baseline);
        // Changing the processor count retires the totals buffer once...
        cf.new_workload(8, &profile);
        let grown = cf.scratch_allocations();
        assert_eq!(grown, baseline + 1);
        // ...and then the new size is reused too.
        for _ in 0..8 {
            cf.new_workload(8, &profile);
        }
        assert_eq!(cf.scratch_allocations(), grown);
    }

    #[test]
    fn reused_scratch_yields_identical_workloads() {
        let (enc, view) = scene();
        let mut cf = capture_frame(&enc, &view, &CaptureConfig::default(), true, false);
        let profile = cf.profile.clone();
        // Buffer reuse means the traced addresses are stable call-to-call:
        // replaying two assemblies of the same workload must agree exactly.
        let a = replay(&Platform::ideal_dsm(), &cf.new_workload(3, &profile));
        let b = replay(&Platform::ideal_dsm(), &cf.new_workload(3, &profile));
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.misses.total(), b.misses.total());
    }

    #[test]
    fn workloads_scale_down_to_one_processor() {
        let (enc, view) = scene();
        let mut cf = capture_frame(&enc, &view, &CaptureConfig::default(), false, false);
        let profile = cf.profile.clone();
        let w1 = cf.old_workload(1);
        let r1 = replay(&Platform::ideal_dsm(), &w1);
        assert_eq!(r1.steals, 0, "nothing to steal from");
        let n1 = cf.new_workload(1, &profile);
        let rn = replay(&Platform::ideal_dsm(), &n1);
        assert!(rn.total_cycles > 0);
    }
}
