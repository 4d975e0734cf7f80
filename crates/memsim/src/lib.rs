//! Trace-driven multiprocessor memory-system simulation.
//!
//! The paper diagnoses its parallel renderers with a hierarchy of tools:
//! Pixie basic-block counts, synchronization timing, and an execution-driven
//! simulator (Tango-Lite) modeling a directory-based cache-coherent machine,
//! plus a simulated page-based shared-virtual-memory platform. This crate is
//! that tool hierarchy:
//!
//! * [`trace`] — compact per-task memory-reference/work event streams,
//!   captured from the real renderer inner loops via `swr_render::Tracer`.
//! * [`cache`] — set-associative LRU caches.
//! * [`coherence`] — an invalidation-based sharing model that classifies
//!   every miss as *cold*, *replacement* (capacity/conflict), *true sharing*
//!   or *false sharing*, following the SPLASH-2 methodology the paper cites.
//! * [`platform`] — cost models for the paper's machines: SGI Challenge
//!   (bus, centralized memory), Stanford DASH (16-byte lines, 4-processor
//!   nodes, remote misses), the "ideal" next-generation DSM simulator
//!   (70/210/280-cycle misses), and SGI Origin2000.
//! * [`workload`] + [`mod@replay`] — a discrete-event scheduler that *replays*
//!   task traces onto P logical processors, performing the algorithms' own
//!   scheduling (per-processor queues, dynamic task stealing with lock
//!   costs, phase barriers, task dependencies) in virtual time, and accounts
//!   busy / memory-stall / synchronization time per processor.
//! * [`svm`] — a home-based lazy-release-consistency (HLRC) shared virtual
//!   memory model at page granularity, with page-fault data wait, diff and
//!   write-notice costs, and contention-aware barriers.
//! * [`workingset`] — working-set replay for the bricked streaming store: a
//!   policy twin of `swr-volume`'s clock brick cache plus an idealized LRU
//!   bound, predicting miss curves over resident-set budgets and ranking
//!   brick extents by decode traffic (the model behind the default 32³
//!   brick and the `resident_sweep` bench series).
//!
//! The renderer's traces use real heap addresses, so data-structure layout
//! (and hence false sharing and line-size effects) is exactly that of the
//! running Rust program.
//!
//! # Example: two processors sharing a line
//!
//! ```
//! use swr_memsim::{replay, CollectingTracer, FrameWorkload, Platform,
//!     StealPolicy, TaskSpec};
//! use swr_memsim::workload::TaskLabel;
//! use swr_render::{Tracer, WorkKind};
//!
//! let task = |f: &dyn Fn(&mut CollectingTracer), phase: u8| {
//!     let mut c = CollectingTracer::new();
//!     f(&mut c);
//!     TaskSpec { trace: c.finish(), phase, deps: vec![],
//!                stealable: false, label: TaskLabel::Composite }
//! };
//! // P0 writes a word; after the barrier P1 reads the same word.
//! let workload = FrameWorkload {
//!     tasks: vec![
//!         task(&|c| { c.work(WorkKind::Composite, 100); c.write(0x10000, 4); }, 0),
//!         task(&|c| c.read(0x10000, 4), 1),
//!     ],
//!     queues: vec![vec![0], vec![1]],
//!     steal: StealPolicy::None,
//!     barrier_between_phases: true,
//! };
//! let r = replay(&Platform::ideal_dsm(), &workload);
//! assert_eq!(r.busy_total(), 100);
//! assert_eq!(r.misses.cold, 2);         // both first-references are cold
//! assert!(r.total_cycles > 100);        // plus miss stalls and the barrier
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod cache;
pub mod coherence;
pub mod platform;
pub mod replay;
pub mod svm;
pub mod trace;
pub mod workingset;
pub mod workload;

pub use cache::{Cache, CacheConfig};
pub use coherence::{MissClass, MissCounts};
pub use platform::{MemCosts, Platform};
pub use replay::{
    replay, replay_steady, try_replay, try_replay_steady, try_replay_steady_traced,
    try_replay_traced, Machine, ProcBreakdown, SimResult,
};
pub use svm::{
    replay_svm, replay_svm_steady, try_replay_svm, try_replay_svm_steady, SvmConfig, SvmMachine,
    SvmProcBreakdown, SvmResult,
};
pub use swr_error::Error;
pub use trace::{CollectingTracer, TaskTrace, TraceEvent};
pub use workingset::{
    lru_misses, miss_curve, pinned_touches, recommend_brick, scanline_touches, sweep_brick_sizes,
    BrickChoice, BrickTouch, ClockCacheSim, MissCurvePoint, SimStats,
};
pub use workload::{FrameWorkload, StealPolicy, TaskSpec};
