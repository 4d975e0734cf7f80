//! Experiment drivers for regenerating the paper's figures.
//!
//! Each `src/bin/figNN_*.rs` binary is a thin wrapper around this library:
//! it builds the synthetic datasets, captures task traces from the real
//! renderers, replays them on the platform models, and prints the same
//! series the corresponding figure plots. Run e.g.
//!
//! ```text
//! cargo run --release -p swr-bench --bin fig04_old_speedups
//! cargo run --release -p swr-bench --bin fig04_old_speedups -- --base 128 --procs 1,2,4,8
//! ```
//!
//! Absolute cycle counts are not comparable to the paper's 1997 machines;
//! the *shapes* — who wins, by what factor, where the knees fall — are the
//! reproduction targets (see `EXPERIMENTS.md`).

pub mod args;
pub mod exp;
pub mod figs;
pub mod table;

pub use args::Args;
pub use exp::*;
pub use figs::*;
pub use table::*;

use swr_geom::ViewSpec;
use swr_volume::{classify, EncodedVolume, Phantom};

/// Default base resolutions standing in for the paper's 128³ / 256³ / 512³
/// tiers (same 1:2:4 ratio, scaled to run in seconds on one host core).
pub const SIZE_TIERS: [usize; 3] = [40, 80, 160];

/// Labels for the tiers, mapping to the paper's dataset names.
pub const TIER_NAMES: [&str; 3] = ["small(≈128³)", "medium(≈256³)", "large(≈512³)"];

/// Default processor counts, as in the paper's speedup plots.
pub const PROC_COUNTS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Deterministic seed for all phantom generation.
pub const SEED: u64 = 42;

/// The standard animation: the paper renders rotation sequences; frame `i`
/// views the volume at `base + i·Δ` degrees about Y with a fixed X tilt.
pub fn view_at(dims: [usize; 3], angle_deg: f64) -> ViewSpec {
    ViewSpec::new(dims)
        .rotate_x(12f64.to_radians())
        .rotate_y(angle_deg.to_radians())
}

/// Angle step between successive animation frames (degrees).
pub const FRAME_STEP_DEG: f64 = 3.0;

/// Builds a classified, run-length encoded phantom at base resolution
/// `base` (paper-ratio dimensions).
pub fn build_dataset(phantom: Phantom, base: usize) -> EncodedVolume {
    let dims = phantom.paper_dims(base);
    let vol = phantom.generate(dims, SEED);
    let c = classify(&vol, &phantom.default_transfer());
    EncodedVolume::encode(&c)
}
