//! Volume data for shear-warp rendering.
//!
//! The pipeline this crate implements mirrors Lacroute's VolPack, the serial
//! system the PPoPP'97 paper parallelizes:
//!
//! 1. A raw scalar [`Volume`] (8-bit samples, e.g. an MRI or CT scan).
//! 2. Gradient estimation ([`gradient`]) for surface shading.
//! 3. Classification ([`classify()`]): a [`TransferFunction`] maps each sample
//!    (value, gradient magnitude) to an opacity, and Phong shading assigns a
//!    color, producing a [`ClassifiedVolume`] of RGBA voxels.
//! 4. Run-length encoding ([`rle`]): for each of the three principal axes the
//!    classified volume is encoded as alternating transparent/non-transparent
//!    run lengths plus densely packed non-transparent voxels — the coherence
//!    data structure that lets the renderer skip the 70–95 % of voxels that
//!    are transparent in scanline order.
//!
//! Because the paper's MRI/CT scans are not distributable, [`phantom`]
//! generates deterministic synthetic volumes with the same *statistical
//! structure* (a condensed central object, 70–95 % transparent voxels,
//! strongly non-uniform per-scanline cost), and [`resample()`] reproduces the
//! up-sampling tool the authors used to make the 512³/640³ datasets.

#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod brick;
pub mod classify;
pub mod gradient;
pub mod grid;
pub mod io;
pub mod phantom;
pub mod resample;
pub mod rle;
pub mod transfer;

pub use brick::{
    Brick, BrickCache, BrickCacheStats, BrickHandle, BrickMeta, BrickedEncoding, BrickedVolume,
    DEFAULT_BRICK_EXTENT,
};
pub use classify::{classify, classify_parallel, classify_with_field, ClassifiedVolume, RgbaVoxel};
pub use gradient::GradientField;
pub use grid::Volume;
pub use phantom::Phantom;
pub use resample::resample;
pub use rle::{EncodedVolume, RleEncoding, RleScanline};
pub use transfer::{Ramp, TransferFunction};

/// Opacity (0–255) above which a composited pixel is treated as opaque and
/// skipped for the rest of the frame (early ray termination). The paper and
/// VolPack use a threshold near full opacity.
pub const OPAQUE_THRESHOLD: u8 = 242; // ~0.95 * 255

/// Minimum classified opacity (0–255) for a voxel to be stored in the
/// run-length encoding; anything below is "transparent" and skipped.
pub const TRANSPARENT_THRESHOLD: u8 = 1;
