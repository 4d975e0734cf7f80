//! The serial shear-warp volume renderer.
//!
//! A frame is rendered in two phases, exactly as in Lacroute's algorithm:
//!
//! 1. **Compositing** ([`composite`]): the run-length encoded volume is
//!    streamed through in scanline order, front-to-back, resampling each
//!    sheared voxel scanline into the *intermediate image* with bilinear
//!    weights. Two coherence structures make this fast: the volume RLE skips
//!    transparent voxel runs, and per-scanline *skip links* in the
//!    intermediate image skip pixels that have already saturated with opacity
//!    (early ray termination).
//! 2. **Warp** ([`warp`]): a 2-D affine transform with bilinear interpolation
//!    maps the distorted intermediate image to the final image.
//!
//! Everything is parameterized over a [`Tracer`] so the same inner loops can
//! run natively (zero-cost [`NullTracer`]) or emit the per-word memory
//! reference streams the `swr-memsim` crate replays through its
//! multiprocessor cache models. The compositor can also record a per-scanline
//! *work profile*, which is what the paper's new parallel algorithm uses to
//! build load-balanced contiguous partitions.
//!
//! The parallel algorithms themselves live in `swr-core`; this crate's
//! scanline- and band-granularity entry points are their building blocks.

#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod composite;
pub mod costs;
pub mod image;
pub mod serial;
pub mod simd;
pub mod source;
pub mod tracer;
pub mod warp;

pub use composite::{
    composite_row, composite_scanline_slice, composite_scanline_slice_src,
    composite_scanline_slice_untraced, composite_scanline_slice_untraced_src,
    composite_scanline_slice_untraced_with, composite_scanline_slice_untraced_with_src,
    CompositeOpts, DepthCue, ScanlineSliceStats,
};
pub use image::{
    FinalImage, IPixel, IntermediateImage, Rgba8, RowView, SharedFinal, SharedIntermediate,
};
pub use serial::{SerialRenderer, SerialStats};
pub use simd::{dispatched_kernel, set_force_scalar, simd_compiled, SimdKernel};
pub use source::{AxisSrc, BrickRowPin, StepSrc, VolumeSrc};
pub use tracer::{CountingTracer, NullTracer, Tracer, WorkKind};
pub use warp::{extend_band, warp_full, warp_row_band, warp_tile, InterSource, Tile};
