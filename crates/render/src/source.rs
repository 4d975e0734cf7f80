//! Storage-layout dispatch for the renderers.
//!
//! The compositing kernel is monomorphized over the voxel source (see
//! `SliceSrc` in [`crate::composite`]); these enums are the *runtime* face
//! of that choice: a renderer holds an [`AxisSrc`] / [`VolumeSrc`] and
//! dispatches once per `(scanline, slice)` step (or once per frame), so the
//! flat path's inner loop is exactly the pre-bricking machine code.
//!
//! Both layouts produce bit-identical images. The bricked layout exists for
//! memory locality (brick-local runs, transparent-brick skipping) and for
//! bounded-resident streaming of beyond-memory volumes.
//!
//! A band loop — a chunk of intermediate scanlines composited slice by
//! slice — wraps its [`AxisSrc`] in a [`BrickRowPin`] for as long as the
//! chunk lasts: neighbouring scanlines read the same voxel rows, so the
//! bricks under them are looked up when the chunk enters their brick row,
//! not once per scanline.

use std::ops::Range;
use swr_geom::Axis;
use swr_volume::{
    BrickCacheStats, BrickHandle, BrickedEncoding, BrickedVolume, EncodedVolume, RgbaVoxel,
    RleEncoding, RleScanline,
};

/// One axis' run-length encoding in either storage layout.
#[derive(Clone, Copy)]
pub enum AxisSrc<'a> {
    /// The flat per-axis RLE (the paper's layout).
    Flat(&'a RleEncoding),
    /// The bricked per-axis RLE (locality / streaming layout).
    Bricked(&'a BrickedEncoding),
}

impl AxisSrc<'_> {
    /// Standard-object dimensions `[n_i, n_j, n_k]`.
    pub fn std_dims(self) -> [usize; 3] {
        match self {
            AxisSrc::Flat(e) => e.std_dims(),
            AxisSrc::Bricked(e) => e.std_dims(),
        }
    }

    /// Conservative non-empty `j` bounds of slice `k` (bricked bounds are
    /// brick-granular supersets of the flat bounds).
    pub fn slice_nonempty_bounds(self, k: usize) -> Option<(usize, usize)> {
        match self {
            AxisSrc::Flat(e) => e.slice_nonempty_bounds(k),
            AxisSrc::Bricked(e) => e.slice_nonempty_bounds(k),
        }
    }

    /// Stored (non-transparent) voxel count for this axis.
    pub fn stored_voxels(self) -> usize {
        match self {
            AxisSrc::Flat(e) => e.stored_voxels(),
            AxisSrc::Bricked(e) => e.stored_voxels(),
        }
    }
}

/// One pinned brick row `(bk, bj)`: the payload handles of its bricks, one
/// per brick column (`None` for an empty brick).
struct PinnedRow<'a> {
    /// The slices `k` and voxel rows `j` the row's bricks cover (both empty
    /// until first use).
    ks: Range<usize>,
    js: Range<usize>,
    cols: Vec<Option<BrickHandle<'a>>>,
}

/// One voxel scanline stitched out of its brick columns into a contiguous
/// run-length scanline (`usize::MAX` keys until first use).
struct StitchedLine {
    k: usize,
    j: usize,
    runs: Vec<u8>,
    voxels: Vec<RgbaVoxel>,
}

/// What a pin over a bricked source holds: two brick rows and the two voxel
/// scanlines of the current step.
pub(crate) struct PinnedRows<'a> {
    pub(crate) enc: &'a BrickedEncoding,
    /// Direct-mapped by `bj % 2`: one step reads voxel rows `j0` and
    /// `j0 + 1`, whose brick rows differ by at most one, so the two rows of
    /// a step never share a slot. Lines likewise, by `j % 2`.
    rows: [PinnedRow<'a>; 2],
    lines: [StitchedLine; 2],
}

impl<'a> PinnedRows<'a> {
    /// Slot of the brick row holding voxel scanline `(k, j)`: the one
    /// already pinned, or the slot of `j`'s brick row re-pointed at it —
    /// dropping the brick row it held and resolving every non-empty column
    /// (for a streamed volume, through the brick cache).
    fn hold(&mut self, k: usize, j: usize) -> usize {
        let pinned = |row: &PinnedRow<'_>| row.ks.contains(&k) && row.js.contains(&j);
        if let Some(slot) = (0..2).find(|&s| pinned(&self.rows[s])) {
            return slot;
        }
        let enc = self.enc;
        let [_, n_j, n_k] = enc.std_dims();
        let b = enc.brick_extent();
        let (bj, bk) = (j / b, k / b);
        let row = &mut self.rows[bj % 2];
        row.ks = bk * b..((bk + 1) * b).min(n_k);
        row.js = bj * b..((bj + 1) * b).min(n_j);
        let base_id = enc.brick_id(0, bj, bk);
        row.cols.clear();
        row.cols
            .extend((0..enc.grid()[0]).map(|bi| enc.payload(base_id + bi)));
        bj % 2
    }

    /// Makes voxel scanline `(k, j)` available as one contiguous run-length
    /// scanline and returns its line slot for [`Self::line`]. Every
    /// brick-local scanline starts with a (possibly zero-length)
    /// transparent run and covers its column's full width, so the columns'
    /// runs concatenate once adjacent runs of a kind are merged across the
    /// seams; an empty brick contributes its width as transparent length
    /// from metadata alone. Lengths over 255 split with zero-length runs of
    /// the other kind, as in the flat encoder, and the trailing transparent
    /// run is dropped (a cursor past the last run reads transparent).
    pub(crate) fn stitch(&mut self, k: usize, j: usize) -> usize {
        let slot = j % 2;
        if self.lines[slot].k == k && self.lines[slot].j == j {
            // The previous scanline's `j0 + 1` is this one's `j0`.
            return slot;
        }
        let row = self.hold(k, j);
        let (enc, row, line) = (self.enc, &self.rows[row], &mut self.lines[slot]);
        (line.k, line.j) = (k, j);
        line.runs.clear();
        line.voxels.clear();
        // Brick-local scanline index: the same in every column, because
        // `bj` fixes the bricks' `j`-extent.
        let scan = (k - row.ks.start) * row.js.len() + (j - row.js.start);
        // Transparent length seen since the last opaque run was written.
        let mut gap = 0usize;
        for (bi, col) in row.cols.iter().enumerate() {
            let Some(handle) = col else {
                let (lo, hi) = enc.col_range(bi);
                gap += (hi - lo) as usize;
                continue;
            };
            let brick = handle.brick();
            let (runs, voxels) = brick.scan_range(scan);
            line.voxels.extend_from_slice(&brick.voxels()[voxels]);
            for pair in brick.runs()[runs].chunks(2) {
                gap += pair[0] as usize;
                let opaque = pair.get(1).copied().unwrap_or(0) as usize;
                if opaque == 0 {
                    continue;
                }
                match line.runs.last_mut() {
                    // A seam inside an opaque run: extend the run.
                    Some(last) if gap == 0 => {
                        let sum = *last as usize + opaque;
                        *last = sum.min(255) as u8;
                        if sum > 255 {
                            line.runs.extend([0, (sum - 255) as u8]);
                        }
                    }
                    _ => {
                        while gap > 255 {
                            line.runs.extend([255, 0]);
                            gap -= 255;
                        }
                        line.runs.extend([gap as u8, opaque as u8]);
                        gap = 0;
                    }
                }
            }
        }
        slot
    }

    /// The scanline [`Self::stitch`] put in `slot`.
    #[inline]
    pub(crate) fn line(&self, slot: usize) -> RleScanline<'_> {
        RleScanline {
            runs: &self.lines[slot].runs,
            voxels: &self.lines[slot].voxels,
        }
    }
}

/// What a [`BrickRowPin`] is over. It lives on a band loop's stack, one per
/// chunk, so the rows are held inline.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Pinned<'a> {
    Flat(&'a RleEncoding),
    Bricked(PinnedRows<'a>),
}

/// A band loop's hold on the voxel data under its scanlines: make one per
/// chunk, pass `&mut` it to the `*_src` compositing entry points for every
/// `(scanline, slice)` step of the chunk, drop it with the chunk.
///
/// Over a bricked source it keeps the [`BrickHandle`]s of the (at most two)
/// brick rows `(bk, bj)` that feed the current scanline, resolved — for a
/// streamed volume, looked up in the brick cache — when the chunk first
/// needs the row and kept until the chunk moves to a different brick row:
/// through all the slices of the slab `bk`, as long as the shear keeps the
/// chunk's voxel rows inside the two rows held. The cache therefore sees
/// one lookup per `(brick row, non-empty column)` a chunk enters instead of
/// one per voxel scanline and column, and a pin keeps at most `2 × nb_i`
/// bricks alive at a time, whether or not the cache has evicted them
/// meanwhile (see [`BrickHandle`]). It also keeps the step's two voxel
/// scanlines stitched contiguous out of those bricks, so the kernel walks
/// them with the flat layout's cursor, and a scanline read as row `j0 + 1`
/// of one step is not stitched again as row `j0` of the next. Over a flat
/// source it holds nothing.
pub struct BrickRowPin<'a>(pub(crate) Pinned<'a>);

impl<'a> BrickRowPin<'a> {
    /// An empty pin over `src`.
    pub fn new(src: AxisSrc<'a>) -> Self {
        BrickRowPin(match src {
            AxisSrc::Flat(enc) => Pinned::Flat(enc),
            AxisSrc::Bricked(enc) => Pinned::Bricked(PinnedRows {
                enc,
                rows: [(); 2].map(|()| PinnedRow {
                    ks: 0..0,
                    js: 0..0,
                    cols: Vec::new(),
                }),
                lines: [(); 2].map(|()| StitchedLine {
                    k: usize::MAX,
                    j: usize::MAX,
                    runs: Vec::new(),
                    voxels: Vec::new(),
                }),
            }),
        })
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::AxisSrc<'_> {}
    impl Sealed for &mut super::BrickRowPin<'_> {}
}

/// What the `*_src` compositing entry points composite from: an [`AxisSrc`]
/// by value — the one-shot form, whose pin is made, filled and dropped
/// within the single step, so a loop over a bricked source should not use
/// it — or a band loop's `&mut` [`BrickRowPin`]. Sealed; these two are all
/// there is.
pub trait StepSrc<'a>: sealed::Sealed {
    /// Runs `step` on the pin this source composites through.
    #[doc(hidden)]
    fn with_pin<R>(self, step: impl FnOnce(&mut BrickRowPin<'a>) -> R) -> R;
}

impl<'a> StepSrc<'a> for AxisSrc<'a> {
    #[inline]
    fn with_pin<R>(self, step: impl FnOnce(&mut BrickRowPin<'a>) -> R) -> R {
        step(&mut BrickRowPin::new(self))
    }
}

impl<'a> StepSrc<'a> for &mut BrickRowPin<'a> {
    #[inline]
    fn with_pin<R>(self, step: impl FnOnce(&mut BrickRowPin<'a>) -> R) -> R {
        step(self)
    }
}

/// A fully-encoded volume in either storage layout; what the renderers'
/// `*_src` entry points accept.
#[derive(Clone, Copy)]
pub enum VolumeSrc<'a> {
    /// Flat per-axis RLEs.
    Flat(&'a EncodedVolume),
    /// Bricked per-axis RLEs, optionally streamed through a byte-budgeted
    /// brick cache.
    Bricked(&'a BrickedVolume),
}

impl<'a> VolumeSrc<'a> {
    /// Original volume dimensions.
    pub fn dims(self) -> [usize; 3] {
        match self {
            VolumeSrc::Flat(e) => e.dims(),
            VolumeSrc::Bricked(b) => b.dims(),
        }
    }

    /// The encoding for principal axis `axis`.
    pub fn for_axis(self, axis: Axis) -> AxisSrc<'a> {
        match self {
            VolumeSrc::Flat(e) => AxisSrc::Flat(e.for_axis(axis)),
            VolumeSrc::Bricked(b) => AxisSrc::Bricked(b.for_axis(axis)),
        }
    }

    /// Brick-cache statistics, if this source streams from a bounded cache.
    pub fn cache_stats(self) -> Option<BrickCacheStats> {
        match self {
            VolumeSrc::Flat(_) => None,
            VolumeSrc::Bricked(b) => b.cache_stats(),
        }
    }

    /// Stable layout name, used as a cache-key discriminant and in bench
    /// row labels.
    pub fn layout_name(self) -> &'static str {
        match self {
            VolumeSrc::Flat(_) => "flat",
            VolumeSrc::Bricked(b) => {
                if b.is_streamed() {
                    "bricked-streamed"
                } else {
                    "bricked"
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swr_volume::ClassifiedVolume;

    /// Every stitched scanline is the flat encoder's scanline — the same
    /// runs, merged across brick seams and split at 255 the same way, minus
    /// the trailing transparent run — over seams inside opaque runs and
    /// inside gaps, empty bricks, one-voxel tail bricks, and runs and gaps
    /// longer than a run byte; whichever order the scanlines are asked for.
    #[test]
    fn stitched_scanlines_are_the_flat_scanlines() {
        let dims = [700, 5, 3];
        let alpha = |x: usize, y: usize, z: usize| match (y, z) {
            (0, _) => 0,
            (1, _) => 200,
            (2, _) => ((40..660).contains(&x) && x % 97 != 5) as u8 * 150,
            (3, 0) => !(3..=695).contains(&x) as u8 * 90,
            _ => ((x / 5 + y + z) % 3 < 1) as u8 * (60 + (x % 100) as u8),
        };
        let mut vox = Vec::new();
        for z in 0..dims[2] {
            for y in 0..dims[1] {
                for x in 0..dims[0] {
                    let a = alpha(x, y, z);
                    vox.push(RgbaVoxel {
                        r: a,
                        g: (x % 251) as u8,
                        b: a / 2,
                        a,
                    });
                }
            }
        }
        let enc = EncodedVolume::encode_with_threshold(&ClassifiedVolume::from_raw(dims, vox), 1);
        for brick in [1, 7, 32, 300, 1000] {
            let bricked = BrickedVolume::from_encoded(&enc, brick);
            for axis in [Axis::X, Axis::Y, Axis::Z] {
                let flat = enc.for_axis(axis);
                let [_, n_j, n_k] = flat.std_dims();
                let Pinned::Bricked(mut rows) =
                    BrickRowPin::new(AxisSrc::Bricked(bricked.for_axis(axis))).0
                else {
                    unreachable!("a bricked source pins rows");
                };
                let scanlines = (0..n_k).flat_map(|k| (0..n_j).map(move |j| (k, j)));
                for (k, j) in scanlines.clone().chain(scanlines.rev()) {
                    let slot = rows.stitch(k, j);
                    let (got, want) = (rows.line(slot), flat.scanline(k, j));
                    let label = format!("brick {brick} axis {axis:?} scanline ({k}, {j})");
                    assert_eq!(got.voxels, want.voxels, "{label}");
                    let (head, tail) = want.runs.split_at(got.runs.len().min(want.runs.len()));
                    assert_eq!(got.runs, head, "{label}");
                    let stored: usize = tail.iter().skip(1).step_by(2).map(|&r| r as usize).sum();
                    assert!(tail.len() <= 1 || stored == 0, "{label}: dropped {tail:?}");
                }
            }
        }
    }
}
