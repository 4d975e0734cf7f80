//! Run-length encoding of classified volumes.
//!
//! The shear-warp algorithm's speed comes from two coherence structures; this
//! module implements the volume-side one. For **each of the three principal
//! axes** the classified volume is stored as:
//!
//! * `runs` — a stream of `u8` run lengths, alternating *transparent* /
//!   *non-transparent*, starting with a (possibly zero-length) transparent
//!   run per scanline. Runs longer than 255 are split by interleaving
//!   zero-length runs of the other kind, exactly as in VolPack.
//! * `voxels` — the non-transparent voxels, densely packed in scanline order.
//! * per-scanline offsets into both streams, so a scanline `(k, j)` can be
//!   traversed in storage order without touching any transparent voxel.
//!
//! Three encodings are kept (one per axis) because the factorization may pick
//! any axis as the slice axis; this trades 3× the (heavily compressed)
//! storage for never having to re-encode between frames — the same trade
//! VolPack makes.

use crate::classify::{ClassifiedVolume, RgbaVoxel};
use crate::TRANSPARENT_THRESHOLD;
use swr_geom::Axis;

/// Borrowed view of one run-length encoded scanline.
#[derive(Debug, Clone, Copy)]
pub struct RleScanline<'a> {
    /// Alternating transparent/non-transparent run lengths; the first entry
    /// is a transparent count (possibly 0).
    pub runs: &'a [u8],
    /// The scanline's non-transparent voxels, packed.
    pub voxels: &'a [RgbaVoxel],
}

impl<'a> RleScanline<'a> {
    /// Iterates `(transparent_len, non_transparent_voxels)` segments with the
    /// 255-splits merged back together.
    pub fn segments(&self) -> SegmentIter<'a> {
        SegmentIter {
            runs: self.runs,
            voxels: self.voxels,
            run_pos: 0,
            voxel_pos: 0,
        }
    }

    /// Reconstructs the dense scanline (transparent gaps become
    /// [`RgbaVoxel::TRANSPARENT`]). `width` is the full scanline length.
    pub fn decode(&self, width: usize) -> Vec<RgbaVoxel> {
        let mut out = Vec::with_capacity(width);
        for (skip, vox) in self.segments() {
            out.resize(out.len() + skip, RgbaVoxel::TRANSPARENT);
            out.extend_from_slice(vox);
        }
        assert!(
            out.len() <= width,
            "decoded scanline longer than declared width"
        );
        out.resize(width, RgbaVoxel::TRANSPARENT);
        out
    }
}

/// Iterator over merged `(skip, voxels)` segments of a scanline.
pub struct SegmentIter<'a> {
    runs: &'a [u8],
    voxels: &'a [RgbaVoxel],
    run_pos: usize,
    voxel_pos: usize,
}

impl<'a> Iterator for SegmentIter<'a> {
    type Item = (usize, &'a [RgbaVoxel]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.run_pos >= self.runs.len() {
            return None;
        }
        // Merge consecutive transparent runs separated by zero-length
        // non-transparent runs (the 255-split convention).
        let mut skip = 0usize;
        loop {
            skip += self.runs[self.run_pos] as usize;
            self.run_pos += 1;
            if self.run_pos >= self.runs.len() {
                return if skip > 0 { Some((skip, &[])) } else { None };
            }
            if self.runs[self.run_pos] != 0 || self.run_pos + 1 >= self.runs.len() {
                break;
            }
            // Zero-length opaque run: merge the next transparent run.
            self.run_pos += 1;
        }
        // Merge consecutive non-transparent runs split by zero transparents.
        let mut count = 0usize;
        loop {
            count += self.runs[self.run_pos] as usize;
            self.run_pos += 1;
            if self.run_pos + 1 < self.runs.len() && self.runs[self.run_pos] == 0 {
                self.run_pos += 1; // zero-length transparent; keep merging
            } else {
                break;
            }
        }
        let vox = &self.voxels[self.voxel_pos..self.voxel_pos + count];
        self.voxel_pos += count;
        Some((skip, vox))
    }
}

/// Run-length encoding of a classified volume along one principal axis.
#[derive(Debug, Clone)]
pub struct RleEncoding {
    axis: Axis,
    std_dims: [usize; 3],
    runs: Vec<u8>,
    voxels: Vec<RgbaVoxel>,
    /// `scanline_run_start[k * n_j + j]` — offset of scanline `(k, j)` in
    /// `runs`; has `n_k * n_j + 1` entries.
    scanline_run_start: Vec<u32>,
    /// Offset of scanline `(k, j)` in `voxels`; `n_k * n_j + 1` entries.
    scanline_voxel_start: Vec<u32>,
}

impl RleEncoding {
    /// Encodes `vol` with slice axis `axis`.
    ///
    /// Standard (permuted) coordinates: with `perm = axis.permutation()`,
    /// standard point `(i, j, k)` reads object voxel whose `perm[0]`-th
    /// coordinate is `i`, etc. A scanline holds `n_i` voxels at fixed
    /// `(j, k)`.
    pub fn encode(vol: &ClassifiedVolume, axis: Axis, threshold: u8) -> Self {
        let perm = axis.permutation();
        let dims = vol.dims();
        let std_dims = [dims[perm[0]], dims[perm[1]], dims[perm[2]]];
        let [n_i, n_j, n_k] = std_dims;

        let mut runs = Vec::new();
        let mut voxels = Vec::new();
        let mut scanline_run_start = Vec::with_capacity(n_k * n_j + 1);
        let mut scanline_voxel_start = Vec::with_capacity(n_k * n_j + 1);

        // A scanline is a strided walk through the x-fastest voxel array:
        // standard axis `i` advances by object axis `perm[0]`'s stride.
        let obj_stride = [1, dims[0], dims[0] * dims[1]];
        let [s_i, s_j, s_k] = perm.map(|a| obj_stride[a]);
        let data = vol.voxels();
        for k in 0..n_k {
            for j in 0..n_j {
                scanline_run_start.push(runs.len() as u32);
                scanline_voxel_start.push(voxels.len() as u32);
                let base = k * s_k + j * s_j;
                let at = |i: usize| data[base + i * s_i];

                // Walk the scanline emitting alternating runs.
                let mut i = 0;
                loop {
                    // Transparent run.
                    let t_start = i;
                    while i < n_i && at(i).a < threshold {
                        i += 1;
                    }
                    push_split_run(&mut runs, i - t_start);
                    if i >= n_i {
                        break;
                    }
                    // Non-transparent run.
                    let o_start = i;
                    while i < n_i && at(i).a >= threshold {
                        voxels.push(at(i));
                        i += 1;
                    }
                    push_split_run(&mut runs, i - o_start);
                    if i >= n_i {
                        break;
                    }
                }
            }
        }
        scanline_run_start.push(runs.len() as u32);
        scanline_voxel_start.push(voxels.len() as u32);

        RleEncoding {
            axis,
            std_dims,
            runs,
            voxels,
            scanline_run_start,
            scanline_voxel_start,
        }
    }

    /// The slice axis this encoding serves.
    pub fn axis(&self) -> Axis {
        self.axis
    }

    /// Dimensions in standard (permuted) order `[n_i, n_j, n_k]`.
    pub fn std_dims(&self) -> [usize; 3] {
        self.std_dims
    }

    /// First and last voxel scanline `j` of slice `k` that contain any
    /// non-transparent voxel, or `None` for an empty slice. Drives the
    /// paper's empty-region optimization (§4.2): the new algorithm composites
    /// only the occupied band of the intermediate image.
    pub fn slice_nonempty_bounds(&self, k: usize) -> Option<(usize, usize)> {
        let n_j = self.std_dims[1];
        let base = k * n_j;
        let nonempty = |j: usize| {
            self.scanline_voxel_start[base + j + 1] > self.scanline_voxel_start[base + j]
        };
        let lo = (0..n_j).find(|&j| nonempty(j))?;
        let hi = (0..n_j).rfind(|&j| nonempty(j))?;
        Some((lo, hi))
    }

    /// Addresses of the per-scanline offset-table entries for `(k, j)` — the
    /// loads a renderer performs to locate a scanline, exposed for memory
    /// tracing.
    #[inline]
    pub fn scanline_index_addrs(&self, k: usize, j: usize) -> (usize, usize) {
        let idx = k * self.std_dims[1] + j;
        (
            &self.scanline_run_start[idx] as *const u32 as usize,
            &self.scanline_voxel_start[idx] as *const u32 as usize,
        )
    }

    /// Run-length view of scanline `(k, j)`.
    #[inline]
    pub fn scanline(&self, k: usize, j: usize) -> RleScanline<'_> {
        let idx = k * self.std_dims[1] + j;
        let r0 = self.scanline_run_start[idx] as usize;
        let r1 = self.scanline_run_start[idx + 1] as usize;
        let v0 = self.scanline_voxel_start[idx] as usize;
        let v1 = self.scanline_voxel_start[idx + 1] as usize;
        RleScanline {
            runs: &self.runs[r0..r1],
            voxels: &self.voxels[v0..v1],
        }
    }

    /// Total bytes used by the encoding (runs + voxels + offsets) — the
    /// "greatly compressed" storage the paper contrasts with the raw volume.
    pub fn storage_bytes(&self) -> usize {
        self.runs.len()
            + self.voxels.len() * std::mem::size_of::<RgbaVoxel>()
            + (self.scanline_run_start.len() + self.scanline_voxel_start.len()) * 4
    }

    /// Number of stored (non-transparent) voxels.
    pub fn stored_voxels(&self) -> usize {
        self.voxels.len()
    }

    /// Base address of the run stream (for memory tracing).
    pub fn runs_base_addr(&self) -> usize {
        self.runs.as_ptr() as usize
    }

    /// Base address of the voxel stream (for memory tracing).
    pub fn voxels_base_addr(&self) -> usize {
        self.voxels.as_ptr() as usize
    }
}

/// Pushes a run of `len`, splitting into ≤255 chunks interleaved with
/// zero-length runs of the other kind. Always emits at least one entry so the
/// transparent/non-transparent alternation stays in phase.
fn push_split_run(runs: &mut Vec<u8>, len: usize) {
    let mut remaining = len;
    loop {
        let chunk = remaining.min(255);
        runs.push(chunk as u8);
        remaining -= chunk;
        if remaining == 0 {
            break;
        }
        runs.push(0); // zero-length run of the other kind keeps alternation
    }
}

/// A classified volume encoded along all three principal axes, plus summary
/// statistics. This is the input the renderers take.
#[derive(Debug, Clone)]
pub struct EncodedVolume {
    dims: [usize; 3],
    encodings: [RleEncoding; 3],
}

impl EncodedVolume {
    /// Encodes a classified volume along X, Y and Z with the default
    /// transparency threshold.
    pub fn encode(vol: &ClassifiedVolume) -> Self {
        Self::encode_with_threshold(vol, TRANSPARENT_THRESHOLD)
    }

    /// Encodes with an explicit transparency threshold.
    pub fn encode_with_threshold(vol: &ClassifiedVolume, threshold: u8) -> Self {
        EncodedVolume {
            dims: vol.dims(),
            encodings: [
                RleEncoding::encode(vol, Axis::X, threshold),
                RleEncoding::encode(vol, Axis::Y, threshold),
                RleEncoding::encode(vol, Axis::Z, threshold),
            ],
        }
    }

    /// [`Self::encode`] with the three per-axis encodings built on separate
    /// threads. Identical output.
    pub fn encode_parallel(vol: &ClassifiedVolume) -> Self {
        let threshold = TRANSPARENT_THRESHOLD;
        let mut slots: [Option<RleEncoding>; 3] = [None, None, None];
        crossbeam::scope(|s| {
            for (slot, axis) in slots.iter_mut().zip([Axis::X, Axis::Y, Axis::Z]) {
                s.spawn(move |_| {
                    *slot = Some(RleEncoding::encode(vol, axis, threshold));
                });
            }
        })
        .expect("encoding workers must not panic");
        let [x, y, z] = slots;
        EncodedVolume {
            dims: vol.dims(),
            encodings: [
                x.expect("X encoding built"),
                y.expect("Y encoding built"),
                z.expect("Z encoding built"),
            ],
        }
    }

    /// Original volume dimensions `[nx, ny, nz]`.
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// The encoding for a given principal axis.
    #[inline]
    pub fn for_axis(&self, axis: Axis) -> &RleEncoding {
        &self.encodings[axis.index()]
    }

    /// Total storage across all three encodings, in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.encodings.iter().map(|e| e.storage_bytes()).sum()
    }

    /// Fraction of voxels *not* stored (the transparency fraction the paper
    /// quotes as 70–95 % for medical data).
    pub fn transparent_fraction(&self) -> f64 {
        let total = self.dims[0] * self.dims[1] * self.dims[2];
        1.0 - self.encodings[0].stored_voxels() as f64 / total as f64
    }

    /// Compression ratio vs the dense classified volume (per encoding copy).
    pub fn compression_ratio(&self) -> f64 {
        let dense = self.dims[0] * self.dims[1] * self.dims[2] * 4;
        dense as f64 / (self.storage_bytes() as f64 / 3.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::ClassifiedVolume;

    fn vox(a: u8) -> RgbaVoxel {
        RgbaVoxel {
            r: a,
            g: a,
            b: a,
            a,
        }
    }

    /// Builds a classified volume from an opacity function.
    fn vol_from(dims: [usize; 3], f: impl Fn(usize, usize, usize) -> u8) -> ClassifiedVolume {
        let mut v = Vec::new();
        for z in 0..dims[2] {
            for y in 0..dims[1] {
                for x in 0..dims[0] {
                    v.push(vox(f(x, y, z)));
                }
            }
        }
        ClassifiedVolume::from_raw(dims, v)
    }

    #[test]
    fn encode_empty_volume() {
        let v = vol_from([8, 4, 2], |_, _, _| 0);
        let e = RleEncoding::encode(&v, Axis::Z, 1);
        assert_eq!(e.stored_voxels(), 0);
        let sl = e.scanline(0, 0);
        let dec = sl.decode(8);
        assert!(dec.iter().all(|v| v.a == 0));
    }

    #[test]
    fn encode_solid_volume() {
        let v = vol_from([8, 4, 2], |_, _, _| 200);
        let e = RleEncoding::encode(&v, Axis::Z, 1);
        assert_eq!(e.stored_voxels(), 8 * 4 * 2);
        let sl = e.scanline(1, 3);
        // First run is a zero-length transparent run.
        assert_eq!(sl.runs[0], 0);
        assert_eq!(sl.runs[1], 8);
        assert_eq!(sl.voxels.len(), 8);
    }

    #[test]
    fn decode_round_trip_mixed_scanline() {
        let v = vol_from([16, 1, 1], |x, _, _| {
            if (4..7).contains(&x) || x == 12 {
                99
            } else {
                0
            }
        });
        let e = RleEncoding::encode(&v, Axis::Z, 1);
        let dec = e.scanline(0, 0).decode(16);
        for (x, d) in dec.iter().enumerate() {
            let expect = if (4..7).contains(&x) || x == 12 {
                99
            } else {
                0
            };
            assert_eq!(d.a, expect, "at {x}");
        }
    }

    #[test]
    fn long_runs_are_split_and_merged_back() {
        // 600 transparent, 300 opaque, 100 transparent.
        let v = vol_from(
            [1000, 1, 1],
            |x, _, _| if (600..900).contains(&x) { 50 } else { 0 },
        );
        let e = RleEncoding::encode(&v, Axis::Z, 1);
        let sl = e.scanline(0, 0);
        // The split convention shows up as multiple run entries.
        assert!(sl.runs.len() > 3, "long runs must be split");
        let segs: Vec<_> = sl.segments().map(|(s, v)| (s, v.len())).collect();
        assert_eq!(segs, vec![(600, 300), (100, 0)]);
        let dec = sl.decode(1000);
        assert_eq!(dec.iter().filter(|v| v.a > 0).count(), 300);
    }

    #[test]
    fn threshold_controls_what_is_stored() {
        let v = vol_from([10, 1, 1], |x, _, _| x as u8 * 20);
        let lo = RleEncoding::encode(&v, Axis::Z, 1);
        let hi = RleEncoding::encode(&v, Axis::Z, 100);
        assert!(hi.stored_voxels() < lo.stored_voxels());
        assert_eq!(
            hi.stored_voxels(),
            (0..10).filter(|&x| x * 20 >= 100).count()
        );
    }

    #[test]
    fn three_axis_encodings_agree_on_totals() {
        let v = vol_from(
            [6, 5, 4],
            |x, y, z| if (x + y + z) % 3 == 0 { 77 } else { 0 },
        );
        let enc = EncodedVolume::encode_with_threshold(&v, 1);
        let n = enc.for_axis(Axis::X).stored_voxels();
        assert_eq!(enc.for_axis(Axis::Y).stored_voxels(), n);
        assert_eq!(enc.for_axis(Axis::Z).stored_voxels(), n);
    }

    #[test]
    fn axis_encodings_index_correct_voxels() {
        // Value identifies position; check axis X scanlines read (y,z) planes.
        let dims = [4, 3, 2];
        let v = vol_from(dims, |x, y, z| (1 + x + 10 * y + 100 * z.min(1)) as u8);
        // Axis X: perm (i,j,k) = (y,z,x); scanline (k=x, j=z) over i=y.
        let e = RleEncoding::encode(&v, Axis::X, 1);
        assert_eq!(e.std_dims(), [3, 2, 4]);
        let sl = e.scanline(2, 1); // x = 2, z = 1
        let dec = sl.decode(3);
        for (y, d) in dec.iter().enumerate() {
            assert_eq!(d.a, (1 + 2 + 10 * y + 100) as u8);
        }
    }

    #[test]
    fn transparent_fraction_and_compression() {
        let v = vol_from([10, 10, 10], |x, _, _| if x == 0 { 255 } else { 0 });
        let enc = EncodedVolume::encode(&v);
        assert!((enc.transparent_fraction() - 0.9).abs() < 1e-12);
        assert!(enc.compression_ratio() > 1.0);
    }

    #[test]
    fn scanline_views_are_consistent_with_offsets() {
        let v = vol_from([9, 4, 3], |x, y, z| ((x * y * z) % 5) as u8 * 60);
        let e = RleEncoding::encode(&v, Axis::Y, 1);
        let [n_i, n_j, n_k] = e.std_dims();
        let mut total = 0;
        for k in 0..n_k {
            for j in 0..n_j {
                let sl = e.scanline(k, j);
                let dec = sl.decode(n_i);
                assert_eq!(dec.len(), n_i);
                total += sl.voxels.len();
            }
        }
        assert_eq!(total, e.stored_voxels());
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use crate::classify::classify;
    use crate::phantom::Phantom;
    use crate::transfer::TransferFunction;

    #[test]
    fn parallel_encoding_is_identical() {
        let v = Phantom::MriBrain.generate([18, 22, 12], 8);
        let c = classify(&v, &TransferFunction::mri_default());
        let serial = EncodedVolume::encode(&c);
        let parallel = EncodedVolume::encode_parallel(&c);
        for axis in [swr_geom::Axis::X, swr_geom::Axis::Y, swr_geom::Axis::Z] {
            let a = serial.for_axis(axis);
            let b = parallel.for_axis(axis);
            assert_eq!(a.std_dims(), b.std_dims());
            assert_eq!(a.stored_voxels(), b.stored_voxels());
            let [n_i, n_j, n_k] = a.std_dims();
            for k in 0..n_k {
                for j in 0..n_j {
                    assert_eq!(
                        a.scanline(k, j).decode(n_i),
                        b.scanline(k, j).decode(n_i),
                        "axis {axis:?} scanline ({k},{j})"
                    );
                }
            }
        }
    }
}
