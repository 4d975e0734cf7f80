//! Central-difference gradient estimation.
//!
//! Shading and gradient-based classification both need per-voxel gradients of
//! the scalar field. Following VolPack, gradients are estimated with central
//! differences (clamped at the borders) and the *magnitude* is quantized to
//! 8 bits for use as a transfer-function axis.

use crate::grid::Volume;
use std::ops::Range;
use swr_geom::Vec3;

/// Gradient vector at voxel `(x, y, z)` by central differences.
///
/// The scale is "sample units per voxel"; border voxels use one-sided
/// differences implicitly via clamping. This is the per-voxel *definition*;
/// whole-volume passes take the same differences a row at a time from
/// `RowStencil`, which the tests hold equal to this function.
#[inline]
pub fn gradient_at(vol: &Volume, x: usize, y: usize, z: usize) -> Vec3 {
    let (xi, yi, zi) = (x as isize, y as isize, z as isize);
    let gx = vol.get_clamped(xi + 1, yi, zi) as f64 - vol.get_clamped(xi - 1, yi, zi) as f64;
    let gy = vol.get_clamped(xi, yi + 1, zi) as f64 - vol.get_clamped(xi, yi - 1, zi) as f64;
    let gz = vol.get_clamped(xi, yi, zi + 1) as f64 - vol.get_clamped(xi, yi, zi - 1) as f64;
    Vec3::new(gx * 0.5, gy * 0.5, gz * 0.5)
}

/// The samples the central-difference stencil reads along one x-row: the
/// row itself and its `y∓1` / `z∓1` neighbour rows, clamped at the volume
/// faces once per row instead of once per voxel.
pub(crate) struct RowStencil<'a> {
    row: &'a [u8],
    /// `[y-1, y+1]` rows.
    y: [&'a [u8]; 2],
    /// `[z-1, z+1]` rows.
    z: [&'a [u8]; 2],
}

impl<'a> RowStencil<'a> {
    fn new(vol: &'a Volume, y: usize, z: usize) -> Self {
        let [nx, ny, nz] = vol.dims();
        let row = |y: usize, z: usize| &vol.data()[(z * ny + y) * nx..][..nx];
        RowStencil {
            row: row(y, z),
            y: [row(y.saturating_sub(1), z), row((y + 1).min(ny - 1), z)],
            z: [row(y, z.saturating_sub(1)), row(y, (z + 1).min(nz - 1))],
        }
    }

    /// The row's own samples.
    #[inline]
    pub(crate) fn samples(&self) -> &'a [u8] {
        self.row
    }

    /// [`gradient_at`] for voxel `x` of the row. Differences of 8-bit
    /// samples are exact as integers and as `f64`s, so the two agree bit
    /// for bit.
    #[inline]
    pub(crate) fn gradient(&self, x: usize) -> Vec3 {
        let half_diff = |hi: u8, lo: u8| f64::from(i32::from(hi) - i32::from(lo)) * 0.5;
        let last = self.row.len() - 1;
        Vec3::new(
            half_diff(self.row[(x + 1).min(last)], self.row[x.saturating_sub(1)]),
            half_diff(self.y[1][x], self.y[0][x]),
            half_diff(self.z[1][x], self.z[0][x]),
        )
    }
}

/// The stencils of every row of slices `zs`, in storage order (y fastest).
pub(crate) fn row_stencils(vol: &Volume, zs: Range<usize>) -> impl Iterator<Item = RowStencil<'_>> {
    let ny = vol.dims()[1];
    zs.flat_map(move |z| (0..ny).map(move |y| RowStencil::new(vol, y, z)))
}

/// Gradient magnitude quantized to 0–255.
///
/// The largest possible central-difference magnitude for 8-bit data is
/// `127.5 * sqrt(3)`; VolPack normalizes by that bound so the full range of
/// the gradient transfer-function axis is usable.
#[inline]
pub fn gradient_magnitude_u8(g: Vec3) -> u8 {
    magnitude_u8(g.length())
}

/// [`gradient_magnitude_u8`] of a gradient whose length the caller already
/// has (shading needs the same square root).
#[inline]
pub(crate) fn magnitude_u8(len: f64) -> u8 {
    const MAX_MAG: f64 = 220.836_477_965; // 127.5 * sqrt(3)
    round_u8((len / MAX_MAG * 255.0).clamp(0.0, 255.0))
}

/// `v.round() as u8` for `v` in `[0, 255]` (or NaN, which gives 0) without
/// the libm call `round` is on baseline x86-64: truncation is exact there,
/// and so is the fraction it leaves behind.
#[inline]
pub(crate) fn round_u8(v: f64) -> u8 {
    debug_assert!(v.is_nan() || (0.0..=255.0).contains(&v), "round_u8({v})");
    let floor = v as u8;
    floor + u8::from(v - f64::from(floor) >= 0.5)
}

/// Precomputed per-voxel gradient magnitudes for a whole volume.
pub fn gradient_magnitudes(vol: &Volume) -> Vec<u8> {
    let [nx, _, nz] = vol.dims();
    let mut out = Vec::with_capacity(vol.len());
    for st in row_stencils(vol, 0..nz) {
        out.extend((0..nx).map(|x| magnitude_u8(st.gradient(x).length())));
    }
    out
}

/// Unit surface normal for shading: the negated, normalized gradient (points
/// from denser material toward emptier space). Returns `None` for flat
/// regions where the gradient is (numerically) zero.
#[inline]
pub fn normal_at(vol: &Volume, x: usize, y: usize, z: usize) -> Option<Vec3> {
    let g = gradient_at(vol, x, y, z);
    let len = g.length();
    if len < 1e-9 {
        None
    } else {
        Some(-g / len)
    }
}

/// Octahedral encoding of a unit normal into 16 bits (8 bits per component).
///
/// VolPack stores quantized normals (13 bits) with per-voxel material data so
/// that re-shading under a new light touches only lookup tables; this is the
/// same idea with a modern octahedral parameterization.
pub fn encode_normal_oct16(n: Vec3) -> u16 {
    debug_assert!(
        (n.length() - 1.0).abs() < 1e-6,
        "normal must be unit length"
    );
    let inv_l1 = 1.0 / (n.x.abs() + n.y.abs() + n.z.abs());
    let (mut u, mut v) = (n.x * inv_l1, n.y * inv_l1);
    if n.z < 0.0 {
        let (ou, ov) = (u, v);
        u = (1.0 - ov.abs()) * ou.signum();
        v = (1.0 - ou.abs()) * ov.signum();
    }
    let q = |x: f64| (((x + 1.0) * 0.5 * 255.0).round() as i64).clamp(0, 255) as u16;
    (q(u) << 8) | q(v)
}

/// Decodes an octahedral 16-bit normal back to a unit vector.
pub fn decode_normal_oct16(c: u16) -> Vec3 {
    let u = ((c >> 8) & 0xff) as f64 / 255.0 * 2.0 - 1.0;
    let v = (c & 0xff) as f64 / 255.0 * 2.0 - 1.0;
    let z = 1.0 - u.abs() - v.abs();
    let (x, y) = if z >= 0.0 {
        (u, v)
    } else {
        ((1.0 - v.abs()) * u.signum(), (1.0 - u.abs()) * v.signum())
    };
    Vec3::new(x, y, z).normalized()
}

/// Sentinel for voxels with a (numerically) zero gradient.
pub const FLAT_NORMAL: u16 = u16::MAX;

/// Precomputed per-voxel surface data: quantized normals + gradient
/// magnitudes. Computing this once lets classification (and re-lighting
/// under a new light direction) skip the gradient estimation entirely —
/// VolPack's two-stage classification.
#[derive(Debug, Clone)]
pub struct GradientField {
    dims: [usize; 3],
    normals: Vec<u16>,
    magnitudes: Vec<u8>,
}

impl GradientField {
    /// Computes the field for a raw volume.
    pub fn compute(vol: &Volume) -> Self {
        let [nx, ny, nz] = vol.dims();
        let mut normals = Vec::with_capacity(vol.len());
        let mut magnitudes = Vec::with_capacity(vol.len());
        for st in row_stencils(vol, 0..nz) {
            for x in 0..nx {
                let g = st.gradient(x);
                let len = g.length();
                magnitudes.push(magnitude_u8(len));
                normals.push(if len < 1e-9 {
                    FLAT_NORMAL
                } else {
                    encode_normal_oct16(-g / len)
                });
            }
        }
        GradientField {
            dims: [nx, ny, nz],
            normals,
            magnitudes,
        }
    }

    /// Dimensions the field was computed for.
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Quantized gradient magnitude at a voxel.
    #[inline]
    pub fn magnitude(&self, x: usize, y: usize, z: usize) -> u8 {
        self.magnitudes[(z * self.dims[1] + y) * self.dims[0] + x]
    }

    /// Decoded unit normal at a voxel, or `None` where the field is flat.
    #[inline]
    pub fn normal(&self, x: usize, y: usize, z: usize) -> Option<Vec3> {
        let c = self.normals[(z * self.dims[1] + y) * self.dims[0] + x];
        (c != FLAT_NORMAL).then(|| decode_normal_oct16(c))
    }

    /// Storage footprint in bytes (3 per voxel).
    pub fn storage_bytes(&self) -> usize {
        self.normals.len() * 2 + self.magnitudes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_x() -> Volume {
        Volume::from_fn([8, 4, 4], |x, _, _| (x * 10) as u8)
    }

    #[test]
    fn gradient_of_linear_ramp() {
        let v = ramp_x();
        let g = gradient_at(&v, 4, 2, 2);
        assert!((g.x - 10.0).abs() < 1e-12);
        assert!(g.y.abs() < 1e-12 && g.z.abs() < 1e-12);
    }

    #[test]
    fn gradient_at_border_uses_one_sided_difference() {
        let v = ramp_x();
        // At x = 0 the clamped central difference halves the slope.
        let g = gradient_at(&v, 0, 1, 1);
        assert!((g.x - 5.0).abs() < 1e-12);
    }

    #[test]
    fn magnitude_quantization_monotone_and_bounded() {
        let small = gradient_magnitude_u8(Vec3::new(1.0, 0.0, 0.0));
        let big = gradient_magnitude_u8(Vec3::new(100.0, 0.0, 0.0));
        let max = gradient_magnitude_u8(Vec3::new(127.5, 127.5, 127.5));
        assert!(small < big);
        assert_eq!(max, 255);
        assert_eq!(gradient_magnitude_u8(Vec3::ZERO), 0);
    }

    #[test]
    fn normal_points_against_gradient() {
        let v = ramp_x();
        let n = normal_at(&v, 4, 2, 2).unwrap();
        assert!((n.x + 1.0).abs() < 1e-12, "normal should be -x: {n:?}");
        assert!((n.length() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn flat_region_has_no_normal() {
        let v = Volume::from_fn([4, 4, 4], |_, _, _| 7);
        assert!(normal_at(&v, 2, 2, 2).is_none());
    }

    #[test]
    fn octahedral_round_trip_is_tight() {
        // Quantized normals must decode within ~1 degree of the original.
        let mut worst = 0.0f64;
        for i in 0..200 {
            let a = i as f64 * 0.61803;
            let b = i as f64 * 0.38196;
            let n = Vec3::new(a.sin() * b.cos(), a.sin() * b.sin(), a.cos()).normalized();
            let back = decode_normal_oct16(encode_normal_oct16(n));
            worst = worst.max(n.dot(back).clamp(-1.0, 1.0).acos());
        }
        assert!(worst < 0.02, "worst quantization error {worst} rad");
    }

    #[test]
    fn octahedral_axes_exact() {
        for n in [Vec3::X, Vec3::Y, Vec3::Z, -Vec3::Z] {
            let back = decode_normal_oct16(encode_normal_oct16(n));
            assert!((back - n).length() < 1e-2, "{n:?} -> {back:?}");
        }
    }

    #[test]
    fn gradient_field_matches_direct_computation() {
        let v = crate::phantom::Phantom::MriBrain.generate([12, 12, 10], 3);
        let f = GradientField::compute(&v);
        assert_eq!(f.dims(), v.dims());
        for &(x, y, z) in &[(0usize, 0usize, 0usize), (6, 6, 5), (11, 11, 9)] {
            assert_eq!(
                f.magnitude(x, y, z),
                gradient_magnitude_u8(gradient_at(&v, x, y, z))
            );
            match (f.normal(x, y, z), normal_at(&v, x, y, z)) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert!(a.dot(b) > 0.999, "normal mismatch at ({x},{y},{z})")
                }
                other => panic!("flat-mismatch at ({x},{y},{z}): {other:?}"),
            }
        }
        assert_eq!(f.storage_bytes(), v.len() * 3);
    }

    #[test]
    fn round_u8_is_round_on_its_domain() {
        // Every integer and half-integer of [0, 255] with its two f64
        // neighbours — the only places truncate-and-compare could part from
        // `round()` — plus NaN.
        for half_steps in 0..=510u32 {
            let v = f64::from(half_steps) * 0.5;
            let below = f64::from_bits(v.to_bits().saturating_sub(1));
            let above = f64::from_bits(v.to_bits() + 1).min(255.0);
            for x in [below, v, above] {
                assert_eq!(round_u8(x), x.round() as u8, "{x:e}");
            }
        }
        assert_eq!(round_u8(f64::NAN), 0);
        assert_eq!(round_u8(-0.0), 0);
    }

    #[test]
    fn row_stencil_equals_the_per_voxel_definition() {
        // Every voxel, 1-wide axes included: the clamped rows must pick the
        // very samples `get_clamped` picks.
        for dims in [[7, 5, 4], [1, 5, 4], [7, 1, 4], [7, 5, 1], [1, 1, 1]] {
            let v = Volume::from_fn(dims, |x, y, z| (x * 37 + y * 91 + z * 53 + x * y * z) as u8);
            let mut stencils = row_stencils(&v, 0..dims[2]);
            for z in 0..dims[2] {
                for y in 0..dims[1] {
                    let st = stencils.next().unwrap();
                    assert_eq!(st.samples(), &v.data()[v.index(0, y, z)..][..dims[0]]);
                    for x in 0..dims[0] {
                        assert_eq!(st.gradient(x), gradient_at(&v, x, y, z), "{dims:?}");
                    }
                }
            }
            assert!(stencils.next().is_none());
        }
    }

    #[test]
    fn gradient_magnitudes_covers_volume() {
        let v = ramp_x();
        let mags = gradient_magnitudes(&v);
        assert_eq!(mags.len(), v.len());
        // Interior voxels of the ramp all share one magnitude.
        let interior = mags[v.index(4, 2, 2)];
        assert_eq!(mags[v.index(3, 1, 1)], interior);
    }
}
