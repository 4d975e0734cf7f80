//! Classification and shading: raw samples → RGBA voxels.
//!
//! Classification happens once per transfer-function change (not per frame),
//! exactly as in VolPack's pre-classified rendering mode that the paper's
//! renderers use: each voxel's opacity and *shaded* color are precomputed, so
//! the per-frame compositing loop only resamples and blends.

use crate::gradient::{magnitude_u8, round_u8, row_stencils, GradientField};
use crate::grid::Volume;
use crate::transfer::TransferFunction;
use std::ops::Range;
use swr_geom::Vec3;

/// A classified voxel: color premultiplied by opacity, plus opacity, each
/// quantized to 8 bits. 4 bytes per voxel, matching the compact layouts the
/// paper's locality analysis depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(C)]
pub struct RgbaVoxel {
    /// Premultiplied red.
    pub r: u8,
    /// Premultiplied green.
    pub g: u8,
    /// Premultiplied blue.
    pub b: u8,
    /// Opacity.
    pub a: u8,
}

impl RgbaVoxel {
    /// Fully transparent voxel.
    pub const TRANSPARENT: RgbaVoxel = RgbaVoxel {
        r: 0,
        g: 0,
        b: 0,
        a: 0,
    };

    /// Whether the voxel is below the given opacity threshold.
    #[inline]
    pub fn is_transparent(&self, threshold: u8) -> bool {
        self.a < threshold
    }
}

/// A dense volume of classified voxels, same layout as [`Volume`]
/// (x-fastest).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassifiedVolume {
    dims: [usize; 3],
    voxels: Vec<RgbaVoxel>,
}

impl ClassifiedVolume {
    /// Dimensions `[nx, ny, nz]`.
    #[inline]
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// All voxels, x-fastest.
    #[inline]
    pub fn voxels(&self) -> &[RgbaVoxel] {
        &self.voxels
    }

    /// Voxel at `(x, y, z)`.
    #[inline]
    pub fn get(&self, x: usize, y: usize, z: usize) -> RgbaVoxel {
        debug_assert!(x < self.dims[0] && y < self.dims[1] && z < self.dims[2]);
        self.voxels[(z * self.dims[1] + y) * self.dims[0] + x]
    }

    /// Builds a classified volume directly from voxels (mainly for tests).
    pub fn from_raw(dims: [usize; 3], voxels: Vec<RgbaVoxel>) -> Self {
        assert_eq!(voxels.len(), dims[0] * dims[1] * dims[2]);
        ClassifiedVolume { dims, voxels }
    }

    /// Fraction of voxels whose opacity is below `threshold`.
    pub fn transparent_fraction(&self, threshold: u8) -> f64 {
        let t = self
            .voxels
            .iter()
            .filter(|v| v.is_transparent(threshold))
            .count();
        t as f64 / self.voxels.len() as f64
    }
}

/// The classification pipeline with its precomputed tables.
struct Classifier<'a> {
    tf: &'a TransferFunction,
    op_val: [f64; 256],
    op_grad: [f64; 256],
    /// `dead[s]`: no gradient magnitude lifts sample value `s` to
    /// [`ALPHA_CUTOFF`], so a voxel holding `s` is transparent whatever its
    /// neighbours are.
    dead: [bool; 256],
    red: [f64; 256],
    green: [f64; 256],
    blue: [f64; 256],
    light: Vec3,
    half: Vec3,
}

/// Opacities below this never get stored (matches the RLE threshold after
/// quantization).
const ALPHA_CUTOFF: f64 = 1.0 / 512.0;

/// A `[0, 1]` intensity as a byte.
#[inline]
fn quantize(v: f64) -> u8 {
    round_u8(v.clamp(0.0, 1.0) * 255.0)
}

impl<'a> Classifier<'a> {
    fn new(tf: &'a TransferFunction) -> Self {
        let light = Vec3::from_array(tf.light_dir).normalized();
        // Blinn-Phong halfway vector for a viewer along -z (the
        // classification bakes shading; the paper's renderers re-classify
        // only when the transfer function changes, not per frame).
        let view = Vec3::new(0.0, 0.0, -1.0);
        let op_val = tf.opacity_value.to_table();
        let op_grad = tf.opacity_gradient.to_table();
        // The very product and comparison `slab` applies per voxel, tried
        // against every gradient entry: exact for any ramp, since a NaN
        // product (a NaN knot, or 0 x inf) compares false and stays live.
        let dead = std::array::from_fn(|s| op_grad.iter().all(|&g| op_val[s] * g < ALPHA_CUTOFF));
        Classifier {
            tf,
            op_val,
            op_grad,
            dead,
            red: tf.red.to_table(),
            green: tf.green.to_table(),
            blue: tf.blue.to_table(),
            light,
            half: (light + view).normalized(),
        }
    }

    /// The stored voxel for sample value `s` at opacity `alpha` on a surface
    /// facing `normal` (`None` where the data is flat): material colour
    /// under Phong lighting, premultiplied and quantized.
    #[inline]
    fn shade(&self, s: u8, alpha: f64, normal: Option<Vec3>) -> RgbaVoxel {
        let tf = self.tf;
        let (diff, spec) = match normal {
            Some(n) => (
                n.dot(self.light).max(0.0),
                n.dot(self.half).max(0.0).powf(tf.shininess),
            ),
            None => (0.0, 0.0),
        };
        let lum = tf.ambient + tf.diffuse * diff;
        let channel = |c: f64| quantize((c * lum + tf.specular * spec) * alpha);
        RgbaVoxel {
            r: channel(self.red[s as usize]),
            g: channel(self.green[s as usize]),
            b: channel(self.blue[s as usize]),
            a: quantize(alpha),
        }
    }

    /// Classifies slices `zs` of `vol` into `out`, which holds exactly those
    /// slices and arrives all-transparent: only voxels that survive both
    /// the dead-value table and the opacity cutoff are written.
    fn slab(&self, vol: &Volume, zs: Range<usize>, out: &mut [RgbaVoxel]) {
        let nx = vol.dims()[0];
        for (st, out_row) in row_stencils(vol, zs).zip(out.chunks_mut(nx)) {
            for (x, (&s, o)) in st.samples().iter().zip(out_row).enumerate() {
                if self.dead[s as usize] {
                    continue;
                }
                let g = st.gradient(x);
                let glen = g.length();
                let alpha = self.op_val[s as usize] * self.op_grad[magnitude_u8(glen) as usize];
                if alpha < ALPHA_CUTOFF {
                    continue;
                }
                *o = self.shade(s, alpha, (glen > 1e-9).then(|| -g / glen));
            }
        }
    }
}

/// Classifies and shades a raw volume, single-threaded.
///
/// Opacity is `opacity_value(sample) * opacity_gradient(|∇sample|)`; color is
/// the material ramp modulated by Phong shading against the transfer
/// function's light direction (headlight-style specular), then premultiplied
/// by opacity and quantized.
///
/// One kernel does the work, for this function and for
/// [`classify_parallel`]. It walks the raw samples a row at a time, takes
/// central differences from the row and its four neighbour rows (clamped at
/// the faces once per row), and before any gradient work drops every voxel
/// whose sample value is *dead*: a 256-entry table, built per call from the
/// two opacity ramps, marks the values no gradient magnitude can lift to a
/// storable opacity. On medical-style data that is 75–90 % of the voxels
/// (air, and soft tissue under a bone window), so the cost of a
/// transfer-function edit follows the visible material, not the volume. The
/// skip is exact for any ramp; the output does not depend on it.
pub fn classify(vol: &Volume, tf: &TransferFunction) -> ClassifiedVolume {
    let mut voxels = vec![RgbaVoxel::TRANSPARENT; vol.len()];
    Classifier::new(tf).slab(vol, 0..vol.dims()[2], &mut voxels);
    ClassifiedVolume {
        dims: vol.dims(),
        voxels,
    }
}

/// Multithreaded [`classify`]: the same kernel over slabs of z-slices, one
/// worker thread per slab. The result is identical to the serial version.
pub fn classify_parallel(vol: &Volume, tf: &TransferFunction, nthreads: usize) -> ClassifiedVolume {
    let [nx, ny, nz] = vol.dims();
    let nthreads = nthreads.clamp(1, nz);
    if nthreads == 1 {
        return classify(vol, tf);
    }
    let c = Classifier::new(tf);
    let mut voxels = vec![RgbaVoxel::TRANSPARENT; vol.len()];
    let slab = nz.div_ceil(nthreads);
    std::thread::scope(|s| {
        for (t, chunk) in voxels.chunks_mut(nx * ny * slab).enumerate() {
            let c = &c;
            s.spawn(move || c.slab(vol, t * slab..(t * slab + slab).min(nz), chunk));
        }
    });
    ClassifiedVolume {
        dims: [nx, ny, nz],
        voxels,
    }
}

/// Classification from a precomputed [`GradientField`] — VolPack's two-stage
/// pipeline: gradients (the expensive part) are computed once per volume;
/// changing the transfer function or the light direction then re-shades from
/// the stored quantized normals without touching the raw data's neighbors.
///
/// Opacities match [`classify`] exactly (magnitudes are stored at the same
/// quantization); colors differ by at most a few quantization steps from the
/// 16-bit normal encoding.
pub fn classify_with_field(
    vol: &Volume,
    field: &GradientField,
    tf: &TransferFunction,
) -> ClassifiedVolume {
    assert_eq!(field.dims(), vol.dims(), "field must match the volume");
    let [nx, ny, nz] = vol.dims();
    let c = Classifier::new(tf);
    let mut voxels = Vec::with_capacity(vol.len());
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let s = vol.get(x, y, z);
                let gm = field.magnitude(x, y, z);
                let alpha = c.op_val[s as usize] * c.op_grad[gm as usize];
                voxels.push(if alpha < ALPHA_CUTOFF {
                    RgbaVoxel::TRANSPARENT
                } else {
                    c.shade(s, alpha, field.normal(x, y, z))
                });
            }
        }
    }
    ClassifiedVolume {
        dims: [nx, ny, nz],
        voxels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transfer::TransferFunction;

    #[test]
    fn empty_volume_classifies_fully_transparent() {
        let v = Volume::zeros([8, 8, 8]);
        let c = classify(&v, &TransferFunction::mri_default());
        assert_eq!(c.transparent_fraction(1), 1.0);
    }

    #[test]
    fn solid_block_interior_and_surface() {
        // A block of high-value material in air.
        let v = Volume::from_fn([16, 16, 16], |x, y, z| {
            if (4..12).contains(&x) && (4..12).contains(&y) && (4..12).contains(&z) {
                200
            } else {
                0
            }
        });
        let c = classify(&v, &TransferFunction::mri_default());
        // Air stays transparent.
        assert!(c.get(0, 0, 0).is_transparent(1));
        // Boundary voxels (high value, high gradient) are strongly opaque.
        assert!(c.get(4, 8, 8).a > 128, "surface voxel should be opaque");
        // Premultiplication invariant: color channels never exceed alpha
        // by more than shading can justify (specular can push them slightly,
        // but a transparent voxel has zero color).
        for vx in c.voxels() {
            if vx.a == 0 {
                assert_eq!((vx.r, vx.g, vx.b), (0, 0, 0));
            }
        }
    }

    #[test]
    fn opacity_is_product_of_value_and_gradient_ramps() {
        // Uniform interior => zero gradient => gradient ramp at 0 applies.
        let v = Volume::from_fn([12, 12, 12], |_, _, _| 200);
        let tf = TransferFunction::mri_default();
        let c = classify(&v, &tf);
        let interior = c.get(6, 6, 6);
        let expected = tf.opacity_value.eval(200) * tf.opacity_gradient.eval(0);
        assert_eq!(interior.a, (expected * 255.0).round() as u8);
    }

    #[test]
    fn classified_dims_match_input() {
        let v = Volume::zeros([5, 6, 7]);
        let c = classify(&v, &TransferFunction::ct_default());
        assert_eq!(c.dims(), [5, 6, 7]);
        assert_eq!(c.voxels().len(), 5 * 6 * 7);
    }

    #[test]
    fn field_classification_matches_opacity_exactly_and_color_closely() {
        use crate::gradient::GradientField;
        use crate::phantom::Phantom;
        let v = Phantom::MriBrain.generate([20, 20, 14], 7);
        let tf = TransferFunction::mri_default();
        let full = classify(&v, &tf);
        let field = GradientField::compute(&v);
        let fast = classify_with_field(&v, &field, &tf);
        assert_eq!(full.dims(), fast.dims());
        let mut max_col = 0i32;
        for (a, b) in full.voxels().iter().zip(fast.voxels()) {
            assert_eq!(a.a, b.a, "opacities must match exactly");
            for (ca, cb) in [(a.r, b.r), (a.g, b.g), (a.b, b.b)] {
                max_col = max_col.max((ca as i32 - cb as i32).abs());
            }
        }
        assert!(
            max_col <= 6,
            "normal quantization shifted colors by {max_col}"
        );
    }

    #[test]
    fn relighting_changes_shading_not_opacity() {
        use crate::gradient::GradientField;
        use crate::phantom::Phantom;
        let v = Phantom::MriBrain.generate([16, 16, 12], 5);
        let field = GradientField::compute(&v);
        let tf1 = TransferFunction::mri_default();
        let mut tf2 = TransferFunction::mri_default();
        tf2.light_dir = [-0.7, 0.5, 0.4]; // light moved
        let a = classify_with_field(&v, &field, &tf1);
        let b = classify_with_field(&v, &field, &tf2);
        assert_ne!(a, b, "new light must change colors");
        for (va, vb) in a.voxels().iter().zip(b.voxels()) {
            assert_eq!(va.a, vb.a, "opacity is light-independent");
        }
    }

    #[test]
    fn shading_darkens_faces_away_from_light() {
        // Light comes mostly from -y/-z (see mri_default): the face whose
        // normal points toward the light should be brighter.
        let v = Volume::from_fn([16, 16, 16], |x, y, z| {
            if (4..12).contains(&x) && (4..12).contains(&y) && (4..12).contains(&z) {
                220
            } else {
                0
            }
        });
        let c = classify(&v, &TransferFunction::mri_default());
        let lit = c.get(8, 4, 8); // -y face, normal (0,-1,0), light_dir.y < 0
        let unlit = c.get(8, 11, 8); // +y face
        assert!(
            lit.r > unlit.r,
            "lit face {lit:?} should be brighter than unlit {unlit:?}"
        );
    }
}

/// The slab kernel against the per-voxel pipeline it replaced.
#[cfg(test)]
mod identity_tests {
    use super::*;
    use crate::gradient::{gradient_at, gradient_magnitude_u8};
    use crate::phantom::Phantom;
    use crate::transfer::{Ramp, TransferFunction};
    use proptest::prelude::*;

    /// `classify` as it stood before the slab kernel, body kept verbatim:
    /// every voxel pays six clamped reads, both square roots and the opacity
    /// product, with no dead-value table in sight.
    fn classify_reference(vol: &Volume, tf: &TransferFunction) -> ClassifiedVolume {
        let c = Classifier::new(tf);
        let voxel = |x: usize, y: usize, z: usize| -> RgbaVoxel {
            let s = vol.get(x, y, z);
            let g = gradient_at(vol, x, y, z);
            let gm = gradient_magnitude_u8(g);
            let alpha = c.op_val[s as usize] * c.op_grad[gm as usize];
            if alpha < ALPHA_CUTOFF {
                return RgbaVoxel::TRANSPARENT;
            }
            let glen = g.length();
            let (diff, spec) = if glen > 1e-9 {
                let n = -g / glen;
                let d = n.dot(c.light).max(0.0);
                let sp = n.dot(c.half).max(0.0).powf(tf.shininess);
                (d, sp)
            } else {
                (0.0, 0.0)
            };
            let lum = tf.ambient + tf.diffuse * diff;
            let shade = |ch: f64| -> u8 {
                let v = (ch * lum + tf.specular * spec) * alpha;
                (v.clamp(0.0, 1.0) * 255.0).round() as u8
            };
            RgbaVoxel {
                r: shade(c.red[s as usize]),
                g: shade(c.green[s as usize]),
                b: shade(c.blue[s as usize]),
                a: (alpha.clamp(0.0, 1.0) * 255.0).round() as u8,
            }
        };
        let [nx, ny, nz] = vol.dims();
        let mut voxels = Vec::with_capacity(vol.len());
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    voxels.push(voxel(x, y, z));
                }
            }
        }
        ClassifiedVolume::from_raw(vol.dims(), voxels)
    }

    fn assert_all_paths_match(vol: &Volume, tf: &TransferFunction, what: &str) {
        let reference = classify_reference(vol, tf);
        assert_eq!(classify(vol, tf), reference, "classify, {what}");
        for threads in [1, 2, 3, 64] {
            assert_eq!(
                classify_parallel(vol, tf, threads),
                reference,
                "classify_parallel at {threads} threads, {what}"
            );
        }
    }

    /// Shapes with every combination of 1-wide axes, `[1, 1, 1]` included.
    fn dims() -> impl Strategy<Value = [usize; 3]> {
        (0usize..8, 2usize..10, 2usize..10, 2usize..10).prop_map(|(flat, x, y, z)| {
            let pick = |bit: usize, n: usize| if flat & bit != 0 { 1 } else { n };
            [pick(1, x), pick(2, y), pick(4, z)]
        })
    }

    /// Phantoms, whose air and tissue plateaus exercise the dead-value skip,
    /// and white noise, where every stencil tap differs.
    fn volume(kind: usize, dims: [usize; 3], seed: u64) -> Volume {
        match kind {
            0 => Phantom::MriBrain.generate(dims, seed),
            1 => Phantom::CtHead.generate(dims, seed),
            _ => {
                let mut state = seed;
                Volume::from_fn(dims, |_, _, _| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    (state >> 56) as u8
                })
            }
        }
    }

    /// Knot values a well-formed transfer function never holds, next to
    /// ones it does; interpolating between them makes `inf - inf` and
    /// `0 * inf` NaNs of its own.
    const KNOT_VALUES: [f64; 10] = [
        0.0,
        1.0,
        0.3,
        1e-3,
        -0.5,
        -0.0,
        7.5,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];

    fn ramp() -> impl Strategy<Value = Ramp> {
        proptest::collection::vec((1u8..64, 0usize..KNOT_VALUES.len()), 1..5).prop_map(|steps| {
            let mut pos = 0u8;
            let knots = steps.iter().map(|&(step, v)| {
                pos = pos.saturating_add(step);
                (pos - 1, KNOT_VALUES[v])
            });
            Ramp::new(knots.collect())
        })
    }

    proptest! {
        #[test]
        fn presets_match_the_per_voxel_reference(
            dims in dims(),
            kind in 0usize..3,
            preset in 0usize..5,
            seed in 0u64..1000,
        ) {
            let mut tf = match preset {
                0 | 3 | 4 => TransferFunction::mri_default(),
                1 => TransferFunction::ct_default(),
                _ => TransferFunction::opaque_nonzero(),
            };
            match preset {
                // Opaque air: no sample value is dead.
                3 => tf.opacity_value = Ramp::new(vec![(0, 0.4), (255, 1.0)]),
                // Nothing is ever visible: every sample value is dead.
                4 => tf.opacity_value = Ramp::constant(0.0),
                _ => {}
            }
            let dead = Classifier::new(&tf).dead.iter().filter(|&&d| d).count();
            match preset {
                3 => prop_assert_eq!(dead, 0),
                4 => prop_assert_eq!(dead, 256),
                _ => prop_assert!(dead > 0 && dead < 256),
            }
            let vol = volume(kind, dims, seed);
            assert_all_paths_match(&vol, &tf, &format!("preset {preset} on {dims:?}"));
        }

        #[test]
        fn hostile_ramps_match_the_per_voxel_reference(
            dims in dims(),
            kind in 0usize..3,
            seed in 0u64..1000,
            opacity_value in ramp(),
            opacity_gradient in ramp(),
            shininess in 0usize..KNOT_VALUES.len(),
        ) {
            let tf = TransferFunction {
                opacity_value,
                opacity_gradient,
                shininess: KNOT_VALUES[shininess],
                ..TransferFunction::ct_default()
            };
            let vol = volume(kind, dims, seed);
            assert_all_paths_match(&vol, &tf, &format!("{tf:?} on {dims:?}"));
        }
    }

    #[test]
    fn dead_values_of_the_presets_are_the_zero_plateaus() {
        let dead = |tf: &TransferFunction| Classifier::new(tf).dead;
        let mri = dead(&TransferFunction::mri_default());
        assert!(mri[..=24].iter().all(|&d| d) && mri[25..].iter().all(|&d| !d));
        let ct = dead(&TransferFunction::ct_default());
        assert!(ct[..=85].iter().all(|&d| d) && ct[86..].iter().all(|&d| !d));
    }
}
