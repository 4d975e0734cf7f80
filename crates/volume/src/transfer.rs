//! Transfer functions: mapping raw samples to opacity and material color.
//!
//! Following Levoy-style classification (as used by VolPack), the opacity of
//! a voxel is the product of a ramp over the *sample value* and a ramp over
//! the *gradient magnitude* — the latter emphasizes material boundaries and
//! is what produces the 70–95 % transparent-voxel fraction the shear-warp
//! coherence structures exploit. Color comes from a piecewise-linear ramp
//! over the sample value.

/// A piecewise-linear ramp `u8 → f64` defined by `(position, value)` knots.
#[derive(Debug, Clone, PartialEq)]
pub struct Ramp {
    /// Knots sorted by position; values outside the knot range clamp to the
    /// first/last knot value.
    knots: Vec<(u8, f64)>,
}

impl Ramp {
    /// Builds a ramp from knots.
    ///
    /// # Panics
    /// Panics if `knots` is empty or the positions are not strictly
    /// increasing.
    pub fn new(knots: Vec<(u8, f64)>) -> Self {
        assert!(!knots.is_empty(), "ramp needs at least one knot");
        for w in knots.windows(2) {
            assert!(w[0].0 < w[1].0, "ramp knots must be strictly increasing");
        }
        Ramp { knots }
    }

    /// Constant ramp.
    pub fn constant(v: f64) -> Self {
        Ramp::new(vec![(0, v)])
    }

    /// Evaluates the ramp at `x`.
    pub fn eval(&self, x: u8) -> f64 {
        let k = &self.knots;
        if x <= k[0].0 {
            return k[0].1;
        }
        if x >= k[k.len() - 1].0 {
            return k[k.len() - 1].1;
        }
        // Find the bracketing pair (k is tiny; linear scan is fine and
        // branch-predictable).
        for w in k.windows(2) {
            let (x0, v0) = w[0];
            let (x1, v1) = w[1];
            if x <= x1 {
                let t = (x - x0) as f64 / (x1 - x0) as f64;
                return v0 + t * (v1 - v0);
            }
        }
        unreachable!("knot search is exhaustive")
    }

    /// Evaluates the ramp for all 256 inputs — classification uses the
    /// precomputed table, as VolPack does.
    pub fn to_table(&self) -> [f64; 256] {
        let mut t = [0.0; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            *slot = self.eval(i as u8);
        }
        t
    }
}

/// A complete classification recipe: opacity from value × gradient ramps,
/// color from RGB value ramps, plus Phong shading coefficients.
#[derive(Debug, Clone)]
pub struct TransferFunction {
    /// Opacity contribution of the sample value (0–1).
    pub opacity_value: Ramp,
    /// Opacity contribution of the gradient magnitude (0–1).
    pub opacity_gradient: Ramp,
    /// Material red as a function of sample value (0–1).
    pub red: Ramp,
    /// Material green as a function of sample value (0–1).
    pub green: Ramp,
    /// Material blue as a function of sample value (0–1).
    pub blue: Ramp,
    /// Ambient reflection coefficient.
    pub ambient: f64,
    /// Diffuse reflection coefficient.
    pub diffuse: f64,
    /// Specular reflection coefficient.
    pub specular: f64,
    /// Specular exponent.
    pub shininess: f64,
    /// Light direction in object space (normalized on use).
    pub light_dir: [f64; 3],
}

impl TransferFunction {
    /// Classification tuned for the synthetic MRI brain phantom: soft tissue
    /// becomes semi-transparent, boundaries (high gradient) dominate, air is
    /// fully transparent. Yields ~75–90 % transparent voxels on the phantom.
    pub fn mri_default() -> Self {
        TransferFunction {
            opacity_value: Ramp::new(vec![
                (0, 0.0),
                (24, 0.0),
                (60, 0.35),
                (130, 0.8),
                (255, 1.0),
            ]),
            opacity_gradient: Ramp::new(vec![(0, 0.05), (12, 0.3), (60, 1.0)]),
            red: Ramp::new(vec![(0, 0.2), (80, 0.8), (255, 1.0)]),
            green: Ramp::new(vec![(0, 0.15), (80, 0.55), (255, 0.9)]),
            blue: Ramp::new(vec![(0, 0.1), (80, 0.45), (255, 0.8)]),
            ambient: 0.25,
            diffuse: 0.65,
            specular: 0.35,
            shininess: 18.0,
            light_dir: [0.4, -0.7, -0.6],
        }
    }

    /// Classification tuned for the synthetic CT head phantom: bone (high
    /// value) is opaque, soft tissue is faint, air is transparent.
    pub fn ct_default() -> Self {
        TransferFunction {
            opacity_value: Ramp::new(vec![
                (0, 0.0),
                (85, 0.0),
                (130, 0.1),
                (180, 0.55),
                (215, 0.97),
                (255, 1.0),
            ]),
            opacity_gradient: Ramp::new(vec![(0, 0.1), (20, 0.55), (80, 1.0)]),
            red: Ramp::new(vec![(0, 0.3), (150, 0.9), (255, 1.0)]),
            green: Ramp::new(vec![(0, 0.25), (150, 0.85), (255, 0.98)]),
            blue: Ramp::new(vec![(0, 0.2), (150, 0.75), (255, 0.92)]),
            ambient: 0.3,
            diffuse: 0.6,
            specular: 0.4,
            shininess: 30.0,
            light_dir: [0.3, -0.6, -0.75],
        }
    }

    /// A fully opaque classification of every non-zero voxel — useful in
    /// tests where RLE behaviour with low transparency matters.
    pub fn opaque_nonzero() -> Self {
        TransferFunction {
            opacity_value: Ramp::new(vec![(0, 0.0), (1, 1.0)]),
            opacity_gradient: Ramp::constant(1.0),
            red: Ramp::constant(1.0),
            green: Ramp::constant(1.0),
            blue: Ramp::constant(1.0),
            ambient: 1.0,
            diffuse: 0.0,
            specular: 0.0,
            shininess: 1.0,
            light_dir: [0.0, 0.0, -1.0],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ramp_interpolates_between_knots() {
        let r = Ramp::new(vec![(10, 0.0), (20, 1.0)]);
        assert_eq!(r.eval(10), 0.0);
        assert_eq!(r.eval(20), 1.0);
        assert!((r.eval(15) - 0.5).abs() < 1e-12);
        // Clamped outside.
        assert_eq!(r.eval(0), 0.0);
        assert_eq!(r.eval(255), 1.0);
    }

    #[test]
    fn constant_ramp() {
        let r = Ramp::constant(0.7);
        assert_eq!(r.eval(0), 0.7);
        assert_eq!(r.eval(128), 0.7);
        assert_eq!(r.eval(255), 0.7);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_knots_rejected() {
        let _ = Ramp::new(vec![(10, 0.0), (10, 1.0)]);
    }

    #[test]
    fn table_matches_eval() {
        let r = Ramp::new(vec![(0, 0.1), (100, 0.9), (200, 0.2)]);
        let t = r.to_table();
        for (i, &v) in t.iter().enumerate() {
            assert_eq!(v, r.eval(i as u8));
        }
    }

    #[test]
    fn presets_are_transparent_for_air() {
        for tf in [
            TransferFunction::mri_default(),
            TransferFunction::ct_default(),
        ] {
            assert_eq!(
                tf.opacity_value.eval(0),
                0.0,
                "air must classify transparent"
            );
            assert!(tf.opacity_value.eval(255) > 0.9);
        }
    }

    #[test]
    fn ramp_is_monotone_where_knots_are() {
        let r = Ramp::new(vec![(0, 0.0), (128, 0.5), (255, 1.0)]);
        let mut prev = -1.0;
        for i in 0..=255u8 {
            let v = r.eval(i);
            assert!(v >= prev);
            prev = v;
        }
    }
}
