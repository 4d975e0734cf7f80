//! Seeded workload generation. `--seed` is the only input: it picks the
//! orbit's start angle, the serve clients' view offsets and the order of
//! the transfer-function edits. The program under test receives only the
//! generated inputs.

use shearwarp::geom::ViewSpec;
use shearwarp::volume::{Ramp, TransferFunction};

/// Ops per lap. Fixed: at 100 ops the per-lap p90 has ten samples beyond it.
pub const LAP_OPS: usize = 100;
/// Untimed frames rendered after set-up and before the first timed lap.
pub const WARMUP_OPS: usize = 10;
/// X tilt of every orbit, degrees.
pub const TILT_DEG: f64 = 15.0;
/// Orbit step in tenths of a degree: 100 × 3.6° is one full turn.
const STEP_TENTHS: u64 = 36;

/// Noise seed of every phantom. Deliberately *not* derived from `--seed`:
/// the phantoms' folds and tissue noise change the work per frame by ±10 %
/// from seed to seed, which would make the spread across seeds a property
/// of the generator rather than of the renderer and force every bound to
/// the contract's ceiling. The seed still moves every view.
pub const PHANTOM_SEED: u64 = 42;

/// SplitMix64 — the one PRNG step every seed derivation goes through.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The Y angles (degrees) of one lap: a full 360° orbit in 3.6° steps from
/// a seeded start. Angles are whole tenths of a degree, so their decimal
/// text round-trips exactly through the serve protocol.
pub fn orbit_angles(seed: u64) -> Vec<f64> {
    let start = splitmix64(seed ^ 0x006f_7262_6974) % 3600;
    (0..LAP_OPS as u64)
        .map(|k| ((start + k * STEP_TENTHS) % 3600) as f64 / 10.0)
        .collect()
}

/// The view `swr-serve` builds for `(angle_x, angle_y, zoom)` — the
/// in-process workloads build theirs the same way so every path renders
/// the same frames.
pub fn view(dims: [usize; 3], angle_y_deg: f64, zoom: f64) -> ViewSpec {
    ViewSpec::new(dims)
        .rotate_x(TILT_DEG.to_radians())
        .rotate_y(angle_y_deg.to_radians())
        .with_zoom(zoom)
}

/// One lap's views.
pub fn orbit_views(seed: u64, dims: [usize; 3], zoom: f64) -> Vec<ViewSpec> {
    orbit_angles(seed)
        .into_iter()
        .map(|a| view(dims, a, zoom))
        .collect()
}

/// Where in the orbit each serve client starts: client `c` is `c` strides
/// ahead, the stride seeded in `17..33` views so clients never render the
/// same view at the same time.
pub fn client_offsets(seed: u64, clients: usize) -> Vec<usize> {
    let stride = 17 + (splitmix64(seed ^ 0x636c_6965_6e74) % 16) as usize;
    (0..clients).map(|c| (c * stride) % LAP_OPS).collect()
}

/// The lap's transfer-function edits: every shift in `-20..80` once, in a
/// seeded order (Fisher–Yates). A lap therefore always covers the same 100
/// classifications; only their order depends on the seed.
pub fn transfer_edits(seed: u64) -> Vec<i32> {
    let mut edits: Vec<i32> = (-20..80).collect();
    let mut state = seed ^ 0x0065_6469_7473;
    for i in (1..edits.len()).rev() {
        state = splitmix64(state);
        edits.swap(i, (state % (i as u64 + 1)) as usize);
    }
    edits
}

/// The MRI transfer function with the interior knots of its opacity ramp
/// shifted by `shift` sample values.
pub fn edited_transfer(shift: i32) -> TransferFunction {
    let at = |x: i32| (x + shift).clamp(1, 254) as u8;
    TransferFunction {
        opacity_value: Ramp::new(vec![
            (0, 0.0),
            (at(24), 0.0),
            (at(60), 0.35),
            (at(130), 0.8),
            (255, 1.0),
        ]),
        ..TransferFunction::mri_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_ops_and_another_seed_differs() {
        for seed in [0, 1, 42, u64::MAX] {
            assert_eq!(orbit_angles(seed), orbit_angles(seed));
            assert_eq!(transfer_edits(seed), transfer_edits(seed));
            assert_eq!(client_offsets(seed, 2), client_offsets(seed, 2));
        }
        assert_ne!(orbit_angles(42), orbit_angles(43));
        assert_ne!(transfer_edits(42), transfer_edits(43));
    }

    #[test]
    fn an_orbit_is_one_full_turn_of_distinct_views() {
        let a = orbit_angles(42);
        assert_eq!(a.len(), LAP_OPS);
        let mut tenths: Vec<u64> = a.iter().map(|d| (d * 10.0).round() as u64).collect();
        tenths.sort_unstable();
        tenths.dedup();
        assert_eq!(tenths.len(), LAP_OPS);
        assert!(tenths.windows(2).all(|w| w[1] - w[0] == 36));
        assert!(a.iter().all(|d| (0.0..360.0).contains(d)));
    }

    #[test]
    fn angles_round_trip_through_decimal_text() {
        for a in orbit_angles(7) {
            assert_eq!(format!("{a}").parse::<f64>().expect("decimal"), a);
        }
    }

    #[test]
    fn edits_are_a_permutation_and_every_ramp_is_valid() {
        let mut e = transfer_edits(9);
        for &shift in &e {
            // Ramp::new panics on non-increasing knots.
            let _ = edited_transfer(shift);
        }
        e.sort_unstable();
        assert_eq!(e, (-20..80).collect::<Vec<_>>());
    }

    #[test]
    fn clients_start_apart() {
        for seed in 0..50 {
            let o = client_offsets(seed, 2);
            assert_eq!(o[0], 0);
            assert!((17..33).contains(&o[1]));
        }
    }
}
