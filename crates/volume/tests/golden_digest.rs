//! Golden digests of the volume write path.
//!
//! Every renderer-level check in the repository compares frames against a
//! serial reference built from the *same* `classify` and `encode`, so a
//! change that shifts both sides by one quantization step passes them all.
//! These digests were recorded from the per-voxel `classify` and the
//! `vol.get`-per-voxel encoder the row-sliced kernels replaced; they pin the
//! classified bytes and all three run-length encodings across rewrites.

use swr_geom::Axis;
use swr_volume::{classify, EncodedVolume, Phantom, TransferFunction};

struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// `[classified, X encoding, Y encoding, Z encoding]`. An encoding's digest
/// covers, scanline by scanline, the run count, the runs, the voxel count
/// and the voxels — so a run that moves across a scanline boundary shows.
fn digests(phantom: Phantom, dims: [usize; 3], seed: u64, tf: &TransferFunction) -> [u64; 4] {
    let classified = classify(&phantom.generate(dims, seed), tf);
    let mut h = Fnv64::new();
    for v in classified.voxels() {
        h.bytes(&[v.r, v.g, v.b, v.a]);
    }
    let mut out = [h.0; 4];
    let enc = EncodedVolume::encode(&classified);
    for (slot, axis) in out[1..].iter_mut().zip([Axis::X, Axis::Y, Axis::Z]) {
        let e = enc.for_axis(axis);
        let [_, n_j, n_k] = e.std_dims();
        let mut h = Fnv64::new();
        for k in 0..n_k {
            for j in 0..n_j {
                let sl = e.scanline(k, j);
                h.bytes(&(sl.runs.len() as u32).to_le_bytes());
                h.bytes(sl.runs);
                h.bytes(&(sl.voxels.len() as u32).to_le_bytes());
                for v in sl.voxels {
                    h.bytes(&[v.r, v.g, v.b, v.a]);
                }
            }
        }
        *slot = h.0;
    }
    out
}

#[test]
fn classified_and_encoded_bytes_match_the_recorded_digests() {
    let mri = digests(
        Phantom::MriBrain,
        [27, 21, 14],
        9,
        &TransferFunction::mri_default(),
    );
    let ct = digests(
        Phantom::CtHead,
        [19, 23, 13],
        6,
        &TransferFunction::ct_default(),
    );
    assert_eq!(
        mri,
        [
            0xeac0_d338_9c5e_a31f,
            0xe020_3e3f_c402_3c94,
            0x597e_d63c_4abe_05e3,
            0x9a9f_1da1_6d67_d2ec,
        ],
        "MRI [27, 21, 14] seed 9: {mri:#018x?}"
    );
    assert_eq!(
        ct,
        [
            0xea84_ce5b_5b3b_a76c,
            0x13be_58de_ca70_f10b,
            0xc002_ca40_d50a_a97f,
            0x3a1c_99da_a713_6795,
        ],
        "CT [19, 23, 13] seed 6: {ct:#018x?}"
    );
}
