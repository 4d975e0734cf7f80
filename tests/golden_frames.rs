//! Golden digests of warped frames and of the warp's memory-trace totals.
//!
//! Every equivalence check in the repository — and the benchmark harness's
//! per-frame verification — compares a renderer against `SerialRenderer`,
//! whose pixels come from the *same* warp. A warp rewrite that shifts a
//! rounding step therefore passes them all. These digests were recorded at
//! the commit before the row-span warp kernel (PR 15), from the three
//! hand-copied pixel loops with libm `floor`/`round`; they pin the final
//! pixels, and the event totals a real tracer sees, across rewrites.

use shearwarp::prelude::*;
use shearwarp::render::{
    composite_scanline_slice_untraced, warp_full, warp_row_band, warp_tile, CompositeOpts,
    CountingTracer, IntermediateImage, SharedFinal, Tile,
};

fn fnv64(img: &FinalImage) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in img.pixels().iter().flatten() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn encode(phantom: Phantom, dims: [usize; 3], seed: u64) -> EncodedVolume {
    let classified = classify(&phantom.generate(dims, seed), &phantom.default_transfer());
    EncodedVolume::encode(&classified)
}

/// Parallel at zoom 1, zoom 2, zoom 0.5, and perspective.
fn views(dims: [usize; 3]) -> [ViewSpec; 4] {
    let base = ViewSpec::new(dims).rotate_x(0.25).rotate_y(0.6);
    [
        base.clone(),
        base.clone().with_zoom(2.0),
        base.clone().with_zoom(0.5),
        base.with_perspective(dims[0] as f64 * 2.5),
    ]
}

fn frame_digests(phantom: Phantom, dims: [usize; 3], seed: u64) -> [u64; 4] {
    let enc = encode(phantom, dims, seed);
    let mut r = SerialRenderer::new();
    views(dims).map(|view| {
        let img = r.render(&enc, &view);
        assert!(img.mean_luma() > 0.05, "blank render");
        fnv64(&img)
    })
}

#[test]
fn serial_frames_match_the_recorded_digests() {
    let mri = frame_digests(Phantom::MriBrain, [27, 21, 14], 9);
    let ct = frame_digests(Phantom::CtHead, [19, 23, 13], 6);
    assert_eq!(
        mri,
        [
            0x3c1e_b24f_cf71_3a5c,
            0x49c6_e73d_8495_76c0,
            0x7dfd_6608_464e_bf27,
            0x02bf_d508_d1d6_eeb6,
        ],
        "MRI [27, 21, 14] seed 9: {mri:#018x?}"
    );
    assert_eq!(
        ct,
        [
            0x42c2_5161_768c_06d7,
            0x92b7_9146_1874_233f,
            0x9912_7370_37c8_c8a7,
            0x3abd_3478_b1be_b796,
        ],
        "CT [19, 23, 13] seed 6: {ct:#018x?}"
    );
}

/// `[reads, read_bytes, writes, write_bytes, warp_cycles]`.
fn totals(t: &CountingTracer) -> [u64; 5] {
    [
        t.reads,
        t.read_bytes,
        t.writes,
        t.write_bytes,
        t.warp_cycles,
    ]
}

/// One zoom-2 MRI intermediate image warped three ways under a real tracer:
/// whole, as a 7×7 tile grid that does not divide the image, and as an
/// uneven row-band cover. The totals are what memsim's trace stream sums to.
#[test]
fn traced_warp_totals_match_the_recorded_counts() {
    let dims = [27, 21, 14];
    let enc = encode(Phantom::MriBrain, dims, 9);
    let view = views(dims)[1].clone();
    let fact = Factorization::from_view(&view);
    let rle = enc.for_axis(fact.principal);
    let opts = CompositeOpts::default();
    let mut inter = IntermediateImage::new(fact.inter_w, fact.inter_h);
    for m in 0..fact.slice_count() {
        let k = fact.slice_for_step(m);
        for y in 0..fact.inter_h {
            composite_scanline_slice_untraced(rle, &fact, &mut inter.row_view(y), k, &opts);
        }
    }

    let mut full = FinalImage::new(fact.final_w, fact.final_h);
    let mut t_full = CountingTracer::default();
    let written = warp_full(&inter, &fact, &mut full, &mut t_full);

    let mut tiled = FinalImage::new(fact.final_w, fact.final_h);
    let mut t_tile = CountingTracer::default();
    let mut w_tile = 0;
    {
        let shared = SharedFinal::new(&mut tiled);
        for v0 in (0..fact.final_h).step_by(7) {
            for u0 in (0..fact.final_w).step_by(7) {
                let tile = Tile {
                    u0,
                    v0,
                    u1: (u0 + 7).min(fact.final_w),
                    v1: (v0 + 7).min(fact.final_h),
                };
                w_tile += warp_tile(&inter, &fact, &shared, tile, &mut t_tile);
            }
        }
    }

    let mut banded = FinalImage::new(fact.final_w, fact.final_h);
    let mut t_band = CountingTracer::default();
    let mut w_band = 0;
    {
        let shared = SharedFinal::new(&mut banded);
        let cuts = [0, 3, fact.inter_h / 3, fact.inter_h / 2 + 1, fact.inter_h];
        for c in cuts.windows(2) {
            w_band += warp_row_band(&inter, &fact, &shared, (c[0], c[1]), &mut t_band);
        }
    }

    assert_eq!((full == tiled, full == banded), (true, true));
    let digest = fnv64(&full);
    assert_eq!(
        digest, 0x49c6_e73d_8495_76c0,
        "warped frame: {digest:#018x}"
    );
    assert_eq!([written, w_tile, w_band], [3800; 3], "written");
    // Reads and writes are per owned pixel and agree; `WARP_ROW_SETUP` is
    // charged per (call, final row), so tiles and bands pay it more often.
    assert_eq!(totals(&t_full), [12294, 196704, 3800, 15200, 42712]);
    assert_eq!(totals(&t_tile), [12294, 196704, 3800, 15200, 51832]);
    assert_eq!(totals(&t_band), [12294, 196704, 3800, 15200, 45448]);
}
