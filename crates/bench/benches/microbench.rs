//! Criterion micro-benchmarks for the core kernels: compositing, warp,
//! run-length encoding, prefix sums, partition search, and the ray-casting
//! baseline. These complement the figure binaries (which measure simulated
//! multiprocessor cycles) with host wall-clock numbers for the serial
//! building blocks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use swr_bench::{build_dataset, view_at};
use swr_core::{balanced_contiguous, parallel_prefix_sum, prefix_sum};
use swr_geom::Factorization;
use swr_raycast::RayCaster;
use swr_render::{warp_full, FinalImage, NullTracer, SerialRenderer};
use swr_volume::{classify, EncodedVolume, Phantom};

fn bench_composite_frame(c: &mut Criterion) {
    let mut g = c.benchmark_group("composite_frame");
    for base in [24usize, 48] {
        let enc = build_dataset(Phantom::MriBrain, base);
        let view = view_at(enc.dims(), 30.0);
        g.bench_with_input(BenchmarkId::from_parameter(base), &base, |b, _| {
            let mut r = SerialRenderer::new();
            b.iter(|| r.render(&enc, &view));
        });
    }
    g.finish();
}

fn bench_warp(c: &mut Criterion) {
    // The MRI brain at zoom 1, and the CT shell at zoom 2, where a third of
    // the final pixels map outside the intermediate image and most of the
    // rest onto transparent pixels.
    let scenes = [
        ("warp_full_48", Phantom::MriBrain, 48, 1.0),
        ("warp_full_zoom2_96", Phantom::CtHead, 96, 2.0),
    ];
    for (name, phantom, base, zoom) in scenes {
        let enc = build_dataset(phantom, base);
        let view = view_at(enc.dims(), 30.0).with_zoom(zoom);
        let fact = Factorization::from_view(&view);
        // Composite once, then bench the warp alone.
        let mut inter = swr_render::IntermediateImage::new(fact.inter_w, fact.inter_h);
        let rle = enc.for_axis(fact.principal);
        let opts = swr_render::CompositeOpts::default();
        let mut t = NullTracer;
        for y in 0..fact.inter_h {
            let mut row = inter.row_view(y);
            for m in 0..fact.slice_count() {
                let k = fact.slice_for_step(m);
                swr_render::composite_scanline_slice(rle, &fact, &mut row, k, &opts, &mut t);
            }
        }
        c.bench_function(name, |b| {
            let mut out = FinalImage::new(fact.final_w, fact.final_h);
            b.iter(|| {
                out.clear();
                warp_full(&inter, &fact, &mut out, &mut NullTracer)
            });
        });
    }
}

fn bench_rle_encode(c: &mut Criterion) {
    let vol = Phantom::MriBrain.generate(Phantom::MriBrain.paper_dims(48), 42);
    let classified = classify(&vol, &Phantom::MriBrain.default_transfer());
    c.bench_function("rle_encode_48", |b| {
        b.iter(|| EncodedVolume::encode(&classified));
    });
}

fn bench_classification(c: &mut Criterion) {
    use swr_volume::{classify_with_field, GradientField};
    let vol = Phantom::MriBrain.generate(Phantom::MriBrain.paper_dims(48), 42);
    let tf = Phantom::MriBrain.default_transfer();
    let mut g = c.benchmark_group("classification_48");
    g.bench_function("full", |b| b.iter(|| classify(&vol, &tf)));
    let field = GradientField::compute(&vol);
    g.bench_function("relight_from_field", |b| {
        b.iter(|| classify_with_field(&vol, &field, &tf))
    });
    g.finish();
}

fn bench_blend_kernels(c: &mut Criterion) {
    use swr_render::{
        composite_scanline_slice_untraced_with, CompositeOpts, IntermediateImage, SimdKernel,
    };
    use swr_volume::{ClassifiedVolume, RgbaVoxel};
    // Synthetic low-alpha volume: every voxel is stored and no pixel ever
    // saturates, so every scanline is one long non-opaque run — the blend
    // dominates, every span is a full one, and the gap between the scalar
    // reference and the span rungs is visible without the full-frame
    // harness's traversal noise.
    let dims = [96usize, 96, 32];
    let vox: Vec<RgbaVoxel> = (0..dims[0] * dims[1] * dims[2])
        .map(|i| {
            let v = (i % 97) as u8;
            RgbaVoxel {
                r: v,
                g: v / 2,
                b: 96 - v,
                a: 3,
            }
        })
        .collect();
    let classified = ClassifiedVolume::from_raw(dims, vox);
    let enc = EncodedVolume::encode_with_threshold(&classified, 1);
    // An off-axis view so the bilinear footprint has all four taps live.
    let view = view_at(dims, 30.0);
    let fact = Factorization::from_view(&view);
    let rle = enc.for_axis(fact.principal);
    let opts = CompositeOpts::default();
    let mut g = c.benchmark_group("blend_kernel");
    for kernel in [
        SimdKernel::Scalar,
        SimdKernel::Sse2,
        SimdKernel::Avx2,
        SimdKernel::Neon,
    ] {
        if !kernel.available() {
            continue;
        }
        let mut inter = IntermediateImage::new(fact.inter_w, fact.inter_h);
        g.bench_function(kernel.name(), |b| {
            b.iter(|| {
                inter.clear();
                let mut n = 0u64;
                for y in 0..fact.inter_h {
                    let mut row = inter.row_view(y);
                    for m in 0..fact.slice_count() {
                        let k = fact.slice_for_step(m);
                        n += composite_scanline_slice_untraced_with(
                            kernel, rle, &fact, &mut row, k, &opts,
                        );
                    }
                }
                n
            });
        });
    }
    g.finish();

    // The same sweep over the MRI phantom: sparse runs and early-terminating
    // pixels mean a (scanline, slice) step composites two or three spans of
    // five or six pixels, so this variant measures the rungs where the
    // traversal and the per-span window fill outweigh the blend.
    let enc = build_dataset(Phantom::MriBrain, 80);
    let view = view_at(enc.dims(), 30.0);
    let fact = Factorization::from_view(&view);
    let rle = enc.for_axis(fact.principal);
    let mut g = c.benchmark_group("blend_kernel_sparse");
    for kernel in [
        SimdKernel::Scalar,
        SimdKernel::Sse2,
        SimdKernel::Avx2,
        SimdKernel::Neon,
    ] {
        if !kernel.available() {
            continue;
        }
        let mut inter = IntermediateImage::new(fact.inter_w, fact.inter_h);
        g.bench_function(kernel.name(), |b| {
            b.iter(|| {
                inter.clear();
                let mut n = 0u64;
                for y in 0..fact.inter_h {
                    let mut row = inter.row_view(y);
                    for m in 0..fact.slice_count() {
                        let k = fact.slice_for_step(m);
                        n += composite_scanline_slice_untraced_with(
                            kernel, rle, &fact, &mut row, k, &opts,
                        );
                    }
                }
                n
            });
        });
    }
    g.finish();
}

/// Where a compositing frame's time goes, per rung: ms/frame and ns per
/// composited pixel next to the counts that explain them — `(scanline,
/// slice)` steps that reach the traversal, spans (maximal runs of composited
/// pixels within a step), hops (the reference loop's iterations that
/// composite nothing: over opaque pixels, over transparent runs, and the one
/// that ends a step) and composited pixels. The counts come from the books
/// and from a tracer that watches the pixel stores, so they are the scalar
/// reference's — which every rung reproduces — and cost the timed loops
/// nothing.
fn bench_composite_split(_c: &mut Criterion) {
    use std::time::Instant;
    use swr_render::{
        composite_scanline_slice_src, composite_scanline_slice_untraced_with, costs, AxisSrc,
        CompositeOpts, IntermediateImage, ScanlineSliceStats, SimdKernel, Tracer,
    };

    /// Counts runs of adjacent 16-byte pixel stores.
    #[derive(Default)]
    struct SpanCounter {
        last: usize,
        spans: u64,
    }
    impl Tracer for SpanCounter {
        fn write(&mut self, addr: usize, bytes: u32) {
            if bytes == 16 {
                self.spans += (addr != self.last + 16) as u64;
                self.last = addr;
            }
        }
    }

    println!(
        "{:<40} {:>9} {:>8} {:>8} {:>8} {:>9} {:>7}",
        "composite_split", "ms/frame", "steps", "spans", "hops", "pixels", "ns/px"
    );
    let scenes = [
        ("mri256", Phantom::MriBrain, 1.0),
        ("ct256", Phantom::CtHead, 1.0),
        ("ct256_zoom2", Phantom::CtHead, 2.0),
    ];
    // One build per phantom: the scenes of one are adjacent.
    let mut built: Option<(Phantom, EncodedVolume)> = None;
    for (name, phantom, zoom) in scenes {
        let (_, enc) = match built.take() {
            Some(b) if b.0 == phantom => built.insert(b),
            _ => built.insert((phantom, build_dataset(phantom, 256))),
        };
        let dims = enc.dims();
        let parallel = view_at(dims, 30.0).with_zoom(zoom);
        let views = [
            ("parallel", parallel.clone()),
            (
                "perspective",
                parallel.with_perspective(dims[0] as f64 * 2.5),
            ),
        ];
        for (projection, view) in views {
            let fact = Factorization::from_view(&view);
            let rle = enc.for_axis(fact.principal);
            let opts = CompositeOpts::default();
            let mut inter = IntermediateImage::new(fact.inter_w, fact.inter_h);

            let mut books = ScanlineSliceStats::default();
            let mut steps = 0u64;
            let mut counter = SpanCounter::default();
            for y in 0..fact.inter_h {
                let mut row = inter.row_view(y);
                for m in 0..fact.slice_count() {
                    let k = fact.slice_for_step(m);
                    counter.last = 0;
                    let src = AxisSrc::Flat(rle);
                    let st =
                        composite_scanline_slice_src(src, &fact, &mut row, k, &opts, &mut counter);
                    steps += (st.work > 0) as u64;
                    books.merge(&st);
                }
            }
            // With early termination on, the books charge PIXEL_SKIP once
            // per iteration of the reference loop.
            let iterations = (books.work
                - steps * costs::SCANLINE_SETUP as u64
                - books.composited * costs::COMPOSITE_PIXEL as u64
                - books.voxels_fetched * costs::VOXEL_FETCH as u64)
                / costs::PIXEL_SKIP as u64;
            let hops = iterations - books.composited;

            let rungs = [
                SimdKernel::Scalar,
                SimdKernel::Sse2,
                SimdKernel::Avx2,
                SimdKernel::Neon,
            ];
            for kernel in rungs.into_iter().filter(|k| k.available()) {
                let mut frame = || {
                    inter.clear();
                    let mut n = 0u64;
                    for y in 0..fact.inter_h {
                        let mut row = inter.row_view(y);
                        for m in 0..fact.slice_count() {
                            let k = fact.slice_for_step(m);
                            n += composite_scanline_slice_untraced_with(
                                kernel, rle, &fact, &mut row, k, &opts,
                            );
                        }
                    }
                    n
                };
                assert_eq!(frame(), books.composited, "warm-up frame");
                let frames = 5;
                let start = Instant::now();
                for _ in 0..frames {
                    std::hint::black_box(frame());
                }
                let per_frame = start.elapsed().as_secs_f64() / frames as f64;
                println!(
                    "{:<40} {:>9.3} {:>8} {:>8} {:>8} {:>9} {:>7.2}",
                    format!("{name}/{projection}/{}", kernel.name()),
                    per_frame * 1e3,
                    steps,
                    counter.spans,
                    hops,
                    books.composited,
                    per_frame * 1e9 / books.composited as f64,
                );
            }
        }
    }
}

fn bench_prefix_sum(c: &mut Criterion) {
    let v: Vec<u64> = (0..100_000u64).map(|i| i % 977).collect();
    c.bench_function("prefix_sum_serial_100k", |b| b.iter(|| prefix_sum(&v)));
    c.bench_function("prefix_sum_parallel_100k", |b| {
        b.iter(|| parallel_prefix_sum(&v, 4))
    });
}

fn bench_partition_search(c: &mut Criterion) {
    let profile: Vec<u64> = (0..4096u64).map(|i| (i * 31) % 257).collect();
    c.bench_function("balanced_partition_4096x32", |b| {
        b.iter(|| balanced_contiguous(0..4096, &profile, 32))
    });
}

fn bench_raycast(c: &mut Criterion) {
    let vol = Phantom::MriBrain.generate(Phantom::MriBrain.paper_dims(24), 42);
    let classified = classify(&vol, &Phantom::MriBrain.default_transfer());
    let view = view_at(vol.dims(), 30.0);
    c.bench_function("raycast_frame_24", |b| {
        let rc = RayCaster::new(&classified);
        b.iter(|| rc.render(&view));
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_composite_frame,
        bench_warp,
        bench_rle_encode,
        bench_classification,
        bench_blend_kernels,
        bench_composite_split,
        bench_prefix_sum,
        bench_partition_search,
        bench_raycast
);
criterion_main!(benches);
