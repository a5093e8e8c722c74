//! Fused band-tiled pipeline vs the two-pass kernels (experiment A4),
//! swept over all four paper resolutions. The intermediates the two-pass
//! code materialises grow with the image (10 MB u16 at 5 Mpx, 16 MB at
//! 8 Mpx) while the fused working set stays a few rows — the gap between
//! the `two_pass/*` and `fused/*` series is that locality difference.

use bench::bench_image;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pixelimage::{Image, Resolution};
use simdbench_core::edge::edge_detect;
use simdbench_core::gaussian::gaussian_blur;
use simdbench_core::kernelgen::paper_gaussian_kernel;
use simdbench_core::pipeline::{
    try_fused_edge_detect_with, try_fused_gaussian_blur_with, try_fused_sobel_with,
    try_par_fused_edge_detect_with, BandPlan,
};
use simdbench_core::scratch::Scratch;
use simdbench_core::sobel::{sobel, SobelDirection};
use simdbench_core::Engine;

const ENGINE: Engine = Engine::Native;

fn bench_fused_gaussian(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused_gaussian");
    group.sample_size(12);
    let kernel = paper_gaussian_kernel();
    for res in Resolution::ALL {
        let src = bench_image(res);
        let mut dst = Image::<u8>::new(src.width(), src.height());
        let mut scratch = Scratch::new();
        group.throughput(Throughput::Elements(res.pixels() as u64));
        group.bench_with_input(BenchmarkId::new("two_pass", res.label()), &(), |b, _| {
            b.iter(|| gaussian_blur(&src, &mut dst, ENGINE))
        });
        group.bench_with_input(BenchmarkId::new("fused", res.label()), &(), |b, _| {
            b.iter(|| {
                try_fused_gaussian_blur_with(&src, &mut dst, &kernel, ENGINE, &mut scratch).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_fused_sobel(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused_sobel");
    group.sample_size(12);
    for res in Resolution::ALL {
        let src = bench_image(res);
        let mut dst = Image::<i16>::new(src.width(), src.height());
        let mut scratch = Scratch::new();
        group.throughput(Throughput::Elements(res.pixels() as u64));
        group.bench_with_input(BenchmarkId::new("two_pass", res.label()), &(), |b, _| {
            b.iter(|| sobel(&src, &mut dst, SobelDirection::X, ENGINE))
        });
        group.bench_with_input(BenchmarkId::new("fused", res.label()), &(), |b, _| {
            b.iter(|| {
                try_fused_sobel_with(&src, &mut dst, SobelDirection::X, ENGINE, &mut scratch)
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_fused_edge(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused_edge");
    group.sample_size(12);
    for res in Resolution::ALL {
        let src = bench_image(res);
        let mut dst = Image::<u8>::new(src.width(), src.height());
        let mut scratch = Scratch::new();
        let plan = BandPlan::for_width(src.width());
        group.throughput(Throughput::Elements(res.pixels() as u64));
        group.bench_with_input(BenchmarkId::new("two_pass", res.label()), &(), |b, _| {
            b.iter(|| edge_detect(&src, &mut dst, 96, ENGINE))
        });
        group.bench_with_input(BenchmarkId::new("fused", res.label()), &(), |b, _| {
            b.iter(|| try_fused_edge_detect_with(&src, &mut dst, 96, ENGINE, &mut scratch).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("par_fused", res.label()), &(), |b, _| {
            b.iter(|| try_par_fused_edge_detect_with(&src, &mut dst, 96, ENGINE, &plan).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fused_gaussian,
    bench_fused_sobel,
    bench_fused_edge
);
criterion_main!(benches);
