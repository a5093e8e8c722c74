//! A realistic downstream scenario from the paper's motivation: a mobile
//! camera pipeline processing a stream of frames (blur → edge map → binary
//! mask), measuring sustained frames/second per backend, single-thread and
//! band-parallel on the worker pool (the paper's future-work extension).
//!
//! Run: `cargo run --release --example camera_pipeline`

use simd_repro::image::{synthetic_suite, Image, Resolution};
use simd_repro::kernels::prelude::*;
use simd_repro::kernels::stream::frame_checksum;
use std::time::Instant;

const FRAMES: usize = 12;

fn pipeline_frame(frame: &Image<u8>, engine: Engine, parallel: bool) -> KernelResult<Image<u8>> {
    let (w, h) = (frame.width(), frame.height());
    let kernel = paper_gaussian_kernel();
    let mut denoised = Image::new(w, h);
    let mut edges = Image::new(w, h);
    if parallel {
        let plan = BandPlan::for_width(w);
        try_par_fused_gaussian_blur_with(frame, &mut denoised, &kernel, engine, &plan)?;
        try_par_fused_edge_detect_with(&denoised, &mut edges, 72, engine, &plan)?;
    } else {
        try_gaussian_blur_kernel(frame, &mut denoised, &kernel, engine)?;
        try_edge_detect(&denoised, &mut edges, 72, engine)?;
    }
    Ok(edges)
}

fn run(frames: &[Image<u8>], engine: Engine, parallel: bool) -> KernelResult<(f64, u64)> {
    // Checksum guards against dead-code elimination and proves all
    // configurations compute the same result. `frame_checksum` sees where
    // each edge pixel lies, not only how many there are; the rotate keeps
    // the frame order in the fold.
    let mut checksum = 0u64;
    let start = Instant::now();
    for i in 0..FRAMES {
        let out = pipeline_frame(&frames[i % frames.len()], engine, parallel)?;
        checksum = checksum.rotate_left(1) ^ frame_checksum(&out);
    }
    Ok((FRAMES as f64 / start.elapsed().as_secs_f64(), checksum))
}

fn main() -> KernelResult {
    let res = Resolution::Mp1; // 1.2 Mpx camera preview stream
    println!(
        "camera pipeline (blur + edge map) on a {} frame stream\n",
        res.label()
    );
    let frames = synthetic_suite(res, 5);

    println!(
        "{:<10} {:>12} {:>14}",
        "engine", "fps (1 core)", "fps (parallel)"
    );
    let mut checksums = Vec::new();
    for engine in [Engine::Scalar, Engine::Autovec, Engine::Native] {
        let (fps_seq, sum_seq) = run(&frames, engine, false)?;
        let (fps_par, sum_par) = run(&frames, engine, true)?;
        assert_eq!(sum_seq, sum_par, "parallel result diverged");
        checksums.push(sum_seq);
        println!("{:<10} {:>12.1} {:>14.1}", engine.label(), fps_seq, fps_par);
    }
    assert!(
        checksums.windows(2).all(|w| w[0] == w[1]),
        "engines disagreed"
    );
    println!(
        "\nall engines produced identical frame checksums ({} cores available)",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    println!(
        "note: the paper benchmarks single-thread OpenCV; the parallel column is the\n\
         future-work extension (experiment A3 in DESIGN.md)."
    );
    Ok(())
}
