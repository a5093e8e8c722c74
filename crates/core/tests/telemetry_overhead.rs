//! Telemetry cost smoke test: with the global enable flag off, every
//! `obs` entry point in the fused pipeline must reduce to one relaxed
//! atomic load and a branch. This test guards against regressions that
//! make the disabled path allocate, lock, or time.
//!
//! It is a *smoke* test, not a benchmark: CI machines are noisy, so the
//! threshold is deliberately generous (2x). The honest measurement
//! lives in EXPERIMENTS.md and uses the full paper protocol.

use pixelimage::{synthetic_suite, Image, Resolution};
use simdbench_core::kernelgen::paper_gaussian_kernel;
use simdbench_core::prelude::*;
use simdbench_core::scratch::Scratch;
use std::time::Instant;

fn time_passes(src: &Image<u8>, passes: usize) -> f64 {
    let mut dst = Image::<u8>::new(src.width(), src.height());
    let mut scratch = Scratch::new();
    let gk = paper_gaussian_kernel();
    // Warm up: populate the scratch arena and caches.
    for _ in 0..2 {
        try_fused_gaussian_blur_with(src, &mut dst, &gk, Engine::Native, &mut scratch).unwrap();
    }
    let start = Instant::now();
    for _ in 0..passes {
        try_fused_gaussian_blur_with(src, &mut dst, &gk, Engine::Native, &mut scratch).unwrap();
    }
    start.elapsed().as_secs_f64()
}

#[test]
fn disabled_telemetry_is_cheap_on_the_fused_pipeline() {
    let src = synthetic_suite(Resolution::Vga, 1).remove(0);
    const PASSES: usize = 30;

    obs::set_enabled(false);
    // Interleave the two arms so machine-load drift hits both equally,
    // and keep the best-of-three minimum per arm (noise only adds time).
    let mut off = f64::MAX;
    let mut on = f64::MAX;
    for _ in 0..3 {
        obs::set_enabled(false);
        off = off.min(time_passes(&src, PASSES));
        obs::set_enabled(true);
        on = on.min(time_passes(&src, PASSES));
    }
    obs::set_enabled(false);
    obs::reset();

    // Both directions, each with a huge margin (the real ratio is
    // within noise of 1.0): enabled telemetry must not blow up the
    // fused pipeline, and the disabled path must not secretly do the
    // work anyway.
    assert!(
        on < off * 3.0 + 1e-3,
        "enabled {on:.6}s vs disabled {off:.6}s — telemetry overhead is not a branch"
    );
    assert!(
        off < on * 3.0 + 1e-3,
        "disabled {off:.6}s vs enabled {on:.6}s — disabled path is doing work"
    );
}
