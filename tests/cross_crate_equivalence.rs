//! Cross-crate equivalence: every kernel, every backend, bit-identical
//! output on a spread of image shapes — the contract that makes the AUTO vs
//! HAND timing comparison meaningful (the paper times *the same
//! computation* two ways).

use simd_repro::image::{bmp, synthetic_image, synthetic_image_f32};
use simd_repro::kernels::kernelgen::{gaussian_kernel_q8, FixedKernel};
use simd_repro::kernels::prelude::*;
use simd_repro::kernels::scratch::MAX_TAPS;

const SHAPES: &[(usize, usize)] = &[(1, 1), (7, 3), (16, 16), (33, 9), (640, 48), (129, 65)];

fn hand_engines() -> [Engine; 3] {
    [Engine::Sse2Sim, Engine::NeonSim, Engine::Native]
}

#[test]
fn convert_equivalence_over_shapes() {
    for &(w, h) in SHAPES {
        let src = synthetic_image_f32(w, h, 0xC0FFEE).map(|v| (v - 128.0) * 300.0);
        let mut reference = Image::new(w, h);
        try_convert_f32_to_i16(&src, &mut reference, Engine::Scalar).unwrap();
        for engine in [
            Engine::Autovec,
            Engine::Sse2Sim,
            Engine::NeonSim,
            Engine::Native,
        ] {
            let mut out = Image::new(w, h);
            try_convert_f32_to_i16(&src, &mut out, engine).unwrap();
            assert!(out.pixels_eq(&reference), "{w}x{h} {engine:?}");
        }
    }
}

#[test]
fn threshold_equivalence_over_shapes_and_types() {
    for &(w, h) in SHAPES {
        let src = synthetic_image(w, h, 99);
        for ty in ThresholdType::ALL {
            let mut reference = Image::new(w, h);
            try_threshold_u8(&src, &mut reference, 101, 200, ty, Engine::Scalar).unwrap();
            for engine in hand_engines() {
                let mut out = Image::new(w, h);
                try_threshold_u8(&src, &mut out, 101, 200, ty, engine).unwrap();
                assert!(out.pixels_eq(&reference), "{w}x{h} {ty:?} {engine:?}");
            }
        }
    }
}

#[test]
fn gaussian_equivalence_over_shapes() {
    let kernel = paper_gaussian_kernel();
    for &(w, h) in SHAPES {
        let src = synthetic_image(w, h, 3);
        let mut reference = Image::new(w, h);
        try_gaussian_blur_kernel(&src, &mut reference, &kernel, Engine::Scalar).unwrap();
        for engine in hand_engines() {
            let mut out = Image::new(w, h);
            try_gaussian_blur_kernel(&src, &mut out, &kernel, engine).unwrap();
            assert!(out.pixels_eq(&reference), "{w}x{h} {engine:?}");
        }
    }

    // Every odd tap count the fused ring takes, with σ swept from 0.5 to
    // 15.9 across them (kernels that do not fit u8 are skipped), plus one
    // asymmetric kernel; every width from 2r + 1 to r + 40, across the 8-
    // and 16-pixel block edges. The frames rotate with the width through
    // noise, all-255 (every intermediate at 65280), all-0, and a 128
    // impulse, whose outputs 128·w[i]·w[j] land exactly on the rounding
    // tie when w[i]·w[j] is an odd multiple of 256.
    let mut kernels: Vec<FixedKernel> = (3..=MAX_TAPS)
        .step_by(2)
        .map(|k| {
            let sigma = if k % 4 == 1 {
                k as f64 / 6.0
            } else {
                0.4 + k as f64 / 2.0
            };
            gaussian_kernel_q8(sigma, k)
        })
        .filter(FixedKernel::fits_u8)
        .collect();
    kernels.push(FixedKernel {
        weights: vec![9, 30, 101, 64, 40, 12, 0, 0, 0],
        radius: 4,
    });
    let mut scratch = Scratch::new();
    for kernel in &kernels {
        assert_eq!(kernel.sum(), 256);
        let (r, h) = (kernel.radius, 4);
        let noise = synthetic_image(r + 40, h, r as u64);
        for w in 2 * r + 1..=r + 40 {
            let src = match w % 4 {
                0 => Image::from_fn(w, h, |x, y| noise.get(x, y)),
                1 => Image::from_fn(w, h, |_, _| 255u8),
                2 => Image::new(w, h),
                _ => Image::from_fn(w, h, |x, y| if (x, y) == (w / 2, 1) { 128 } else { 0 }),
            };
            let plan = BandPlan::for_width(w);
            let mut reference = Image::new(w, h);
            try_gaussian_blur_kernel(&src, &mut reference, kernel, Engine::Scalar).unwrap();
            for engine in hand_engines() {
                let at = format!("{w}x{h} {engine:?} weights {:?}", kernel.weights);
                // A poisoned destination, so a path that skips pixels fails.
                let poisoned = || Image::from_fn(w, h, |_, _| 0xA5u8);
                let mut out = poisoned();
                try_gaussian_blur_kernel(&src, &mut out, kernel, engine).unwrap();
                assert!(out.pixels_eq(&reference), "two-pass {at}");
                let mut out = poisoned();
                try_fused_gaussian_blur_with(&src, &mut out, kernel, engine, &mut scratch).unwrap();
                assert!(out.pixels_eq(&reference), "fused {at}");
                let mut out = poisoned();
                try_par_fused_gaussian_blur_with(&src, &mut out, kernel, engine, &plan).unwrap();
                assert!(out.pixels_eq(&reference), "par fused {at}");
            }
        }
    }
}

#[test]
fn sobel_and_edge_equivalence_over_shapes() {
    for &(w, h) in SHAPES {
        let src = synthetic_image(w, h, 5);
        for dir in [SobelDirection::X, SobelDirection::Y] {
            let mut reference = Image::new(w, h);
            try_sobel(&src, &mut reference, dir, Engine::Scalar).unwrap();
            for engine in hand_engines() {
                let mut out = Image::new(w, h);
                try_sobel(&src, &mut out, dir, engine).unwrap();
                assert!(out.pixels_eq(&reference), "{w}x{h} {dir:?} {engine:?}");
            }
        }
        let mut reference = Image::new(w, h);
        try_edge_detect(&src, &mut reference, 80, Engine::Scalar).unwrap();
        for engine in hand_engines() {
            let mut out = Image::new(w, h);
            try_edge_detect(&src, &mut out, 80, engine).unwrap();
            assert!(out.pixels_eq(&reference), "edge {w}x{h} {engine:?}");
        }
    }
}

#[test]
fn parallel_wrappers_match_sequential_at_odd_shapes() {
    let (w, h) = (127, 43);
    let gray = synthetic_image(w, h, 11);
    let (kernel, plan) = (paper_gaussian_kernel(), BandPlan::for_width(w));

    let mut seq_u8 = Image::new(w, h);
    let mut par_u8 = Image::new(w, h);
    try_gaussian_blur_kernel(&gray, &mut seq_u8, &kernel, Engine::Native).unwrap();
    try_par_fused_gaussian_blur_with(&gray, &mut par_u8, &kernel, Engine::Native, &plan).unwrap();
    assert!(par_u8.pixels_eq(&seq_u8));

    try_edge_detect(&gray, &mut seq_u8, 90, Engine::Native).unwrap();
    try_par_fused_edge_detect_with(&gray, &mut par_u8, 90, Engine::Native, &plan).unwrap();
    assert!(par_u8.pixels_eq(&seq_u8));
}

#[test]
fn for_use_optimized_switches_like_opencv() {
    assert_eq!(Engine::for_use_optimized(false), Engine::Scalar);
    let on = Engine::for_use_optimized(true);
    assert!(on.is_hand() || on == Engine::Autovec);
}

#[test]
fn full_pipeline_through_bmp_roundtrip() {
    // Image file -> decode -> process -> encode -> decode: the downstream
    // user path the library advertises.
    let photo = synthetic_image(160, 120, 77);
    let encoded = bmp::encode_gray(&photo);
    let decoded = match bmp::decode(&encoded).unwrap() {
        bmp::Decoded::Gray(img) => img,
        _ => panic!("expected gray"),
    };
    assert!(decoded.pixels_eq(&photo));

    let mut edges = Image::new(160, 120);
    try_edge_detect(&decoded, &mut edges, 96, Engine::Native).unwrap();
    let edge_bmp = bmp::encode_gray(&edges);
    match bmp::decode(&edge_bmp).unwrap() {
        bmp::Decoded::Gray(round) => assert!(round.pixels_eq(&edges)),
        _ => panic!("expected gray"),
    }
}

#[test]
fn simulated_and_native_engines_agree_on_saturation_torture() {
    // Values engineered to hit every saturation branch of benchmark 1.
    let torture: Vec<f32> = vec![
        32766.4, 32766.6, 32767.5, 32768.5, -32767.4, -32768.6, -32769.5, 0.5, -0.5, 1.5, 2.5,
        -1.5, -2.5, 65536.0, -65536.0, 1e9, -1e9, 1e-9, -1e-9, 0.0,
    ];
    let w = torture.len();
    let src = Image::from_fn(w, 1, |x, _| torture[x]);
    let mut expected = Image::new(w, 1);
    try_convert_f32_to_i16(&src, &mut expected, Engine::Scalar).unwrap();
    for engine in hand_engines() {
        let mut out = Image::new(w, 1);
        try_convert_f32_to_i16(&src, &mut out, engine).unwrap();
        assert!(out.pixels_eq(&expected), "{engine:?}");
    }
}
