//! The fault matrix for the fallible (`try_*`) kernel entry points:
//! every malformed-input family must map to its exact [`KernelError`]
//! variant, on every kernel that shares the contract — and the degenerate
//! shapes that are *valid* (1×N, N×1) must keep succeeding bit-exactly.
//!
//! No failpoints are armed here; this file exercises pure validation.
//! (Injected-fault behaviour lives in `fault_injection.rs`.)

use pixelimage::{synthetic_image, Image};
use simdbench_core::dispatch::Engine;
use simdbench_core::error::{validate_frame, KernelError, KernelResult, MAX_PIXELS};
use simdbench_core::kernelgen::{paper_gaussian_kernel, FixedKernel};
use simdbench_core::pipeline::{
    try_fused_edge_detect_with, try_fused_gaussian_blur_with, try_fused_sobel_with,
    try_par_fused_edge_detect_with, try_par_fused_gaussian_blur_with, try_par_fused_sobel_with,
    BandPlan,
};
use simdbench_core::scratch::Scratch;
use simdbench_core::sobel::SobelDirection;
use simdbench_core::threshold::ThresholdType;

#[test]
fn zero_size_frames_error_not_panic() {
    let engine = Engine::Native;
    let z8 = Image::<u8>::new(0, 5);
    let mut zd8 = Image::<u8>::new(0, 5);
    let mut zi16 = Image::<i16>::new(0, 5);

    let expect = Err(KernelError::ZeroSize {
        width: 0,
        height: 5,
    });
    assert_eq!(
        simdbench_core::sobel::try_sobel(&z8, &mut zi16, SobelDirection::X, engine),
        expect
    );
    assert_eq!(
        simdbench_core::edge::try_edge_detect(&z8, &mut zd8, 96, engine),
        expect
    );
    assert_eq!(
        simdbench_core::threshold::try_threshold_u8(
            &z8,
            &mut zd8,
            96,
            255,
            ThresholdType::Binary,
            engine
        ),
        expect
    );
    assert_eq!(
        simdbench_core::gaussian::try_gaussian_blur_kernel(
            &z8,
            &mut zd8,
            &paper_gaussian_kernel(),
            engine
        ),
        expect
    );
    let zf32 = Image::<f32>::new(0, 5);
    assert_eq!(
        simdbench_core::convert::try_convert_f32_to_i16(&zf32, &mut zi16, engine),
        expect
    );
    // Height-zero as well as width-zero.
    let h0 = Image::<u8>::new(7, 0);
    let mut h0d = Image::<u8>::new(7, 0);
    assert_eq!(
        simdbench_core::edge::try_edge_detect(&h0, &mut h0d, 96, engine),
        Err(KernelError::ZeroSize {
            width: 7,
            height: 0
        })
    );
    // The panicking shims keep the historical no-op semantics.
    simdbench_core::edge::edge_detect(&z8, &mut zd8, 96, engine);
}

#[test]
fn geometry_mismatches_map_to_their_variants() {
    let engine = Engine::Native;
    let src = synthetic_image(16, 8, 1);
    let mut narrow = Image::<u8>::new(15, 8);
    let mut short = Image::<u8>::new(16, 7);

    assert_eq!(
        simdbench_core::edge::try_edge_detect(&src, &mut narrow, 96, engine),
        Err(KernelError::WidthMismatch { src: 16, dst: 15 })
    );
    assert_eq!(
        simdbench_core::edge::try_edge_detect(&src, &mut short, 96, engine),
        Err(KernelError::HeightMismatch { src: 8, dst: 7 })
    );
    // Width is checked before height when both disagree.
    let mut both = Image::<u8>::new(15, 7);
    assert_eq!(
        simdbench_core::edge::try_edge_detect(&src, &mut both, 96, engine),
        Err(KernelError::WidthMismatch { src: 16, dst: 15 })
    );

    // Multi-plane color: a plane disagreeing with the blue reference.
    let b = synthetic_image(16, 8, 2);
    let g = synthetic_image(16, 8, 3);
    let r_bad = synthetic_image(16, 7, 4);
    let mut gray = Image::<u8>::new(16, 8);
    assert_eq!(
        simdbench_core::color::try_bgr_to_gray(&b, &g, &r_bad, &mut gray, engine),
        Err(KernelError::ChannelMismatch {
            expected: (16, 8),
            got: (16, 7)
        })
    );
}

#[test]
fn max_dimension_overflow_is_rejected_before_any_allocation() {
    // Frames beyond MAX_PIXELS cannot be materialised in a test, so the
    // addressing-limit family is checked at the validation layer the
    // try_* entry points share.
    let side = 1usize << 17; // 2^34 pixels > 2^32
    assert_eq!(
        validate_frame(side, side, side),
        Err(KernelError::DimensionOverflow {
            width: side,
            height: side,
        })
    );
    // Stride × height can overflow even when width × height does not.
    let wide_stride = (MAX_PIXELS as usize) / 4;
    assert_eq!(
        validate_frame(16, 8, wide_stride),
        Err(KernelError::DimensionOverflow {
            width: 16,
            height: 8,
        })
    );
    // A stride shorter than the row is rows-overlap corruption.
    assert_eq!(
        validate_frame(100, 10, 64),
        Err(KernelError::StrideMismatch {
            stride: 64,
            width: 100
        })
    );
    // The boundary itself is accepted: 2^32 pixels exactly.
    assert_eq!(validate_frame(1 << 16, 1 << 16, 1 << 16), Ok(()));
}

#[test]
fn one_by_n_and_n_by_one_frames_succeed_and_match_the_shims() {
    // Degenerate-but-valid shapes must take the Ok path and produce the
    // same pixels as the historical panicking entry points.
    for (w, h) in [(1, 64), (64, 1), (1, 1)] {
        let src = synthetic_image(w, h, (w * 31 + h) as u64);
        let mut expect = Image::<u8>::new(w, h);
        simdbench_core::edge::edge_detect(&src, &mut expect, 96, Engine::Native);
        let mut got = Image::<u8>::new(w, h);
        assert_eq!(
            simdbench_core::edge::try_edge_detect(&src, &mut got, 96, Engine::Native),
            Ok(())
        );
        assert!(got.pixels_eq(&expect), "{w}x{h}");
    }
}

#[test]
fn non_q8_kernels_are_rejected_everywhere() {
    let src = synthetic_image(32, 16, 9);
    let mut dst = Image::<u8>::new(32, 16);
    let bad = FixedKernel {
        weights: vec![1, 2, 3, 2, 1],
        radius: 2,
    };
    assert_eq!(
        simdbench_core::gaussian::try_gaussian_blur_kernel(&src, &mut dst, &bad, Engine::Native),
        Err(KernelError::BadKernel { sum: 9 })
    );
    let mut scratch = Scratch::new();
    assert_eq!(
        try_fused_gaussian_blur_with(&src, &mut dst, &bad, Engine::Native, &mut scratch),
        Err(KernelError::BadKernel { sum: 9 })
    );
    let plan = BandPlan { band_rows: 4 };
    assert_eq!(
        try_par_fused_gaussian_blur_with(&src, &mut dst, &bad, Engine::Native, &plan),
        Err(KernelError::BadKernel { sum: 9 })
    );
    // Geometry is validated before the kernel on both Gaussian entry
    // points.
    let mut narrow = Image::<u8>::new(31, 16);
    let mismatch = Err(KernelError::WidthMismatch { src: 32, dst: 31 });
    assert_eq!(
        try_fused_gaussian_blur_with(&src, &mut narrow, &bad, Engine::Native, &mut scratch),
        mismatch
    );
    assert_eq!(
        try_par_fused_gaussian_blur_with(&src, &mut narrow, &bad, Engine::Native, &plan),
        mismatch
    );
}

#[test]
fn capped_scratch_surfaces_arena_exhausted_from_the_fused_pipeline() {
    let src = synthetic_image(128, 64, 5);
    let mut dst_u8 = Image::<u8>::new(128, 64);
    let mut dst_i16 = Image::<i16>::new(128, 64);
    let mut scratch = Scratch::with_cap_bytes(1);
    let kernel = paper_gaussian_kernel();

    match try_fused_gaussian_blur_with(&src, &mut dst_u8, &kernel, Engine::Native, &mut scratch) {
        Err(KernelError::ArenaExhausted { requested, cap }) => {
            assert_eq!(cap, 1);
            assert!(requested > 1);
        }
        other => panic!("expected ArenaExhausted, got {other:?}"),
    }
    assert!(matches!(
        try_fused_sobel_with(
            &src,
            &mut dst_i16,
            SobelDirection::X,
            Engine::Native,
            &mut scratch
        ),
        Err(KernelError::ArenaExhausted { .. })
    ));
    assert!(matches!(
        try_fused_edge_detect_with(&src, &mut dst_u8, 96, Engine::Native, &mut scratch),
        Err(KernelError::ArenaExhausted { .. })
    ));
    // Nothing was allocated and nothing is outstanding after rejections.
    assert_eq!(scratch.live_bytes(), 0);
    assert_eq!(scratch.outstanding(), 0);

    // Lifting the cap lets the identical call succeed.
    scratch.set_cap_bytes(None);
    assert_eq!(
        try_fused_gaussian_blur_with(&src, &mut dst_u8, &kernel, Engine::Native, &mut scratch),
        Ok(())
    );
    assert_eq!(scratch.outstanding(), 0, "workspace returned after use");
}

/// Runs all six fused entry points (serial and pool, per kernel) from
/// `src` into fresh `w`x`h` destinations and asserts each returns `want`.
fn assert_all_six_entry_points(src: &Image<u8>, w: usize, h: usize, want: KernelResult) {
    let (engine, dir, kernel) = (Engine::Native, SobelDirection::X, paper_gaussian_kernel());
    let (plan, mut scratch) = (BandPlan { band_rows: 4 }, Scratch::new());
    let (mut d8, mut d16) = (Image::<u8>::new(w, h), Image::<i16>::new(w, h));
    let got = [
        try_fused_gaussian_blur_with(src, &mut d8, &kernel, engine, &mut scratch),
        try_fused_sobel_with(src, &mut d16, dir, engine, &mut scratch),
        try_fused_edge_detect_with(src, &mut d8, 96, engine, &mut scratch),
        try_par_fused_gaussian_blur_with(src, &mut d8, &kernel, engine, &plan),
        try_par_fused_sobel_with(src, &mut d16, dir, engine, &plan),
        try_par_fused_edge_detect_with(src, &mut d8, 96, engine, &plan),
    ];
    let names = ["gaussian", "sobel", "edge"];
    for (i, got) in got.into_iter().enumerate() {
        let exec = if i < 3 { "fused" } else { "par_fused" };
        assert_eq!(got, want, "{exec} {} into {w}x{h}", names[i % 3]);
    }
}

#[test]
fn parallel_fused_pipeline_validates_like_the_sequential_one() {
    use KernelError::{HeightMismatch, WidthMismatch, ZeroSize};
    let src = synthetic_image(16, 8, 11);
    let z = Image::<u8>::new(0, 5);
    let h0 = Image::<u8>::new(7, 0);
    let narrow = Err(WidthMismatch { src: 16, dst: 15 });
    assert_all_six_entry_points(&src, 15, 8, narrow.clone());
    assert_all_six_entry_points(&src, 16, 7, Err(HeightMismatch { src: 8, dst: 7 }));
    // Width is checked before height when both disagree.
    assert_all_six_entry_points(&src, 15, 7, narrow);
    let zero = |width, height| Err(ZeroSize { width, height });
    assert_all_six_entry_points(&z, 0, 5, zero(0, 5));
    assert_all_six_entry_points(&h0, 7, 0, zero(7, 0));
    // Valid geometry succeeds on every entry point.
    assert_all_six_entry_points(&src, 16, 8, Ok(()));
}
