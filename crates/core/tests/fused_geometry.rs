//! Edge-geometry contract for the serial and pool-parallel fused
//! pipeline: bit-for-bit equality with the sequential two-pass kernels on
//! every engine, for shapes chosen to break lane assumptions — widths that
//! are not multiples of 8/16, widths below the kernel radius, single-row
//! and single-pixel images, and band heights that leave ragged tails.

use pixelimage::{synthetic_image, Image};
use simdbench_core::dispatch::Engine;
use simdbench_core::edge::try_edge_detect;
use simdbench_core::gaussian::try_gaussian_blur_kernel;
use simdbench_core::kernelgen::paper_gaussian_kernel;
use simdbench_core::pipeline::{
    try_fused_edge_detect_with, try_fused_gaussian_blur_with, try_fused_sobel_with,
    try_par_fused_edge_detect_with, try_par_fused_gaussian_blur_with, try_par_fused_sobel_with,
    BandPlan,
};
use simdbench_core::scratch::Scratch;
use simdbench_core::sobel::{try_sobel, SobelDirection};

/// Widths straddling the SSE/NEON 8- and 16-lane boundaries, plus widths
/// below the 7-tap Gaussian radius (3) where every engine must take its
/// scalar fallback.
const WIDTHS: &[usize] = &[1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 24, 31, 33, 63, 65];
const HEIGHTS: &[usize] = &[1, 2, 3, 4, 9];

#[test]
fn fused_gaussian_matches_sequential_on_awkward_shapes() {
    let (kernel, mut scratch) = (paper_gaussian_kernel(), Scratch::new());
    for &w in WIDTHS {
        for &h in HEIGHTS {
            let src = synthetic_image(w, h, (w * 131 + h) as u64);
            for engine in Engine::ALL {
                let mut expect = Image::new(w, h);
                try_gaussian_blur_kernel(&src, &mut expect, &kernel, engine).unwrap();
                let mut got = Image::new(w, h);
                try_fused_gaussian_blur_with(&src, &mut got, &kernel, engine, &mut scratch)
                    .unwrap();
                assert!(got.pixels_eq(&expect), "fused gaussian {w}x{h} {engine:?}");
            }
        }
    }
}

#[test]
fn fused_sobel_matches_sequential_on_awkward_shapes() {
    for &w in WIDTHS {
        for &h in HEIGHTS {
            let src = synthetic_image(w, h, (w * 137 + h) as u64);
            for dir in [SobelDirection::X, SobelDirection::Y] {
                for engine in Engine::ALL {
                    let mut expect = Image::new(w, h);
                    try_sobel(&src, &mut expect, dir, engine).unwrap();
                    let mut got = Image::new(w, h);
                    try_fused_sobel_with(&src, &mut got, dir, engine, &mut Scratch::new()).unwrap();
                    assert!(
                        got.pixels_eq(&expect),
                        "fused sobel {w}x{h} {dir:?} {engine:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn fused_edge_matches_sequential_on_awkward_shapes() {
    for &w in WIDTHS {
        for &h in HEIGHTS {
            let src = synthetic_image(w, h, (w * 139 + h) as u64);
            for engine in Engine::ALL {
                let mut expect = Image::new(w, h);
                try_edge_detect(&src, &mut expect, 96, engine).unwrap();
                let mut got = Image::new(w, h);
                try_fused_edge_detect_with(&src, &mut got, 96, engine, &mut Scratch::new())
                    .unwrap();
                assert!(got.pixels_eq(&expect), "fused edge {w}x{h} {engine:?}");
            }
        }
    }
}

#[test]
fn par_fused_with_width_plan_matches_sequential_on_awkward_shapes() {
    // The pool path under the default cache-derived plan must match the
    // two-pass kernels on every shape and engine.
    for &(w, h) in &[(1, 1), (7, 1), (9, 3), (17, 2), (33, 9), (63, 4), (129, 65)] {
        let src = synthetic_image(w, h, (w * 149 + h) as u64);
        let (kernel, plan) = (paper_gaussian_kernel(), BandPlan::for_width(w));
        for engine in Engine::ALL {
            let mut expect_u8 = Image::new(w, h);
            try_gaussian_blur_kernel(&src, &mut expect_u8, &kernel, engine).unwrap();
            let mut got_u8 = Image::new(w, h);
            try_par_fused_gaussian_blur_with(&src, &mut got_u8, &kernel, engine, &plan).unwrap();
            assert!(
                got_u8.pixels_eq(&expect_u8),
                "par gaussian {w}x{h} {engine:?}"
            );

            for dir in [SobelDirection::X, SobelDirection::Y] {
                let mut expect_i16 = Image::new(w, h);
                try_sobel(&src, &mut expect_i16, dir, engine).unwrap();
                let mut got_i16 = Image::new(w, h);
                try_par_fused_sobel_with(&src, &mut got_i16, dir, engine, &plan).unwrap();
                assert!(
                    got_i16.pixels_eq(&expect_i16),
                    "par sobel {w}x{h} {dir:?} {engine:?}"
                );
            }

            try_edge_detect(&src, &mut expect_u8, 96, engine).unwrap();
            try_par_fused_edge_detect_with(&src, &mut got_u8, 96, engine, &plan).unwrap();
            assert!(got_u8.pixels_eq(&expect_u8), "par edge {w}x{h} {engine:?}");
        }
    }
}

#[test]
fn ragged_band_tails_are_bit_exact() {
    // band_rows that do not divide the height: the last band is shorter
    // and the halo priming at each band seam must still reproduce the
    // sequential result exactly.
    let (w, h) = (41, 29);
    let src = synthetic_image(w, h, 151);
    let kernel = paper_gaussian_kernel();
    // 4 threads force the persistent pool to actually schedule bands
    // across workers (instead of the width-1 inline path on single-core
    // hosts), so seam priming is validated under stealing.
    for band_rows in [1usize, 2, 3, 5, 7, 13, 28, 29, 64] {
        let plan = BandPlan {
            band_rows,
            threads: 4,
        };

        let mut expect_u8 = Image::new(w, h);
        try_gaussian_blur_kernel(&src, &mut expect_u8, &kernel, Engine::Native).unwrap();
        let mut got_u8 = Image::new(w, h);
        try_par_fused_gaussian_blur_with(&src, &mut got_u8, &kernel, Engine::Native, &plan)
            .unwrap();
        assert!(
            got_u8.pixels_eq(&expect_u8),
            "gaussian band_rows={band_rows}"
        );

        let mut expect_i16 = Image::new(w, h);
        try_sobel(&src, &mut expect_i16, SobelDirection::X, Engine::Native).unwrap();
        let mut got_i16 = Image::new(w, h);
        try_par_fused_sobel_with(&src, &mut got_i16, SobelDirection::X, Engine::Native, &plan)
            .unwrap();
        assert!(
            got_i16.pixels_eq(&expect_i16),
            "sobel band_rows={band_rows}"
        );

        try_edge_detect(&src, &mut expect_u8, 80, Engine::Native).unwrap();
        try_par_fused_edge_detect_with(&src, &mut got_u8, 80, Engine::Native, &plan).unwrap();
        assert!(got_u8.pixels_eq(&expect_u8), "edge band_rows={band_rows}");
    }
}

#[test]
fn paper_resolutions_are_bit_exact_for_fused_pipeline() {
    // The full-size contract from the issue: fused == two-pass at all four
    // paper resolutions. Scalar reference computed once per size; every
    // engine's fused output must equal that engine's two-pass output,
    // which in turn equals the scalar reference (engine equivalence).
    use pixelimage::Resolution;
    let kernel = paper_gaussian_kernel();
    for res in Resolution::ALL {
        let (w, h) = res.dims();
        let src = synthetic_image(w, h, 7 + w as u64);
        let mut expect = Image::new(w, h);
        try_edge_detect(&src, &mut expect, 96, Engine::Native).unwrap();
        let mut got = Image::new(w, h);
        let plan = BandPlan::for_width(w);
        try_par_fused_edge_detect_with(&src, &mut got, 96, Engine::Native, &plan).unwrap();
        assert!(got.pixels_eq(&expect), "{res:?} edge");

        try_gaussian_blur_kernel(&src, &mut expect, &kernel, Engine::Native).unwrap();
        try_par_fused_gaussian_blur_with(&src, &mut got, &kernel, Engine::Native, &plan).unwrap();
        assert!(got.pixels_eq(&expect), "{res:?} gaussian");
    }
}
