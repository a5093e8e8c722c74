//! Property-based tests over the core invariants:
//!
//! * Backend equivalence on arbitrary in-domain inputs (and a pinned test
//!   for the out-of-domain SSE/NEON divergence).
//! * Algebraic properties of the kernels (idempotence, monotonicity,
//!   linear-phase symmetry).
//! * Lane-type and intrinsic algebra in `simd-vector` / the ISA sims.

use proptest::prelude::*;
use simd_repro::kernels::prelude::*;
use simd_repro::vector::rounding;

/// Largest `f32` strictly below 2^31 (= 2^31 - 128; 2^31 itself is the
/// first value outside the conversion domain).
const MAX_IN_DOMAIN_F32: f32 = 2_147_483_520.0;

/// The conversion kernel's documented domain: values representable in
/// `i32`, i.e. |v| < 2^31. Beyond that, SSE2's `cvtps2dq` produces the
/// "integer indefinite" value instead of saturating (a quirk OpenCV's
/// SSE2 path shares — see `sse_integer_indefinite_divergence_outside_domain`
/// and the pinned tests in `convert_domain_boundary` below). Engine
/// equivalence is only claimed inside this domain, so the strategy must
/// never emit values at or beyond 2^31: a historical checked-in proptest
/// regression replayed 3361828000.0 (> 2^31) against the equivalence
/// property and permanently failed the seed suite. That case is now a
/// pinned divergence test instead.
fn any_in_domain_f32() -> impl Strategy<Value = f32> {
    prop_oneof![
        -1.0e5f32..1.0e5,
        -40000.0f32..40000.0,
        -MAX_IN_DOMAIN_F32..MAX_IN_DOMAIN_F32,
        Just(0.5f32),
        Just(-0.5f32),
        Just(32767.5f32),
        Just(-32768.5f32),
        Just(MAX_IN_DOMAIN_F32),
        Just(-2_147_483_648.0f32), // -2^31 exactly: still representable in i32
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn convert_rows_agree_across_engines(
        values in prop::collection::vec(any_in_domain_f32(), 0..100)
    ) {
        let mut expect = vec![0i16; values.len()];
        simd_repro::kernels::convert::convert_row_scalar(&values, &mut expect);
        for engine in Engine::ALL {
            let mut out = vec![0i16; values.len()];
            simd_repro::kernels::convert::convert_row(&values, &mut out, engine);
            prop_assert_eq!(&out, &expect, "engine {:?}", engine);
        }
    }

    #[test]
    fn convert_matches_saturating_reference(value in any_in_domain_f32()) {
        let row = [value; 8];
        let mut out = [0i16; 8];
        simd_repro::kernels::convert::convert_row(&row, &mut out, Engine::Native);
        let expect = rounding::saturate_f32_to_i16(value);
        prop_assert!(out.iter().all(|&v| v == expect));
    }

    #[test]
    fn sse_integer_indefinite_divergence_outside_domain(v in 2.2e9f32..3.0e38) {
        // Outside the i32 range the architectures genuinely disagree:
        // NEON saturates, SSE2 returns 0x8000_0000. Faithful reproduction
        // means the HAND SSE kernel inherits OpenCV's quirk.
        let row = [v; 8];
        let mut sse = [0i16; 8];
        simd_repro::kernels::convert::convert_row(&row, &mut sse, Engine::Sse2Sim);
        prop_assert!(sse.iter().all(|&x| x == i16::MIN));
        let mut neon = [0i16; 8];
        simd_repro::kernels::convert::convert_row(&row, &mut neon, Engine::NeonSim);
        prop_assert!(neon.iter().all(|&x| x == i16::MAX));
    }

    #[test]
    fn threshold_rows_agree_and_are_monotonic(
        values in prop::collection::vec(any::<u8>(), 0..80),
        thresh in any::<u8>(),
        maxval in any::<u8>(),
    ) {
        for ty in ThresholdType::ALL {
            let mut expect = vec![0u8; values.len()];
            simd_repro::kernels::threshold::threshold_row_scalar(
                &values, &mut expect, thresh, maxval, ty);
            for engine in Engine::ALL {
                let mut out = vec![0u8; values.len()];
                simd_repro::kernels::threshold::threshold_row(
                    &values, &mut out, thresh, maxval, ty, engine);
                prop_assert_eq!(&out, &expect, "{:?} {:?}", ty, engine);
            }
        }
        // Binary output only contains {0, maxval}.
        let mut bin = vec![0u8; values.len()];
        simd_repro::kernels::threshold::threshold_row(
            &values, &mut bin, thresh, maxval, ThresholdType::Binary, Engine::Native);
        prop_assert!(bin.iter().all(|&v| v == 0 || v == maxval));
    }

    #[test]
    fn binary_threshold_is_idempotent(
        values in prop::collection::vec(any::<u8>(), 1..64),
        thresh in any::<u8>(),
    ) {
        let mut once = vec![0u8; values.len()];
        simd_repro::kernels::threshold::threshold_row(
            &values, &mut once, thresh, 255, ThresholdType::Binary, Engine::Native);
        let mut twice = vec![0u8; values.len()];
        simd_repro::kernels::threshold::threshold_row(
            &once, &mut twice, thresh, 255, ThresholdType::Binary, Engine::Native);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn gaussian_engines_agree_on_random_images(
        seed in any::<u64>(),
        w in 1usize..40,
        h in 1usize..12,
    ) {
        let src = simd_repro::image::synthetic_image(w, h, seed);
        let mut reference = Image::new(w, h);
        try_gaussian_blur_kernel(&src, &mut reference, &paper_gaussian_kernel(), Engine::Scalar).unwrap();
        for engine in [Engine::Sse2Sim, Engine::NeonSim, Engine::Native] {
            let mut out = Image::new(w, h);
            try_gaussian_blur_kernel(&src, &mut out, &paper_gaussian_kernel(), engine).unwrap();
            prop_assert!(out.pixels_eq(&reference), "{:?} {}x{} seed {}", engine, w, h, seed);
        }
    }

    #[test]
    fn gaussian_preserves_constants_and_bounds(
        value in any::<u8>(), w in 1usize..30, h in 1usize..10
    ) {
        let src = Image::from_fn(w, h, |_, _| value);
        let mut dst = Image::new(w, h);
        try_gaussian_blur_kernel(&src, &mut dst, &paper_gaussian_kernel(), Engine::Native).unwrap();
        prop_assert!(dst.all_pixels(|p| p == value));
    }

    #[test]
    fn gaussian_output_within_input_range(
        seed in any::<u64>(), w in 2usize..30, h in 2usize..10
    ) {
        let src = simd_repro::image::synthetic_image(w, h, seed);
        let lo = src.iter_pixels().min().unwrap();
        let hi = src.iter_pixels().max().unwrap();
        let mut dst = Image::new(w, h);
        try_gaussian_blur_kernel(&src, &mut dst, &paper_gaussian_kernel(), Engine::Native).unwrap();
        // A normalised non-negative kernel cannot escape the input range
        // (allow 1 count of fixed-point rounding).
        prop_assert!(dst.all_pixels(|p| p >= lo.saturating_sub(1) && p <= hi.saturating_add(1)));
    }

    #[test]
    fn sobel_engines_agree_and_invert(
        seed in any::<u64>(), w in 1usize..40, h in 1usize..12
    ) {
        let src = simd_repro::image::synthetic_image(w, h, seed);
        for dir in [SobelDirection::X, SobelDirection::Y] {
            let mut reference = Image::new(w, h);
            try_sobel(&src, &mut reference, dir, Engine::Scalar).unwrap();
            for engine in [Engine::Sse2Sim, Engine::NeonSim, Engine::Native] {
                let mut out = Image::new(w, h);
                try_sobel(&src, &mut out, dir, engine).unwrap();
                prop_assert!(out.pixels_eq(&reference), "{:?}/{:?}", dir, engine);
            }
        }
        // Mirroring the image horizontally negates gx at mirrored columns.
        let mirrored = Image::from_fn(w, h, |x, y| src.get(w - 1 - x, y));
        let mut gx = Image::new(w, h);
        let mut gx_m = Image::new(w, h);
        try_sobel(&src, &mut gx, SobelDirection::X, Engine::Native).unwrap();
        try_sobel(&mirrored, &mut gx_m, SobelDirection::X, Engine::Native).unwrap();
        for y in 0..h {
            for x in 0..w {
                prop_assert_eq!(gx.get(x, y), -gx_m.get(w - 1 - x, y));
            }
        }
    }

    #[test]
    fn saturating_casts_clamp(v in any::<i32>()) {
        let s = rounding::saturate_i32_to_i16(v);
        prop_assert_eq!(s as i32, v.clamp(i16::MIN as i32, i16::MAX as i32));
        let u = rounding::saturate_i32_to_u8(v);
        prop_assert_eq!(u as i32, v.clamp(0, 255));
    }

    #[test]
    fn sse_and_neon_packing_identity(lo in any::<[i32; 4]>(), hi in any::<[i32; 4]>()) {
        let sse = simd_repro::sse::_mm_packs_epi32(
            simd_repro::sse::__m128i::from_i32(lo.into()),
            simd_repro::sse::__m128i::from_i32(hi.into()),
        ).as_i16();
        let neon = simd_repro::neon::vcombine_s16(
            simd_repro::neon::vqmovn_s32(lo.into()),
            simd_repro::neon::vqmovn_s32(hi.into()),
        );
        prop_assert_eq!(sse, neon);
    }

    #[test]
    fn bitselect_is_involutive_on_complement(
        mask in any::<[u8; 16]>(), a in any::<[u8; 16]>(), b in any::<[u8; 16]>()
    ) {
        use simd_repro::neon::{vbslq_u8, vmvnq_u8};
        let m: simd_repro::vector::U8x16 = mask.into();
        let sel = vbslq_u8(m, a.into(), b.into());
        let sel_inv = vbslq_u8(vmvnq_u8(m), b.into(), a.into());
        prop_assert_eq!(sel, sel_inv);
    }

    #[test]
    fn bmp_gray_roundtrip(seed in any::<u64>(), w in 1usize..50, h in 1usize..20) {
        let img = simd_repro::image::synthetic_image(w, h, seed);
        let bytes = simd_repro::image::bmp::encode_gray(&img);
        match simd_repro::image::bmp::decode(&bytes).unwrap() {
            simd_repro::image::bmp::Decoded::Gray(out) => prop_assert!(out.pixels_eq(&img)),
            _ => prop_assert!(false, "expected gray"),
        }
    }
}

/// Pinned behaviour at and around the 2^31 conversion-domain boundary.
///
/// These replace the old checked-in `proptests.proptest-regressions` entry
/// (shrunk value 3361828000.0): that value is *outside* the documented
/// |v| < 2^31 domain of `try_convert_f32_to_i16`, where SSE2 and NEON
/// genuinely disagree by design, so replaying it against the
/// all-engines-agree property made the suite permanently red. The
/// divergence itself is real, faithful to the hardware, and pinned here.
mod convert_domain_boundary {
    use simd_repro::kernels::prelude::*;
    use simd_repro::vector::rounding;

    /// Runs one value through a width-8 row on the given engine.
    fn convert8(v: f32, engine: Engine) -> [i16; 8] {
        let row = [v; 8];
        let mut out = [0i16; 8];
        simd_repro::kernels::convert::convert_row(&row, &mut out, engine);
        out
    }

    /// The old regression value: out of domain, engines disagree by design.
    #[test]
    fn historical_regression_value_diverges_by_design() {
        let v = 3_361_828_000.0f32;
        assert!(v >= 2_147_483_648.0, "value must lie outside the domain");
        // SSE2 `cvtps2dq` yields the integer indefinite 0x8000_0000, which
        // `packs` then saturates to i16::MIN.
        assert_eq!(convert8(v, Engine::Sse2Sim), [i16::MIN; 8]);
        // NEON `vcvtq` saturates to i32::MAX, then `vqmovn` to i16::MAX.
        assert_eq!(convert8(v, Engine::NeonSim), [i16::MAX; 8]);
    }

    /// 2^31 - 128: the largest f32 below 2^31. In domain — every engine
    /// must agree with the scalar saturating reference.
    #[test]
    fn last_value_below_2_pow_31_is_in_domain() {
        let v = 2_147_483_520.0f32;
        let expect = rounding::saturate_f32_to_i16(v);
        assert_eq!(expect, i16::MAX);
        for engine in Engine::ALL {
            assert_eq!(convert8(v, engine), [expect; 8], "{engine:?}");
        }
    }

    /// 2^31 exactly: the first value outside the domain. SSE2 flips to the
    /// integer indefinite; NEON saturates.
    #[test]
    fn first_value_at_2_pow_31_diverges() {
        let v = 2_147_483_648.0f32;
        assert_eq!(convert8(v, Engine::Sse2Sim), [i16::MIN; 8]);
        assert_eq!(convert8(v, Engine::NeonSim), [i16::MAX; 8]);
    }

    /// -2^31 exactly: representable in i32, so still in domain; all
    /// engines agree on i16::MIN.
    #[test]
    fn negative_2_pow_31_is_in_domain() {
        let v = -2_147_483_648.0f32;
        for engine in Engine::ALL {
            assert_eq!(convert8(v, engine), [i16::MIN; 8], "{engine:?}");
        }
    }

    /// Below -2^31 the paths differ mechanically (indefinite vs saturate)
    /// but land on the same i16: both i16::MIN. Pinned so a refactor that
    /// breaks one path shows up even though the other masks it above.
    #[test]
    fn below_negative_2_pow_31_engines_coincide() {
        let v = -3_361_828_000.0f32;
        assert_eq!(convert8(v, Engine::Sse2Sim), [i16::MIN; 8]);
        assert_eq!(convert8(v, Engine::NeonSim), [i16::MIN; 8]);
    }
}
