//! Benchmark 1 — saturating conversion of 32-bit float pixels to 16-bit
//! signed integers (OpenCV's `cvt_32f16s`, paper Section III-A.1).
//!
//! The paper quotes the three variants verbatim; they are reproduced here:
//! the scalar `saturate_cast<short>` loop, the SSE2 loop
//! (`loadu_ps` → `cvtps_epi32` ×2 → `packs_epi32` → `storeu_si128`), and the
//! NEON loop (`vld1q_f32` → `vcvt` → `vqmovn_s32` ×2 → `vcombine_s16` →
//! `vst1q_s16`). One deliberate fix: the NEON path uses the rounding
//! conversion (`vcvtnq`) instead of ARMv7's truncating `vcvtq`, so all
//! backends agree bit-for-bit with `cvRound` (see `neon-sim` crate docs).

use crate::dispatch::Engine;
use crate::error::{validate_pair, KernelResult};
use pixelimage::Image;
use simd_vector::rounding::saturate_f32_to_i16;

/// Converts a float image to a saturated `i16` image using `engine`.
///
/// `src` and `dst` must have identical, non-zero dimensions; a malformed
/// frame surfaces as a [`KernelError`](crate::error::KernelError).
///
/// # Domain
///
/// Inputs must be representable in `i32` (|v| < 2³¹) for the backends to
/// agree bit-for-bit: beyond that, SSE2's `cvtps2dq` yields the "integer
/// indefinite" value `0x8000_0000` where NEON and the scalar `cvRound`
/// saturate — a quirk the paper's (and OpenCV's) SSE2 kernel has on real
/// hardware, reproduced faithfully here.
pub fn try_convert_f32_to_i16(
    src: &Image<f32>,
    dst: &mut Image<i16>,
    engine: Engine,
) -> KernelResult {
    validate_pair(src, dst)?;
    if let Some(fault) = faultline::inject("kernel.entry") {
        return Err(fault.into());
    }
    for y in 0..src.height() {
        let s = src.row(y);
        let d = dst.row_mut(y);
        convert_row(s, d, engine);
    }
    Ok(())
}

/// Converts one row with the chosen engine.
#[inline]
pub fn convert_row(src: &[f32], dst: &mut [i16], engine: Engine) {
    match engine {
        Engine::Scalar => convert_row_scalar(src, dst),
        Engine::Autovec => convert_row_autovec(src, dst),
        Engine::Sse2Sim => convert_row_sse2_sim(src, dst),
        Engine::NeonSim => convert_row_neon_sim(src, dst),
        Engine::Native => convert_row_native(src, dst),
    }
}

/// The original OpenCV loop: `dst[x] = saturate_cast<short>(src[x])` — one
/// `cvRound` plus one clamp per pixel.
pub fn convert_row_scalar(src: &[f32], dst: &mut [i16]) {
    assert_eq!(src.len(), dst.len());
    for x in 0..src.len() {
        dst[x] = saturate_f32_to_i16(src[x]);
    }
}

/// Auto-vectorizer-friendly restructuring: straight-line slice iteration
/// with no bounds checks inside the loop body. What the compiler makes of
/// this is exactly the paper's AUTO measurement.
pub fn convert_row_autovec(src: &[f32], dst: &mut [i16]) {
    assert_eq!(src.len(), dst.len());
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        *d = saturate_f32_to_i16(s);
    }
}

/// The paper's SSE2 listing, executed through the simulated surface.
pub fn convert_row_sse2_sim(src: &[f32], dst: &mut [i16]) {
    assert_eq!(src.len(), dst.len());
    let width = src.len();
    let mut x = 0;
    while x + 8 <= width {
        let src128 = sse_sim::_mm_loadu_ps(&src[x..]);
        let src_int128 = sse_sim::_mm_cvtps_epi32(src128);
        let src128 = sse_sim::_mm_loadu_ps(&src[x + 4..]);
        let src1_int128 = sse_sim::_mm_cvtps_epi32(src128);
        let packed = sse_sim::_mm_packs_epi32(src_int128, src1_int128);
        sse_sim::_mm_storeu_si128(&mut dst[x..], packed);
        x += 8;
    }
    convert_row_scalar(&src[x..], &mut dst[x..]);
}

/// The paper's NEON listing, executed through the simulated surface
/// (rounding conversion, see module docs).
pub fn convert_row_neon_sim(src: &[f32], dst: &mut [i16]) {
    assert_eq!(src.len(), dst.len());
    let width = src.len();
    let mut x = 0;
    while x + 8 <= width {
        let src128 = neon_sim::vld1q_f32(&src[x..]);
        let src_int128 = neon_sim::vcvtnq_s32_f32(src128);
        let src0_int64 = neon_sim::vqmovn_s32(src_int128);
        let src128 = neon_sim::vld1q_f32(&src[x + 4..]);
        let src_int128 = neon_sim::vcvtnq_s32_f32(src128);
        let src1_int64 = neon_sim::vqmovn_s32(src_int128);
        let res_int128 = neon_sim::vcombine_s16(src0_int64, src1_int64);
        neon_sim::vst1q_s16(&mut dst[x..], res_int128);
        x += 8;
    }
    convert_row_scalar(&src[x..], &mut dst[x..]);
}

/// The hand-tuned loop on the host's real SIMD unit.
pub fn convert_row_native(src: &[f32], dst: &mut [i16]) {
    #[cfg(target_arch = "x86_64")]
    {
        convert_row_native_sse2(src, dst);
    }
    #[cfg(target_arch = "aarch64")]
    {
        convert_row_native_neon(src, dst);
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        convert_row_autovec(src, dst);
    }
}

/// Real-silicon SSE2 version of the paper's listing.
#[cfg(target_arch = "x86_64")]
fn convert_row_native_sse2(src: &[f32], dst: &mut [i16]) {
    use std::arch::x86_64::*;
    assert_eq!(src.len(), dst.len());
    let width = src.len();
    let mut x = 0;
    // SAFETY: every load reads src[x..x+8] and every store writes
    // dst[x..x+8]; the loop condition keeps x+8 <= width for both slices,
    // which have equal length. SSE2 is part of the x86_64 baseline.
    unsafe {
        while x + 8 <= width {
            let s0 = _mm_loadu_ps(src.as_ptr().add(x));
            let i0 = _mm_cvtps_epi32(s0);
            let s1 = _mm_loadu_ps(src.as_ptr().add(x + 4));
            let i1 = _mm_cvtps_epi32(s1);
            let packed = _mm_packs_epi32(i0, i1);
            _mm_storeu_si128(dst.as_mut_ptr().add(x) as *mut __m128i, packed);
            x += 8;
        }
    }
    convert_row_scalar(&src[x..], &mut dst[x..]);
}

/// Real-silicon NEON version of the paper's listing (ARMv8 hosts).
#[cfg(target_arch = "aarch64")]
fn convert_row_native_neon(src: &[f32], dst: &mut [i16]) {
    use std::arch::aarch64::*;
    assert_eq!(src.len(), dst.len());
    let width = src.len();
    let mut x = 0;
    // SAFETY: bounds maintained as in the SSE2 variant; NEON is part of the
    // aarch64 baseline.
    unsafe {
        while x + 8 <= width {
            let s0 = vld1q_f32(src.as_ptr().add(x));
            let i0 = vcvtnq_s32_f32(s0);
            let n0 = vqmovn_s32(i0);
            let s1 = vld1q_f32(src.as_ptr().add(x + 4));
            let i1 = vcvtnq_s32_f32(s1);
            let n1 = vqmovn_s32(i1);
            let res = vcombine_s16(n0, n1);
            vst1q_s16(dst.as_mut_ptr().add(x), res);
            x += 8;
        }
    }
    convert_row_scalar(&src[x..], &mut dst[x..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::KernelError;
    use pixelimage::synthetic_image_f32;

    fn reference(src: &[f32]) -> Vec<i16> {
        src.iter().map(|&v| saturate_f32_to_i16(v)).collect()
    }

    fn test_row() -> Vec<f32> {
        let mut row: Vec<f32> = (-50..50).map(|i| i as f32 * 997.25).collect();
        row.extend([0.5, 1.5, 2.5, -0.5, -1.5, -2.5, 4e4, -4e4, 1e9, -1e9, 0.0]);
        row
    }

    #[test]
    fn all_engines_match_reference_on_edge_values() {
        let src = test_row();
        let expect = reference(&src);
        for engine in Engine::ALL {
            let mut dst = vec![0i16; src.len()];
            convert_row(&src, &mut dst, engine);
            assert_eq!(dst, expect, "engine {engine:?}");
        }
    }

    #[test]
    fn tail_handling_below_vector_width() {
        for len in 0..24 {
            let src: Vec<f32> = (0..len).map(|i| i as f32 * 3.3 - 10.0).collect();
            let expect = reference(&src);
            for engine in Engine::ALL {
                let mut dst = vec![0i16; len];
                convert_row(&src, &mut dst, engine);
                assert_eq!(dst, expect, "engine {engine:?} len {len}");
            }
        }
    }

    #[test]
    fn full_image_conversion_all_engines_agree() {
        let srcu8 = synthetic_image_f32(161, 73, 42);
        // Scale into a range that exercises saturation both ways.
        let src = srcu8.map(|v| (v - 128.0) * 400.0);
        let mut reference_img = Image::new(src.width(), src.height());
        try_convert_f32_to_i16(&src, &mut reference_img, Engine::Scalar).unwrap();
        for engine in [
            Engine::Autovec,
            Engine::Sse2Sim,
            Engine::NeonSim,
            Engine::Native,
        ] {
            let mut out = Image::new(src.width(), src.height());
            try_convert_f32_to_i16(&src, &mut out, engine).unwrap();
            assert!(out.pixels_eq(&reference_img), "engine {engine:?} diverged");
        }
    }

    #[test]
    fn saturation_is_exercised() {
        let src = Image::<f32>::from_fn(16, 1, |x, _| if x % 2 == 0 { 1e6 } else { -1e6 });
        let mut dst = Image::new(16, 1);
        try_convert_f32_to_i16(&src, &mut dst, Engine::Native).unwrap();
        for x in 0..16 {
            let expect = if x % 2 == 0 { i16::MAX } else { i16::MIN };
            assert_eq!(dst.get(x, 0), expect);
        }
    }

    #[test]
    fn dimension_mismatch_is_an_error() {
        let src = Image::<f32>::new(4, 4);
        let mut dst = Image::<i16>::new(5, 4);
        assert_eq!(
            try_convert_f32_to_i16(&src, &mut dst, Engine::Scalar),
            Err(KernelError::WidthMismatch { src: 4, dst: 5 })
        );
    }

    #[test]
    fn hand_neon_stream_is_14_ops_per_8_pixels() {
        // The Section V result: 8 SIMD ops per 8 pixels from the intrinsics
        // (2 loads, 2 converts, 2 narrows, 1 combine, 1 store); the 6
        // address/loop ops are integer overhead not visible to the sim, so
        // the traced SIMD count must be exactly 8 per 8 pixels.
        let src: Vec<f32> = (0..80).map(|i| i as f32).collect();
        let mut dst = vec![0i16; 80];
        let (_, mix) = op_trace::trace(|| convert_row_neon_sim(&src, &mut dst));
        assert_eq!(mix.simd_total(), 8 * (80 / 8));
        assert_eq!(mix.get(op_trace::OpClass::SimdLoad), 2 * 10);
        assert_eq!(mix.get(op_trace::OpClass::SimdStore), 10);
        assert_eq!(mix.get(op_trace::OpClass::SimdConvert), 4 * 10);
        assert_eq!(mix.get(op_trace::OpClass::SimdAlu), 10); // vcombine
    }

    #[test]
    fn hand_sse_stream_is_6_simd_ops_per_8_pixels() {
        // SSE2 needs two fewer intrinsics (single-step pack).
        let src: Vec<f32> = (0..80).map(|i| i as f32).collect();
        let mut dst = vec![0i16; 80];
        let (_, mix) = op_trace::trace(|| convert_row_sse2_sim(&src, &mut dst));
        assert_eq!(mix.simd_total(), 6 * (80 / 8));
    }
}
