//! Extension kernel — BGR→grayscale color conversion (experiment A5).
//!
//! The paper's related work (Pulli et al., CACM 2012) reports a 9.5× NEON
//! speed-up for color conversion on the Tegra 3; this module adds the kernel
//! to the benchmark family with the same five-backend structure, using
//! OpenCV's fixed-point ITU-R BT.601 weights:
//!
//! `gray = (R*9798 + G*19235 + B*3735 + 2^14) >> 15`
//!
//! (the Q15 quantisation of 0.299/0.587/0.114; the weights sum to 2^15 so
//! converting a gray-in-BGR image is the identity).

use crate::dispatch::Engine;
use crate::error::{validate_frame, KernelError, KernelResult};
use pixelimage::Image;

/// Q15 fixed-point BT.601 luma weights (R, G, B), summing to 2^15.
pub const WEIGHT_R: u16 = 9798;
/// Green weight.
pub const WEIGHT_G: u16 = 19235;
/// Blue weight.
pub const WEIGHT_B: u16 = 3735;
const ROUND: u32 = 1 << 14;

/// Converts planar B, G, R images to grayscale using `engine`.
/// Validates geometry, including the cross-plane channel agreement.
pub fn try_bgr_to_gray(
    b: &Image<u8>,
    g: &Image<u8>,
    r: &Image<u8>,
    dst: &mut Image<u8>,
    engine: Engine,
) -> KernelResult {
    if b.width() != dst.width() {
        return Err(KernelError::WidthMismatch {
            src: b.width(),
            dst: dst.width(),
        });
    }
    if b.height() != dst.height() {
        return Err(KernelError::HeightMismatch {
            src: b.height(),
            dst: dst.height(),
        });
    }
    for plane in [g, r] {
        if plane.width() != b.width() || plane.height() != b.height() {
            return Err(KernelError::ChannelMismatch {
                expected: (b.width(), b.height()),
                got: (plane.width(), plane.height()),
            });
        }
    }
    validate_frame(b.width(), b.height(), b.stride())?;
    validate_frame(dst.width(), dst.height(), dst.stride())?;
    if let Some(fault) = faultline::inject("kernel.entry") {
        return Err(fault.into());
    }
    for y in 0..b.height() {
        bgr_row(b.row(y), g.row(y), r.row(y), dst.row_mut(y), engine);
    }
    Ok(())
}

/// Converts one row of planar BGR to gray.
pub fn bgr_row(b: &[u8], g: &[u8], r: &[u8], dst: &mut [u8], engine: Engine) {
    match engine {
        Engine::Scalar => bgr_row_scalar(b, g, r, dst),
        Engine::Autovec => bgr_row_autovec(b, g, r, dst),
        Engine::Sse2Sim => bgr_row_sse2_sim(b, g, r, dst),
        Engine::NeonSim => bgr_row_neon_sim(b, g, r, dst),
        Engine::Native => bgr_row_native(b, g, r, dst),
    }
}

#[inline]
fn luma(b: u8, g: u8, r: u8) -> u8 {
    let acc = r as u32 * WEIGHT_R as u32 + g as u32 * WEIGHT_G as u32 + b as u32 * WEIGHT_B as u32;
    ((acc + ROUND) >> 15) as u8
}

/// Per-pixel reference loop.
pub fn bgr_row_scalar(b: &[u8], g: &[u8], r: &[u8], dst: &mut [u8]) {
    assert_eq!(b.len(), dst.len());
    for x in 0..dst.len() {
        dst[x] = luma(b[x], g[x], r[x]);
    }
}

/// Iterator-shaped loop for the auto-vectorizer.
pub fn bgr_row_autovec(b: &[u8], g: &[u8], r: &[u8], dst: &mut [u8]) {
    assert_eq!(b.len(), dst.len());
    for (((d, &bv), &gv), &rv) in dst.iter_mut().zip(b).zip(g).zip(r) {
        *d = luma(bv, gv, rv);
    }
}

/// SSE2: widen bytes to u16, split the Q15 products with
/// `pmullw`/`pmulhuw`, accumulate in u32, rounding shift, double pack.
pub fn bgr_row_sse2_sim(b: &[u8], g: &[u8], r: &[u8], dst: &mut [u8]) {
    use sse_sim::*;
    assert_eq!(b.len(), dst.len());
    let w = dst.len();
    let zero = _mm_setzero_si128();
    let round = _mm_set1_epi32(ROUND as i32);
    let wr = _mm_set1_epi16(WEIGHT_R as i16);
    let wg = _mm_set1_epi16(WEIGHT_G as i16);
    let wb = _mm_set1_epi16(WEIGHT_B as i16);
    let mut x = 0;
    while x + 8 <= w {
        let mut acc_lo = round;
        let mut acc_hi = round;
        for (plane, weight) in [(r, wr), (g, wg), (b, wb)] {
            let v = _mm_unpacklo_epi8(_mm_loadl_epi64(&plane[x..]), zero);
            let lo16 = _mm_mullo_epi16(v, weight);
            let hi16 = _mm_mulhi_epu16(v, weight);
            acc_lo = _mm_add_epi32(acc_lo, _mm_unpacklo_epi16(lo16, hi16));
            acc_hi = _mm_add_epi32(acc_hi, _mm_unpackhi_epi16(lo16, hi16));
        }
        let packed16 = _mm_packs_epi32(_mm_srli_epi32::<15>(acc_lo), _mm_srli_epi32::<15>(acc_hi));
        let packed8 = _mm_packus_epi16(packed16, packed16);
        _mm_storel_epi64(&mut dst[x..], packed8);
        x += 8;
    }
    bgr_row_scalar(&b[x..], &g[x..], &r[x..], &mut dst[x..]);
}

/// NEON: `vmull_u16` widening MACs per channel, rounding narrow.
pub fn bgr_row_neon_sim(b: &[u8], g: &[u8], r: &[u8], dst: &mut [u8]) {
    use neon_sim::*;
    assert_eq!(b.len(), dst.len());
    let w = dst.len();
    let round = vdupq_n_u32(ROUND);
    let wr = uint16x4_t::splat(WEIGHT_R);
    let wg = uint16x4_t::splat(WEIGHT_G);
    let wb = uint16x4_t::splat(WEIGHT_B);
    let mut x = 0;
    while x + 8 <= w {
        let mut acc_lo = round;
        let mut acc_hi = round;
        for (plane, weight) in [(r, wr), (g, wg), (b, wb)] {
            let v = vmovl_u8(vld1_u8(&plane[x..]));
            acc_lo = vmlal_u16(acc_lo, vget_low_u16(v), weight);
            acc_hi = vmlal_u16(acc_hi, vget_high_u16(v), weight);
        }
        let n_lo = vmovn_u32(vshrq_n_u32(acc_lo, 15));
        let n_hi = vmovn_u32(vshrq_n_u32(acc_hi, 15));
        vst1_u8(&mut dst[x..], vqmovn_u16(vcombine_u16(n_lo, n_hi)));
        x += 8;
    }
    bgr_row_scalar(&b[x..], &g[x..], &r[x..], &mut dst[x..]);
}

/// Color conversion on the host's real SIMD unit.
pub fn bgr_row_native(b: &[u8], g: &[u8], r: &[u8], dst: &mut [u8]) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::*;
        assert_eq!(b.len(), dst.len());
        assert!(g.len() >= dst.len() && r.len() >= dst.len());
        let w = dst.len();
        let mut x = 0;
        // SAFETY: each 64-bit load reads plane[x..x+8]; the store writes
        // dst[x..x+8]; x + 8 <= w throughout and all slices have length
        // >= w (asserted above).
        unsafe {
            let zero = _mm_setzero_si128();
            let round = _mm_set1_epi32(ROUND as i32);
            let wr = _mm_set1_epi16(WEIGHT_R as i16);
            let wg = _mm_set1_epi16(WEIGHT_G as i16);
            let wb = _mm_set1_epi16(WEIGHT_B as i16);
            while x + 8 <= w {
                let mut acc_lo = round;
                let mut acc_hi = round;
                for (plane, weight) in [(r, wr), (g, wg), (b, wb)] {
                    let v = _mm_unpacklo_epi8(
                        _mm_loadl_epi64(plane.as_ptr().add(x) as *const __m128i),
                        zero,
                    );
                    let lo16 = _mm_mullo_epi16(v, weight);
                    let hi16 = _mm_mulhi_epu16(v, weight);
                    acc_lo = _mm_add_epi32(acc_lo, _mm_unpacklo_epi16(lo16, hi16));
                    acc_hi = _mm_add_epi32(acc_hi, _mm_unpackhi_epi16(lo16, hi16));
                }
                let packed16 =
                    _mm_packs_epi32(_mm_srli_epi32::<15>(acc_lo), _mm_srli_epi32::<15>(acc_hi));
                let packed8 = _mm_packus_epi16(packed16, packed16);
                _mm_storel_epi64(dst.as_mut_ptr().add(x) as *mut __m128i, packed8);
                x += 8;
            }
        }
        bgr_row_scalar(&b[x..], &g[x..], &r[x..], &mut dst[x..]);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        bgr_row_autovec(b, g, r, dst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixelimage::synthetic_image;

    #[test]
    fn weights_sum_to_q15_one() {
        assert_eq!(WEIGHT_R as u32 + WEIGHT_G as u32 + WEIGHT_B as u32, 1 << 15);
    }

    #[test]
    fn gray_input_is_identity() {
        // When B == G == R the conversion must return the common value.
        let v = synthetic_image(50, 20, 1);
        let mut out = Image::new(50, 20);
        for engine in Engine::ALL {
            try_bgr_to_gray(&v, &v, &v, &mut out, engine).unwrap();
            assert!(out.pixels_eq(&v), "{engine:?}");
        }
    }

    #[test]
    fn all_engines_match_scalar() {
        let b = synthetic_image(83, 31, 10);
        let g = synthetic_image(83, 31, 11);
        let r = synthetic_image(83, 31, 12);
        let mut reference = Image::new(83, 31);
        try_bgr_to_gray(&b, &g, &r, &mut reference, Engine::Scalar).unwrap();
        for engine in [
            Engine::Autovec,
            Engine::Sse2Sim,
            Engine::NeonSim,
            Engine::Native,
        ] {
            let mut out = Image::new(83, 31);
            try_bgr_to_gray(&b, &g, &r, &mut out, engine).unwrap();
            assert!(out.pixels_eq(&reference), "{engine:?}");
        }
    }

    #[test]
    fn primary_colors_match_bt601() {
        let full = Image::from_fn(8, 1, |_, _| 255u8);
        let zero = Image::from_fn(8, 1, |_, _| 0u8);
        let mut out = Image::new(8, 1);
        // Pure red: 255 * 9798 / 32768 ~ 76.
        try_bgr_to_gray(&zero, &zero, &full, &mut out, Engine::Native).unwrap();
        assert_eq!(out.get(0, 0), 76);
        // Pure green: ~150.
        try_bgr_to_gray(&zero, &full, &zero, &mut out, Engine::Native).unwrap();
        assert_eq!(out.get(0, 0), 150);
        // Pure blue: ~29.
        try_bgr_to_gray(&full, &zero, &zero, &mut out, Engine::Native).unwrap();
        assert_eq!(out.get(0, 0), 29);
        // White stays white.
        try_bgr_to_gray(&full, &full, &full, &mut out, Engine::Native).unwrap();
        assert_eq!(out.get(0, 0), 255);
    }

    #[test]
    fn tails_below_vector_width() {
        for len in 0..20 {
            let b: Vec<u8> = (0..len).map(|i| (i * 3) as u8).collect();
            let g: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            let r: Vec<u8> = (0..len).map(|i| (i * 11) as u8).collect();
            let mut expect = vec![0u8; len];
            bgr_row_scalar(&b, &g, &r, &mut expect);
            for engine in Engine::ALL {
                let mut out = vec![0u8; len];
                bgr_row(&b, &g, &r, &mut out, engine);
                assert_eq!(out, expect, "{engine:?} len {len}");
            }
        }
    }

    #[test]
    fn exhaustive_single_channel_sweeps() {
        // For each channel, sweep all 256 values with the others at 0:
        // every engine must agree with the scalar reference exactly.
        let ramp: Vec<u8> = (0..=255).collect();
        let zeros = vec![0u8; 256];
        for (b, g, r) in [
            (&ramp, &zeros, &zeros),
            (&zeros, &ramp, &zeros),
            (&zeros, &zeros, &ramp),
        ] {
            let mut expect = vec![0u8; 256];
            bgr_row_scalar(b, g, r, &mut expect);
            for engine in Engine::ALL {
                let mut out = vec![0u8; 256];
                bgr_row(b, g, r, &mut out, engine);
                assert_eq!(out, expect, "{engine:?}");
            }
        }
    }

    #[test]
    fn mismatched_channels_are_an_error() {
        let b = Image::<u8>::new(4, 4);
        let g = Image::<u8>::new(5, 4);
        let r = Image::<u8>::new(4, 4);
        let mut out = Image::new(4, 4);
        assert_eq!(
            try_bgr_to_gray(&b, &g, &r, &mut out, Engine::Scalar),
            Err(KernelError::ChannelMismatch {
                expected: (4, 4),
                got: (5, 4)
            })
        );
    }
}
