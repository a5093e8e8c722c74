//! Benchmark 2 — binary image thresholding (paper Section III-A.2,
//! Algorithm 1), plus the other four OpenCV threshold types.

use crate::dispatch::Engine;
use crate::error::{validate_pair, KernelResult};
use pixelimage::Image;

/// The five OpenCV threshold types. The paper's benchmark uses
/// [`ThresholdType::Binary`]; `Trunc` is the variant its Algorithm 1
/// pseudocode sketches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThresholdType {
    /// `dst = src > thresh ? maxval : 0`
    Binary,
    /// `dst = src > thresh ? 0 : maxval`
    BinaryInv,
    /// `dst = src > thresh ? thresh : src`
    Trunc,
    /// `dst = src > thresh ? src : 0`
    ToZero,
    /// `dst = src > thresh ? 0 : src`
    ToZeroInv,
}

impl ThresholdType {
    /// All five types.
    pub const ALL: [ThresholdType; 5] = [
        ThresholdType::Binary,
        ThresholdType::BinaryInv,
        ThresholdType::Trunc,
        ThresholdType::ToZero,
        ThresholdType::ToZeroInv,
    ];

    /// The scalar definition (used as the reference for every backend).
    #[inline]
    pub fn apply(self, src: u8, thresh: u8, maxval: u8) -> u8 {
        match self {
            ThresholdType::Binary => {
                if src > thresh {
                    maxval
                } else {
                    0
                }
            }
            ThresholdType::BinaryInv => {
                if src > thresh {
                    0
                } else {
                    maxval
                }
            }
            ThresholdType::Trunc => {
                if src > thresh {
                    thresh
                } else {
                    src
                }
            }
            ThresholdType::ToZero => {
                if src > thresh {
                    src
                } else {
                    0
                }
            }
            ThresholdType::ToZeroInv => {
                if src > thresh {
                    0
                } else {
                    src
                }
            }
        }
    }
}

/// Thresholds a `u8` image with the chosen engine. Validates geometry.
pub fn try_threshold_u8(
    src: &Image<u8>,
    dst: &mut Image<u8>,
    thresh: u8,
    maxval: u8,
    ty: ThresholdType,
    engine: Engine,
) -> KernelResult {
    validate_pair(src, dst)?;
    if let Some(fault) = faultline::inject("kernel.entry") {
        return Err(fault.into());
    }
    for y in 0..src.height() {
        threshold_row(src.row(y), dst.row_mut(y), thresh, maxval, ty, engine);
    }
    Ok(())
}

/// Thresholds one row with the chosen engine.
#[inline]
pub fn threshold_row(
    src: &[u8],
    dst: &mut [u8],
    thresh: u8,
    maxval: u8,
    ty: ThresholdType,
    engine: Engine,
) {
    match engine {
        Engine::Scalar => threshold_row_scalar(src, dst, thresh, maxval, ty),
        Engine::Autovec => threshold_row_autovec(src, dst, thresh, maxval, ty),
        Engine::Sse2Sim => threshold_row_sse2_sim(src, dst, thresh, maxval, ty),
        Engine::NeonSim => threshold_row_neon_sim(src, dst, thresh, maxval, ty),
        Engine::Native => threshold_row_native(src, dst, thresh, maxval, ty),
    }
}

/// Per-pixel branchy loop — the OpenCV generic fallback.
pub fn threshold_row_scalar(src: &[u8], dst: &mut [u8], thresh: u8, maxval: u8, ty: ThresholdType) {
    assert_eq!(src.len(), dst.len());
    for x in 0..src.len() {
        dst[x] = ty.apply(src[x], thresh, maxval);
    }
}

/// Branch-free formulation the auto-vectorizer can turn into compares and
/// selects.
pub fn threshold_row_autovec(
    src: &[u8],
    dst: &mut [u8],
    thresh: u8,
    maxval: u8,
    ty: ThresholdType,
) {
    assert_eq!(src.len(), dst.len());
    match ty {
        ThresholdType::Binary => {
            for (d, &s) in dst.iter_mut().zip(src.iter()) {
                *d = if s > thresh { maxval } else { 0 };
            }
        }
        ThresholdType::BinaryInv => {
            for (d, &s) in dst.iter_mut().zip(src.iter()) {
                *d = if s > thresh { 0 } else { maxval };
            }
        }
        ThresholdType::Trunc => {
            for (d, &s) in dst.iter_mut().zip(src.iter()) {
                *d = s.min(thresh);
            }
        }
        ThresholdType::ToZero => {
            for (d, &s) in dst.iter_mut().zip(src.iter()) {
                *d = if s > thresh { s } else { 0 };
            }
        }
        ThresholdType::ToZeroInv => {
            for (d, &s) in dst.iter_mut().zip(src.iter()) {
                *d = if s > thresh { 0 } else { s };
            }
        }
    }
}

/// The OpenCV SSE2 threshold loop: unsigned compare via the sign-flip trick,
/// then mask arithmetic.
pub fn threshold_row_sse2_sim(
    src: &[u8],
    dst: &mut [u8],
    thresh: u8,
    maxval: u8,
    ty: ThresholdType,
) {
    use sse_sim::*;
    assert_eq!(src.len(), dst.len());
    let width = src.len();
    let sign = _mm_set1_epi8(-128i8);
    let thresh_s = _mm_xor_si128(_mm_set1_epi8(thresh as i8), sign);
    let maxval_v = _mm_set1_epi8(maxval as i8);
    let thresh_v = _mm_set1_epi8(thresh as i8);
    let mut x = 0;
    while x + 16 <= width {
        let v = _mm_loadu_si128(&src[x..]);
        let v_s = _mm_xor_si128(v, sign);
        let gt = _mm_cmpgt_epi8(v_s, thresh_s); // mask: src > thresh
        let out = match ty {
            ThresholdType::Binary => _mm_and_si128(gt, maxval_v),
            ThresholdType::BinaryInv => _mm_andnot_si128(gt, maxval_v),
            ThresholdType::Trunc => _mm_min_epu8(v, thresh_v),
            ThresholdType::ToZero => _mm_and_si128(gt, v),
            ThresholdType::ToZeroInv => _mm_andnot_si128(gt, v),
        };
        _mm_storeu_si128(&mut dst[x..], out);
        x += 16;
    }
    threshold_row_scalar(&src[x..], &mut dst[x..], thresh, maxval, ty);
}

/// The NEON threshold loop: direct unsigned compare plus bitwise select.
pub fn threshold_row_neon_sim(
    src: &[u8],
    dst: &mut [u8],
    thresh: u8,
    maxval: u8,
    ty: ThresholdType,
) {
    use neon_sim::*;
    assert_eq!(src.len(), dst.len());
    let width = src.len();
    let thresh_v = vdupq_n_u8(thresh);
    let maxval_v = vdupq_n_u8(maxval);
    let zero = vdupq_n_u8(0);
    let mut x = 0;
    while x + 16 <= width {
        let v = vld1q_u8(&src[x..]);
        let gt = vcgtq_u8(v, thresh_v);
        let out = match ty {
            ThresholdType::Binary => vbslq_u8(gt, maxval_v, zero),
            ThresholdType::BinaryInv => vbslq_u8(gt, zero, maxval_v),
            ThresholdType::Trunc => vminq_u8(v, thresh_v),
            ThresholdType::ToZero => vbslq_u8(gt, v, zero),
            ThresholdType::ToZeroInv => vbslq_u8(gt, zero, v),
        };
        vst1q_u8(&mut dst[x..], out);
        x += 16;
    }
    threshold_row_scalar(&src[x..], &mut dst[x..], thresh, maxval, ty);
}

/// The hand-tuned loop on the host's real SIMD unit.
pub fn threshold_row_native(src: &[u8], dst: &mut [u8], thresh: u8, maxval: u8, ty: ThresholdType) {
    #[cfg(target_arch = "x86_64")]
    {
        threshold_row_native_sse2(src, dst, thresh, maxval, ty);
    }
    #[cfg(target_arch = "aarch64")]
    {
        threshold_row_native_neon(src, dst, thresh, maxval, ty);
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        threshold_row_autovec(src, dst, thresh, maxval, ty);
    }
}

/// OpenCV's `thresh_8u` shape: switch on the type once, then run one
/// branch-free SSE2 loop per type (`threshold_sse2_body`).
#[cfg(target_arch = "x86_64")]
fn threshold_row_native_sse2(
    src: &[u8],
    dst: &mut [u8],
    thresh: u8,
    maxval: u8,
    ty: ThresholdType,
) {
    use std::arch::x86_64::*;
    assert_eq!(src.len(), dst.len());
    // SAFETY: SSE2 is baseline on x86_64; the body checks its own bounds.
    let x = unsafe {
        let maxval_v = _mm_set1_epi8(maxval as i8);
        let thresh_v = _mm_set1_epi8(thresh as i8);
        match ty {
            ThresholdType::Binary => {
                threshold_sse2_body(src, dst, thresh, |_, gt| _mm_and_si128(gt, maxval_v))
            }
            ThresholdType::BinaryInv => {
                threshold_sse2_body(src, dst, thresh, |_, gt| _mm_andnot_si128(gt, maxval_v))
            }
            ThresholdType::Trunc => {
                threshold_sse2_body(src, dst, thresh, |v, _| _mm_min_epu8(v, thresh_v))
            }
            ThresholdType::ToZero => {
                threshold_sse2_body(src, dst, thresh, |v, gt| _mm_and_si128(gt, v))
            }
            ThresholdType::ToZeroInv => {
                threshold_sse2_body(src, dst, thresh, |v, gt| _mm_andnot_si128(gt, v))
            }
        }
    };
    threshold_row_scalar(&src[x..], &mut dst[x..], thresh, maxval, ty);
}

/// The SSE2 threshold loop for one type: unsigned `src > thresh` via the
/// sign-flip trick, then `select(v, gt)` on each 16-byte vector. Returns
/// the first pixel it did not write.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn threshold_sse2_body(
    src: &[u8],
    dst: &mut [u8],
    thresh: u8,
    select: impl Fn(
        std::arch::x86_64::__m128i,
        std::arch::x86_64::__m128i,
    ) -> std::arch::x86_64::__m128i,
) -> usize {
    use std::arch::x86_64::*;
    let width = src.len().min(dst.len());
    let mut x = 0;
    // SAFETY: loads read src[x..x+16], stores write dst[x..x+16]; the loop
    // bound keeps both in range. SSE2 is baseline on x86_64.
    unsafe {
        let sign = _mm_set1_epi8(-128i8);
        let thresh_s = _mm_xor_si128(_mm_set1_epi8(thresh as i8), sign);
        while x + 16 <= width {
            let v = _mm_loadu_si128(src.as_ptr().add(x) as *const __m128i);
            let gt = _mm_cmpgt_epi8(_mm_xor_si128(v, sign), thresh_s);
            _mm_storeu_si128(dst.as_mut_ptr().add(x) as *mut __m128i, select(v, gt));
            x += 16;
        }
    }
    x
}

#[cfg(target_arch = "aarch64")]
fn threshold_row_native_neon(
    src: &[u8],
    dst: &mut [u8],
    thresh: u8,
    maxval: u8,
    ty: ThresholdType,
) {
    use std::arch::aarch64::*;
    assert_eq!(src.len(), dst.len());
    let width = src.len();
    let mut x = 0;
    // SAFETY: bounds maintained as in the SSE2 variant.
    unsafe {
        let thresh_v = vdupq_n_u8(thresh);
        let maxval_v = vdupq_n_u8(maxval);
        let zero = vdupq_n_u8(0);
        while x + 16 <= width {
            let v = vld1q_u8(src.as_ptr().add(x));
            let gt = vcgtq_u8(v, thresh_v);
            let out = match ty {
                ThresholdType::Binary => vbslq_u8(gt, maxval_v, zero),
                ThresholdType::BinaryInv => vbslq_u8(gt, zero, maxval_v),
                ThresholdType::Trunc => vminq_u8(v, thresh_v),
                ThresholdType::ToZero => vbslq_u8(gt, v, zero),
                ThresholdType::ToZeroInv => vbslq_u8(gt, zero, v),
            };
            vst1q_u8(dst.as_mut_ptr().add(x), out);
            x += 16;
        }
    }
    threshold_row_scalar(&src[x..], &mut dst[x..], thresh, maxval, ty);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixelimage::synthetic_image;

    #[test]
    fn scalar_definitions() {
        assert_eq!(ThresholdType::Binary.apply(129, 128, 255), 255);
        assert_eq!(ThresholdType::Binary.apply(128, 128, 255), 0);
        assert_eq!(ThresholdType::BinaryInv.apply(129, 128, 200), 0);
        assert_eq!(ThresholdType::BinaryInv.apply(100, 128, 200), 200);
        assert_eq!(ThresholdType::Trunc.apply(200, 128, 255), 128);
        assert_eq!(ThresholdType::Trunc.apply(100, 128, 255), 100);
        assert_eq!(ThresholdType::ToZero.apply(200, 128, 255), 200);
        assert_eq!(ThresholdType::ToZero.apply(100, 128, 255), 0);
        assert_eq!(ThresholdType::ToZeroInv.apply(200, 128, 255), 0);
        assert_eq!(ThresholdType::ToZeroInv.apply(100, 128, 255), 100);
    }

    #[test]
    fn all_engines_all_types_match_scalar() {
        let img = synthetic_image(97, 41, 13);
        for ty in ThresholdType::ALL {
            for thresh in [0u8, 1, 127, 128, 254, 255] {
                let mut reference = Image::new(img.width(), img.height());
                try_threshold_u8(&img, &mut reference, thresh, 255, ty, Engine::Scalar).unwrap();
                for engine in [
                    Engine::Autovec,
                    Engine::Sse2Sim,
                    Engine::NeonSim,
                    Engine::Native,
                ] {
                    let mut out = Image::new(img.width(), img.height());
                    try_threshold_u8(&img, &mut out, thresh, 255, ty, engine).unwrap();
                    assert!(
                        out.pixels_eq(&reference),
                        "{ty:?} thresh {thresh} engine {engine:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_byte_value_every_engine() {
        // Exhaustive over src values for a fixed threshold.
        let src: Vec<u8> = (0..=255).collect();
        for ty in ThresholdType::ALL {
            let mut expect = vec![0u8; 256];
            threshold_row_scalar(&src, &mut expect, 128, 200, ty);
            for engine in Engine::ALL {
                let mut out = vec![0u8; 256];
                threshold_row(&src, &mut out, 128, 200, ty, engine);
                assert_eq!(out, expect, "{ty:?} {engine:?}");
            }
        }
    }

    #[test]
    fn non_multiple_of_16_tail() {
        for len in [0usize, 1, 15, 16, 17, 31, 33] {
            let src: Vec<u8> = (0..len).map(|i| (i * 37) as u8).collect();
            let mut expect = vec![0u8; len];
            threshold_row_scalar(&src, &mut expect, 100, 255, ThresholdType::Binary);
            for engine in Engine::ALL {
                let mut out = vec![0u8; len];
                threshold_row(&src, &mut out, 100, 255, ThresholdType::Binary, engine);
                assert_eq!(out, expect, "{engine:?} len {len}");
            }
        }
    }

    #[test]
    fn binary_threshold_is_idempotent() {
        // thresholding an already-binary image with the same parameters is a
        // fixed point.
        let img = synthetic_image(64, 64, 3);
        let mut once = Image::new(64, 64);
        try_threshold_u8(
            &img,
            &mut once,
            128,
            255,
            ThresholdType::Binary,
            Engine::Native,
        )
        .unwrap();
        let mut twice = Image::new(64, 64);
        try_threshold_u8(
            &once,
            &mut twice,
            128,
            255,
            ThresholdType::Binary,
            Engine::Native,
        )
        .unwrap();
        assert!(once.pixels_eq(&twice));
    }

    #[test]
    fn binary_and_inverse_partition() {
        let img = synthetic_image(64, 64, 4);
        let mut b = Image::new(64, 64);
        let mut binv = Image::new(64, 64);
        try_threshold_u8(
            &img,
            &mut b,
            128,
            255,
            ThresholdType::Binary,
            Engine::Native,
        )
        .unwrap();
        try_threshold_u8(
            &img,
            &mut binv,
            128,
            255,
            ThresholdType::BinaryInv,
            Engine::Native,
        )
        .unwrap();
        for y in 0..64 {
            for (pb, pi) in b.row(y).iter().zip(binv.row(y).iter()) {
                assert_eq!(pb.wrapping_add(*pi), 255);
            }
        }
    }
}
