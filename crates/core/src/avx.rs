//! Extension — 256-bit AVX2 variants of the byte/float kernels
//! (experiment A8).
//!
//! Table I lists the i7-2820QM and i5-3360M as AVX-capable, but the paper
//! compiles everything for SSE2 and cites related work measuring AVX at
//! 1.58–1.88× over SSE for compute-bound HPC kernels. This module supplies
//! the missing data point: the same hand-written loops widened to 256-bit
//! registers, selected at run time with `is_x86_feature_detected!` (the
//! paper-era equivalent was a CPUID dispatch).
//!
//! On non-x86_64 hosts, or when the CPU lacks AVX2, every entry point falls
//! back to the 128-bit native path, so callers can use these functions
//! unconditionally.

use crate::threshold::ThresholdType;

/// True when the 256-bit paths will actually run on this host.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// 256-bit float→short conversion row; falls back to the 128-bit native
/// path without AVX2.
pub fn convert_row_avx2(src: &[f32], dst: &mut [i16]) {
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            // SAFETY: guarded by the runtime AVX2 check.
            unsafe { convert_row_avx2_impl(src, dst) };
            return;
        }
    }
    crate::convert::convert_row_native(src, dst);
}

/// The AVX2 widening of the paper's SSE2 listing: 16 pixels per iteration,
/// `vcvtps2dq` + `vpackssdw` (which packs within 128-bit lanes, needing a
/// `vpermq` fix-up — the classic AVX2 port pitfall).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn convert_row_avx2_impl(src: &[f32], dst: &mut [i16]) {
    use std::arch::x86_64::*;
    assert_eq!(src.len(), dst.len());
    let width = src.len();
    let mut x = 0;
    // SAFETY (caller + bounds): AVX2 present; loads read src[x..x+16] and
    // the store writes dst[x..x+16], guarded by the loop condition.
    unsafe {
        while x + 16 <= width {
            let s0 = _mm256_loadu_ps(src.as_ptr().add(x));
            let i0 = _mm256_cvtps_epi32(s0);
            let s1 = _mm256_loadu_ps(src.as_ptr().add(x + 8));
            let i1 = _mm256_cvtps_epi32(s1);
            // packs operates per 128-bit lane: [a0 b0 a1 b1] -> permute to
            // restore memory order.
            let packed = _mm256_packs_epi32(i0, i1);
            let fixed = _mm256_permute4x64_epi64::<0b11_01_10_00>(packed);
            _mm256_storeu_si256(dst.as_mut_ptr().add(x) as *mut __m256i, fixed);
            x += 16;
        }
    }
    crate::convert::convert_row_scalar(&src[x..], &mut dst[x..]);
}

/// 256-bit threshold row; falls back to the 128-bit native path without
/// AVX2.
pub fn threshold_row_avx2(src: &[u8], dst: &mut [u8], thresh: u8, maxval: u8, ty: ThresholdType) {
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            // SAFETY: guarded by the runtime AVX2 check.
            unsafe { threshold_row_avx2_impl(src, dst, thresh, maxval, ty) };
            return;
        }
    }
    crate::threshold::threshold_row_native(src, dst, thresh, maxval, ty);
}

/// Switches on the type once, then runs one branch-free 256-bit loop per
/// type (`threshold_avx2_body`), as the SSE2 native row does.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn threshold_row_avx2_impl(
    src: &[u8],
    dst: &mut [u8],
    thresh: u8,
    maxval: u8,
    ty: ThresholdType,
) {
    use std::arch::x86_64::*;
    assert_eq!(src.len(), dst.len());
    // SAFETY: AVX2 present (target_feature + caller check); the body
    // checks its own bounds.
    let x = unsafe {
        let maxval_v = _mm256_set1_epi8(maxval as i8);
        let thresh_v = _mm256_set1_epi8(thresh as i8);
        match ty {
            ThresholdType::Binary => {
                threshold_avx2_body(src, dst, thresh, |_, gt| _mm256_and_si256(gt, maxval_v))
            }
            ThresholdType::BinaryInv => {
                threshold_avx2_body(src, dst, thresh, |_, gt| _mm256_andnot_si256(gt, maxval_v))
            }
            ThresholdType::Trunc => {
                threshold_avx2_body(src, dst, thresh, |v, _| _mm256_min_epu8(v, thresh_v))
            }
            ThresholdType::ToZero => {
                threshold_avx2_body(src, dst, thresh, |v, gt| _mm256_and_si256(gt, v))
            }
            ThresholdType::ToZeroInv => {
                threshold_avx2_body(src, dst, thresh, |v, gt| _mm256_andnot_si256(gt, v))
            }
        }
    };
    crate::threshold::threshold_row_scalar(&src[x..], &mut dst[x..], thresh, maxval, ty);
}

/// The 256-bit threshold loop for one type: sign-flip compare, then
/// `select(v, gt)` on each 32-byte vector. Returns the first pixel it did
/// not write.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn threshold_avx2_body(
    src: &[u8],
    dst: &mut [u8],
    thresh: u8,
    select: impl Fn(
        std::arch::x86_64::__m256i,
        std::arch::x86_64::__m256i,
    ) -> std::arch::x86_64::__m256i,
) -> usize {
    use std::arch::x86_64::*;
    let width = src.len().min(dst.len());
    let mut x = 0;
    // SAFETY: AVX2 present (target_feature + caller check); loads read
    // src[x..x+32], stores write dst[x..x+32], within the checked length.
    unsafe {
        let sign = _mm256_set1_epi8(-128i8);
        let thresh_s = _mm256_xor_si256(_mm256_set1_epi8(thresh as i8), sign);
        while x + 32 <= width {
            let v = _mm256_loadu_si256(src.as_ptr().add(x) as *const __m256i);
            let gt = _mm256_cmpgt_epi8(_mm256_xor_si256(v, sign), thresh_s);
            _mm256_storeu_si256(dst.as_mut_ptr().add(x) as *mut __m256i, select(v, gt));
            x += 32;
        }
    }
    x
}

/// 256-bit L1 gradient magnitude; falls back without AVX2.
pub fn magnitude_row_avx2(gx: &[i16], gy: &[i16], dst: &mut [u8]) {
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            // SAFETY: guarded by the runtime AVX2 check.
            unsafe { magnitude_row_avx2_impl(gx, gy, dst) };
            return;
        }
    }
    crate::edge::magnitude_row_native(gx, gy, dst);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn magnitude_row_avx2_impl(gx: &[i16], gy: &[i16], dst: &mut [u8]) {
    use std::arch::x86_64::*;
    assert_eq!(gx.len(), dst.len());
    assert_eq!(gy.len(), dst.len());
    let w = dst.len();
    let mut x = 0;
    // SAFETY: AVX2 present; loads read gx/gy[x..x+16]; the 128-bit store
    // writes dst[x..x+16]; bounds guarded by the loop condition.
    unsafe {
        while x + 16 <= w {
            let vx = _mm256_loadu_si256(gx.as_ptr().add(x) as *const __m256i);
            let vy = _mm256_loadu_si256(gy.as_ptr().add(x) as *const __m256i);
            let ax = _mm256_abs_epi16(vx);
            let ay = _mm256_abs_epi16(vy);
            let sum = _mm256_adds_epi16(ax, ay);
            let packed = _mm256_packus_epi16(sum, sum);
            let fixed = _mm256_permute4x64_epi64::<0b11_01_10_00>(packed);
            _mm_storeu_si128(
                dst.as_mut_ptr().add(x) as *mut __m128i,
                _mm256_castsi256_si128(fixed),
            );
            x += 16;
        }
    }
    crate::edge::magnitude_row_scalar(&gx[x..], &gy[x..], &mut dst[x..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::convert_row_scalar;
    use crate::threshold::threshold_row_scalar;

    #[test]
    fn convert_avx2_matches_scalar() {
        let src: Vec<f32> = (0..203)
            .map(|i| (i as f32) * 331.7 - 33000.0)
            .chain([0.5, 1.5, 2.5, -2.5, 4e4, -4e4])
            .collect();
        let mut expect = vec![0i16; src.len()];
        convert_row_scalar(&src, &mut expect);
        let mut out = vec![0i16; src.len()];
        convert_row_avx2(&src, &mut out);
        assert_eq!(out, expect);
    }

    #[test]
    fn threshold_avx2_matches_scalar_all_types() {
        let src: Vec<u8> = (0..300).map(|i| (i * 83) as u8).collect();
        for ty in ThresholdType::ALL {
            for thresh in [0u8, 127, 128, 255] {
                let mut expect = vec![0u8; src.len()];
                threshold_row_scalar(&src, &mut expect, thresh, 200, ty);
                let mut out = vec![0u8; src.len()];
                threshold_row_avx2(&src, &mut out, thresh, 200, ty);
                assert_eq!(out, expect, "{ty:?} thresh {thresh}");
            }
        }
    }

    #[test]
    fn magnitude_avx2_matches_scalar() {
        let gx: Vec<i16> = (0..99).map(|i| (i * 37 - 1020) as i16).collect();
        let gy: Vec<i16> = (0..99).map(|i| (1020 - i * 29) as i16).collect();
        let mut expect = vec![0u8; 99];
        crate::edge::magnitude_row_scalar(&gx, &gy, &mut expect);
        let mut out = vec![0u8; 99];
        magnitude_row_avx2(&gx, &gy, &mut out);
        assert_eq!(out, expect);
    }

    #[test]
    fn tails_below_256bit_width() {
        for len in 0..40 {
            let src: Vec<f32> = (0..len).map(|i| i as f32 * 7.7 - 50.0).collect();
            let mut expect = vec![0i16; len];
            convert_row_scalar(&src, &mut expect);
            let mut out = vec![0i16; len];
            convert_row_avx2(&src, &mut out);
            assert_eq!(out, expect, "len {len}");
        }
    }

    #[test]
    fn detection_is_consistent() {
        // Calling twice must agree (no torn CPUID state).
        assert_eq!(avx2_available(), avx2_available());
    }
}
