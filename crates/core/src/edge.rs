//! Benchmark 5 — edge detection (paper Section III-A.5): a 2-D Sobel
//! gradient followed by binary thresholding, "pixels with low gradient
//! intensity are removed".
//!
//! The gradient magnitude uses the standard L1 approximation
//! `|gx| + |gy|` saturated to `u8`, as OpenCV's fast path does.

use crate::dispatch::Engine;
use crate::error::{validate_pair, KernelResult};
use crate::sobel::SobelDirection;
use crate::threshold::{threshold_row, ThresholdType};
use pixelimage::Image;

/// Runs the full edge-detection pipeline: Sobel X + Sobel Y → L1 magnitude
/// → binary threshold at `thresh`. Validates geometry.
pub fn try_edge_detect(
    src: &Image<u8>,
    dst: &mut Image<u8>,
    thresh: u8,
    engine: Engine,
) -> KernelResult {
    validate_pair(src, dst)?;
    if let Some(fault) = faultline::inject("kernel.entry") {
        return Err(fault.into());
    }
    let mut gx = Image::<i16>::new(src.width(), src.height());
    let mut gy = Image::<i16>::new(src.width(), src.height());
    crate::sobel::try_sobel(src, &mut gx, SobelDirection::X, engine)?;
    crate::sobel::try_sobel(src, &mut gy, SobelDirection::Y, engine)?;
    let mut mag_row = vec![0u8; src.width()];
    for y in 0..src.height() {
        magnitude_row(gx.row(y), gy.row(y), &mut mag_row, engine);
        threshold_row(
            &mag_row,
            dst.row_mut(y),
            thresh,
            255,
            ThresholdType::Binary,
            engine,
        );
    }
    Ok(())
}

/// Computes the saturated L1 gradient magnitude of one row.
///
/// Inputs must be greater than `i16::MIN` (Sobel outputs are bounded by
/// ±1020): the SIMD backends compute `|v|` with wrapping semantics, which
/// differs from the scalar reference only at `i16::MIN`.
pub fn magnitude_row(gx: &[i16], gy: &[i16], dst: &mut [u8], engine: Engine) {
    match engine {
        Engine::Scalar | Engine::Autovec => magnitude_row_scalar(gx, gy, dst),
        Engine::Sse2Sim => magnitude_row_sse2_sim(gx, gy, dst),
        Engine::NeonSim => magnitude_row_neon_sim(gx, gy, dst),
        Engine::Native => magnitude_row_native(gx, gy, dst),
    }
}

/// Reference magnitude: `min(255, |gx| + |gy|)`.
pub fn magnitude_row_scalar(gx: &[i16], gy: &[i16], dst: &mut [u8]) {
    assert_eq!(gx.len(), dst.len());
    assert_eq!(gy.len(), dst.len());
    for x in 0..dst.len() {
        let mag = gx[x].unsigned_abs() as u32 + gy[x].unsigned_abs() as u32;
        dst[x] = mag.min(255) as u8;
    }
}

/// SSE2 magnitude: abs via `max(v, -v)` (SSE2 lacks `pabsw`), saturating
/// add, unsigned pack.
pub fn magnitude_row_sse2_sim(gx: &[i16], gy: &[i16], dst: &mut [u8]) {
    use sse_sim::*;
    assert_eq!(gx.len(), dst.len());
    assert_eq!(gy.len(), dst.len());
    let w = dst.len();
    let zero = _mm_setzero_si128();
    let mut x = 0;
    while x + 8 <= w {
        let vx = _mm_loadu_si128(&gx[x..]);
        let vy = _mm_loadu_si128(&gy[x..]);
        let ax = _mm_max_epi16(vx, _mm_sub_epi16(zero, vx));
        let ay = _mm_max_epi16(vy, _mm_sub_epi16(zero, vy));
        let sum = _mm_adds_epi16(ax, ay);
        let packed = _mm_packus_epi16(sum, sum);
        _mm_storel_epi64(&mut dst[x..], packed);
        x += 8;
    }
    magnitude_row_scalar(&gx[x..], &gy[x..], &mut dst[x..]);
}

/// NEON magnitude: `vabs`, saturating add, `vqmovun` narrow.
pub fn magnitude_row_neon_sim(gx: &[i16], gy: &[i16], dst: &mut [u8]) {
    use neon_sim::*;
    assert_eq!(gx.len(), dst.len());
    assert_eq!(gy.len(), dst.len());
    let w = dst.len();
    let mut x = 0;
    while x + 8 <= w {
        let vx = vabsq_s16(vld1q_s16(&gx[x..]));
        let vy = vabsq_s16(vld1q_s16(&gy[x..]));
        let sum = vqaddq_s16(vx, vy);
        vst1_u8(&mut dst[x..], vqmovun_s16(sum));
        x += 8;
    }
    magnitude_row_scalar(&gx[x..], &gy[x..], &mut dst[x..]);
}

/// Magnitude on the host's real SIMD unit.
pub fn magnitude_row_native(gx: &[i16], gy: &[i16], dst: &mut [u8]) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::*;
        assert_eq!(gx.len(), dst.len());
        assert_eq!(gy.len(), dst.len());
        let w = dst.len();
        let mut x = 0;
        // SAFETY: loads read gx[x..x+8]/gy[x..x+8]; the 64-bit store writes
        // dst[x..x+8]; x + 8 <= w throughout, all slices have length w.
        unsafe {
            let zero = _mm_setzero_si128();
            while x + 8 <= w {
                let vx = _mm_loadu_si128(gx.as_ptr().add(x) as *const __m128i);
                let vy = _mm_loadu_si128(gy.as_ptr().add(x) as *const __m128i);
                let ax = _mm_max_epi16(vx, _mm_sub_epi16(zero, vx));
                let ay = _mm_max_epi16(vy, _mm_sub_epi16(zero, vy));
                let sum = _mm_adds_epi16(ax, ay);
                let packed = _mm_packus_epi16(sum, sum);
                _mm_storel_epi64(dst.as_mut_ptr().add(x) as *mut __m128i, packed);
                x += 8;
            }
        }
        magnitude_row_scalar(&gx[x..], &gy[x..], &mut dst[x..]);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        magnitude_row_scalar(gx, gy, dst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixelimage::synthetic_image;

    #[test]
    fn magnitude_engines_agree_on_extremes() {
        // i16::MIN is outside the documented domain (wrapping |v|).
        let gx: Vec<i16> = vec![0, 100, -100, 300, -300, i16::MAX, -32767, 1, -1, 255];
        let gy: Vec<i16> = vec![0, -50, 50, 300, -300, i16::MAX, -32767, 0, 0, 1];
        let mut expect = vec![0u8; gx.len()];
        magnitude_row_scalar(&gx, &gy, &mut expect);
        for engine in Engine::ALL {
            let mut out = vec![0u8; gx.len()];
            magnitude_row(&gx, &gy, &mut out, engine);
            assert_eq!(out, expect, "{engine:?}");
        }
    }

    #[test]
    fn magnitude_saturates_at_255() {
        // Sobel outputs are bounded by ±1020, so |gx|+|gy| <= 2040; check
        // saturation in that realistic range.
        let gx = vec![1020i16; 8];
        let gy = vec![1020i16; 8];
        for engine in Engine::ALL {
            let mut out = vec![0u8; 8];
            magnitude_row(&gx, &gy, &mut out, engine);
            assert_eq!(out, vec![255u8; 8], "{engine:?}");
        }
    }

    #[test]
    fn all_engines_full_pipeline_agree() {
        let src = synthetic_image(73, 41, 29);
        let mut reference = Image::new(73, 41);
        try_edge_detect(&src, &mut reference, 96, Engine::Scalar).unwrap();
        for engine in [
            Engine::Autovec,
            Engine::Sse2Sim,
            Engine::NeonSim,
            Engine::Native,
        ] {
            let mut out = Image::new(73, 41);
            try_edge_detect(&src, &mut out, 96, engine).unwrap();
            assert!(out.pixels_eq(&reference), "{engine:?}");
        }
    }

    #[test]
    fn output_is_binary() {
        let src = synthetic_image(64, 48, 31);
        let mut out = Image::new(64, 48);
        try_edge_detect(&src, &mut out, 96, Engine::Native).unwrap();
        assert!(out.all_pixels(|p| p == 0 || p == 255));
    }

    #[test]
    fn step_edge_is_found() {
        let src = Image::from_fn(32, 32, |x, _| if x < 16 { 10u8 } else { 240 });
        let mut out = Image::new(32, 32);
        try_edge_detect(&src, &mut out, 96, Engine::Native).unwrap();
        // The seam columns light up; far columns stay dark.
        assert_eq!(out.get(15, 16), 255);
        assert_eq!(out.get(16, 16), 255);
        assert_eq!(out.get(3, 16), 0);
        assert_eq!(out.get(28, 16), 0);
    }

    #[test]
    fn flat_image_has_no_edges() {
        let src = Image::from_fn(24, 24, |_, _| 180u8);
        let mut out = Image::new(24, 24);
        try_edge_detect(&src, &mut out, 10, Engine::Native).unwrap();
        assert!(out.all_pixels(|p| p == 0));
    }

    #[test]
    fn higher_threshold_finds_fewer_edges() {
        let src = synthetic_image(96, 64, 37);
        let count_edges = |thresh: u8| -> usize {
            let mut out = Image::new(96, 64);
            try_edge_detect(&src, &mut out, thresh, Engine::Native).unwrap();
            out.iter_pixels().filter(|&p| p == 255).count()
        };
        let low = count_edges(32);
        let high = count_edges(200);
        assert!(low > high, "low {low} high {high}");
        assert!(low > 0);
    }
}
