//! Extension kernel — 2× image downsampling (experiment A6).
//!
//! The paper's related work (Pulli et al.) reports a 7.6× NEON speed-up for
//! image resizing; this module adds the 2:1 case to the benchmark family.
//! It is also the showcase for NEON's *structured loads* (`vld2`), the
//! "load/stores between arrays of vectors" feature the paper singles out in
//! its category-(a) taxonomy: NEON de-interleaves even/odd pixels in one
//! instruction where SSE2 needs mask/shift/pack.
//!
//! # Semantics
//!
//! Each output pixel is the **two-stage rounding average** of its 2×2
//! source block:
//!
//! `out = rhalf(rhalf(a, b), rhalf(c, d))` with `rhalf(x, y) = (x+y+1)>>1`
//!
//! — i.e. exactly the `pavgb`/`vrhadd` cascade the SIMD loops compute. This
//! differs from the exact `(a+b+c+d+2)>>2` by at most 1 count (biased up);
//! the scalar reference implements the same cascade so all backends stay
//! bit-identical.

use crate::dispatch::Engine;
use crate::error::{validate_frame, KernelError, KernelResult};
use crate::sse2::{Sim, Sse2};
use pixelimage::Image;

#[inline]
fn rhalf(a: u8, b: u8) -> u8 {
    (((a as u16) + (b as u16) + 1) >> 1) as u8
}

/// Downsamples `src` by 2× in each axis into `dst`
/// (`dst` must be `(src.width()/2, src.height()/2)`; odd trailing
/// rows/columns of `src` are dropped, as in OpenCV's `pyrDown` fast path).
///
/// A zero-size source or destination is [`KernelError::ZeroSize`] (so a
/// 1-pixel-wide source, whose half is 0 wide, is rejected); a `dst` that
/// is not half of `src` is a width or height mismatch carrying both
/// frames' actual sizes.
pub fn try_downsample2x(src: &Image<u8>, dst: &mut Image<u8>, engine: Engine) -> KernelResult {
    validate_frame(src.width(), src.height(), src.stride())?;
    validate_frame(dst.width(), dst.height(), dst.stride())?;
    if dst.width() != src.width() / 2 {
        return Err(KernelError::WidthMismatch {
            src: src.width(),
            dst: dst.width(),
        });
    }
    if dst.height() != src.height() / 2 {
        return Err(KernelError::HeightMismatch {
            src: src.height(),
            dst: dst.height(),
        });
    }
    for y in 0..dst.height() {
        let top = src.row(2 * y);
        let bottom = src.row(2 * y + 1);
        downsample_row(top, bottom, dst.row_mut(y), engine);
    }
    Ok(())
}

/// Downsamples one output row from its two source rows.
pub fn downsample_row(top: &[u8], bottom: &[u8], dst: &mut [u8], engine: Engine) {
    match engine {
        Engine::Scalar => downsample_row_scalar(top, bottom, dst),
        Engine::Autovec => downsample_row_autovec(top, bottom, dst),
        Engine::Sse2Sim => downsample_row_sse2::<Sim>(top, bottom, dst),
        Engine::NeonSim => downsample_row_neon_sim(top, bottom, dst),
        Engine::Native => downsample_row_native(top, bottom, dst),
    }
}

/// Reference cascade.
pub fn downsample_row_scalar(top: &[u8], bottom: &[u8], dst: &mut [u8]) {
    assert!(top.len() >= 2 * dst.len() && bottom.len() >= 2 * dst.len());
    for x in 0..dst.len() {
        let h_top = rhalf(top[2 * x], top[2 * x + 1]);
        let h_bot = rhalf(bottom[2 * x], bottom[2 * x + 1]);
        dst[x] = rhalf(h_top, h_bot);
    }
}

/// Chunked formulation for the auto-vectorizer.
pub fn downsample_row_autovec(top: &[u8], bottom: &[u8], dst: &mut [u8]) {
    assert!(top.len() >= 2 * dst.len() && bottom.len() >= 2 * dst.len());
    let n = dst.len();
    for ((d, t), b) in dst
        .iter_mut()
        .zip(top[..2 * n].chunks_exact(2))
        .zip(bottom[..2 * n].chunks_exact(2))
    {
        *d = rhalf(rhalf(t[0], t[1]), rhalf(b[0], b[1]));
    }
}

/// SSE2 over the [`Sse2`] surface: even/odd split via mask + shift +
/// `packus`, then the `pavgb` cascade.
#[inline(always)]
fn downsample_row_sse2<S: Sse2>(top: &[u8], bottom: &[u8], dst: &mut [u8]) {
    assert!(top.len() >= 2 * dst.len() && bottom.len() >= 2 * dst.len());
    let n = dst.len();
    let byte_mask = S::_mm_set1_epi16(0x00FF);
    let mut x = 0;
    while x + 16 <= n {
        // SAFETY: the two loads per row read row[2x .. 2x+32], within 2n
        // (x + 16 <= n, asserted rows of >= 2n); the store writes
        // dst[x..x+16] and x + 16 <= n.
        unsafe {
            let havg = |row: &[u8]| {
                let v0 = S::_mm_loadu_si128(row, 2 * x);
                let v1 = S::_mm_loadu_si128(row, 2 * x + 16);
                let even = S::_mm_packus_epi16(
                    S::_mm_and_si128(v0, byte_mask),
                    S::_mm_and_si128(v1, byte_mask),
                );
                let odd =
                    S::_mm_packus_epi16(S::_mm_srli_epi16::<8>(v0), S::_mm_srli_epi16::<8>(v1));
                S::_mm_avg_epu8(even, odd)
            };
            let out = S::_mm_avg_epu8(havg(top), havg(bottom));
            S::_mm_storeu_si128(dst, x, out);
        }
        x += 16;
    }
    downsample_row_scalar(&top[2 * x..], &bottom[2 * x..], &mut dst[x..]);
}

/// NEON: `vld2q_u8` de-interleaves even/odd in one structured load, then
/// the `vrhadd` cascade.
pub fn downsample_row_neon_sim(top: &[u8], bottom: &[u8], dst: &mut [u8]) {
    use neon_sim::*;
    assert!(top.len() >= 2 * dst.len() && bottom.len() >= 2 * dst.len());
    let n = dst.len();
    let mut x = 0;
    while x + 16 <= n {
        let t = vld2q_u8(&top[2 * x..]);
        let b = vld2q_u8(&bottom[2 * x..]);
        let h_top = vrhaddq_u8(t.val[0], t.val[1]);
        let h_bot = vrhaddq_u8(b.val[0], b.val[1]);
        vst1q_u8(&mut dst[x..], vrhaddq_u8(h_top, h_bot));
        x += 16;
    }
    downsample_row_scalar(&top[2 * x..], &bottom[2 * x..], &mut dst[x..]);
}

/// Downsampling on the host's real SIMD unit.
#[inline(never)] // own symbol, for the `asm` CI stage
pub fn downsample_row_native(top: &[u8], bottom: &[u8], dst: &mut [u8]) {
    #[cfg(target_arch = "x86_64")]
    downsample_row_sse2::<crate::sse2::Arch>(top, bottom, dst);
    #[cfg(not(target_arch = "x86_64"))]
    downsample_row_autovec(top, bottom, dst);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixelimage::synthetic_image;

    #[test]
    fn constant_image_stays_constant() {
        let src = Image::from_fn(64, 32, |_, _| 173u8);
        let mut dst = Image::new(32, 16);
        for engine in Engine::ALL {
            try_downsample2x(&src, &mut dst, engine).unwrap();
            assert!(dst.all_pixels(|p| p == 173), "{engine:?}");
        }
    }

    #[test]
    fn all_engines_match_scalar() {
        let src = synthetic_image(130, 66, 15);
        let mut reference = Image::new(65, 33);
        try_downsample2x(&src, &mut reference, Engine::Scalar).unwrap();
        for engine in [
            Engine::Autovec,
            Engine::Sse2Sim,
            Engine::NeonSim,
            Engine::Native,
        ] {
            let mut out = Image::new(65, 33);
            try_downsample2x(&src, &mut out, engine).unwrap();
            assert!(out.pixels_eq(&reference), "{engine:?}");
        }
    }

    #[test]
    fn cascade_semantics_exact_values() {
        // One 2x2 block per case: [a b; c d] -> rhalf(rhalf(a,b), rhalf(c,d)).
        let cases: &[([u8; 4], u8)] = &[
            ([0, 0, 0, 0], 0),
            ([255, 255, 255, 255], 255),
            ([0, 1, 0, 0], 1), // two-stage rounding bias: exact avg is 0
            ([0, 0, 1, 1], 1),
            ([10, 20, 30, 40], rhalf(rhalf(10, 20), rhalf(30, 40))),
            ([255, 0, 0, 0], rhalf(128, 0)),
        ];
        for &(block, expect) in cases {
            let src = Image::from_fn(2, 2, |x, y| block[y * 2 + x]);
            let mut dst = Image::new(1, 1);
            for engine in Engine::ALL {
                try_downsample2x(&src, &mut dst, engine).unwrap();
                assert_eq!(dst.get(0, 0), expect, "{block:?} {engine:?}");
            }
        }
    }

    #[test]
    fn result_is_within_one_of_exact_average() {
        let src = synthetic_image(128, 64, 21);
        let mut dst = Image::new(64, 32);
        try_downsample2x(&src, &mut dst, Engine::Native).unwrap();
        for y in 0..32 {
            for x in 0..64 {
                let exact = (src.get(2 * x, 2 * y) as u32
                    + src.get(2 * x + 1, 2 * y) as u32
                    + src.get(2 * x, 2 * y + 1) as u32
                    + src.get(2 * x + 1, 2 * y + 1) as u32
                    + 2)
                    >> 2;
                let got = dst.get(x, y) as u32;
                assert!(
                    got.abs_diff(exact) <= 1,
                    "({x},{y}): cascade {got} vs exact {exact}"
                );
            }
        }
    }

    #[test]
    fn odd_source_dimensions_drop_trailing() {
        let src = synthetic_image(65, 33, 8);
        let mut dst = Image::new(32, 16);
        for engine in Engine::ALL {
            let mut reference = Image::new(32, 16);
            try_downsample2x(&src, &mut reference, Engine::Scalar).unwrap();
            try_downsample2x(&src, &mut dst, engine).unwrap();
            assert!(dst.pixels_eq(&reference), "{engine:?}");
        }
    }

    #[test]
    fn widths_around_vector_boundary() {
        for w_out in [1usize, 15, 16, 17, 31, 32, 33] {
            let src = synthetic_image(2 * w_out, 4, 9);
            let mut reference = Image::new(w_out, 2);
            try_downsample2x(&src, &mut reference, Engine::Scalar).unwrap();
            for engine in [Engine::Sse2Sim, Engine::NeonSim, Engine::Native] {
                let mut out = Image::new(w_out, 2);
                try_downsample2x(&src, &mut out, engine).unwrap();
                assert!(out.pixels_eq(&reference), "{engine:?} w={w_out}");
            }
        }
    }

    #[test]
    fn repeated_downsampling_converges() {
        // Pyramid: 128 -> 64 -> 32 -> 16; mean should stay roughly stable.
        let mut level = synthetic_image(128, 128, 33);
        let mean0 = pixelimage::metrics::mean_u8(&level);
        for _ in 0..3 {
            let (w, h) = (level.width() / 2, level.height() / 2);
            let mut next = Image::new(w, h);
            try_downsample2x(&level, &mut next, Engine::Native).unwrap();
            level = next;
        }
        let mean3 = pixelimage::metrics::mean_u8(&level);
        assert!(
            (mean0 - mean3).abs() < 4.0,
            "pyramid drifted: {mean0} -> {mean3}"
        );
    }
}
