//! Benchmark 4 — Sobel filtering (paper Section III-A.4): "two separable
//! 1-D Sobel filters", i.e. the smoothing kernel `[1, 2, 1]` in one axis and
//! the central-difference kernel `[-1, 0, 1]` in the other, producing a
//! 16-bit signed gradient image (OpenCV `CV_16S` output).

use crate::dispatch::Engine;
use crate::error::{validate_pair, KernelResult};
use pixelimage::Image;

/// Gradient direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SobelDirection {
    /// `d/dx`: difference along rows, smoothing along columns.
    X,
    /// `d/dy`: smoothing along rows, difference along columns.
    Y,
}

/// Computes the Sobel gradient of `src` into `dst` using `engine`.
/// Validates geometry.
pub fn try_sobel(
    src: &Image<u8>,
    dst: &mut Image<i16>,
    dir: SobelDirection,
    engine: Engine,
) -> KernelResult {
    validate_pair(src, dst)?;
    if let Some(fault) = faultline::inject("kernel.entry") {
        return Err(fault.into());
    }
    let mut mid = Image::<i16>::new(src.width(), src.height());
    // Horizontal pass.
    for y in 0..src.height() {
        match dir {
            SobelDirection::X => h_diff_row(src.row(y), mid.row_mut(y), engine),
            SobelDirection::Y => h_smooth_row(src.row(y), mid.row_mut(y), engine),
        }
    }
    // Vertical pass (row indices clamped for border replication).
    let height = src.height();
    let clamp = |y: isize| y.clamp(0, height as isize - 1) as usize;
    for y in 0..height {
        let above = mid.row(clamp(y as isize - 1));
        let here = mid.row(y);
        let below = mid.row(clamp(y as isize + 1));
        match dir {
            SobelDirection::X => v_smooth_row(above, here, below, dst.row_mut(y), engine),
            SobelDirection::Y => v_diff_row(above, below, dst.row_mut(y), engine),
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Horizontal difference: t[x] = src[x+1] - src[x-1] (replicated borders)
// ---------------------------------------------------------------------------

/// Horizontal `[-1, 0, 1]` pass on one row.
pub fn h_diff_row(src: &[u8], dst: &mut [i16], engine: Engine) {
    match engine {
        Engine::Scalar | Engine::Autovec => h_diff_row_scalar(src, dst),
        Engine::Sse2Sim => h_diff_row_sse2_sim(src, dst),
        Engine::NeonSim => h_diff_row_neon_sim(src, dst),
        Engine::Native => h_diff_row_native(src, dst),
    }
}

/// Reference horizontal difference.
pub fn h_diff_row_scalar(src: &[u8], dst: &mut [i16]) {
    assert_eq!(src.len(), dst.len());
    let w = src.len();
    if w == 0 {
        return;
    }
    let clamp = |x: isize| src[x.clamp(0, w as isize - 1) as usize] as i16;
    for x in 0..w {
        dst[x] = clamp(x as isize + 1) - clamp(x as isize - 1);
    }
}

fn h_diff_row_sse2_sim(src: &[u8], dst: &mut [i16]) {
    use sse_sim::*;
    assert_eq!(src.len(), dst.len());
    let w = src.len();
    if w < 10 {
        h_diff_row_scalar(src, dst);
        return;
    }
    dst[0] = src[1] as i16 - src[0] as i16;
    let zero = _mm_setzero_si128();
    let mut x = 1;
    while x + 8 < w {
        let left = _mm_unpacklo_epi8(_mm_loadl_epi64(&src[x - 1..]), zero);
        let right = _mm_unpacklo_epi8(_mm_loadl_epi64(&src[x + 1..]), zero);
        let diff = _mm_sub_epi16(right, left);
        _mm_storeu_si128(&mut dst[x..], diff);
        x += 8;
    }
    for xi in x..w {
        let xm = xi.saturating_sub(1);
        let xp = (xi + 1).min(w - 1);
        dst[xi] = src[xp] as i16 - src[xm] as i16;
    }
}

fn h_diff_row_neon_sim(src: &[u8], dst: &mut [i16]) {
    use neon_sim::*;
    assert_eq!(src.len(), dst.len());
    let w = src.len();
    if w < 10 {
        h_diff_row_scalar(src, dst);
        return;
    }
    dst[0] = src[1] as i16 - src[0] as i16;
    let mut x = 1;
    while x + 8 < w {
        let left = vmovl_u8_as_s16(vld1_u8(&src[x - 1..]));
        let right = vmovl_u8_as_s16(vld1_u8(&src[x + 1..]));
        vst1q_s16(&mut dst[x..], vsubq_s16(right, left));
        x += 8;
    }
    for xi in x..w {
        let xm = xi.saturating_sub(1);
        let xp = (xi + 1).min(w - 1);
        dst[xi] = src[xp] as i16 - src[xm] as i16;
    }
}

fn h_diff_row_native(src: &[u8], dst: &mut [i16]) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::*;
        assert_eq!(src.len(), dst.len());
        let w = src.len();
        if w < 10 {
            h_diff_row_scalar(src, dst);
            return;
        }
        dst[0] = src[1] as i16 - src[0] as i16;
        let mut x = 1;
        // SAFETY: loads read src[x-1..x+7] and src[x+1..x+9]; with
        // x + 8 <= w - 1 the furthest byte is x+8 <= w-1. Store writes
        // dst[x..x+8] <= w-1+1 = w.
        unsafe {
            let zero = _mm_setzero_si128();
            while x + 8 < w {
                let left = _mm_unpacklo_epi8(
                    _mm_loadl_epi64(src.as_ptr().add(x - 1) as *const __m128i),
                    zero,
                );
                let right = _mm_unpacklo_epi8(
                    _mm_loadl_epi64(src.as_ptr().add(x + 1) as *const __m128i),
                    zero,
                );
                let diff = _mm_sub_epi16(right, left);
                _mm_storeu_si128(dst.as_mut_ptr().add(x) as *mut __m128i, diff);
                x += 8;
            }
        }
        for xi in x..w {
            let xm = xi.saturating_sub(1);
            let xp = (xi + 1).min(w - 1);
            dst[xi] = src[xp] as i16 - src[xm] as i16;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        h_diff_row_scalar(src, dst);
    }
}

// ---------------------------------------------------------------------------
// Horizontal smoothing: t[x] = src[x-1] + 2*src[x] + src[x+1]
// ---------------------------------------------------------------------------

/// Horizontal `[1, 2, 1]` pass on one row.
pub fn h_smooth_row(src: &[u8], dst: &mut [i16], engine: Engine) {
    match engine {
        Engine::Scalar | Engine::Autovec => h_smooth_row_scalar(src, dst),
        Engine::Sse2Sim => h_smooth_row_sse2_sim(src, dst),
        Engine::NeonSim => h_smooth_row_neon_sim(src, dst),
        Engine::Native => h_smooth_row_native(src, dst),
    }
}

/// Reference horizontal smoothing.
pub fn h_smooth_row_scalar(src: &[u8], dst: &mut [i16]) {
    assert_eq!(src.len(), dst.len());
    let w = src.len();
    if w == 0 {
        return;
    }
    let clamp = |x: isize| src[x.clamp(0, w as isize - 1) as usize] as i16;
    for x in 0..w {
        dst[x] = clamp(x as isize - 1) + 2 * clamp(x as isize) + clamp(x as isize + 1);
    }
}

fn h_smooth_row_sse2_sim(src: &[u8], dst: &mut [i16]) {
    use sse_sim::*;
    assert_eq!(src.len(), dst.len());
    let w = src.len();
    if w < 10 {
        h_smooth_row_scalar(src, dst);
        return;
    }
    dst[0] = 3 * src[0] as i16 + src[1] as i16;
    let zero = _mm_setzero_si128();
    let mut x = 1;
    while x + 8 < w {
        let left = _mm_unpacklo_epi8(_mm_loadl_epi64(&src[x - 1..]), zero);
        let mid = _mm_unpacklo_epi8(_mm_loadl_epi64(&src[x..]), zero);
        let right = _mm_unpacklo_epi8(_mm_loadl_epi64(&src[x + 1..]), zero);
        let sum = _mm_add_epi16(_mm_add_epi16(left, right), _mm_slli_epi16::<1>(mid));
        _mm_storeu_si128(&mut dst[x..], sum);
        x += 8;
    }
    for xi in x..w {
        let xm = xi.saturating_sub(1);
        let xp = (xi + 1).min(w - 1);
        dst[xi] = src[xm] as i16 + 2 * src[xi] as i16 + src[xp] as i16;
    }
}

fn h_smooth_row_neon_sim(src: &[u8], dst: &mut [i16]) {
    use neon_sim::*;
    assert_eq!(src.len(), dst.len());
    let w = src.len();
    if w < 10 {
        h_smooth_row_scalar(src, dst);
        return;
    }
    dst[0] = 3 * src[0] as i16 + src[1] as i16;
    let mut x = 1;
    while x + 8 < w {
        let left = vmovl_u8_as_s16(vld1_u8(&src[x - 1..]));
        let mid = vmovl_u8_as_s16(vld1_u8(&src[x..]));
        let right = vmovl_u8_as_s16(vld1_u8(&src[x + 1..]));
        let sum = vaddq_s16(vaddq_s16(left, right), vshlq_n_s16(mid, 1));
        vst1q_s16(&mut dst[x..], sum);
        x += 8;
    }
    for xi in x..w {
        let xm = xi.saturating_sub(1);
        let xp = (xi + 1).min(w - 1);
        dst[xi] = src[xm] as i16 + 2 * src[xi] as i16 + src[xp] as i16;
    }
}

fn h_smooth_row_native(src: &[u8], dst: &mut [i16]) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::*;
        assert_eq!(src.len(), dst.len());
        let w = src.len();
        if w < 10 {
            h_smooth_row_scalar(src, dst);
            return;
        }
        dst[0] = 3 * src[0] as i16 + src[1] as i16;
        let mut x = 1;
        // SAFETY: identical bounds reasoning to h_diff_row_native.
        unsafe {
            let zero = _mm_setzero_si128();
            while x + 8 < w {
                let left = _mm_unpacklo_epi8(
                    _mm_loadl_epi64(src.as_ptr().add(x - 1) as *const __m128i),
                    zero,
                );
                let mid =
                    _mm_unpacklo_epi8(_mm_loadl_epi64(src.as_ptr().add(x) as *const __m128i), zero);
                let right = _mm_unpacklo_epi8(
                    _mm_loadl_epi64(src.as_ptr().add(x + 1) as *const __m128i),
                    zero,
                );
                let sum = _mm_add_epi16(_mm_add_epi16(left, right), _mm_slli_epi16::<1>(mid));
                _mm_storeu_si128(dst.as_mut_ptr().add(x) as *mut __m128i, sum);
                x += 8;
            }
        }
        for xi in x..w {
            let xm = xi.saturating_sub(1);
            let xp = (xi + 1).min(w - 1);
            dst[xi] = src[xm] as i16 + 2 * src[xi] as i16 + src[xp] as i16;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        h_smooth_row_scalar(src, dst);
    }
}

// ---------------------------------------------------------------------------
// Vertical passes over the i16 intermediate rows
// ---------------------------------------------------------------------------

/// Vertical `[1, 2, 1]`: `dst = above + 2*here + below`.
pub fn v_smooth_row(above: &[i16], here: &[i16], below: &[i16], dst: &mut [i16], engine: Engine) {
    match engine {
        Engine::Scalar | Engine::Autovec => v_smooth_row_scalar(above, here, below, dst),
        Engine::Sse2Sim => {
            use sse_sim::*;
            let w = dst.len();
            let mut x = 0;
            while x + 8 <= w {
                let a = _mm_loadu_si128(&above[x..]);
                let h = _mm_loadu_si128(&here[x..]);
                let b = _mm_loadu_si128(&below[x..]);
                let sum = _mm_add_epi16(_mm_add_epi16(a, b), _mm_slli_epi16::<1>(h));
                _mm_storeu_si128(&mut dst[x..], sum);
                x += 8;
            }
            v_smooth_row_scalar(&above[x..], &here[x..], &below[x..], &mut dst[x..]);
        }
        Engine::NeonSim => {
            use neon_sim::*;
            let w = dst.len();
            let mut x = 0;
            while x + 8 <= w {
                let a = vld1q_s16(&above[x..]);
                let h = vld1q_s16(&here[x..]);
                let b = vld1q_s16(&below[x..]);
                let sum = vaddq_s16(vaddq_s16(a, b), vshlq_n_s16(h, 1));
                vst1q_s16(&mut dst[x..], sum);
                x += 8;
            }
            v_smooth_row_scalar(&above[x..], &here[x..], &below[x..], &mut dst[x..]);
        }
        Engine::Native => v_smooth_row_native(above, here, below, dst),
    }
}

fn v_smooth_row_scalar(above: &[i16], here: &[i16], below: &[i16], dst: &mut [i16]) {
    for x in 0..dst.len() {
        dst[x] = above[x] + 2 * here[x] + below[x];
    }
}

fn v_smooth_row_native(above: &[i16], here: &[i16], below: &[i16], dst: &mut [i16]) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::*;
        let w = dst.len();
        assert!(above.len() >= w && here.len() >= w && below.len() >= w);
        let mut x = 0;
        // SAFETY: all loads/stores cover [x, x+8) <= w on slices of length
        // >= w (asserted above).
        unsafe {
            while x + 8 <= w {
                let a = _mm_loadu_si128(above.as_ptr().add(x) as *const __m128i);
                let h = _mm_loadu_si128(here.as_ptr().add(x) as *const __m128i);
                let b = _mm_loadu_si128(below.as_ptr().add(x) as *const __m128i);
                let sum = _mm_add_epi16(_mm_add_epi16(a, b), _mm_slli_epi16::<1>(h));
                _mm_storeu_si128(dst.as_mut_ptr().add(x) as *mut __m128i, sum);
                x += 8;
            }
        }
        v_smooth_row_scalar(&above[x..w], &here[x..w], &below[x..w], &mut dst[x..]);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        v_smooth_row_scalar(above, here, below, dst);
    }
}

/// Vertical `[-1, 0, 1]`: `dst = below - above`.
pub fn v_diff_row(above: &[i16], below: &[i16], dst: &mut [i16], engine: Engine) {
    match engine {
        Engine::Scalar | Engine::Autovec => v_diff_row_scalar(above, below, dst),
        Engine::Sse2Sim => {
            use sse_sim::*;
            let w = dst.len();
            let mut x = 0;
            while x + 8 <= w {
                let a = _mm_loadu_si128(&above[x..]);
                let b = _mm_loadu_si128(&below[x..]);
                _mm_storeu_si128(&mut dst[x..], _mm_sub_epi16(b, a));
                x += 8;
            }
            v_diff_row_scalar(&above[x..], &below[x..], &mut dst[x..]);
        }
        Engine::NeonSim => {
            use neon_sim::*;
            let w = dst.len();
            let mut x = 0;
            while x + 8 <= w {
                let a = vld1q_s16(&above[x..]);
                let b = vld1q_s16(&below[x..]);
                vst1q_s16(&mut dst[x..], vsubq_s16(b, a));
                x += 8;
            }
            v_diff_row_scalar(&above[x..], &below[x..], &mut dst[x..]);
        }
        Engine::Native => v_diff_row_native(above, below, dst),
    }
}

fn v_diff_row_scalar(above: &[i16], below: &[i16], dst: &mut [i16]) {
    for x in 0..dst.len() {
        dst[x] = below[x] - above[x];
    }
}

fn v_diff_row_native(above: &[i16], below: &[i16], dst: &mut [i16]) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::*;
        let w = dst.len();
        assert!(above.len() >= w && below.len() >= w);
        let mut x = 0;
        // SAFETY: bounds as in v_smooth_row_native.
        unsafe {
            while x + 8 <= w {
                let a = _mm_loadu_si128(above.as_ptr().add(x) as *const __m128i);
                let b = _mm_loadu_si128(below.as_ptr().add(x) as *const __m128i);
                _mm_storeu_si128(dst.as_mut_ptr().add(x) as *mut __m128i, _mm_sub_epi16(b, a));
                x += 8;
            }
        }
        v_diff_row_scalar(&above[x..w], &below[x..w], &mut dst[x..]);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        v_diff_row_scalar(above, below, dst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixelimage::synthetic_image;

    /// Direct 3×3 convolution reference for the full Sobel operator.
    fn sobel_reference(src: &Image<u8>, dir: SobelDirection) -> Image<i16> {
        let (w, h) = (src.width(), src.height());
        let clamp = |v: isize, hi: usize| v.clamp(0, hi as isize - 1) as usize;
        let gx_kernel: [[i16; 3]; 3] = [[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]];
        let gy_kernel: [[i16; 3]; 3] = [[-1, -2, -1], [0, 0, 0], [1, 2, 1]];
        let kernel = match dir {
            SobelDirection::X => gx_kernel,
            SobelDirection::Y => gy_kernel,
        };
        Image::from_fn(w, h, |x, y| {
            let mut acc = 0i16;
            for (ky, krow) in kernel.iter().enumerate() {
                for (kx, &kv) in krow.iter().enumerate() {
                    let sx = clamp(x as isize + kx as isize - 1, w);
                    let sy = clamp(y as isize + ky as isize - 1, h);
                    acc += kv * src.get(sx, sy) as i16;
                }
            }
            acc
        })
    }

    #[test]
    fn separable_equals_direct_convolution() {
        let src = synthetic_image(47, 31, 17);
        for dir in [SobelDirection::X, SobelDirection::Y] {
            let expect = sobel_reference(&src, dir);
            let mut out = Image::new(47, 31);
            try_sobel(&src, &mut out, dir, Engine::Scalar).unwrap();
            assert!(out.pixels_eq(&expect), "direction {dir:?}");
        }
    }

    #[test]
    fn all_engines_match_scalar() {
        let src = synthetic_image(85, 33, 19);
        for dir in [SobelDirection::X, SobelDirection::Y] {
            let mut reference = Image::new(85, 33);
            try_sobel(&src, &mut reference, dir, Engine::Scalar).unwrap();
            for engine in [
                Engine::Autovec,
                Engine::Sse2Sim,
                Engine::NeonSim,
                Engine::Native,
            ] {
                let mut out = Image::new(85, 33);
                try_sobel(&src, &mut out, dir, engine).unwrap();
                assert!(out.pixels_eq(&reference), "{dir:?} {engine:?}");
            }
        }
    }

    #[test]
    fn constant_image_has_zero_gradient() {
        let src = Image::from_fn(32, 32, |_, _| 99u8);
        for dir in [SobelDirection::X, SobelDirection::Y] {
            let mut out = Image::new(32, 32);
            try_sobel(&src, &mut out, dir, Engine::Native).unwrap();
            assert!(out.all_pixels(|p| p == 0), "{dir:?}");
        }
    }

    #[test]
    fn vertical_step_detected_by_gx_only() {
        // Left half 0, right half 200: gx strong at the seam, gy zero.
        let src = Image::from_fn(32, 32, |x, _| if x < 16 { 0u8 } else { 200 });
        let mut gx = Image::new(32, 32);
        let mut gy = Image::new(32, 32);
        try_sobel(&src, &mut gx, SobelDirection::X, Engine::Native).unwrap();
        try_sobel(&src, &mut gy, SobelDirection::Y, Engine::Native).unwrap();
        assert!(gy.all_pixels(|p| p == 0));
        // Peak response at the step: [1,2,1]ᵀ smooth × [-1,0,1] over a
        // 0→200 step gives 200 * 4 = 800.
        assert_eq!(gx.get(15, 16), 800);
        assert_eq!(gx.get(16, 16), 800);
        assert_eq!(gx.get(3, 16), 0);
    }

    #[test]
    fn gradient_is_antisymmetric_under_inversion() {
        // Inverting the image negates the gradient (up to the 255-v map).
        let src = synthetic_image(40, 24, 23);
        let inv = src.map(|v| 255 - v);
        let mut g = Image::new(40, 24);
        let mut ginv = Image::new(40, 24);
        try_sobel(&src, &mut g, SobelDirection::X, Engine::Native).unwrap();
        try_sobel(&inv, &mut ginv, SobelDirection::X, Engine::Native).unwrap();
        for y in 0..24 {
            for (a, b) in g.row(y).iter().zip(ginv.row(y).iter()) {
                assert_eq!(*a, -*b);
            }
        }
    }

    #[test]
    fn tiny_images_all_engines() {
        for (w, h) in [(1, 1), (2, 2), (3, 1), (1, 3), (9, 2), (16, 16)] {
            let src = Image::from_fn(w, h, |x, y| ((x * 89 + y * 55) % 251) as u8);
            for dir in [SobelDirection::X, SobelDirection::Y] {
                let mut reference = Image::new(w, h);
                try_sobel(&src, &mut reference, dir, Engine::Scalar).unwrap();
                for engine in [Engine::Sse2Sim, Engine::NeonSim, Engine::Native] {
                    let mut out = Image::new(w, h);
                    try_sobel(&src, &mut out, dir, engine).unwrap();
                    assert!(out.pixels_eq(&reference), "{w}x{h} {dir:?} {engine:?}");
                }
            }
        }
    }
}
