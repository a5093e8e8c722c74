//! Benchmark 5 — edge detection (paper Section III-A.5): a 2-D Sobel
//! gradient followed by binary thresholding, "pixels with low gradient
//! intensity are removed".
//!
//! The gradient magnitude uses the standard L1 approximation
//! `|gx| + |gy|` saturated to `u8`, as OpenCV's fast path does.

use crate::dispatch::Engine;
use crate::error::{validate_pair, KernelResult};
use crate::sobel::SobelDirection;
use crate::sse2::{Sim, Sse2};
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
        Engine::Sse2Sim => magnitude_row_sse2::<Sim>(gx, gy, dst),
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

/// SSE2 magnitude over the [`Sse2`] surface: abs via `max(v, -v)` (SSE2
/// lacks `pabsw`), saturating add, unsigned pack.
#[inline(always)]
fn magnitude_row_sse2<S: Sse2>(gx: &[i16], gy: &[i16], dst: &mut [u8]) {
    assert_eq!(gx.len(), dst.len());
    assert_eq!(gy.len(), dst.len());
    let w = dst.len();
    let zero = S::_mm_setzero_si128();
    let mut x = 0;
    while x + 8 <= w {
        // SAFETY: the loads read gx[x..x+8] and gy[x..x+8] and the 64-bit
        // store writes dst[x..x+8]; x + 8 <= w and all slices have length w.
        unsafe {
            let vx = S::_mm_loadu_si128(gx, x);
            let vy = S::_mm_loadu_si128(gy, x);
            let ax = S::_mm_max_epi16(vx, S::_mm_sub_epi16(zero, vx));
            let ay = S::_mm_max_epi16(vy, S::_mm_sub_epi16(zero, vy));
            let sum = S::_mm_adds_epi16(ax, ay);
            S::_mm_storel_epi64(dst, x, S::_mm_packus_epi16(sum, sum));
        }
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
#[inline(never)] // own symbol, for the `asm` CI stage
pub fn magnitude_row_native(gx: &[i16], gy: &[i16], dst: &mut [u8]) {
    #[cfg(target_arch = "x86_64")]
    magnitude_row_sse2::<crate::sse2::Arch>(gx, gy, dst);
    #[cfg(not(target_arch = "x86_64"))]
    magnitude_row_scalar(gx, gy, dst);
}

// ---------------------------------------------------------------------------
// One-pass edge row: both gradients, magnitude and threshold in registers
// ---------------------------------------------------------------------------

/// One output pixel of the one-pass edge row: the scalar definition that
/// [`edge_row_sse2`] vectorises, with horizontal borders replicated.
///
/// With column sums `S(c) = a[c] + 2h[c] + b[c]` and column differences
/// `D(c) = b[c] − a[c]`, the separable Sobel pair is
/// `gx = S(x+1) − S(x−1)` and `gy = D(x−1) + 2D(x) + D(x+1)`: the same
/// sums the two-pass kernel forms, in another order, exact on values
/// bounded by ±1020.
#[inline]
fn edge_px(above: &[u8], here: &[u8], below: &[u8], x: usize, thresh: u8) -> u8 {
    let w = here.len();
    let (xm, xp) = (x.saturating_sub(1), (x + 1).min(w - 1));
    let s = |c: usize| above[c] as i32 + 2 * here[c] as i32 + below[c] as i32;
    let d = |c: usize| below[c] as i32 - above[c] as i32;
    let gx = s(xp) - s(xm);
    let gy = d(xm) + 2 * d(x) + d(xp);
    let mag = (gx.unsigned_abs() + gy.unsigned_abs()).min(255) as u8;
    if mag > thresh {
        255
    } else {
        0
    }
}

/// Scalar one-pass edge row: output row `dst` from source rows `above`,
/// `here` and `below` (the caller clamps the row indices at the image
/// border). Bit-identical to the two-pass chain of
/// [`try_edge_detect`] on the same rows; the reference for
/// [`edge_row_sse2`] and [`edge_row_native`]'s body off x86_64. Panics if the four
/// rows differ in length.
pub fn edge_row_scalar(above: &[u8], here: &[u8], below: &[u8], dst: &mut [u8], thresh: u8) {
    let w = dst.len();
    assert!(above.len() == w && here.len() == w && below.len() == w);
    for (x, out) in dst.iter_mut().enumerate() {
        *out = edge_px(above, here, below, x, thresh);
    }
}

/// A one-pass edge row: `(above, here, below, dst, thresh)`.
pub type EdgeRow = fn(&[u8], &[u8], &[u8], &mut [u8], u8);

/// The one-pass edge row of `engine`, if it has one: [`edge_row_native`]
/// for [`Engine::Native`], and the same SSE2 body on the [`Sim`] surface
/// for [`Engine::Sse2Sim`]. Every other engine's fused edge runs the
/// two-pass rows.
pub fn one_pass_edge_row(engine: Engine) -> Option<EdgeRow> {
    match engine {
        Engine::Native => Some(edge_row_native),
        Engine::Sse2Sim => Some(edge_row_sse2::<Sim>),
        _ => None,
    }
}

/// The one-pass edge row on the host's real SIMD unit: [`edge_row_sse2`]
/// on `core::arch` on x86_64, [`edge_row_scalar`] elsewhere.
#[inline(never)] // own symbol, for the `asm` CI stage
pub fn edge_row_native(above: &[u8], here: &[u8], below: &[u8], dst: &mut [u8], thresh: u8) {
    #[cfg(target_arch = "x86_64")]
    edge_row_sse2::<crate::sse2::Arch>(above, here, below, dst, thresh);
    #[cfg(not(target_arch = "x86_64"))]
    edge_row_scalar(above, here, below, dst, thresh);
}

/// One-pass SSE2 edge row: Sobel X, Sobel Y, the saturated L1 magnitude
/// and the binary threshold for 16 pixels per iteration, with every
/// intermediate in registers. Bit-identical to [`edge_row_scalar`].
///
/// Per block of 16 pixels at `x` it makes eight unaligned 16-byte loads:
/// `above` and `below` at `x−1`, `x` and `x+1`, and `here` at `x−1` and
/// `x+1` (the centre row's own column has weight 0 in both gradients).
/// Widened to i16, it forms `gx = S(x+1) − S(x−1)` and
/// `gy = D(x−1) + 2D(x) + D(x+1)` (column sums `S = a + 2h + b`, column
/// differences `D = b − a`) with their shared terms grouped once: with
/// `u = b(x+1) − a(x−1)`, `v = a(x+1) − b(x−1)`, `e = h(x+1) − h(x−1)`
/// and `f = b(x) − a(x)`, `gx = u + v + 2e` and `gy = u − v + 2f`. Every
/// term is bounded by ±1020, so no i16 step wraps. `|g|` is
/// `max(g, −g)`, the sum saturates with `adds_epi16` and `packus` to u8,
/// and `mag > thresh` is one signed byte compare on operands biased by
/// 0x80, whose all-ones lanes are the 255 the binary threshold writes.
///
/// # Panics
///
/// If `above`, `here`, `below` and `dst` differ in length.
///
/// # Bounds of the unaligned loads
///
/// A block at `x` reads bytes `[x−1, x+17)` of each row and writes
/// `dst[x..x+16]`, so every block keeps `1 <= x <= w − 17`: the loop
/// starts at 1, steps by 16, and its last block is moved back to `w − 17`
/// (overlapping the one before and writing the same bytes) rather than
/// leaving a scalar tail. Columns 0 and `w − 1`, whose neighbours are
/// clamped, and rows narrower than 18 pixels, which have no such block,
/// run [`edge_row_scalar`]'s per-pixel body.
#[inline(always)]
pub fn edge_row_sse2<S: Sse2>(above: &[u8], here: &[u8], below: &[u8], dst: &mut [u8], thresh: u8) {
    let w = dst.len();
    assert!(above.len() == w && here.len() == w && below.len() == w);
    if w < 18 {
        edge_row_scalar(above, here, below, dst, thresh);
        return;
    }
    dst[0] = edge_px(above, here, below, 0, thresh);
    dst[w - 1] = edge_px(above, here, below, w - 1, thresh);
    let last = w - 17;
    let bias = S::_mm_set1_epi8(i8::MIN);
    let thr = S::_mm_xor_si128(S::_mm_set1_epi8(thresh as i8), bias);
    let mut x = 1;
    loop {
        // SAFETY: 1 <= x <= w - 17, so every load reads bytes
        // [x-1, x+17) ⊆ [0, w) of a row of length w (asserted above), and
        // the store writes dst[x..x+16] ⊆ [0, w).
        unsafe {
            let ld = |row: &[u8], at: usize| S::_mm_loadu_si128(row, at);
            let (al, ac, ar) = (ld(above, x - 1), ld(above, x), ld(above, x + 1));
            let (bl, bc, br) = (ld(below, x - 1), ld(below, x), ld(below, x + 1));
            let (hl, hr) = (ld(here, x - 1), ld(here, x + 1));
            let rows = [al, ac, ar, bl, bc, br, hl, hr];
            let lo = edge_mag_half::<S, false>(rows);
            let hi = edge_mag_half::<S, true>(rows);
            let mag = S::_mm_packus_epi16(lo, hi);
            let edge = S::_mm_cmpgt_epi8(S::_mm_xor_si128(mag, bias), thr);
            S::_mm_storeu_si128(dst, x, edge);
        }
        if x == last {
            break;
        }
        x = (x + 16).min(last);
    }
}

/// `|gx| + |gy|` (saturating i16) for the low (`HI = false`) or high 8
/// lanes of the loads `[al, ac, ar, bl, bc, br, hl, hr]` of
/// [`edge_row_sse2`]: `a`/`b`/`h` are the rows above/below/here, and
/// `l`/`c`/`r` the columns `x−1`, `x` and `x+1`.
#[inline(always)]
fn edge_mag_half<S: Sse2, const HI: bool>(rows: [S::I; 8]) -> S::I {
    let zero = S::_mm_setzero_si128();
    let wide = |v| {
        if HI {
            S::_mm_unpackhi_epi8(v, zero)
        } else {
            S::_mm_unpacklo_epi8(v, zero)
        }
    };
    let [al, ac, ar, bl, bc, br, hl, hr] = rows.map(wide);
    let (u, v) = (S::_mm_sub_epi16(br, al), S::_mm_sub_epi16(ar, bl));
    let (e, f) = (S::_mm_sub_epi16(hr, hl), S::_mm_sub_epi16(bc, ac));
    let gx = S::_mm_add_epi16(S::_mm_add_epi16(u, v), S::_mm_add_epi16(e, e));
    let gy = S::_mm_add_epi16(S::_mm_sub_epi16(u, v), S::_mm_add_epi16(f, f));
    let ax = S::_mm_max_epi16(gx, S::_mm_sub_epi16(zero, gx));
    let ay = S::_mm_max_epi16(gy, S::_mm_sub_epi16(zero, gy));
    S::_mm_adds_epi16(ax, ay)
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
