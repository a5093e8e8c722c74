//! Extension kernel — 3×3 median blur (experiment A9).
//!
//! The largest speed-up in the paper's related work is median blur: 23× with
//! NEON on a Tegra 3 (Pulli et al.). The kernel is a showcase for SIMD
//! min/max *sorting networks*: the median of a 3×3 neighbourhood falls out
//! of 19 `min`/`max` operations with no branches at all, while the scalar
//! version sorts 9 elements per pixel.
//!
//! The network (the classic Smith median-of-9):
//!
//! 1. sort each column's 3 samples → per-column (lo, mid, hi);
//! 2. the median is `med3( max(lo₀,lo₁,lo₂), med3(mid₀,mid₁,mid₂),
//!    min(hi₀,hi₁,hi₂) )`.

use crate::dispatch::Engine;
use crate::error::{validate_pair, KernelResult};
use crate::sse2::{Sim, Sse2};
use pixelimage::Image;

/// Applies a 3×3 median filter with replicated borders. Validates
/// geometry.
pub fn try_median_blur3(src: &Image<u8>, dst: &mut Image<u8>, engine: Engine) -> KernelResult {
    validate_pair(src, dst)?;
    let height = src.height();
    let clamp = |y: isize| y.clamp(0, height as isize - 1) as usize;
    for y in 0..height {
        let above = src.row(clamp(y as isize - 1));
        let here = src.row(y);
        let below = src.row(clamp(y as isize + 1));
        median_row3(above, here, below, dst.row_mut(y), engine);
    }
    Ok(())
}

/// Computes one output row of the 3×3 median from its three source rows.
pub fn median_row3(above: &[u8], here: &[u8], below: &[u8], dst: &mut [u8], engine: Engine) {
    match engine {
        Engine::Scalar => median_row3_scalar(above, here, below, dst),
        Engine::Autovec => median_row3_network_scalar(above, here, below, dst),
        Engine::Sse2Sim => median_row3_sse2::<Sim>(above, here, below, dst),
        Engine::NeonSim => median_row3_neon_sim(above, here, below, dst),
        Engine::Native => median_row3_native(above, here, below, dst),
    }
}

/// Reference: gather the 9 clamped samples and sort.
pub fn median_row3_scalar(above: &[u8], here: &[u8], below: &[u8], dst: &mut [u8]) {
    assert_eq!(here.len(), dst.len());
    let w = dst.len();
    for x in 0..w {
        dst[x] = median_edge(above, here, below, x, w);
    }
}

#[inline]
fn sort3(a: u8, b: u8, c: u8) -> (u8, u8, u8) {
    let lo = a.min(b).min(c);
    let hi = a.max(b).max(c);
    // mid = a + b + c - lo - hi, computed in u16 to avoid overflow.
    let mid = (a as u16 + b as u16 + c as u16 - lo as u16 - hi as u16) as u8;
    (lo, mid, hi)
}

/// Branch-free min/max network in scalar form — what the auto-vectorizer is
/// given.
pub fn median_row3_network_scalar(above: &[u8], here: &[u8], below: &[u8], dst: &mut [u8]) {
    assert_eq!(here.len(), dst.len());
    let w = dst.len();
    if w == 0 {
        return;
    }
    let cx = |x: isize| x.clamp(0, w as isize - 1) as usize;
    for x in 0..w {
        let xm = cx(x as isize - 1);
        let xp = cx(x as isize + 1);
        let (lo0, mid0, hi0) = sort3(above[xm], here[xm], below[xm]);
        let (lo1, mid1, hi1) = sort3(above[x], here[x], below[x]);
        let (lo2, mid2, hi2) = sort3(above[xp], here[xp], below[xp]);
        let max_lo = lo0.max(lo1).max(lo2);
        let (_, med_mid, _) = sort3(mid0, mid1, mid2);
        let min_hi = hi0.min(hi1).min(hi2);
        let (_, median, _) = sort3(max_lo, med_mid, min_hi);
        dst[x] = median;
    }
}

macro_rules! median_network {
    ($min:ident, $max:ident, $c0:expr, $c1:expr, $c2:expr) => {{
        // Column sorts.
        let (a0, b0, c0) = $c0;
        let (a1, b1, c1) = $c1;
        let (a2, b2, c2) = $c2;
        let sort3 = |a, b, c| {
            let lo = $min($min(a, b), c);
            let hi = $max($max(a, b), c);
            // mid via min/max exchanges: mid = max(min(a,b), min(max(a,b),c))
            let mid = $max($min(a, b), $min($max(a, b), c));
            (lo, mid, hi)
        };
        let (lo0, mid0, hi0) = sort3(a0, b0, c0);
        let (lo1, mid1, hi1) = sort3(a1, b1, c1);
        let (lo2, mid2, hi2) = sort3(a2, b2, c2);
        let max_lo = $max($max(lo0, lo1), lo2);
        let (_, med_mid, _) = sort3(mid0, mid1, mid2);
        let min_hi = $min($min(hi0, hi1), hi2);
        let (_, median, _) = sort3(max_lo, med_mid, min_hi);
        median
    }};
}

/// SSE2 median over the [`Sse2`] surface: nine unaligned loads feeding the
/// `pminub`/`pmaxub` network.
#[inline(always)]
fn median_row3_sse2<S: Sse2>(above: &[u8], here: &[u8], below: &[u8], dst: &mut [u8]) {
    assert_eq!(here.len(), dst.len());
    let w = dst.len();
    assert!(above.len() >= w && below.len() >= w);
    if w < 18 {
        median_row3_scalar(above, here, below, dst);
        return;
    }
    dst[0] = median_edge(above, here, below, 0, w);
    let mn = |a, b| S::_mm_min_epu8(a, b);
    let mx = |a, b| S::_mm_max_epu8(a, b);
    let mut x = 1;
    while x + 16 < w {
        // SAFETY: the loads read row[x-1 .. x+17]; with x + 16 < w the
        // furthest byte is x+16 <= w-1, and every row holds w bytes
        // (asserted above). The store writes dst[x..x+16] ⊆ [0, w).
        unsafe {
            let col = |row: &[u8], dx: usize| S::_mm_loadu_si128(row, x - 1 + dx);
            let median = median_network!(
                mn,
                mx,
                (col(above, 0), col(here, 0), col(below, 0)),
                (col(above, 1), col(here, 1), col(below, 1)),
                (col(above, 2), col(here, 2), col(below, 2))
            );
            S::_mm_storeu_si128(dst, x, median);
        }
        x += 16;
    }
    for xi in x..w {
        dst[xi] = median_edge(above, here, below, xi, w);
    }
}

/// NEON median: the same network with `vminq_u8`/`vmaxq_u8`.
pub fn median_row3_neon_sim(above: &[u8], here: &[u8], below: &[u8], dst: &mut [u8]) {
    use neon_sim::*;
    assert_eq!(here.len(), dst.len());
    let w = dst.len();
    if w < 18 {
        median_row3_scalar(above, here, below, dst);
        return;
    }
    dst[0] = median_edge(above, here, below, 0, w);
    let mn = |a, b| vminq_u8(a, b);
    let mx = |a, b| vmaxq_u8(a, b);
    let mut x = 1;
    while x + 16 < w {
        let col = |row: &[u8], dx: usize| vld1q_u8(&row[x - 1 + dx..]);
        let median = median_network!(
            mn,
            mx,
            (col(above, 0), col(here, 0), col(below, 0)),
            (col(above, 1), col(here, 1), col(below, 1)),
            (col(above, 2), col(here, 2), col(below, 2))
        );
        vst1q_u8(&mut dst[x..], median);
        x += 16;
    }
    for xi in x..w {
        dst[xi] = median_edge(above, here, below, xi, w);
    }
}

/// Median on the host's real SIMD unit.
#[inline(never)] // own symbol, for the `asm` CI stage
pub fn median_row3_native(above: &[u8], here: &[u8], below: &[u8], dst: &mut [u8]) {
    #[cfg(target_arch = "x86_64")]
    median_row3_sse2::<crate::sse2::Arch>(above, here, below, dst);
    #[cfg(not(target_arch = "x86_64"))]
    median_row3_network_scalar(above, here, below, dst);
}

/// Scalar median for one (possibly border) pixel.
fn median_edge(above: &[u8], here: &[u8], below: &[u8], x: usize, w: usize) -> u8 {
    let cx = |v: isize| v.clamp(0, w as isize - 1) as usize;
    let xm = cx(x as isize - 1);
    let xp = cx(x as isize + 1);
    let mut v = [
        above[xm], above[x], above[xp], here[xm], here[x], here[xp], below[xm], below[x], below[xp],
    ];
    v.sort_unstable();
    v[4]
}

#[cfg(test)]
mod tests {
    use super::*;
    use pixelimage::synthetic_image;

    #[test]
    fn all_engines_match_scalar() {
        let src = synthetic_image(131, 47, 71);
        let mut reference = Image::new(131, 47);
        try_median_blur3(&src, &mut reference, Engine::Scalar).unwrap();
        for engine in [
            Engine::Autovec,
            Engine::Sse2Sim,
            Engine::NeonSim,
            Engine::Native,
        ] {
            let mut out = Image::new(131, 47);
            try_median_blur3(&src, &mut out, engine).unwrap();
            assert!(out.pixels_eq(&reference), "{engine:?}");
        }
    }

    #[test]
    fn constant_image_unchanged() {
        let src = Image::from_fn(40, 20, |_, _| 88u8);
        for engine in Engine::ALL {
            let mut out = Image::new(40, 20);
            try_median_blur3(&src, &mut out, engine).unwrap();
            assert!(out.all_pixels(|p| p == 88), "{engine:?}");
        }
    }

    #[test]
    fn removes_salt_and_pepper_noise() {
        // Isolated impulses in a flat field disappear entirely.
        let mut src = Image::from_fn(32, 32, |_, _| 100u8);
        src.set(10, 10, 255);
        src.set(20, 20, 0);
        let mut out = Image::new(32, 32);
        try_median_blur3(&src, &mut out, Engine::Native).unwrap();
        assert!(out.all_pixels(|p| p == 100));
    }

    #[test]
    fn preserves_step_edges() {
        // Unlike the Gaussian, the median keeps a hard step exactly.
        let src = Image::from_fn(32, 32, |x, _| if x < 16 { 10u8 } else { 240 });
        let mut out = Image::new(32, 32);
        try_median_blur3(&src, &mut out, Engine::Native).unwrap();
        assert!(out.pixels_eq(&src), "median moved a clean step edge");
    }

    #[test]
    fn median_is_order_statistic() {
        // Known 3x3 block: output centre is the sorted middle element.
        let vals = [13u8, 200, 7, 99, 42, 180, 65, 3, 250];
        let src = Image::from_fn(3, 3, |x, y| vals[y * 3 + x]);
        let mut out = Image::new(3, 3);
        try_median_blur3(&src, &mut out, Engine::Native).unwrap();
        let mut sorted = vals;
        sorted.sort_unstable();
        assert_eq!(out.get(1, 1), sorted[4]);
    }

    #[test]
    fn network_equals_sort_exhaustively_on_binary_patterns() {
        // All 2^9 neighbourhoods of {0, 255}: the min/max network must pick
        // the same median as sorting (the median-of-9 is determined by the
        // count of high samples).
        for bits in 0..512u32 {
            let px = |i: u32| if bits & (1 << i) != 0 { 255u8 } else { 0 };
            let above = [px(0), px(1), px(2)];
            let here = [px(3), px(4), px(5)];
            let below = [px(6), px(7), px(8)];
            let mut expect = [0u8; 3];
            median_row3_scalar(&above, &here, &below, &mut expect);
            let mut got = [0u8; 3];
            median_row3_network_scalar(&above, &here, &below, &mut got);
            assert_eq!(got, expect, "pattern {bits:#011b}");
        }
    }

    #[test]
    fn widths_around_vector_boundary() {
        for w in [1usize, 2, 17, 18, 19, 33, 50] {
            let src = synthetic_image(w, 5, 3);
            let mut reference = Image::new(w, 5);
            try_median_blur3(&src, &mut reference, Engine::Scalar).unwrap();
            for engine in [Engine::Sse2Sim, Engine::NeonSim, Engine::Native] {
                let mut out = Image::new(w, 5);
                try_median_blur3(&src, &mut out, engine).unwrap();
                assert!(out.pixels_eq(&reference), "{engine:?} w={w}");
            }
        }
    }
}
