//! Benchmark 3 — Gaussian blur (paper Section III-A.3): separable
//! convolution with a σ=1 Gaussian, fixed-point Q8 weights, replicated
//! borders.
//!
//! The filter runs in two passes, as OpenCV's `sepFilter2D` does for 8-bit
//! images:
//!
//! 1. **Horizontal**: `u16[x] = Σ_k u8[x+k-r] * w[k]` — products fit `u16`
//!    because the Q8 weights sum to 256 (`255 * 256 = 65280 ≤ 65535`).
//! 2. **Vertical**: `u8[x] = (Σ_k u16_row[y+k-r][x] * w[k] + 2^15) >> 16` —
//!    accumulated in `u32`, rounded, exact for constant images.
//!
//! Each pass has scalar, autovec-friendly, simulated SSE2 and NEON, and
//! native implementations. The SIMD paths vectorise the interior columns
//! and fall back to scalar at the replicated borders and row tails.
//!
//! On x86_64 each native pass has one SSE2 body, generic over its tap count
//! `K`; one arm per odd `K` up to [`MAX_TAPS`] picks it, so the tap loop is
//! fully unrolled and the weights stay in registers. The horizontal body
//! keeps the per-tap `punpcklbw`/`pmullw`/`paddw` of the simulated SSE2
//! pass. The vertical body feeds two tap rows to each `pmaddwd`, on
//! intermediates biased by `-2^15` so they fit its signed lanes; because
//! the weights sum to 256 the bias cancels exactly:
//!
//! `2^23 + 2^15 + Σ_k w[k]·(m_k - 2^15) = Σ_k w[k]·m_k + 2^15`,
//!
//! and every partial sum of `w[k]·(m_k - 2^15)` stays within `±2^23`, so
//! the `i32` lanes never overflow. For every intermediate the horizontal
//! pass can produce (`m ≤ 65280`) the output is the scalar one bit for bit.
//! The simulated SSE2 pass keeps the paper's op stream (§V); see DESIGN.md
//! §12.

use crate::dispatch::Engine;
use crate::error::{validate_pair, KernelError, KernelResult};
use crate::kernelgen::FixedKernel;
use crate::scratch::MAX_TAPS;
use pixelimage::Image;

/// Blurs `src` into `dst` with an explicit Q8 kernel, using `engine` for
/// both passes. Pass [`paper_gaussian_kernel`] for the paper's σ = 1,
/// 7-tap configuration, or [`gaussian_kernel_q8`] for another σ and size.
/// Validates geometry and the kernel's Q8 normalisation.
///
/// [`paper_gaussian_kernel`]: crate::kernelgen::paper_gaussian_kernel
/// [`gaussian_kernel_q8`]: crate::kernelgen::gaussian_kernel_q8
pub fn try_gaussian_blur_kernel(
    src: &Image<u8>,
    dst: &mut Image<u8>,
    kernel: &FixedKernel,
    engine: Engine,
) -> KernelResult {
    validate_pair(src, dst)?;
    if kernel.sum() != 256 {
        return Err(KernelError::BadKernel { sum: kernel.sum() });
    }
    if let Some(fault) = faultline::inject("kernel.entry") {
        return Err(fault.into());
    }
    let mut mid = Image::<u16>::new(src.width(), src.height());
    for y in 0..src.height() {
        horizontal_row(src.row(y), mid.row_mut(y), kernel, engine);
    }
    vertical_pass(&mid, dst, kernel, engine);
    Ok(())
}

// ---------------------------------------------------------------------------
// Horizontal pass
// ---------------------------------------------------------------------------

/// Runs the horizontal pass on one row with the chosen engine.
pub fn horizontal_row(src: &[u8], dst: &mut [u16], kernel: &FixedKernel, engine: Engine) {
    match engine {
        Engine::Scalar => horizontal_row_scalar(src, dst, kernel),
        Engine::Autovec => horizontal_row_autovec(src, dst, kernel),
        Engine::Sse2Sim => horizontal_row_sse2_sim(src, dst, kernel),
        Engine::NeonSim => horizontal_row_neon_sim(src, dst, kernel),
        Engine::Native => horizontal_row_native(src, dst, kernel),
    }
}

#[inline]
fn clamp_idx(i: isize, len: usize) -> usize {
    i.clamp(0, len as isize - 1) as usize
}

/// Reference horizontal pass with border replication everywhere.
pub fn horizontal_row_scalar(src: &[u8], dst: &mut [u16], kernel: &FixedKernel) {
    assert_eq!(src.len(), dst.len());
    let r = kernel.radius as isize;
    for x in 0..src.len() {
        let mut acc = 0u32;
        for (k, &w) in kernel.weights.iter().enumerate() {
            let idx = clamp_idx(x as isize + k as isize - r, src.len());
            acc += src[idx] as u32 * w as u32;
        }
        dst[x] = acc as u16;
    }
}

/// Split-loop version: clamped borders, clamp-free interior the compiler
/// can vectorise.
pub fn horizontal_row_autovec(src: &[u8], dst: &mut [u16], kernel: &FixedKernel) {
    assert_eq!(src.len(), dst.len());
    let width = src.len();
    let r = kernel.radius;
    if width <= 2 * r {
        horizontal_row_scalar(src, dst, kernel);
        return;
    }
    // Borders via the clamped reference.
    horizontal_row_scalar_range(src, dst, kernel, 0, r);
    horizontal_row_scalar_range(src, dst, kernel, width - r, width);
    // Interior: no clamping needed.
    let weights = &kernel.weights;
    for x in r..width - r {
        let window = &src[x - r..x + r + 1];
        let mut acc = 0u32;
        for (w, &s) in weights.iter().zip(window.iter()) {
            acc += s as u32 * *w as u32;
        }
        dst[x] = acc as u16;
    }
}

fn horizontal_row_scalar_range(
    src: &[u8],
    dst: &mut [u16],
    kernel: &FixedKernel,
    from: usize,
    to: usize,
) {
    let r = kernel.radius as isize;
    for x in from..to {
        let mut acc = 0u32;
        for (k, &w) in kernel.weights.iter().enumerate() {
            let idx = clamp_idx(x as isize + k as isize - r, src.len());
            acc += src[idx] as u32 * w as u32;
        }
        dst[x] = acc as u16;
    }
}

/// Hand-written SSE2 horizontal pass (simulated surface): per tap, widen
/// eight bytes to `u16` and multiply-accumulate with `pmullw`.
pub fn horizontal_row_sse2_sim(src: &[u8], dst: &mut [u16], kernel: &FixedKernel) {
    use sse_sim::*;
    assert_eq!(src.len(), dst.len());
    let width = src.len();
    let r = kernel.radius;
    if width < 2 * r + 8 || !kernel.fits_u8() || kernel.len() > MAX_TAPS {
        horizontal_row_scalar(src, dst, kernel);
        return;
    }
    horizontal_row_scalar_range(src, dst, kernel, 0, r);
    let zero = _mm_setzero_si128();
    // Splatted weights live on the stack (MAX_TAPS-bounded) so row calls
    // stay allocation-free — the fused pipeline invokes this per band row.
    let mut weights = [zero; MAX_TAPS];
    for (wv, &w) in weights.iter_mut().zip(kernel.weights.iter()) {
        *wv = _mm_set1_epi16(w as i16);
    }
    let weights = &weights[..kernel.len()];
    let mut x = r;
    while x + 8 <= width - r {
        let mut acc = _mm_setzero_si128();
        for (k, wv) in weights.iter().enumerate() {
            let v = _mm_loadl_epi64(&src[x - r + k..]);
            let wide = _mm_unpacklo_epi8(v, zero);
            acc = _mm_add_epi16(acc, _mm_mullo_epi16(wide, *wv));
        }
        _mm_storeu_si128(&mut dst[x..], acc);
        x += 8;
    }
    horizontal_row_scalar_range(src, dst, kernel, x, width);
}

/// Hand-written NEON horizontal pass (simulated surface): per tap,
/// `vmlal.u8` widening multiply-accumulate.
pub fn horizontal_row_neon_sim(src: &[u8], dst: &mut [u16], kernel: &FixedKernel) {
    use neon_sim::*;
    assert_eq!(src.len(), dst.len());
    let width = src.len();
    let r = kernel.radius;
    if width < 2 * r + 8 || !kernel.fits_u8() || kernel.len() > MAX_TAPS {
        horizontal_row_scalar(src, dst, kernel);
        return;
    }
    horizontal_row_scalar_range(src, dst, kernel, 0, r);
    let mut weights = [vdup_n_u8(0); MAX_TAPS];
    for (wv, &w) in weights.iter_mut().zip(kernel.weights.iter()) {
        *wv = vdup_n_u8(w as u8);
    }
    let weights = &weights[..kernel.len()];
    let mut x = r;
    while x + 8 <= width - r {
        let mut acc = vmull_u8(vld1_u8(&src[x - r..]), weights[0]);
        for (k, wv) in weights.iter().enumerate().skip(1) {
            acc = vmlal_u8(acc, vld1_u8(&src[x - r + k..]), *wv);
        }
        vst1q_u16(&mut dst[x..], acc);
        x += 8;
    }
    horizontal_row_scalar_range(src, dst, kernel, x, width);
}

/// Calls `$body::<K>(args)` for `$len == K`, one arm per odd `K` up to
/// [`MAX_TAPS`], when `$simd` holds; `$fallback` otherwise.
#[cfg(target_arch = "x86_64")]
macro_rules! with_fixed_taps {
    ($len:expr, $simd:expr, $body:ident $args:tt, $fallback:expr) => {
        with_fixed_taps!(@arms $len, $simd, $body $args, $fallback;
            1 3 5 7 9 11 13 15 17 19 21 23 25 27 29 31)
    };
    (@arms $len:expr, $simd:expr, $body:ident $args:tt, $fallback:expr; $($k:literal)*) => {
        match $len {
            $($k if $simd => $body::<$k> $args,)*
            _ => $fallback,
        }
    };
}

// The arm list above must end at the scratch ring's tap limit.
const _: () = assert!(MAX_TAPS == 31);

/// Horizontal pass on the host's real SIMD unit.
///
/// On x86_64 an odd tap count up to [`MAX_TAPS`] with `u8` weights and a
/// row of at least `2r + 8` pixels runs the fixed-tap SSE2 body; anything
/// else runs [`horizontal_row_scalar`].
pub fn horizontal_row_native(src: &[u8], dst: &mut [u16], kernel: &FixedKernel) {
    #[cfg(target_arch = "x86_64")]
    {
        let r = kernel.radius;
        let simd = kernel.fits_u8() && kernel.len() == 2 * r + 1 && src.len() >= 2 * r + 8;
        with_fixed_taps!(
            kernel.len(),
            simd,
            horizontal_row_sse2(src, dst, kernel),
            horizontal_row_scalar(src, dst, kernel)
        )
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        horizontal_row_autovec(src, dst, kernel);
    }
}

/// The SSE2 horizontal body for exactly `K` taps: per tap, widen eight
/// bytes with `punpcklbw`, multiply by the splatted weight with `pmullw`,
/// and add with `paddw`. The tap loop has a constant trip count, so it is
/// fully unrolled and the `K` weights stay in registers.
#[cfg(target_arch = "x86_64")]
#[inline(never)] // one symbol per tap count, so each instance disassembles on its own
fn horizontal_row_sse2<const K: usize>(src: &[u8], dst: &mut [u16], kernel: &FixedKernel) {
    use std::arch::x86_64::*;
    let width = src.len();
    let r = K / 2;
    assert!(dst.len() == width && kernel.len() == K && kernel.radius == r && width >= 2 * r + 8);
    horizontal_row_scalar_range(src, dst, kernel, 0, r);
    let mut x = r;
    // SAFETY: tap k's 64-bit load reads src[x-r+k .. x-r+k+8]; with
    // k < K = 2r + 1 and x + 8 <= width - r it stays within src. The store
    // writes dst[x..x+8] and dst.len() == width. SSE2 is baseline on x86_64.
    unsafe {
        let zero = _mm_setzero_si128();
        let weights: [__m128i; K] =
            std::array::from_fn(|k| _mm_set1_epi16(kernel.weights[k] as i16));
        while x + 8 <= width - r {
            let window = src.as_ptr().add(x - r);
            let mut acc = zero;
            for (k, wv) in weights.iter().enumerate() {
                let v = _mm_loadl_epi64(window.add(k) as *const __m128i);
                acc = _mm_add_epi16(acc, _mm_mullo_epi16(_mm_unpacklo_epi8(v, zero), *wv));
            }
            _mm_storeu_si128(dst.as_mut_ptr().add(x) as *mut __m128i, acc);
            x += 8;
        }
    }
    horizontal_row_scalar_range(src, dst, kernel, x, width);
}

// ---------------------------------------------------------------------------
// Vertical pass
// ---------------------------------------------------------------------------

/// Runs the vertical pass over the whole intermediate image.
pub fn vertical_pass(mid: &Image<u16>, dst: &mut Image<u8>, kernel: &FixedKernel, engine: Engine) {
    let height = mid.height();
    let r = kernel.radius;
    // Borrow the tap rows for each output row, clamping at the edges.
    let mut taps: Vec<&[u16]> = Vec::with_capacity(kernel.len());
    for y in 0..height {
        taps.clear();
        for k in 0..kernel.len() {
            let yy = clamp_idx(y as isize + k as isize - r as isize, height);
            taps.push(mid.row(yy));
        }
        vertical_row(&taps, dst.row_mut(y), kernel, engine);
    }
}

/// Vertical pass for one output row given its `ksize` tap rows.
pub fn vertical_row(taps: &[&[u16]], dst: &mut [u8], kernel: &FixedKernel, engine: Engine) {
    match engine {
        Engine::Scalar => vertical_row_scalar(taps, dst, kernel),
        Engine::Autovec => vertical_row_autovec(taps, dst, kernel),
        Engine::Sse2Sim => vertical_row_sse2_sim(taps, dst, kernel),
        Engine::NeonSim => vertical_row_neon_sim(taps, dst, kernel),
        Engine::Native => vertical_row_native(taps, dst, kernel),
    }
}

const ROUND: u32 = 1 << 15;

/// Reference vertical pass.
pub fn vertical_row_scalar(taps: &[&[u16]], dst: &mut [u8], kernel: &FixedKernel) {
    assert_eq!(taps.len(), kernel.len());
    for x in 0..dst.len() {
        let mut acc = ROUND;
        for (row, &w) in taps.iter().zip(kernel.weights.iter()) {
            acc += row[x] as u32 * w as u32;
        }
        dst[x] = (acc >> 16) as u8;
    }
}

/// Iterator-shaped vertical pass for the auto-vectorizer.
pub fn vertical_row_autovec(taps: &[&[u16]], dst: &mut [u8], kernel: &FixedKernel) {
    assert_eq!(taps.len(), kernel.len());
    let width = dst.len();
    // Accumulate per-tap into a u32 stack block; LLVM vectorises each
    // inner loop independently and no heap allocation is needed (the same
    // per-element u32 arithmetic as the old full-row scratch, so outputs
    // are unchanged).
    const BLOCK: usize = 64;
    let mut acc = [0u32; BLOCK];
    let mut x0 = 0;
    while x0 < width {
        let n = BLOCK.min(width - x0);
        acc[..n].fill(ROUND);
        for (row, &w) in taps.iter().zip(kernel.weights.iter()) {
            let w = w as u32;
            for (a, &v) in acc[..n].iter_mut().zip(row[x0..x0 + n].iter()) {
                *a += v as u32 * w;
            }
        }
        for (d, &a) in dst[x0..x0 + n].iter_mut().zip(acc[..n].iter()) {
            *d = (a >> 16) as u8;
        }
        x0 += n;
    }
}

/// Hand-written SSE2 vertical pass: `pmullw`/`pmulhuw` split products,
/// 32-bit accumulation, rounding shift, double pack.
pub fn vertical_row_sse2_sim(taps: &[&[u16]], dst: &mut [u8], kernel: &FixedKernel) {
    use sse_sim::*;
    assert_eq!(taps.len(), kernel.len());
    if kernel.len() > MAX_TAPS {
        vertical_row_scalar(taps, dst, kernel);
        return;
    }
    let width = dst.len();
    let round = _mm_set1_epi32(ROUND as i32);
    let mut weights = [_mm_setzero_si128(); MAX_TAPS];
    for (wv, &w) in weights.iter_mut().zip(kernel.weights.iter()) {
        *wv = _mm_set1_epi16(w as i16);
    }
    let weights = &weights[..kernel.len()];
    let mut x = 0;
    while x + 8 <= width {
        let mut acc_lo = round;
        let mut acc_hi = round;
        for (row, wv) in taps.iter().zip(weights.iter()) {
            let v = _mm_loadu_si128(&row[x..]);
            let lo16 = _mm_mullo_epi16(v, *wv);
            let hi16 = _mm_mulhi_epu16(v, *wv);
            acc_lo = _mm_add_epi32(acc_lo, _mm_unpacklo_epi16(lo16, hi16));
            acc_hi = _mm_add_epi32(acc_hi, _mm_unpackhi_epi16(lo16, hi16));
        }
        let r_lo = _mm_srli_epi32::<16>(acc_lo);
        let r_hi = _mm_srli_epi32::<16>(acc_hi);
        let packed16 = _mm_packs_epi32(r_lo, r_hi);
        let packed8 = _mm_packus_epi16(packed16, packed16);
        _mm_storel_epi64(&mut dst[x..], packed8);
        x += 8;
    }
    vertical_row_scalar_range(taps, dst, kernel, x, width);
}

/// Hand-written NEON vertical pass: `vmlal.u16` into `u32`, rounding shift,
/// narrow twice.
pub fn vertical_row_neon_sim(taps: &[&[u16]], dst: &mut [u8], kernel: &FixedKernel) {
    use neon_sim::*;
    assert_eq!(taps.len(), kernel.len());
    if kernel.len() > MAX_TAPS {
        vertical_row_scalar(taps, dst, kernel);
        return;
    }
    let width = dst.len();
    let round = vdupq_n_u32(ROUND);
    let mut weights = [uint16x4_t::splat(0); MAX_TAPS];
    for (wv, &w) in weights.iter_mut().zip(kernel.weights.iter()) {
        *wv = uint16x4_t::splat(w as u16);
    }
    let weights = &weights[..kernel.len()];
    let mut x = 0;
    while x + 8 <= width {
        let mut acc_lo = round;
        let mut acc_hi = round;
        for (row, wv) in taps.iter().zip(weights.iter()) {
            let v = vld1q_u16(&row[x..]);
            acc_lo = vmlal_u16(acc_lo, vget_low_u16(v), *wv);
            acc_hi = vmlal_u16(acc_hi, vget_high_u16(v), *wv);
        }
        let n_lo = vmovn_u32(vshrq_n_u32(acc_lo, 16));
        let n_hi = vmovn_u32(vshrq_n_u32(acc_hi, 16));
        let packed = vqmovn_u16(vcombine_u16(n_lo, n_hi));
        vst1_u8(&mut dst[x..], packed);
        x += 8;
    }
    vertical_row_scalar_range(taps, dst, kernel, x, width);
}

fn vertical_row_scalar_range(
    taps: &[&[u16]],
    dst: &mut [u8],
    kernel: &FixedKernel,
    from: usize,
    to: usize,
) {
    for x in from..to {
        let mut acc = ROUND;
        for (row, &w) in taps.iter().zip(kernel.weights.iter()) {
            acc += row[x] as u32 * w as u32;
        }
        dst[x] = (acc >> 16) as u8;
    }
}

/// Vertical pass on the host's real SIMD unit.
///
/// On x86_64 an odd tap count up to [`MAX_TAPS`] whose weights lie in
/// `0..=256` and sum to 256 runs the fixed-tap SSE2 body; anything else
/// runs [`vertical_row_scalar`].
pub fn vertical_row_native(taps: &[&[u16]], dst: &mut [u8], kernel: &FixedKernel) {
    #[cfg(target_arch = "x86_64")]
    {
        let simd = kernel.sum() == 256 && kernel.weights.iter().all(|w| (0..=256).contains(w));
        with_fixed_taps!(
            kernel.len(),
            simd,
            vertical_row_sse2(taps, dst, kernel),
            vertical_row_scalar(taps, dst, kernel)
        )
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        vertical_row_autovec(taps, dst, kernel);
    }
}

/// The SSE2 vertical body for exactly `K` taps, 16 pixels per iteration,
/// two tap rows per `pmaddwd`.
///
/// `pmaddwd` multiplies signed 16-bit lanes, so each `u16` intermediate `m`
/// is xored with `0x8000` first; the signed lane then holds `m - 2^15`.
/// Rows `2i` and `2i + 1` are interleaved with `punpckl/hwd` and multiplied
/// by the weight pair `(w[2i], w[2i+1])`; for odd `K` the last row pairs
/// with itself at weight 0. Both `i32` accumulators start at
/// `2^23 + 2^15`. Because the weights sum to 256,
///
/// `2^23 + 2^15 + Σ w·(m - 2^15) = Σ w·m + 2^15`,
///
/// which is the scalar accumulator, so `>> 16` gives the scalar result bit
/// for bit whenever it fits a `u8` (every `m ≤ 65280`). With
/// `0 <= w <= 256` and `Σ w = 256`, every partial sum of `w·(m - 2^15)`
/// lies in `[-2^23, 2^23)`, so no `i32` lane overflows.
#[cfg(target_arch = "x86_64")]
#[inline(never)] // one symbol per tap count, as for the horizontal body
fn vertical_row_sse2<const K: usize>(taps: &[&[u16]], dst: &mut [u8], kernel: &FixedKernel) {
    use std::arch::x86_64::*;
    let width = dst.len();
    assert!(taps.len() == K && kernel.len() == K);
    assert!(taps.iter().all(|row| row.len() >= width));
    let rows: [*const u16; K] = std::array::from_fn(|k| taps[k].as_ptr());
    let mut x = 0;
    // SAFETY: every load reads rows[k][x..x+8] with x + 8 <= width, and
    // each tap row holds at least `width` values (asserted above). The
    // stores write dst[x..x+16] or dst[x..x+8] under the same bound. SSE2
    // is baseline on x86_64.
    unsafe {
        let flip = _mm_set1_epi16(i16::MIN);
        let start = _mm_set1_epi32((1 << 23) + ROUND as i32);
        // Pair i (of K.div_ceil(2)) holds w[2i] in the low and w[2i+1] in the
        // high half of each 32-bit lane; entries past the pairs stay zero.
        let pairs: [__m128i; K] = std::array::from_fn(|i| {
            let lo = kernel.weights.get(2 * i).copied().unwrap_or(0);
            let hi = kernel.weights.get(2 * i + 1).copied().unwrap_or(0);
            _mm_set1_epi32(lo | (hi << 16))
        });
        // Eight output pixels starting at `x`, as saturated `i16` lanes.
        let eight = |x: usize| {
            let mut acc_lo = start;
            let mut acc_hi = start;
            for (i, wp) in pairs.iter().enumerate().take(K.div_ceil(2)) {
                let a = _mm_xor_si128(_mm_loadu_si128(rows[2 * i].add(x) as *const __m128i), flip);
                let b = if 2 * i + 1 < K {
                    _mm_xor_si128(
                        _mm_loadu_si128(rows[2 * i + 1].add(x) as *const __m128i),
                        flip,
                    )
                } else {
                    a
                };
                acc_lo = _mm_add_epi32(acc_lo, _mm_madd_epi16(_mm_unpacklo_epi16(a, b), *wp));
                acc_hi = _mm_add_epi32(acc_hi, _mm_madd_epi16(_mm_unpackhi_epi16(a, b), *wp));
            }
            _mm_packs_epi32(_mm_srai_epi32::<16>(acc_lo), _mm_srai_epi32::<16>(acc_hi))
        };
        while x + 16 <= width {
            let packed = _mm_packus_epi16(eight(x), eight(x + 8));
            _mm_storeu_si128(dst.as_mut_ptr().add(x) as *mut __m128i, packed);
            x += 16;
        }
        if x + 8 <= width {
            let lo = eight(x);
            _mm_storel_epi64(
                dst.as_mut_ptr().add(x) as *mut __m128i,
                _mm_packus_epi16(lo, lo),
            );
            x += 8;
        }
    }
    vertical_row_scalar_range(taps, dst, kernel, x, width);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernelgen::{gaussian_kernel_q8, paper_gaussian_kernel};
    use pixelimage::synthetic_image;

    /// The paper's σ = 1, 7-tap blur.
    fn blur(src: &Image<u8>, dst: &mut Image<u8>, engine: Engine) {
        try_gaussian_blur_kernel(src, dst, &paper_gaussian_kernel(), engine).unwrap();
    }

    #[test]
    fn constant_image_is_fixed_point() {
        // A normalised kernel must preserve constant images exactly.
        let src = Image::from_fn(40, 20, |_, _| 177u8);
        for engine in Engine::ALL {
            let mut dst = Image::new(40, 20);
            blur(&src, &mut dst, engine);
            assert!(
                dst.all_pixels(|p| p == 177),
                "engine {engine:?} broke constant image"
            );
        }
    }

    #[test]
    fn all_engines_match_scalar() {
        let src = synthetic_image(83, 37, 21);
        let mut reference = Image::new(83, 37);
        blur(&src, &mut reference, Engine::Scalar);
        for engine in [
            Engine::Autovec,
            Engine::Sse2Sim,
            Engine::NeonSim,
            Engine::Native,
        ] {
            let mut out = Image::new(83, 37);
            blur(&src, &mut out, engine);
            assert!(out.pixels_eq(&reference), "engine {engine:?} diverged");
        }
    }

    #[test]
    fn blur_reduces_gradient_energy() {
        let src = synthetic_image(64, 64, 5);
        let mut dst = Image::new(64, 64);
        blur(&src, &mut dst, Engine::Native);
        let energy = |img: &Image<u8>| -> u64 {
            let mut e = 0u64;
            for y in 0..img.height() {
                let row = img.row(y);
                for x in 1..img.width() {
                    e += (row[x] as i64 - row[x - 1] as i64).unsigned_abs();
                }
            }
            e
        };
        assert!(
            energy(&dst) < energy(&src) / 2,
            "blur did not smooth: {} vs {}",
            energy(&dst),
            energy(&src)
        );
    }

    #[test]
    fn impulse_response_is_separable_kernel() {
        // Blurring a centred impulse recovers the outer product of the 1-D
        // kernel with itself (up to fixed-point rounding).
        let mut src = Image::<u8>::new(15, 15);
        src.set(7, 7, 255);
        let mut dst = Image::new(15, 15);
        blur(&src, &mut dst, Engine::Native);
        let k = paper_gaussian_kernel();
        // Centre value: 255 * w[3]^2 / 2^16, rounded.
        let expect = ((255u32 * (k.weights[3] * k.weights[3]) as u32 + ROUND) >> 16) as u8;
        assert_eq!(dst.get(7, 7), expect);
        // Symmetry of the response.
        for d in 1..=3usize {
            assert_eq!(dst.get(7 - d, 7), dst.get(7 + d, 7));
            assert_eq!(dst.get(7, 7 - d), dst.get(7, 7 + d));
            assert_eq!(dst.get(7 - d, 7 - d), dst.get(7 + d, 7 + d));
        }
        // Energy decays away from the centre.
        assert!(dst.get(7, 7) > dst.get(6, 7));
        assert!(dst.get(6, 7) > dst.get(5, 7));
    }

    #[test]
    fn narrow_images_use_scalar_fallback() {
        // Narrower than the kernel: every engine must still agree.
        for width in 1..16 {
            let src = Image::from_fn(width, 9, |x, y| (x * 31 + y * 7) as u8);
            let mut reference = Image::new(width, 9);
            blur(&src, &mut reference, Engine::Scalar);
            for engine in [
                Engine::Autovec,
                Engine::Sse2Sim,
                Engine::NeonSim,
                Engine::Native,
            ] {
                let mut out = Image::new(width, 9);
                blur(&src, &mut out, engine);
                assert!(out.pixels_eq(&reference), "{engine:?} width {width}");
            }
        }
    }

    /// Odd tap counts from 1 to `MAX_TAPS`.
    fn odd_tap_counts() -> impl Iterator<Item = usize> {
        (1..=MAX_TAPS).step_by(2)
    }

    /// A Q8 kernel of `k` taps for the row tests, plus, for each `k`, the
    /// kernels with all 256 of the weight on the first, centre and last tap.
    fn row_kernels(k: usize) -> Vec<FixedKernel> {
        let mut kernels = vec![gaussian_kernel_q8(k as f64 / 4.0, k)];
        for tap in [0, k / 2, k - 1] {
            let mut weights = vec![0; k];
            weights[tap] = 256;
            kernels.push(FixedKernel {
                weights,
                radius: k / 2,
            });
        }
        kernels
    }

    #[test]
    fn native_vertical_row_matches_scalar_for_every_tap_count() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x6A55);
        // 65280 = 255 * 256 is the largest intermediate the horizontal
        // pass produces; widths straddle the 16- and 8-pixel blocks.
        for k in odd_tap_counts() {
            for kernel in row_kernels(k) {
                for width in [1, 7, 8, 9, 15, 16, 17, 23, 24, 31, 33, 64, 77] {
                    let extremes: Vec<Vec<u16>> = (0..k)
                        .map(|t| {
                            (0..width)
                                .map(|x| if (x + t) % 3 == 0 { 65280 } else { 0 })
                                .collect()
                        })
                        .collect();
                    let random: Vec<Vec<u16>> = (0..k)
                        .map(|_| (0..width).map(|_| rng.gen_range(0..65281u16)).collect())
                        .collect();
                    let full: Vec<Vec<u16>> = vec![vec![65280; width]; k];
                    for rows in [&extremes, &random, &full] {
                        let taps: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();
                        let mut expect = vec![0u8; width];
                        vertical_row_scalar(&taps, &mut expect, &kernel);
                        let mut out = vec![0u8; width];
                        vertical_row(&taps, &mut out, &kernel, Engine::Native);
                        assert_eq!(
                            out, expect,
                            "k {k} weights {:?} width {width}",
                            kernel.weights
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn native_horizontal_row_matches_scalar_around_block_edges() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x4812);
        for k in odd_tap_counts() {
            let r = k / 2;
            let kernel = gaussian_kernel_q8(k as f64 / 4.0, k);
            for len in (2 * r + 6..=2 * r + 10).chain(2 * r + 14..=2 * r + 18) {
                let random: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
                for src in [random, vec![255; len]] {
                    let mut expect = vec![0u16; len];
                    horizontal_row_scalar(&src, &mut expect, &kernel);
                    let mut out = vec![0u16; len];
                    horizontal_row(&src, &mut out, &kernel, Engine::Native);
                    assert_eq!(out, expect, "k {k} len {len}");
                }
            }
        }
    }

    #[test]
    fn different_sigmas_agree_across_engines() {
        let src = synthetic_image(50, 30, 8);
        for (sigma, ksize) in [(0.8, 5), (1.5, 9), (2.0, 13)] {
            let kernel = gaussian_kernel_q8(sigma, ksize);
            let mut reference = Image::new(50, 30);
            try_gaussian_blur_kernel(&src, &mut reference, &kernel, Engine::Scalar).unwrap();
            for engine in [Engine::Sse2Sim, Engine::NeonSim, Engine::Native] {
                let mut out = Image::new(50, 30);
                try_gaussian_blur_kernel(&src, &mut out, &kernel, engine).unwrap();
                assert!(out.pixels_eq(&reference), "{engine:?} sigma {sigma}");
            }
        }
    }
}
