//! Multi-core row-parallel kernel variants (experiment A3).
//!
//! The paper compiles OpenCV "for single thread execution" and leaves
//! multi-core to future work; these wrappers provide that extension. Each
//! splits the image into horizontal bands processed by rayon's work-stealing
//! pool, running the chosen [`Engine`] inside each band — SIMD and
//! multi-threading compose.
//!
//! The stencil kernels (Gaussian, Sobel, edge) delegate to the band-tiled
//! fused pipeline in [`crate::pipeline`], which parallelises over bands
//! without materialising full-image intermediates and without allocating
//! inside worker closures. The pointwise kernels (convert, threshold)
//! parallelise over rows directly — they have no intermediates to fuse.

use crate::convert::convert_row;
use crate::dispatch::Engine;
use crate::kernelgen::paper_gaussian_kernel;
use crate::pipeline::{
    try_par_fused_edge_detect_with, try_par_fused_gaussian_blur_with, try_par_fused_sobel_with,
    BandPlan,
};
use crate::sobel::SobelDirection;
use crate::threshold::{threshold_row, ThresholdType};
use pixelimage::Image;
use rayon::prelude::*;

/// Splits an image's backing buffer into per-row mutable slices
/// (`width` elements each, padding skipped).
fn rows_mut<T: simd_vector::align::Pod + Send>(img: &mut Image<T>) -> Vec<&mut [T]> {
    let stride = img.stride();
    let width = img.width();
    let height = img.height();
    img.as_mut_slice()
        .chunks_mut(stride)
        .take(height)
        .map(|chunk| &mut chunk[..width])
        .collect()
}

/// Row-parallel float→short conversion.
pub fn par_convert_f32_to_i16(src: &Image<f32>, dst: &mut Image<i16>, engine: Engine) {
    assert_eq!(src.width(), dst.width(), "width mismatch");
    assert_eq!(src.height(), dst.height(), "height mismatch");
    rows_mut(dst)
        .into_par_iter()
        .enumerate()
        .for_each(|(y, drow)| convert_row(src.row(y), drow, engine));
}

/// Row-parallel threshold.
pub fn par_threshold_u8(
    src: &Image<u8>,
    dst: &mut Image<u8>,
    thresh: u8,
    maxval: u8,
    ty: ThresholdType,
    engine: Engine,
) {
    assert_eq!(src.width(), dst.width(), "width mismatch");
    assert_eq!(src.height(), dst.height(), "height mismatch");
    rows_mut(dst)
        .into_par_iter()
        .enumerate()
        .for_each(|(y, drow)| threshold_row(src.row(y), drow, thresh, maxval, ty, engine));
}

/// Band-parallel Gaussian blur (σ=1, 7 taps — the paper configuration)
/// via the fused pipeline: no intermediate image; band workspaces come
/// from the pool workers' thread-local arenas.
pub fn par_gaussian_blur(src: &Image<u8>, dst: &mut Image<u8>, engine: Engine) {
    let plan = BandPlan::for_width(src.width());
    let kernel = paper_gaussian_kernel();
    if let Err(e) = try_par_fused_gaussian_blur_with(src, dst, &kernel, engine, &plan) {
        e.panic_or_ignore();
    }
}

/// Band-parallel Sobel gradient via the fused pipeline.
pub fn par_sobel(src: &Image<u8>, dst: &mut Image<i16>, dir: SobelDirection, engine: Engine) {
    let plan = BandPlan::for_width(src.width());
    if let Err(e) = try_par_fused_sobel_with(src, dst, dir, engine, &plan) {
        e.panic_or_ignore();
    }
}

/// Band-parallel edge detection via the fused pipeline: the whole
/// Sobel×2 → magnitude → threshold chain runs per band with pooled
/// buffers, never materialising the gradient images.
pub fn par_edge_detect(src: &Image<u8>, dst: &mut Image<u8>, thresh: u8, engine: Engine) {
    let plan = BandPlan::for_width(src.width());
    if let Err(e) = try_par_fused_edge_detect_with(src, dst, thresh, engine, &plan) {
        e.panic_or_ignore();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::convert_f32_to_i16;
    use crate::edge::edge_detect;
    use crate::gaussian::gaussian_blur;
    use crate::sobel::sobel;
    use crate::threshold::threshold_u8;
    use pixelimage::{synthetic_image, synthetic_image_f32};

    #[test]
    fn par_convert_matches_sequential() {
        let src = synthetic_image_f32(131, 61, 41).map(|v| (v - 100.0) * 500.0);
        let mut seq = Image::new(131, 61);
        convert_f32_to_i16(&src, &mut seq, Engine::Native);
        let mut par = Image::new(131, 61);
        par_convert_f32_to_i16(&src, &mut par, Engine::Native);
        assert!(par.pixels_eq(&seq));
    }

    #[test]
    fn par_threshold_matches_sequential() {
        let src = synthetic_image(131, 61, 43);
        let mut seq = Image::new(131, 61);
        threshold_u8(
            &src,
            &mut seq,
            128,
            255,
            ThresholdType::Binary,
            Engine::Native,
        );
        let mut par = Image::new(131, 61);
        par_threshold_u8(
            &src,
            &mut par,
            128,
            255,
            ThresholdType::Binary,
            Engine::Native,
        );
        assert!(par.pixels_eq(&seq));
    }

    #[test]
    fn par_gaussian_matches_sequential() {
        let src = synthetic_image(131, 61, 47);
        let mut seq = Image::new(131, 61);
        gaussian_blur(&src, &mut seq, Engine::Native);
        let mut par = Image::new(131, 61);
        par_gaussian_blur(&src, &mut par, Engine::Native);
        assert!(par.pixels_eq(&seq));
    }

    #[test]
    fn par_sobel_matches_sequential() {
        let src = synthetic_image(131, 61, 53);
        for dir in [SobelDirection::X, SobelDirection::Y] {
            let mut seq = Image::new(131, 61);
            sobel(&src, &mut seq, dir, Engine::Native);
            let mut par = Image::new(131, 61);
            par_sobel(&src, &mut par, dir, Engine::Native);
            assert!(par.pixels_eq(&seq), "{dir:?}");
        }
    }

    #[test]
    fn par_edge_matches_sequential() {
        let src = synthetic_image(131, 61, 59);
        let mut seq = Image::new(131, 61);
        edge_detect(&src, &mut seq, 96, Engine::Native);
        let mut par = Image::new(131, 61);
        par_edge_detect(&src, &mut par, 96, Engine::Native);
        assert!(par.pixels_eq(&seq));
    }

    #[test]
    fn parallel_works_with_sim_engines_too() {
        let src = synthetic_image(64, 32, 61);
        let mut seq = Image::new(64, 32);
        gaussian_blur(&src, &mut seq, Engine::Scalar);
        for engine in [Engine::Sse2Sim, Engine::NeonSim] {
            let mut par = Image::new(64, 32);
            par_gaussian_blur(&src, &mut par, engine);
            assert!(par.pixels_eq(&seq), "{engine:?}");
        }
    }
}
