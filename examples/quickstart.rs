//! Quickstart: generate a synthetic photograph, run every benchmark kernel
//! through the public API, verify the backends agree, and write the results
//! as BMP files.
//!
//! Run: `cargo run --release --example quickstart`

use simd_repro::image::{bmp, metrics, synthetic_image};
use simd_repro::kernels::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("{}\n", simd_repro::ABOUT);

    // One of the harness's deterministic "camera" images at 0.3 Mpx.
    let photo = synthetic_image(640, 480, 7);
    println!(
        "input: 640x480 synthetic photo, mean luma {:.1}",
        metrics::mean_u8(&photo)
    );

    // --- Benchmark 3: Gaussian blur (sigma = 1) -------------------------
    let kernel = paper_gaussian_kernel();
    let mut blurred = Image::new(640, 480);
    try_gaussian_blur_kernel(&photo, &mut blurred, &kernel, Engine::Native)?;
    println!(
        "gaussian blur: PSNR vs input {:.1} dB (smoothing removed detail)",
        metrics::psnr_u8(&photo, &blurred)
    );

    // --- Benchmark 2: binary threshold ----------------------------------
    let mut mask = Image::new(640, 480);
    try_threshold_u8(
        &photo,
        &mut mask,
        128,
        255,
        ThresholdType::Binary,
        Engine::Native,
    )?;
    let above = mask.iter_pixels().filter(|&p| p == 255).count();
    println!(
        "threshold @128: {:.1}% of pixels above",
        100.0 * above as f64 / mask.pixels() as f64
    );

    // --- Benchmark 4: Sobel gradient -------------------------------------
    let mut gx = Image::new(640, 480);
    try_sobel(&photo, &mut gx, SobelDirection::X, Engine::Native)?;
    let max_grad = gx.iter_pixels().map(|v| v.unsigned_abs()).max().unwrap();
    println!("sobel d/dx: max |gradient| = {max_grad}");

    // --- Benchmark 5: edge detection --------------------------------------
    let mut edges = Image::new(640, 480);
    try_edge_detect(&photo, &mut edges, 96, Engine::Native)?;
    let edge_px = edges.iter_pixels().filter(|&p| p == 255).count();
    println!("edge detection @96: {edge_px} edge pixels");

    // --- Benchmark 1: float -> short conversion ---------------------------
    let float = simd_repro::image::convert::u8_to_f32(&photo, 100.0, -12800.0);
    let mut shorts = Image::new(640, 480);
    try_convert_f32_to_i16(&float, &mut shorts, Engine::Native)?;
    println!("convert f32->i16: pixel(0,0) = {}", shorts.get(0, 0));

    // --- All backends agree bit-for-bit ----------------------------------
    for engine in [
        Engine::Scalar,
        Engine::Autovec,
        Engine::Sse2Sim,
        Engine::NeonSim,
    ] {
        let mut check = Image::new(640, 480);
        try_gaussian_blur_kernel(&photo, &mut check, &kernel, engine)?;
        assert!(check.pixels_eq(&blurred), "{engine:?} diverged");
    }
    println!("\nall five backends produce identical output ✓");

    // --- Write artifacts ---------------------------------------------------
    let out = std::env::temp_dir().join("simd-repro");
    std::fs::create_dir_all(&out)?;
    std::fs::write(out.join("photo.bmp"), bmp::encode_gray(&photo))?;
    std::fs::write(out.join("blurred.bmp"), bmp::encode_gray(&blurred))?;
    std::fs::write(out.join("edges.bmp"), bmp::encode_gray(&edges))?;
    println!(
        "wrote photo.bmp / blurred.bmp / edges.bmp to {}",
        out.display()
    );
    Ok(())
}
