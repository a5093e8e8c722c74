//! Edge detection, benchmark-style: runs the paper's benchmark 5 pipeline
//! at a chosen resolution with every backend, times them with the paper's
//! 5-images×N-cycles protocol, and reports the AUTO:HAND speed-up this host
//! achieves (the modern-LLVM counterpart of the paper's gcc 4.6 numbers).
//!
//! Run: `cargo run --release --example edge_detect [-- 1mpx|5mpx|8mpx]`

use simd_repro::harness::timing::{measure, HostConfig, WorkSet};
use simd_repro::image::bmp;
use simd_repro::kernels::prelude::*;
use simd_repro::platform::Kernel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "vga".into());
    let res = match arg.as_str() {
        "1mpx" => Resolution::Mp1,
        "5mpx" => Resolution::Mp5,
        "8mpx" => Resolution::Mp8,
        _ => Resolution::Vga,
    };
    println!("edge detection at {}\n", res.label());

    let config = HostConfig {
        images: 5,
        cycles: 5,
        warmup: 1,
    };
    let work = WorkSet::new(res, config.images);

    println!("{:<10} {:>12} {:>10}", "engine", "seconds", "vs scalar");
    let scalar = measure(Kernel::Edge, Engine::Scalar, &work, &config);
    for engine in Engine::ALL {
        let m = measure(Kernel::Edge, engine, &work, &config);
        println!(
            "{:<10} {:>12.6} {:>9.2}x",
            engine.label(),
            m.seconds,
            scalar.seconds / m.seconds
        );
    }

    // The paper's AUTO vs HAND comparison on this host.
    let auto = measure(Kernel::Edge, Engine::Autovec, &work, &config);
    let hand = measure(Kernel::Edge, Engine::Native, &work, &config);
    println!(
        "\nAUTO (rustc/LLVM autovec) vs HAND (native intrinsics): {:.2}x",
        auto.seconds / hand.seconds
    );
    println!("(the paper measured 1.1-2.6x for edge detection with gcc 4.6)");

    // Write the detected edges of the first image.
    let (w, h) = res.dims();
    let mut edges = Image::new(w, h);
    try_edge_detect(&work.gray[0], &mut edges, 96, Engine::Native)?;
    let out = std::env::temp_dir().join("simd-repro");
    std::fs::create_dir_all(&out)?;
    let path = out.join(format!("edges_{}.bmp", res.label()));
    std::fs::write(&path, bmp::encode_gray(&edges))?;
    println!("wrote {}", path.display());
    Ok(())
}
