//! `imgtool` — a small command-line image processor built on the
//! reproduction's public API, demonstrating the downstream-user path:
//! BMP in → SIMD kernel → BMP out.
//!
//! ```text
//! imgtool blur      <in.bmp> <out.bmp> [--sigma 1.0] [--ksize 7]
//! imgtool edges     <in.bmp> <out.bmp> [--thresh 96]
//! imgtool threshold <in.bmp> <out.bmp> [--thresh 128]
//! imgtool sobel     <in.bmp> <out.bmp>
//! imgtool half      <in.bmp> <out.bmp>
//! imgtool gray      <in.bmp> <out.bmp>
//! imgtool demo      <out-dir>            # generate a synthetic photo set
//! ```
//!
//! 24-bit colour inputs are converted to grayscale (BT.601) first; outputs
//! are 8-bit palettised BMPs. Add `--engine scalar|autovec|sse2-sim|`
//! `neon-sim|native` to pick a backend (default: native).
//!
//! A frame a kernel rejects (for example a 0-row image, or a 1-pixel-wide
//! one given to `half`) prints `cannot process <in.bmp>: <error>` and exits
//! 1 without writing the output.

use pixelimage::bmp::{self, Decoded};
use pixelimage::Image;
use simdbench_core::color::try_bgr_to_gray;
use simdbench_core::edge::try_edge_detect;
use simdbench_core::gaussian::try_gaussian_blur_kernel;
use simdbench_core::kernelgen::gaussian_kernel_q8;
use simdbench_core::resize::try_downsample2x;
use simdbench_core::sobel::{try_sobel, SobelDirection};
use simdbench_core::threshold::{try_threshold_u8, ThresholdType};
use simdbench_core::{Engine, KernelResult};

fn usage() -> ! {
    eprintln!(
        "usage: imgtool <blur|edges|threshold|sobel|half|gray> <in.bmp> <out.bmp> [options]\n\
         \x20      imgtool demo <out-dir>\n\
         options: --thresh N  --sigma F  --ksize N  --engine NAME"
    );
    std::process::exit(2);
}

struct Options {
    thresh: u8,
    sigma: f64,
    ksize: usize,
    engine: Engine,
}

fn parse_options(args: &[String]) -> Options {
    let mut opts = Options {
        thresh: 128,
        sigma: 1.0,
        ksize: 7,
        engine: Engine::Native,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{flag} requires a {what}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--thresh" => opts.thresh = number(flag, &value("number 0-255"), |_| true),
            "--sigma" => {
                opts.sigma = number(flag, &value("positive number"), |s: &f64| {
                    s.is_finite() && *s > 0.0
                })
            }
            "--ksize" => opts.ksize = number(flag, &value("odd number"), |k| k % 2 == 1),
            "--engine" => {
                let name = value("engine name");
                opts.engine = Engine::ALL
                    .into_iter()
                    .find(|e| e.label() == name)
                    .unwrap_or_else(|| {
                        eprintln!("unknown engine {name}; use one of: scalar autovec sse2-sim neon-sim native");
                        std::process::exit(2);
                    });
            }
            other => {
                eprintln!("unknown option {other}");
                std::process::exit(2);
            }
        }
    }
    opts
}

/// Parses `text`, the value given for `flag`, as a `T` that passes
/// `valid`; anything else is a usage error.
fn number<T: std::str::FromStr>(flag: &str, text: &str, valid: impl Fn(&T) -> bool) -> T {
    match text.parse() {
        Ok(v) if valid(&v) => v,
        _ => {
            eprintln!("invalid {flag} value: {text}");
            usage()
        }
    }
}

fn load_gray(path: &str) -> Image<u8> {
    let bytes = std::fs::read(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    match bmp::decode(&bytes) {
        Ok(Decoded::Gray(img)) => img,
        Ok(Decoded::Bgr(b, g, r)) => {
            let mut gray = Image::new(b.width(), b.height());
            check(path, try_bgr_to_gray(&b, &g, &r, &mut gray, Engine::Native));
            gray
        }
        Err(e) => {
            eprintln!("cannot decode {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// Exits 1 with the kernel's error for `input`, before anything is written.
fn check(input: &str, result: KernelResult) {
    if let Err(e) = result {
        eprintln!("cannot process {input}: {e}");
        std::process::exit(1);
    }
}

fn save_gray(path: &str, img: &Image<u8>) {
    if let Err(e) = std::fs::write(path, bmp::encode_gray(img)) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {path} ({}x{})", img.width(), img.height());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { usage() };

    if command == "demo" {
        let dir = args.get(1).map(String::as_str).unwrap_or("demo-images");
        std::fs::create_dir_all(dir).expect("create output dir");
        for (i, img) in pixelimage::synthetic_suite(pixelimage::Resolution::Vga, 5)
            .iter()
            .enumerate()
        {
            let path = format!("{dir}/photo{i}.bmp");
            std::fs::write(&path, bmp::encode_gray(img)).expect("write demo image");
            println!("wrote {path}");
        }
        return;
    }

    if args.len() < 3 {
        usage();
    }
    let (input, output) = (&args[1], &args[2]);
    let opts = parse_options(&args[3..]);
    let src = load_gray(input);
    let (w, h) = (src.width(), src.height());

    match command.as_str() {
        "blur" => {
            let mut dst = Image::new(w, h);
            let kernel = gaussian_kernel_q8(opts.sigma, opts.ksize);
            check(
                input,
                try_gaussian_blur_kernel(&src, &mut dst, &kernel, opts.engine),
            );
            save_gray(output, &dst);
        }
        "edges" => {
            let mut dst = Image::new(w, h);
            check(
                input,
                try_edge_detect(&src, &mut dst, opts.thresh, opts.engine),
            );
            save_gray(output, &dst);
        }
        "threshold" => {
            let mut dst = Image::new(w, h);
            let binary = ThresholdType::Binary;
            check(
                input,
                try_threshold_u8(&src, &mut dst, opts.thresh, 255, binary, opts.engine),
            );
            save_gray(output, &dst);
        }
        "sobel" => {
            let mut grad = Image::<i16>::new(w, h);
            check(
                input,
                try_sobel(&src, &mut grad, SobelDirection::X, opts.engine),
            );
            // Map signed gradient to displayable u8 around mid-gray.
            let vis = grad.map(|v| ((v as i32 / 8) + 128).clamp(0, 255) as u8);
            save_gray(output, &vis);
        }
        "half" => {
            let mut dst = Image::new(w / 2, h / 2);
            check(input, try_downsample2x(&src, &mut dst, opts.engine));
            save_gray(output, &dst);
        }
        "gray" => {
            save_gray(output, &src);
        }
        _ => usage(),
    }
}
