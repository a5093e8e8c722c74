//! # simd-repro
//!
//! A full reproduction of *"Use of SIMD Vector Operations to Accelerate
//! Application Code Performance on Low-Powered ARM and Intel Platforms"*
//! (Mitra, Johnston, Rendell, McCreath, Zhou — IPPS/IPDPSW 2013) as a Rust
//! workspace.
//!
//! This facade crate re-exports the workspace members:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`vector`] | `simd-vector` | Portable 128/64-bit lane types |
//! | [`sse`] | `sse-sim` | The Intel SSE2 intrinsic surface |
//! | [`neon`] | `neon-sim` | The ARMv7 NEON intrinsic surface |
//! | [`image`] | `pixelimage` | Image container, BMP codec, synthetic photos |
//! | [`kernels`] | `simdbench-core` | The five benchmark kernels × five backends |
//! | [`platform`] | `platform-model` | The ten simulated Table I platforms |
//! | [`harness`] | `repro-harness` | Paper methodology, tables, figures |
//! | [`trace`] | `op-trace` | Micro-op counting (Section V analysis) |
//!
//! ## Quickstart
//!
//! ```
//! use simd_repro::kernels::prelude::*;
//!
//! // A synthetic 0.3 Mpx "photograph".
//! let photo = simd_repro::image::synthetic_image(640, 480, 42);
//!
//! // Blur it (the paper's σ = 1, 7-tap kernel) with the hand-tuned
//! // intrinsics on this host's SIMD unit. Every kernel entry point is
//! // fallible: malformed geometry, a zero-size frame included, is an `Err`.
//! let kernel = paper_gaussian_kernel();
//! let mut blurred = Image::new(640, 480);
//! try_gaussian_blur_kernel(&photo, &mut blurred, &kernel, Engine::Native)?;
//!
//! // Every backend produces bit-identical output.
//! let mut reference = Image::new(640, 480);
//! try_gaussian_blur_kernel(&photo, &mut reference, &kernel, Engine::Scalar)?;
//! assert!(blurred.pixels_eq(&reference));
//! # Ok::<(), KernelError>(())
//! ```

pub use neon_sim as neon;
pub use op_trace as trace;
pub use pixelimage as image;
pub use platform_model as platform;
pub use repro_harness as harness;
pub use simd_vector as vector;
pub use simdbench_core as kernels;
pub use sse_sim as sse;

/// Short description used by the examples' banners.
pub const ABOUT: &str = "Reproduction of the IPPS 2013 NEON-vs-SSE2 SIMD intrinsics study";
