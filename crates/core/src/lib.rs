//! The five OpenCV-derived benchmark kernels of the paper, each implemented
//! in multiple backends selected per call by an [`Engine`] argument (the
//! paper toggles AUTO and HAND with `cv::setUseOptimized`; see
//! [`Engine::for_use_optimized`]):
//!
//! | Benchmark | Paper section | Module |
//! |---|---|---|
//! | 1. Float→short saturating conversion | III-A.1 | [`convert`] |
//! | 2. Binary image threshold | III-A.2 | [`threshold`] |
//! | 3. Gaussian blur (σ=1, separable) | III-A.3 | [`gaussian`] |
//! | 4. Sobel filter (separable 1-D pair) | III-A.4 | [`sobel`] |
//! | 5. Edge detection (Sobel + threshold) | III-A.5 | [`edge`] |
//!
//! Backends per kernel (see [`Engine`]):
//!
//! * `Scalar` — the original OpenCV-style element loop (the AUTO source).
//! * `Autovec` — the same computation restructured for compiler
//!   auto-vectorization (slice/chunk iteration, no per-element calls).
//! * `Sse2Sim` / `NeonSim` — the paper's hand-written intrinsic loops,
//!   executed through the simulated `sse-sim` / `neon-sim` surfaces
//!   (bit-exact, traceable with `op_trace`).
//! * `Native` — the same intrinsic loops compiled to real `core::arch`
//!   instructions where the host supports them (SSE2 on x86_64, NEON on
//!   aarch64); this is the backend the wall-clock benchmarks measure as
//!   HAND.
//!
//! All backends of a kernel produce bit-identical output; the integration
//! suite and property tests enforce this.
//!
//! Each image-level kernel has one public entry point, a fallible `try_*`
//! function returning [`KernelResult`]: malformed geometry, including a
//! zero-size frame, is an `Err`, never a panic or a silent no-op.

#![warn(missing_docs)]
// Kernel loops index pixels positionally (`dst[x] = f(src[x-1..x+1])`):
// the clamped-neighbourhood arithmetic reads clearer than iterator chains
// and matches the paper's listings.
#![allow(clippy::needless_range_loop)]

pub mod avx;
pub mod color;
pub mod convert;
pub mod dispatch;
pub mod edge;
pub mod error;
pub mod gaussian;
pub mod kernelgen;
pub mod median;
pub mod pipeline;
pub mod resize;
pub mod scratch;
pub mod sobel;
pub mod sse2;
pub mod stream;
pub mod threshold;

pub use dispatch::Engine;
pub use error::{KernelError, KernelResult};
pub use threshold::ThresholdType;

/// Convenience re-exports for downstream users.
pub mod prelude {
    pub use crate::convert::try_convert_f32_to_i16;
    pub use crate::dispatch::Engine;
    pub use crate::edge::try_edge_detect;
    pub use crate::error::{KernelError, KernelResult};
    pub use crate::gaussian::try_gaussian_blur_kernel;
    pub use crate::kernelgen::paper_gaussian_kernel;
    pub use crate::pipeline::{
        try_fused_edge_detect_with, try_fused_gaussian_blur_with, try_fused_sobel_with,
        try_par_fused_edge_detect_with, try_par_fused_gaussian_blur_with, try_par_fused_sobel_with,
        BandPlan,
    };
    pub use crate::scratch::Scratch;
    pub use crate::sobel::{try_sobel, SobelDirection};
    pub use crate::stream::{
        FrameOutcome, FrameStatus, StreamConfig, StreamEngine, StreamError, StreamKernel,
    };
    pub use crate::threshold::{try_threshold_u8, ThresholdType};
    pub use pixelimage::{Image, Resolution};
}
