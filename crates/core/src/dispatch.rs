//! Run-time backend selection — the `cv::setUseOptimized(bool)` mechanism.
//!
//! The paper switches its NEON/SSE2 optimizations ON and OFF "using the
//! OpenCV function `cv::setUseOptimized(bool onOff)` with the benchmarks
//! labelled accordingly". Here every kernel takes its [`Engine`] as an
//! argument, so there is no process-global switch:
//! [`Engine::for_use_optimized`] is the pure form of that mapping, and the
//! harness picks each backend per call to measure it independently.

/// Which implementation of a kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Original OpenCV-style element loop (the AUTO-compiled source).
    Scalar,
    /// Restructured for compiler auto-vectorization (slice iteration).
    Autovec,
    /// Hand-written SSE2 intrinsics through the `sse-sim` surface.
    Sse2Sim,
    /// Hand-written NEON intrinsics through the `neon-sim` surface.
    NeonSim,
    /// Hand-written intrinsics compiled to the host's real SIMD unit
    /// (SSE2 on x86_64, NEON on aarch64; falls back to `Autovec`
    /// elsewhere).
    Native,
}

impl Engine {
    /// All engines, in report order.
    pub const ALL: [Engine; 5] = [
        Engine::Scalar,
        Engine::Autovec,
        Engine::Sse2Sim,
        Engine::NeonSim,
        Engine::Native,
    ];

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Engine::Scalar => "scalar",
            Engine::Autovec => "autovec",
            Engine::Sse2Sim => "sse2-sim",
            Engine::NeonSim => "neon-sim",
            Engine::Native => "native",
        }
    }

    /// True for the hand-written-intrinsics engines (the paper's HAND).
    pub fn is_hand(self) -> bool {
        matches!(self, Engine::Sse2Sim | Engine::NeonSim | Engine::Native)
    }

    /// The best engine this host runs: `Native` where real SSE2/NEON
    /// exists, `Autovec` elsewhere.
    pub fn best_available() -> Engine {
        if cfg!(any(target_arch = "x86_64", target_arch = "aarch64")) {
            Engine::Native
        } else {
            Engine::Autovec
        }
    }

    /// The engine `cv::setUseOptimized(on)` selects: the best available
    /// engine when `on` (HAND), the scalar loop otherwise (AUTO).
    pub fn for_use_optimized(on: bool) -> Engine {
        if on {
            Engine::best_available()
        } else {
            Engine::Scalar
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> = Engine::ALL.iter().map(|e| e.label()).collect();
        assert_eq!(labels.len(), Engine::ALL.len());
    }

    #[test]
    fn hand_classification() {
        assert!(!Engine::Scalar.is_hand());
        assert!(!Engine::Autovec.is_hand());
        assert!(Engine::Sse2Sim.is_hand());
        assert!(Engine::NeonSim.is_hand());
        assert!(Engine::Native.is_hand());
    }

    #[test]
    fn use_optimized_maps_to_hand_or_scalar() {
        assert_eq!(Engine::for_use_optimized(false), Engine::Scalar);
        assert_eq!(Engine::for_use_optimized(true), Engine::best_available());
    }

    #[test]
    fn best_available_on_x86_64_is_native() {
        #[cfg(target_arch = "x86_64")]
        assert_eq!(Engine::best_available(), Engine::Native);
    }
}
