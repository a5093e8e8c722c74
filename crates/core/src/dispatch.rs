//! Run-time backend selection — the `cv::setUseOptimized(bool)` mechanism.
//!
//! The paper switches its NEON/SSE2 optimizations ON and OFF "using the
//! OpenCV function `cv::setUseOptimized(bool onOff)` with the benchmarks
//! labelled accordingly". [`set_use_optimized`] reproduces that global
//! toggle; [`Engine`] is the finer-grained per-call selector the harness
//! uses to measure each backend independently.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

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

    /// The engine `set_use_optimized(true)` selects on this host.
    pub fn best_available() -> Engine {
        if cfg!(any(target_arch = "x86_64", target_arch = "aarch64")) {
            Engine::Native
        } else {
            Engine::Autovec
        }
    }
}

static USE_OPTIMIZED: AtomicBool = AtomicBool::new(true);

/// Serialises scoped flag flips so concurrent [`with_use_optimized`]
/// sections (e.g. parallel `#[test]`s) never interleave their
/// set/observe/restore windows.
static TOGGLE_LOCK: Mutex<()> = Mutex::new(());

/// Globally enables (HAND) or disables (AUTO) the optimized intrinsic
/// kernels, like `cv::setUseOptimized`.
pub fn set_use_optimized(on: bool) {
    USE_OPTIMIZED.store(on, Ordering::Relaxed);
}

/// Runs `f` with the global flag set to `on`, then restores the previous
/// value — even if `f` panics.
///
/// Sections are mutually exclusive across threads, so code observing
/// [`default_engine`] inside one can never see a value leaked from a
/// half-finished flip elsewhere. Tests toggling the flag must use this
/// instead of raw [`set_use_optimized`] pairs, which are not
/// exception-safe and race under the parallel test runner.
pub fn with_use_optimized<R>(on: bool, f: impl FnOnce() -> R) -> R {
    // A panic inside a previous section poisons the mutex *after* its
    // Restore drop ran, so the flag is already consistent: keep going.
    let _serial = TOGGLE_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_use_optimized(self.0);
        }
    }
    let _restore = Restore(use_optimized());

    set_use_optimized(on);
    f()
}

/// Current global optimization flag.
pub fn use_optimized() -> bool {
    USE_OPTIMIZED.load(Ordering::Relaxed)
}

/// The engine implied by the global flag: `Native` (or the best available)
/// when optimized, `Scalar` otherwise.
pub fn default_engine() -> Engine {
    if use_optimized() {
        Engine::best_available()
    } else {
        Engine::Scalar
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The flag's resting value, read under `TOGGLE_LOCK` so it can never
    /// observe a sibling test's [`with_use_optimized`] section mid-flip.
    fn resting_use_optimized() -> bool {
        let _serial = TOGGLE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        use_optimized()
    }

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
    fn global_toggle_switches_default_engine() {
        with_use_optimized(false, || {
            assert_eq!(default_engine(), Engine::Scalar);
        });
        with_use_optimized(true, || {
            assert!(default_engine().is_hand() || default_engine() == Engine::Autovec);
        });
    }

    #[test]
    fn with_use_optimized_restores_on_panic() {
        let initial = resting_use_optimized();
        let result = std::panic::catch_unwind(|| {
            with_use_optimized(!initial, || panic!("boom"));
        });
        assert!(result.is_err());
        assert_eq!(resting_use_optimized(), initial, "flag leaked after panic");
    }

    #[test]
    fn with_use_optimized_sections_are_serialised() {
        // Hammer the flag from many threads; each section must only ever
        // observe its own value, and the initial value must survive.
        let initial = resting_use_optimized();
        std::thread::scope(|s| {
            for i in 0..8 {
                s.spawn(move || {
                    for _ in 0..100 {
                        let on = i % 2 == 0;
                        with_use_optimized(on, || {
                            assert_eq!(use_optimized(), on);
                            let want = if on {
                                Engine::best_available()
                            } else {
                                Engine::Scalar
                            };
                            assert_eq!(default_engine(), want);
                        });
                    }
                });
            }
        });
        assert_eq!(resting_use_optimized(), initial);
    }

    #[test]
    fn best_available_on_x86_64_is_native() {
        #[cfg(target_arch = "x86_64")]
        assert_eq!(Engine::best_available(), Engine::Native);
    }
}
