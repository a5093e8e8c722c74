//! Runtime prediction: (platform, kernel, strategy, resolution) → seconds.

use crate::memory::dram_cycles_per_pixel;
use crate::pipeline::{compute_cycles_per_pixel, total_cycles_per_pixel, Bound};
use crate::spec::PlatformSpec;
use crate::workload::{dram_bytes_per_pixel, mix_for, Kernel, Strategy};
use pixelimage::Resolution;

/// A single predicted measurement.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Platform short label.
    pub platform: String,
    /// Kernel.
    pub kernel: Kernel,
    /// Strategy (AUTO/HAND).
    pub strategy: Strategy,
    /// Image label (e.g. "3264x2448").
    pub image: String,
    /// Predicted wall-clock seconds for one pass over the image.
    pub seconds: f64,
    /// Compute cycles per pixel the pipeline model charged.
    pub compute_cpp: f64,
    /// DRAM cycles per pixel the memory model charged.
    pub dram_cpp: f64,
    /// True when the memory system dominates.
    pub memory_bound: bool,
}

/// Predicts the runtime of one benchmark configuration.
pub fn predict(
    p: &PlatformSpec,
    kernel: Kernel,
    strategy: Strategy,
    res: Resolution,
) -> Prediction {
    let (width, _) = res.dims();
    let mix = mix_for(kernel, strategy, p.isa);
    let mut compute_cpp = compute_cycles_per_pixel(&mix, p);
    if strategy == Strategy::Auto {
        compute_cpp *= p.auto_quality;
    }
    let bytes_pp = dram_bytes_per_pixel(kernel, width, p.last_level_cache_kb());
    let dram_cpp = dram_cycles_per_pixel(bytes_pp, p);
    let (total_cpp, bound) = total_cycles_per_pixel(compute_cpp, dram_cpp, p);
    let seconds = res.pixels() as f64 * total_cpp / (p.ghz * 1e9);
    Prediction {
        platform: p.short.to_string(),
        kernel,
        strategy,
        image: res.label().to_string(),
        seconds,
        compute_cpp,
        dram_cpp,
        memory_bound: bound == Bound::Memory,
    }
}

/// Predicted seconds only.
pub fn predict_seconds(
    p: &PlatformSpec,
    kernel: Kernel,
    strategy: Strategy,
    res: Resolution,
) -> f64 {
    predict(p, kernel, strategy, res).seconds
}

/// The paper's headline metric: AUTO time / HAND time.
pub fn speedup(p: &PlatformSpec, kernel: Kernel, res: Resolution) -> f64 {
    predict_seconds(p, kernel, Strategy::Auto, res)
        / predict_seconds(p, kernel, Strategy::Hand, res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platforms::*;

    #[test]
    fn times_scale_roughly_linearly_with_pixels() {
        let p = core_i5_3360m();
        let small = predict_seconds(&p, Kernel::Convert, Strategy::Hand, Resolution::Vga);
        let large = predict_seconds(&p, Kernel::Convert, Strategy::Hand, Resolution::Mp8);
        let ratio = large / small;
        let pixel_ratio = Resolution::Mp8.pixels() as f64 / Resolution::Vga.pixels() as f64;
        assert!(
            (ratio / pixel_ratio - 1.0).abs() < 0.1,
            "ratio {ratio} vs pixels {pixel_ratio}"
        );
    }

    #[test]
    fn hand_is_always_at_least_as_fast_as_auto() {
        for p in all_platforms() {
            for kernel in Kernel::ALL {
                for res in Resolution::ALL {
                    let s = speedup(&p, kernel, res);
                    assert!(s >= 1.0, "{} {:?} {:?}: {s}", p.short, kernel, res);
                }
            }
        }
    }

    #[test]
    fn predictions_have_positive_times() {
        for p in all_platforms() {
            for kernel in Kernel::ALL {
                let pred = predict(&p, kernel, Strategy::Hand, Resolution::Mp8);
                assert!(pred.seconds > 0.0);
                assert!(pred.compute_cpp > 0.0);
                assert!(pred.dram_cpp > 0.0);
            }
        }
    }
}
