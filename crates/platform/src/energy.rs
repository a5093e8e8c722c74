//! Energy-efficiency extension (experiment A4).
//!
//! The paper's introduction cites a three-tier GFLOPS/Watt classification
//! (desktop/server ≈ 1, GPU accelerators ≈ 2, ARM ≈ 4 GFLOPS/W) and names
//! performance-per-watt the future-work metric. This module derives
//! pixels/joule for every platform/kernel pair from the timing model and
//! the platforms' load power, and reproduces the tier classification.

use crate::predict::predict_seconds;
use crate::spec::PlatformSpec;
use crate::workload::{Kernel, Strategy};
use pixelimage::Resolution;

/// The introduction's three-tier efficiency classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EfficiencyTier {
    /// ≈1 GFLOPS/W — desktop and server processors.
    Tier1Desktop,
    /// ≈2 GFLOPS/W — GPU accelerators.
    Tier2Accelerator,
    /// ≈4 GFLOPS/W — ARM RISC processors.
    Tier3Arm,
}

/// Megapixels processed per joule for one configuration.
pub fn megapixels_per_joule(
    p: &PlatformSpec,
    kernel: Kernel,
    strategy: Strategy,
    res: Resolution,
) -> f64 {
    let seconds = predict_seconds(p, kernel, strategy, res);
    let joules = seconds * p.tdp_watts;
    res.megapixels() / joules
}

/// Energy (joules) for one pass over the image.
pub fn joules_per_frame(
    p: &PlatformSpec,
    kernel: Kernel,
    strategy: Strategy,
    res: Resolution,
) -> f64 {
    predict_seconds(p, kernel, strategy, res) * p.tdp_watts
}

/// Classifies a platform by the intro's taxonomy (no GPUs in the study, so
/// only tiers 1 and 3 appear).
pub fn classify(p: &PlatformSpec) -> EfficiencyTier {
    if p.is_arm() {
        EfficiencyTier::Tier3Arm
    } else {
        EfficiencyTier::Tier1Desktop
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platforms::*;

    #[test]
    fn hand_is_more_energy_efficient_than_auto() {
        for p in all_platforms() {
            let hand = megapixels_per_joule(&p, Kernel::Convert, Strategy::Hand, Resolution::Mp8);
            let auto = megapixels_per_joule(&p, Kernel::Convert, Strategy::Auto, Resolution::Mp8);
            assert!(hand >= auto, "{}", p.short);
        }
    }

    #[test]
    fn arm_hand_kernels_beat_desktop_per_joule() {
        // The intro's thesis: low-power ARM parts win on efficiency even
        // while losing on absolute speed.
        let c2q = core2_q9400();
        let exynos = exynos_4412();
        let arm = megapixels_per_joule(&exynos, Kernel::Threshold, Strategy::Hand, Resolution::Mp8);
        let desktop =
            megapixels_per_joule(&c2q, Kernel::Threshold, Strategy::Hand, Resolution::Mp8);
        assert!(
            arm > desktop,
            "ARM {arm:.2} Mpx/J should beat desktop {desktop:.2} Mpx/J"
        );
    }

    #[test]
    fn tier_classification_matches_isa() {
        assert_eq!(classify(&atom_d510()), EfficiencyTier::Tier1Desktop);
        assert_eq!(classify(&exynos_3110()), EfficiencyTier::Tier3Arm);
        assert_eq!(classify(&tegra_t30()), EfficiencyTier::Tier3Arm);
    }

    #[test]
    fn energy_scales_with_image_size() {
        let p = exynos_4412();
        let small = joules_per_frame(&p, Kernel::Gaussian, Strategy::Hand, Resolution::Vga);
        let large = joules_per_frame(&p, Kernel::Gaussian, Strategy::Hand, Resolution::Mp8);
        assert!(large > 20.0 * small);
    }
}
