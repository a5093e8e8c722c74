//! Section V style instruction-stream analysis.
//!
//! The paper disassembles the float→short conversion kernel and counts how
//! many operations each strategy needs per block of output pixels: the NEON
//! intrinsic loop retires 8 SIMD instructions plus 6 loop-overhead
//! instructions per 8 pixels (14 total), while gcc's "auto-vectorized" loop
//! issues a per-pixel sequence that includes a `lrint` library call. This
//! module renders the same comparison for any pair of measured or modelled
//! [`OpMix`]es.

use crate::{OpClass, OpMix};
use std::fmt;

/// One side of a HAND-vs-AUTO comparison.
#[derive(Debug, Clone)]
pub struct StreamProfile {
    /// Label shown in the report (e.g. `"HAND (NEON intrinsics)"`).
    pub label: String,
    /// The instruction mix for the whole workload.
    pub mix: OpMix,
    /// Number of output pixels the mix covers.
    pub pixels: u64,
}

impl StreamProfile {
    /// Creates a profile.
    pub fn new(label: impl Into<String>, mix: OpMix, pixels: u64) -> Self {
        StreamProfile {
            label: label.into(),
            mix,
            pixels,
        }
    }

    /// Ops per output pixel.
    pub fn ops_per_pixel(&self) -> f64 {
        self.mix.per_pixel(self.pixels)
    }

    /// Ops per block of `block` output pixels (the paper uses blocks of 8).
    pub fn ops_per_block(&self, block: u64) -> f64 {
        self.ops_per_pixel() * block as f64
    }
}

/// A HAND-vs-AUTO comparison for one kernel, as in the paper's Section V.
#[derive(Debug, Clone)]
pub struct StreamComparison {
    /// Kernel name (e.g. `"convert f32->i16"`).
    pub kernel: String,
    /// The hand-tuned intrinsic stream.
    pub hand: StreamProfile,
    /// The compiler auto-vectorized stream.
    pub auto: StreamProfile,
}

impl StreamComparison {
    /// Creates a comparison.
    pub fn new(kernel: impl Into<String>, hand: StreamProfile, auto: StreamProfile) -> Self {
        StreamComparison {
            kernel: kernel.into(),
            hand,
            auto,
        }
    }

    /// The instruction-count ratio AUTO/HAND — an architecture-independent
    /// predictor of the HAND speed-up (ignoring latency differences).
    pub fn instruction_ratio(&self) -> f64 {
        let hand = self.hand.ops_per_pixel();
        if hand == 0.0 {
            0.0
        } else {
            self.auto.ops_per_pixel() / hand
        }
    }

    /// Renders the Section V style text report.
    pub fn report(&self) -> String {
        let mut out = String::new();
        use fmt::Write;
        writeln!(out, "kernel: {}", self.kernel).unwrap();
        for profile in [&self.hand, &self.auto] {
            writeln!(
                out,
                "  {:<28} {:>8.2} ops/pixel ({:>6.1} ops / 8 pixels)",
                profile.label,
                profile.ops_per_pixel(),
                profile.ops_per_block(8)
            )
            .unwrap();
            for (class, n) in profile.mix.iter_nonzero() {
                writeln!(
                    out,
                    "      {:<9} {:>12}  ({:.3}/px)",
                    class.mnemonic(),
                    n,
                    n as f64 / profile.pixels.max(1) as f64
                )
                .unwrap();
            }
        }
        writeln!(
            out,
            "  instruction ratio AUTO:HAND = {:.2}x",
            self.instruction_ratio()
        )
        .unwrap();
        out
    }
}

/// Summary statistics over several kernels' comparisons.
#[derive(Debug, Clone, Default)]
pub struct AnalysisSummary {
    /// (kernel name, AUTO:HAND instruction ratio) pairs.
    pub ratios: Vec<(String, f64)>,
}

impl AnalysisSummary {
    /// Builds the summary from comparisons.
    pub fn from_comparisons(cmps: &[StreamComparison]) -> Self {
        AnalysisSummary {
            ratios: cmps
                .iter()
                .map(|c| (c.kernel.clone(), c.instruction_ratio()))
                .collect(),
        }
    }

    /// Smallest ratio across kernels.
    pub fn min_ratio(&self) -> Option<f64> {
        self.ratios
            .iter()
            .map(|&(_, r)| r)
            .min_by(|a, b| a.total_cmp(b))
    }

    /// Largest ratio across kernels.
    pub fn max_ratio(&self) -> Option<f64> {
        self.ratios
            .iter()
            .map(|&(_, r)| r)
            .max_by(|a, b| a.total_cmp(b))
    }
}

/// Classifies the dominant cost of a mix — a coarse bottleneck indicator used
/// in reports ("why did the Tegra T30 not benefit as much?").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// Most ops are SIMD compute.
    SimdCompute,
    /// Most ops are scalar compute.
    ScalarCompute,
    /// Most ops touch memory.
    Memory,
    /// Loop overhead / branches / libcalls dominate.
    Overhead,
}

/// Picks the dominant [`Bottleneck`] of a mix.
pub fn classify_bottleneck(mix: &OpMix) -> Bottleneck {
    let mem = mix.memory_total();
    let simd_compute = mix.get(OpClass::SimdAlu) + mix.get(OpClass::SimdConvert);
    let scalar_compute = mix.get(OpClass::ScalarAlu) + mix.get(OpClass::ScalarConvert);
    let overhead = mix.overhead_total();
    let max = mem.max(simd_compute).max(scalar_compute).max(overhead);
    if max == mem {
        Bottleneck::Memory
    } else if max == simd_compute {
        Bottleneck::SimdCompute
    } else if max == scalar_compute {
        Bottleneck::ScalarCompute
    } else {
        Bottleneck::Overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_convert_hand_mix() -> OpMix {
        // Section V: per 8 pixels the NEON intrinsic loop retires
        // 2 vector loads, 2 converts, 2 narrows, 1 combine (vorr), 1 store,
        // plus 6 address/loop-control ops.
        OpMix::from_pairs(&[
            (OpClass::SimdLoad, 2),
            (OpClass::SimdConvert, 4),
            (OpClass::SimdAlu, 1),
            (OpClass::SimdStore, 1),
            (OpClass::AddrArith, 5),
            (OpClass::Branch, 1),
        ])
    }

    fn paper_convert_auto_mix() -> OpMix {
        // Section V listing: per *single* pixel gcc emits a load, an f32->f64
        // widen, a register copy, a libcall to lrint, then ~5 scalar
        // saturation ops, a store and loop control. Scaled to 8 pixels.
        OpMix::from_pairs(&[
            (OpClass::ScalarLoad, 8),
            (OpClass::ScalarConvert, 8),
            (OpClass::LibCall, 8),
            (OpClass::ScalarAlu, 8 * 5),
            (OpClass::ScalarStore, 8),
            (OpClass::AddrArith, 8 * 2),
            (OpClass::Branch, 8),
        ])
    }

    #[test]
    fn hand_stream_matches_papers_14_ops_per_8_pixels() {
        let profile = StreamProfile::new("HAND", paper_convert_hand_mix(), 8);
        assert_eq!(profile.ops_per_block(8).round() as u64, 14);
    }

    #[test]
    fn instruction_ratio_predicts_large_arm_speedup() {
        let cmp = StreamComparison::new(
            "convert",
            StreamProfile::new("HAND", paper_convert_hand_mix(), 8),
            StreamProfile::new("AUTO", paper_convert_auto_mix(), 8),
        );
        let ratio = cmp.instruction_ratio();
        // 96 ops / 14 ops ~ 6.9x before accounting for libcall latency;
        // the paper measures up to 13x once lrint cost is included.
        assert!(ratio > 5.0 && ratio < 10.0, "ratio = {ratio}");
    }

    #[test]
    fn report_contains_both_labels() {
        let cmp = StreamComparison::new(
            "convert",
            StreamProfile::new("HAND (NEON)", paper_convert_hand_mix(), 8),
            StreamProfile::new("AUTO (gcc)", paper_convert_auto_mix(), 8),
        );
        let text = cmp.report();
        assert!(text.contains("HAND (NEON)"));
        assert!(text.contains("AUTO (gcc)"));
        assert!(text.contains("instruction ratio"));
    }

    #[test]
    fn bottleneck_classification() {
        assert_eq!(
            classify_bottleneck(&OpMix::from_pairs(&[(OpClass::SimdAlu, 10)])),
            Bottleneck::SimdCompute
        );
        assert_eq!(
            classify_bottleneck(&OpMix::from_pairs(&[
                (OpClass::SimdLoad, 10),
                (OpClass::SimdAlu, 2)
            ])),
            Bottleneck::Memory
        );
        assert_eq!(
            classify_bottleneck(&OpMix::from_pairs(&[
                (OpClass::Branch, 5),
                (OpClass::AddrArith, 6)
            ])),
            Bottleneck::Overhead
        );
        assert_eq!(
            classify_bottleneck(&OpMix::from_pairs(&[(OpClass::ScalarAlu, 10)])),
            Bottleneck::ScalarCompute
        );
    }

    #[test]
    fn summary_min_max() {
        let cmps = vec![
            StreamComparison::new(
                "a",
                StreamProfile::new("h", OpMix::from_pairs(&[(OpClass::SimdAlu, 10)]), 10),
                StreamProfile::new("a", OpMix::from_pairs(&[(OpClass::ScalarAlu, 40)]), 10),
            ),
            StreamComparison::new(
                "b",
                StreamProfile::new("h", OpMix::from_pairs(&[(OpClass::SimdAlu, 10)]), 10),
                StreamProfile::new("a", OpMix::from_pairs(&[(OpClass::ScalarAlu, 20)]), 10),
            ),
        ];
        let summary = AnalysisSummary::from_comparisons(&cmps);
        assert_eq!(summary.min_ratio(), Some(2.0));
        assert_eq!(summary.max_ratio(), Some(4.0));
    }
}
