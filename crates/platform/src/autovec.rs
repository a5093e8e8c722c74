//! The per-kernel auto-vectorization profile of the paper's compiler
//! (gcc 4.6 with `-O3` and the vectorization flags of Section III-C).
//!
//! The paper's Section II-B cites Maleki et al. (PACT 2011): state-of-the-art
//! compilers vectorized only 18–30 % of real application code, failing on
//! non-unit-stride access, alignment, and data-dependency transformations.
//! Its own Section V disassembly confirms the failures for these kernels.
//! This module names each failure mode explicitly; [`crate::workload`]'s
//! AUTO instruction mixes are the quantitative form of the same facts.

use crate::spec::Isa;
use crate::workload::Kernel;

/// What gcc 4.6 actually produced for a kernel's hot loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AutovecOutcome {
    /// Fully scalar loop with a per-element library call — the ARM
    /// float→short loop (`bl lrint` in the Section V listing).
    ScalarWithLibcall,
    /// Scalar loop whose rounding step inlines a scalar-domain SIMD
    /// sequence (`_mm_set_sd` + `_mm_cvtsd_si32`) — the Intel float→short
    /// loop.
    ScalarInlineSimdRound,
    /// Scalar loop kept serial by a data-dependent branch the compiler did
    /// not if-convert — the threshold loop.
    ScalarBranchy,
    /// Scalar multiply-accumulate tap loop; the filter's shifted windows
    /// defeat the vectorizer's alignment/dependence analysis — the
    /// Gaussian/Sobel/edge loops.
    ScalarTapLoop,
}

impl AutovecOutcome {
    /// One-line explanation for reports.
    pub fn description(self) -> &'static str {
        match self {
            AutovecOutcome::ScalarWithLibcall => {
                "scalar loop, per-pixel lrint library call (Section V ARM listing)"
            }
            AutovecOutcome::ScalarInlineSimdRound => {
                "scalar loop, cvRound inlined as _mm_set_sd/_mm_cvtsd_si32"
            }
            AutovecOutcome::ScalarBranchy => "scalar loop, data-dependent branch not if-converted",
            AutovecOutcome::ScalarTapLoop => {
                "scalar multiply-accumulate taps, windows not blocked by vector width"
            }
        }
    }

    /// True when the outcome leaves a library call in the loop body.
    pub fn has_libcall(self) -> bool {
        matches!(self, AutovecOutcome::ScalarWithLibcall)
    }
}

/// The outcome gcc 4.6 produced for `(kernel, isa)`.
pub fn outcome(kernel: Kernel, isa: Isa) -> AutovecOutcome {
    match (kernel, isa) {
        (Kernel::Convert, Isa::Neon) => AutovecOutcome::ScalarWithLibcall,
        (Kernel::Convert, Isa::Sse2) => AutovecOutcome::ScalarInlineSimdRound,
        (Kernel::Threshold, _) => AutovecOutcome::ScalarBranchy,
        (Kernel::Gaussian | Kernel::Sobel | Kernel::Edge, _) => AutovecOutcome::ScalarTapLoop,
    }
}

/// The full profile for one ISA, in kernel order.
pub fn profile(isa: Isa) -> Vec<(Kernel, AutovecOutcome)> {
    Kernel::ALL.iter().map(|&k| (k, outcome(k, isa))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::auto_mix;
    use op_trace::OpClass;

    #[test]
    fn profile_covers_all_kernels() {
        for isa in [Isa::Sse2, Isa::Neon] {
            let p = profile(isa);
            assert_eq!(p.len(), Kernel::ALL.len());
        }
    }

    #[test]
    fn outcomes_are_consistent_with_the_modelled_mixes() {
        // The qualitative profile and the quantitative mixes must agree:
        // a libcall outcome iff the mix contains libcalls.
        for isa in [Isa::Sse2, Isa::Neon] {
            for kernel in Kernel::ALL {
                let has_call = auto_mix(kernel, isa).get(OpClass::LibCall) > 0.0;
                assert_eq!(
                    outcome(kernel, isa).has_libcall(),
                    has_call,
                    "{kernel:?}/{isa:?}"
                );
            }
        }
    }

    #[test]
    fn convert_differs_by_isa_only() {
        // The paper's gcc treats both groups alike except where the source
        // itself is ISA-conditional (the cvRound #ifdef).
        for kernel in [
            Kernel::Threshold,
            Kernel::Gaussian,
            Kernel::Sobel,
            Kernel::Edge,
        ] {
            assert_eq!(outcome(kernel, Isa::Sse2), outcome(kernel, Isa::Neon));
        }
        assert_ne!(
            outcome(Kernel::Convert, Isa::Sse2),
            outcome(Kernel::Convert, Isa::Neon)
        );
    }

    #[test]
    fn descriptions_are_distinct() {
        let all = [
            AutovecOutcome::ScalarWithLibcall,
            AutovecOutcome::ScalarInlineSimdRound,
            AutovecOutcome::ScalarBranchy,
            AutovecOutcome::ScalarTapLoop,
        ];
        let set: std::collections::HashSet<_> = all.iter().map(|o| o.description()).collect();
        assert_eq!(set.len(), all.len());
    }
}
