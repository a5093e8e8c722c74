//! Per-kernel, per-strategy instruction mixes.
//!
//! * [`hand_mix`] is **measured**: the intrinsic kernels from
//!   `simdbench-core` are executed on a representative image strip through
//!   the simulated ISA surfaces with `op_trace` counting enabled, then
//!   normalised per output pixel. Loop/address overhead (not visible to the
//!   intrinsic tracer) is added per vector iteration, matching the 6
//!   overhead instructions per 8 pixels of the paper's Section V listing.
//! * [`auto_mix`] is **modelled** from the paper's own disassembly of gcc
//!   4.6 output. Each stream is documented inline with its derivation.

use crate::spec::Isa;
use op_trace::{OpClass, OpMix, NUM_OP_CLASSES};
use pixelimage::Image;
use simdbench_core::dispatch::Engine;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// The five benchmarks (Table II row 1 is `Convert`; Table III rows are the
/// other four).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Benchmark 1 — float→short saturating conversion.
    Convert,
    /// Benchmark 2 — binary image threshold.
    Threshold,
    /// Benchmark 3 — Gaussian blur, σ=1.
    Gaussian,
    /// Benchmark 4 — Sobel filter.
    Sobel,
    /// Benchmark 5 — edge detection.
    Edge,
}

impl Kernel {
    /// All five, in paper order.
    pub const ALL: [Kernel; 5] = [
        Kernel::Convert,
        Kernel::Threshold,
        Kernel::Gaussian,
        Kernel::Sobel,
        Kernel::Edge,
    ];

    /// Full display name.
    pub fn label(self) -> &'static str {
        match self {
            Kernel::Convert => "Convert Float to Short",
            Kernel::Threshold => "Binary Image Thresholding",
            Kernel::Gaussian => "Gaussian Blur",
            Kernel::Sobel => "Sobel Filter",
            Kernel::Edge => "Edge Detection",
        }
    }

    /// The abbreviated row label Table III uses.
    pub fn table3_label(self) -> &'static str {
        match self {
            Kernel::Convert => "Convert",
            Kernel::Threshold => "BinThr",
            Kernel::Gaussian => "GauBlu",
            Kernel::Sobel => "SobFil",
            Kernel::Edge => "EdgDet",
        }
    }
}

/// AUTO (compiler auto-vectorized original source) vs HAND (intrinsics) —
/// the paper's two measurement configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// gcc 4.6 `-O3` with vectorization flags on the unmodified source.
    Auto,
    /// Hand-written SSE2/NEON intrinsics.
    Hand,
}

impl Strategy {
    /// The table row label ("AUTO" / "HAND").
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Auto => "AUTO",
            Strategy::Hand => "HAND",
        }
    }
}

/// A fractional per-output-pixel instruction mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PixelMix(pub [f64; NUM_OP_CLASSES]);

impl PixelMix {
    /// All-zero mix.
    pub fn zero() -> Self {
        PixelMix([0.0; NUM_OP_CLASSES])
    }

    /// Builds from `(class, per-pixel count)` pairs.
    pub fn from_pairs(pairs: &[(OpClass, f64)]) -> Self {
        let mut mix = Self::zero();
        for &(c, n) in pairs {
            mix.0[c.index()] += n;
        }
        mix
    }

    /// Normalises a measured [`OpMix`] over `pixels` output pixels.
    pub fn from_opmix(mix: &OpMix, pixels: u64) -> Self {
        let mut out = Self::zero();
        for class in OpClass::ALL {
            out.0[class.index()] = mix.get(class) as f64 / pixels as f64;
        }
        out
    }

    /// Per-pixel count for one class.
    pub fn get(&self, class: OpClass) -> f64 {
        self.0[class.index()]
    }

    /// Adds `n` per-pixel ops of `class`.
    pub fn add(&mut self, class: OpClass, n: f64) {
        self.0[class.index()] += n;
    }

    /// Scales every class by `f` (sharing factors in fused pipelines).
    pub fn scaled(&self, f: f64) -> PixelMix {
        let mut out = *self;
        for v in out.0.iter_mut() {
            *v *= f;
        }
        out
    }

    /// Sums two mixes (pipelines such as edge detection).
    pub fn plus(&self, other: &PixelMix) -> PixelMix {
        let mut out = *self;
        for i in 0..NUM_OP_CLASSES {
            out.0[i] += other.0[i];
        }
        out
    }

    /// SIMD ops per pixel.
    pub fn simd_total(&self) -> f64 {
        OpClass::ALL
            .iter()
            .filter(|c| c.is_simd())
            .map(|c| self.get(*c))
            .sum()
    }

    /// Scalar compute ops per pixel (loads/stores/ALU/converts).
    pub fn scalar_total(&self) -> f64 {
        self.get(OpClass::ScalarLoad)
            + self.get(OpClass::ScalarStore)
            + self.get(OpClass::ScalarAlu)
            + self.get(OpClass::ScalarConvert)
    }

    /// Memory-touching ops per pixel.
    pub fn memory_total(&self) -> f64 {
        OpClass::ALL
            .iter()
            .filter(|c| c.is_memory())
            .map(|c| self.get(*c))
            .sum()
    }

    /// Total ops per pixel.
    pub fn total(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// Loop/address overhead charged per 8-pixel vector iteration of a HAND
/// loop: the paper's listing shows 5 address/pointer updates plus 1 branch.
const HAND_LOOP_ADDR_PER_8PX: f64 = 5.0 / 8.0;
const HAND_LOOP_BRANCH_PER_8PX: f64 = 1.0 / 8.0;

/// The strip the HAND kernels are traced on. Tall enough for the 7-tap
/// Gaussian's vertical reuse, wide enough that border columns are noise.
const TRACE_W: usize = 256;
const TRACE_H: usize = 24;

fn measure_hand(kernel: Kernel, isa: Isa) -> PixelMix {
    let engine = match isa {
        Isa::Sse2 => Engine::Sse2Sim,
        Isa::Neon => Engine::NeonSim,
    };
    let src = pixelimage::synthetic_image(TRACE_W, TRACE_H, 0xD0);
    let pixels = (TRACE_W * TRACE_H) as u64;
    let (result, traced) = op_trace::trace(|| match kernel {
        Kernel::Convert => {
            let srcf = pixelimage::convert::u8_to_f32(&src, 100.0, -10000.0);
            let mut dst = Image::<i16>::new(TRACE_W, TRACE_H);
            simdbench_core::convert::try_convert_f32_to_i16(&srcf, &mut dst, engine)
        }
        Kernel::Threshold => {
            let mut dst = Image::<u8>::new(TRACE_W, TRACE_H);
            simdbench_core::threshold::try_threshold_u8(
                &src,
                &mut dst,
                128,
                255,
                simdbench_core::ThresholdType::Binary,
                engine,
            )
        }
        Kernel::Gaussian => {
            let mut dst = Image::<u8>::new(TRACE_W, TRACE_H);
            let taps = simdbench_core::kernelgen::paper_gaussian_kernel();
            simdbench_core::gaussian::try_gaussian_blur_kernel(&src, &mut dst, &taps, engine)
        }
        Kernel::Sobel => {
            let mut dst = Image::<i16>::new(TRACE_W, TRACE_H);
            simdbench_core::sobel::try_sobel(
                &src,
                &mut dst,
                simdbench_core::sobel::SobelDirection::X,
                engine,
            )
        }
        Kernel::Edge => {
            let mut dst = Image::<u8>::new(TRACE_W, TRACE_H);
            simdbench_core::edge::try_edge_detect(&src, &mut dst, 96, engine)
        }
    });
    result.expect("the trace strip is a valid non-empty frame");
    let mut mix = PixelMix::from_opmix(&traced, pixels);
    // Loop-control overhead per vector iteration (one iteration covers 8
    // pixels for the widening kernels; approximate uniformly).
    let passes = match kernel {
        Kernel::Convert | Kernel::Threshold => 1.0,
        Kernel::Gaussian | Kernel::Sobel => 2.0,
        Kernel::Edge => 5.0, // 2 sobel passes x2 + magnitude/threshold
    };
    mix.add(OpClass::AddrArith, HAND_LOOP_ADDR_PER_8PX * passes);
    mix.add(OpClass::Branch, HAND_LOOP_BRANCH_PER_8PX * passes);
    mix
}

/// The measured HAND instruction mix per output pixel (cached per
/// kernel/ISA).
pub fn hand_mix(kernel: Kernel, isa: Isa) -> PixelMix {
    static CACHE: OnceLock<Mutex<HashMap<(Kernel, Isa), PixelMix>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    // Poison-tolerant: a panic in an unrelated caller must not wedge the
    // cache for every later query (the map holds plain Copy values, so a
    // poisoned guard is still coherent).
    if let Some(mix) = cache
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get(&(kernel, isa))
    {
        return *mix;
    }
    let mix = measure_hand(kernel, isa);
    cache
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert((kernel, isa), mix);
    mix
}

/// The modelled gcc 4.6 AUTO instruction mix per output pixel.
///
/// Derivations (per pixel unless noted):
///
/// * **Convert / NEON** — the paper's Section V listing verbatim: `vldmia`
///   (1 scalar load), `vcvt.f64.f32` + `vmov` (2 scalar converts),
///   `bl lrint` (1 libcall), the 5-instruction saturation sequence
///   (`add/uxth/cmp/it/mov`), `strh` (1 store), 2 address updates, 1
///   branch.
/// * **Convert / SSE2** — gcc keeps the loop scalar but OpenCV's `cvRound`
///   inlines `_mm_set_sd` + `_mm_cvtsd_si32` (the paper quotes the
///   `#if defined __SSE2__` source), so the libcall is replaced by 2
///   scalar-domain SIMD ops; the saturation chain and loop shape match the
///   ARM listing.
/// * **Threshold** — gcc 4.6 does not if-convert the data-dependent
///   branch (the Maleki et al. study the paper cites found exactly this
///   class of failure): load, 2 ALU (compare + select path), a
///   data-dependent branch, store, 1 address update, 1 loop branch.
/// * **Gaussian** — the two tap loops stay scalar (non-unit stride across
///   rows defeats the vectorizer): 7 loads + 13 ALU + 1 store per pass
///   plus loop control, two passes.
/// * **Sobel** — same structure with 3-tap kernels.
/// * **Edge** — two Sobel passes plus magnitude (2 loads, 4 ALU, 1 store)
///   plus the threshold stream.
pub fn auto_mix(kernel: Kernel, isa: Isa) -> PixelMix {
    use OpClass::*;
    match kernel {
        Kernel::Convert => match isa {
            Isa::Neon => PixelMix::from_pairs(&[
                (ScalarLoad, 1.0),
                (ScalarConvert, 2.0),
                (LibCall, 1.0),
                (ScalarAlu, 5.0),
                (ScalarStore, 1.0),
                (AddrArith, 2.0),
                (Branch, 1.0),
            ]),
            Isa::Sse2 => PixelMix::from_pairs(&[
                (ScalarLoad, 1.0),
                (SimdAlu, 1.0),     // _mm_set_sd
                (SimdConvert, 1.0), // _mm_cvtsd_si32
                (ScalarAlu, 6.0),
                (ScalarStore, 1.0),
                (AddrArith, 2.0),
                (Branch, 1.0),
            ]),
        },
        Kernel::Threshold => PixelMix::from_pairs(&[
            (ScalarLoad, 1.0),
            // compare + select, plus amortised mispredictions of the
            // data-dependent branch folded in as serial work.
            (ScalarAlu, 3.0),
            (Branch, 1.0),
            (ScalarStore, 1.0),
            (AddrArith, 1.0),
        ]),
        Kernel::Gaussian => {
            // Two 7-tap scalar passes.
            let pass = PixelMix::from_pairs(&[
                (ScalarLoad, 7.0),
                (ScalarAlu, 13.0), // 7 multiplies + 6 adds
                (ScalarStore, 1.0),
                (AddrArith, 2.0),
                (Branch, 1.0),
            ]);
            pass.plus(&pass)
        }
        Kernel::Sobel => {
            // gcc fully unrolls the constant 3-tap loops, so loop control
            // amortises over unrolled bodies.
            let hpass = PixelMix::from_pairs(&[
                (ScalarLoad, 2.0),
                (ScalarAlu, 1.0),
                (ScalarStore, 1.0),
                (AddrArith, 1.0),
                (Branch, 0.5),
            ]);
            let vpass = PixelMix::from_pairs(&[
                (ScalarLoad, 3.0),
                (ScalarAlu, 3.0),
                (ScalarStore, 1.0),
                (AddrArith, 1.0),
                (Branch, 0.5),
            ]);
            hpass.plus(&vpass)
        }
        Kernel::Edge => {
            // The second Sobel pass shares its loads/loop control with the
            // first (gcc keeps both in one function), so it is charged at
            // 55 % of a standalone pass.
            let sobel = auto_mix(Kernel::Sobel, isa);
            let magnitude = PixelMix::from_pairs(&[
                (ScalarLoad, 2.0),
                (ScalarAlu, 3.0),
                (ScalarStore, 1.0),
                (AddrArith, 1.0),
                (Branch, 1.0),
            ]);
            let threshold = auto_mix(Kernel::Threshold, isa);
            sobel
                .plus(&sobel.scaled(0.55))
                .plus(&magnitude)
                .plus(&threshold)
        }
    }
}

/// Returns the mix for a (kernel, strategy, isa) triple.
pub fn mix_for(kernel: Kernel, strategy: Strategy, isa: Isa) -> PixelMix {
    match strategy {
        Strategy::Auto => auto_mix(kernel, isa),
        Strategy::Hand => hand_mix(kernel, isa),
    }
}

/// DRAM bytes moved per output pixel, assuming the large intermediate
/// images spill to DRAM but the `ksize`-row vertical working set is
/// captured by the last-level cache (validated by the `cache` module's LRU
/// simulation in the integration tests).
pub fn dram_bytes_per_pixel(kernel: Kernel, width: usize, llc_kb: u32) -> f64 {
    let llc_bytes = llc_kb as usize * 1024;
    match kernel {
        // f32 in, i16 out.
        Kernel::Convert => 4.0 + 2.0,
        // u8 in, u8 out.
        Kernel::Threshold => 1.0 + 1.0,
        Kernel::Gaussian => {
            // src read + u16 mid write + mid read(s) + dst write.
            let row_set = 7 * width * 2;
            let mid_reads = if row_set <= llc_bytes / 2 { 2.0 } else { 14.0 };
            1.0 + 2.0 + mid_reads + 1.0
        }
        Kernel::Sobel => {
            // src read + i16 mid write/read + i16 dst write.
            let row_set = 3 * width * 2;
            let mid_reads = if row_set <= llc_bytes / 2 { 2.0 } else { 6.0 };
            1.0 + 2.0 + mid_reads + 2.0
        }
        Kernel::Edge => {
            // Two Sobel passes (u8 dst replaced by i16 gradient images that
            // are written then re-read for the magnitude), + binary output.
            let sobel = dram_bytes_per_pixel(Kernel::Sobel, width, llc_kb);
            2.0 * sobel + 2.0 + 2.0 + 1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hand_convert_neon_matches_section_v() {
        // 8 SIMD ops per 8 pixels: 2 loads, 4 converts (2 cvt + 2 narrow),
        // 1 combine, 1 store.
        let mix = hand_mix(Kernel::Convert, Isa::Neon);
        assert!(
            (mix.simd_total() - 1.0).abs() < 0.05,
            "{}",
            mix.simd_total()
        );
        // Plus ~6 overhead ops per 8 pixels.
        let overhead = mix.get(OpClass::AddrArith) + mix.get(OpClass::Branch);
        assert!((overhead - 6.0 / 8.0).abs() < 0.05, "{overhead}");
        // Total ~14 ops per 8 pixels.
        assert!(
            (mix.total() * 8.0 - 14.0).abs() < 0.6,
            "{}",
            mix.total() * 8.0
        );
    }

    #[test]
    fn hand_convert_sse_has_fewer_ops_than_neon() {
        // The SSE pack is single-step where NEON needs narrow+narrow+combine.
        let sse = hand_mix(Kernel::Convert, Isa::Sse2);
        let neon = hand_mix(Kernel::Convert, Isa::Neon);
        assert!(sse.simd_total() < neon.simd_total());
    }

    #[test]
    fn auto_mixes_are_mostly_scalar() {
        for kernel in Kernel::ALL {
            for isa in [Isa::Sse2, Isa::Neon] {
                let auto = auto_mix(kernel, isa);
                assert!(
                    auto.scalar_total() > auto.simd_total(),
                    "{kernel:?}/{isa:?} AUTO should be scalar-dominated"
                );
            }
        }
    }

    #[test]
    fn auto_convert_differs_by_isa_exactly_as_paper_describes() {
        let arm = auto_mix(Kernel::Convert, Isa::Neon);
        let intel = auto_mix(Kernel::Convert, Isa::Sse2);
        // ARM pays a libcall per pixel; Intel inlines the SSE cvRound.
        assert_eq!(arm.get(OpClass::LibCall), 1.0);
        assert_eq!(intel.get(OpClass::LibCall), 0.0);
        assert!(intel.get(OpClass::SimdConvert) > 0.0);
    }

    #[test]
    fn hand_beats_auto_on_instruction_count_everywhere() {
        for kernel in Kernel::ALL {
            for isa in [Isa::Sse2, Isa::Neon] {
                let hand = hand_mix(kernel, isa);
                let auto = auto_mix(kernel, isa);
                assert!(
                    auto.total() > 1.5 * hand.total(),
                    "{kernel:?}/{isa:?}: auto {} vs hand {}",
                    auto.total(),
                    hand.total()
                );
            }
        }
    }

    #[test]
    fn edge_mix_is_heaviest_auto() {
        let isa = Isa::Neon;
        let edge = auto_mix(Kernel::Edge, isa).total();
        for kernel in [Kernel::Convert, Kernel::Threshold, Kernel::Sobel] {
            assert!(edge > auto_mix(kernel, isa).total(), "{kernel:?}");
        }
    }

    #[test]
    fn dram_traffic_ordering() {
        // At VGA width everything's working set fits the bigger caches.
        let w = 640;
        let llc = 1024;
        let convert = dram_bytes_per_pixel(Kernel::Convert, w, llc);
        let threshold = dram_bytes_per_pixel(Kernel::Threshold, w, llc);
        let gaussian = dram_bytes_per_pixel(Kernel::Gaussian, w, llc);
        let edge = dram_bytes_per_pixel(Kernel::Edge, w, llc);
        assert_eq!(threshold, 2.0);
        assert_eq!(convert, 6.0);
        assert!(gaussian > threshold);
        assert!(edge > gaussian);
    }

    #[test]
    fn small_cache_increases_filter_traffic() {
        // A cache too small for 7 rows of an 8 Mpx image forces tap
        // re-reads from DRAM.
        let wide = 3264;
        let big = dram_bytes_per_pixel(Kernel::Gaussian, wide, 1024);
        let tiny = dram_bytes_per_pixel(Kernel::Gaussian, wide, 32);
        assert!(tiny > big);
    }

    #[test]
    fn mix_arithmetic() {
        let a = PixelMix::from_pairs(&[(OpClass::SimdAlu, 1.5), (OpClass::Branch, 0.5)]);
        let b = PixelMix::from_pairs(&[(OpClass::SimdAlu, 0.5)]);
        let sum = a.plus(&b);
        assert_eq!(sum.get(OpClass::SimdAlu), 2.0);
        assert_eq!(sum.total(), 2.5);
        assert_eq!(sum.simd_total(), 2.0);
    }
}
