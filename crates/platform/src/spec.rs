//! Platform description: the Table I columns plus the microarchitectural
//! parameters the timing model needs.

/// Which SIMD instruction set the platform's HAND kernels use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Isa {
    /// Intel SSE2 (all four Intel platforms).
    Sse2,
    /// ARMv7 NEON (all six ARM platforms).
    Neon,
}

impl Isa {
    /// Label used in tables ("SSE2" / "NEON"), matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            Isa::Sse2 => "SSE2",
            Isa::Neon => "NEON",
        }
    }
}

/// Core execution style. The paper leans on this distinction repeatedly:
/// the in-order Atom D510 and Cortex-A8 gain far more from hand
/// vectorization than the out-of-order i7/A9 parts, because an in-order
/// pipeline cannot hide the long scalar instruction streams that gcc's
/// auto-vectorizer leaves behind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Microarch {
    /// Stalls on every dependence; effective IPC ≈ 1.
    InOrder,
    /// Overlapping execution; `ilp` is the sustained instructions/cycle the
    /// model assumes for independent scalar work.
    OutOfOrder {
        /// Sustained scalar instructions per cycle.
        ilp: f64,
    },
}

impl Microarch {
    /// True for in-order cores.
    pub fn is_in_order(self) -> bool {
        matches!(self, Microarch::InOrder)
    }

    /// Sustained scalar IPC the model charges against.
    pub fn scalar_ipc(self) -> f64 {
        match self {
            Microarch::InOrder => 1.0,
            Microarch::OutOfOrder { ilp } => ilp,
        }
    }
}

/// One of the ten evaluation platforms.
#[derive(Debug, Clone)]
pub struct PlatformSpec {
    /// Display name, matching Table I ("Intel Atom D510", ...).
    pub name: &'static str,
    /// Short column label for the result tables.
    pub short: &'static str,
    /// Microarchitecture codename from Table I (Pineview, Exynos 4 Quad,…).
    pub codename: &'static str,
    /// Launch quarter from Table I.
    pub launched: &'static str,
    /// SIMD instruction set used by HAND kernels.
    pub isa: Isa,
    /// Core clock in GHz (benchmarks are single-threaded, per the paper).
    pub ghz: f64,
    /// Hardware threads / physical cores, from Table I.
    pub threads: u32,
    /// Physical cores.
    pub cores: u32,
    /// Core execution style.
    pub uarch: Microarch,
    /// Cycles one 128-bit SIMD operation occupies the vector unit.
    /// 1.0 for full-width units (Core 2 onwards), 2.0 for the 64-bit NEON
    /// datapath of the Cortex-A8/A9 and the Atom's split SSE unit; larger
    /// for the Tegra T30's observed NEON bottleneck (the paper measures the
    /// ODROID-X beating it at equal clock and "raises questions about what
    /// bottlenecks are preventing NEON from performing as well").
    pub simd_op_cycles: f64,
    /// Latency charged per libm-style library call (`lrint` in the gcc ARM
    /// listing): call/return overhead plus the soft-float EABI conversion.
    pub libcall_cycles: f64,
    /// Cost charged per data-dependent branch (prediction miss amortised).
    pub branch_cycles: f64,
    /// Extra stall cycles an in-order core pays per memory-class op
    /// (load-use delay it cannot schedule around); 0 for OoO cores.
    pub load_use_stall: f64,
    /// L1 data cache in KiB (Table I).
    pub l1d_kb: u32,
    /// L2 cache in KiB (Table I).
    pub l2_kb: u32,
    /// L3 cache in KiB (0 = none, per Table I).
    pub l3_kb: u32,
    /// Memory description string from Table I ("4GB DDR2", ...).
    pub memory: &'static str,
    /// SIMD-extension description from Table I.
    pub simd_ext: &'static str,
    /// Sustainable single-thread streaming bandwidth in GB/s. These are
    /// *effective copy* numbers, far below the bus peak, tuned to the
    /// platform class (LPDDR on phones, DDR2 on the Atom, dual-channel
    /// DDR3 on the laptops).
    pub stream_gbps: f64,
    /// Typical SoC/package power in watts under load (for the energy
    /// extension experiment, A4).
    pub tdp_watts: f64,
    /// Residual calibration multiplier on AUTO compute cycles. The paper
    /// itself observes that AUTO:HAND ratios vary within a processor group
    /// "presumably due to low level hardware implementation details"
    /// (Section VI) without resolving the cause; this factor captures that
    /// measured residual (1.0 = no adjustment).
    pub auto_quality: f64,
}

impl PlatformSpec {
    /// Cycles per nanosecond.
    pub fn cycles_per_ns(&self) -> f64 {
        self.ghz
    }

    /// Cycles needed to stream one byte from DRAM on this platform.
    pub fn dram_cycles_per_byte(&self) -> f64 {
        // ns per byte = 1 / (GB/s) ; cycles = ns * GHz.
        self.ghz / self.stream_gbps
    }

    /// Largest cache level in KiB (where a streaming intermediate could be
    /// captured).
    pub fn last_level_cache_kb(&self) -> u32 {
        self.l2_kb.max(self.l3_kb)
    }

    /// True for the ARM platforms.
    pub fn is_arm(&self) -> bool {
        self.isa == Isa::Neon
    }

    /// Band plan for the fused pipeline, sized from this platform's real
    /// cache description (Table I) instead of the pipeline's defaults.
    /// L2 shared between cores (the Cortex-A9 parts) is divided across
    /// them, since each core processes its own bands concurrently.
    pub fn band_plan(&self, width: usize) -> simdbench_core::pipeline::BandPlan {
        let l2_per_core = (self.l2_kb as usize * 1024) / (self.cores as usize).max(1);
        simdbench_core::pipeline::BandPlan::for_cache(
            width,
            self.l1d_kb as usize * 1024,
            l2_per_core.max(64 * 1024),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PlatformSpec {
        PlatformSpec {
            name: "Test Platform",
            short: "test",
            codename: "Testy",
            launched: "Q1 00",
            isa: Isa::Sse2,
            ghz: 2.0,
            threads: 4,
            cores: 4,
            uarch: Microarch::OutOfOrder { ilp: 2.0 },
            simd_op_cycles: 1.0,
            libcall_cycles: 20.0,
            branch_cycles: 1.5,
            load_use_stall: 0.0,
            l1d_kb: 32,
            l2_kb: 1024,
            l3_kb: 0,
            memory: "test",
            simd_ext: "SSE2",
            stream_gbps: 8.0,
            tdp_watts: 35.0,
            auto_quality: 1.0,
        }
    }

    #[test]
    fn dram_cycles_per_byte() {
        let p = sample();
        // 8 GB/s at 2 GHz: 0.25 cycles per byte.
        assert!((p.dram_cycles_per_byte() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn band_plan_divides_shared_l2_across_cores() {
        let p = sample();
        let plan = p.band_plan(1280);
        // 1 MiB / 4 cores = 256 KiB per core; half of it over 3840 B rows.
        assert_eq!(plan.band_rows, (128 * 1024) / (1280 * 3));
        // A single-core variant of the same cache sees taller bands.
        let single = PlatformSpec { cores: 1, ..p };
        assert!(single.band_plan(1280).band_rows >= plan.band_rows);
    }

    #[test]
    fn microarch_ipc() {
        assert_eq!(Microarch::InOrder.scalar_ipc(), 1.0);
        assert!((Microarch::OutOfOrder { ilp: 2.2 }.scalar_ipc() - 2.2).abs() < 1e-12);
        assert!(Microarch::InOrder.is_in_order());
        assert!(!Microarch::OutOfOrder { ilp: 2.0 }.is_in_order());
    }

    #[test]
    fn last_level_cache_prefers_l3() {
        let mut p = sample();
        assert_eq!(p.last_level_cache_kb(), 1024);
        p.l3_kb = 8192;
        assert_eq!(p.last_level_cache_kb(), 8192);
    }

    #[test]
    fn isa_labels() {
        assert_eq!(Isa::Sse2.label(), "SSE2");
        assert_eq!(Isa::Neon.label(), "NEON");
    }
}
