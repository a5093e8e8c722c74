//! Host-mode timing with the paper's protocol.
//!
//! "We cycled through 5 different images of each resolution 25 times, to
//! obtain an average runtime over 100 runs of a benchmark. We chose to
//! traverse 5 different images in succession to minimize caching effects."
//! (The arithmetic quirk — 5 × 25 = 125, reported as "over 100 runs" — is
//! the paper's own; we run `images × cycles` and divide.)

use pixelimage::{synthetic_suite, Image, Resolution};
use platform_model::Kernel;
use simdbench_core::prelude::*;
use std::time::Instant;

/// Host measurement configuration.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Distinct images per resolution (paper: 5).
    pub images: usize,
    /// Cycles through the image set (paper: 25).
    pub cycles: usize,
    /// Warm-up passes excluded from timing.
    pub warmup: usize,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            images: 5,
            cycles: 25,
            warmup: 2,
        }
    }
}

impl HostConfig {
    /// A fast configuration for smoke tests and CI.
    pub fn quick() -> Self {
        HostConfig {
            images: 2,
            cycles: 2,
            warmup: 1,
        }
    }
}

/// One host measurement: the mean plus every timed pass.
///
/// The paper's 5 × 25 protocol produces 125 samples per point; keeping
/// them (instead of only the mean) is what lets `repro host` report
/// min/median/p95/max/stddev — warm-up drift and steal-contention tails
/// are invisible in a single average.
#[derive(Debug, Clone)]
pub struct HostMeasurement {
    /// Which kernel ran.
    pub kernel: Kernel,
    /// Which engine ran it.
    pub engine: Engine,
    /// Image size.
    pub resolution: Resolution,
    /// Mean seconds per full-image pass.
    pub seconds: f64,
    /// Total passes timed.
    pub runs: usize,
    /// Per-pass wall seconds, in execution order (`runs` entries).
    pub samples: Vec<f64>,
}

impl HostMeasurement {
    /// Distribution summary of the per-pass samples.
    pub fn stats(&self) -> obs::stats::SampleStats {
        obs::stats::SampleStats::from_samples(&self.samples)
    }
}

/// Runs the paper protocol over `run_once`: warm-up passes untimed, then
/// `images × cycles` individually-timed passes. Each pass also feeds the
/// `harness.pass_ns` telemetry histogram when telemetry is enabled.
/// `run_once` gets the index of the work-set image to process.
/// Returns `(mean_seconds, samples)`.
pub fn run_protocol(
    work: &WorkSet,
    config: &HostConfig,
    mut run_once: impl FnMut(usize),
) -> (f64, Vec<f64>) {
    for i in 0..config.warmup.min(work.gray.len()) {
        run_once(i);
    }
    let per_cycle = config.images.min(work.gray.len());
    let runs = per_cycle * config.cycles;
    let mut samples = Vec::with_capacity(runs);
    for _cycle in 0..config.cycles {
        for img_idx in 0..per_cycle {
            let start = Instant::now();
            run_once(img_idx);
            let elapsed = start.elapsed();
            obs::add(obs::Counter::HarnessPasses, 1);
            obs::record(obs::HistId::HarnessPassNanos, elapsed.as_nanos() as u64);
            samples.push(elapsed.as_secs_f64());
        }
    }
    let mean = samples.iter().sum::<f64>() / samples.len().max(1) as f64;
    (mean, samples)
}

/// Pre-generated inputs for one resolution (shared across engines so every
/// engine sees identical data).
pub struct WorkSet {
    /// Grayscale sources.
    pub gray: Vec<Image<u8>>,
    /// Float sources for the convert benchmark.
    pub float: Vec<Image<f32>>,
    /// The resolution.
    pub resolution: Resolution,
}

impl WorkSet {
    /// Builds the image suite for a resolution.
    pub fn new(res: Resolution, images: usize) -> Self {
        let gray = synthetic_suite(res, images);
        let float = gray
            .iter()
            .map(|g| pixelimage::convert::u8_to_f32(g, 257.0, -32768.0))
            .collect();
        WorkSet {
            gray,
            float,
            resolution: res,
        }
    }
}

/// Times one (kernel, engine) pair over a work-set with the paper protocol.
pub fn measure(
    kernel: Kernel,
    engine: Engine,
    work: &WorkSet,
    config: &HostConfig,
) -> HostMeasurement {
    let (w, h) = work.resolution.dims();
    let mut dst_u8 = Image::<u8>::new(w, h);
    let mut dst_i16 = Image::<i16>::new(w, h);

    let _span = obs::span(kernel.table3_label());
    let run_once = |img_idx: usize| match kernel {
        Kernel::Convert => {
            convert_f32_to_i16(&work.float[img_idx], &mut dst_i16, engine);
        }
        Kernel::Threshold => {
            threshold_u8(
                &work.gray[img_idx],
                &mut dst_u8,
                128,
                255,
                ThresholdType::Binary,
                engine,
            );
        }
        Kernel::Gaussian => {
            gaussian_blur(&work.gray[img_idx], &mut dst_u8, engine);
        }
        Kernel::Sobel => {
            sobel(&work.gray[img_idx], &mut dst_i16, SobelDirection::X, engine);
        }
        Kernel::Edge => {
            edge_detect(&work.gray[img_idx], &mut dst_u8, 96, engine);
        }
    };

    let (mean, samples) = run_protocol(work, config, run_once);
    HostMeasurement {
        kernel,
        engine,
        resolution: work.resolution,
        seconds: mean,
        runs: samples.len(),
        samples,
    }
}

/// Times the band-tiled fused pipeline for one stencil kernel with the
/// same paper protocol as [`measure`], so fused and two-pass numbers are
/// directly comparable. The scratch arena persists across runs — after
/// the warm-up passes the measured loop performs no heap allocations.
///
/// Only the stencil kernels (Gaussian, Sobel, Edge) have a fused variant;
/// the pointwise kernels are returned via [`measure`] unchanged.
pub fn measure_fused(
    kernel: Kernel,
    engine: Engine,
    work: &WorkSet,
    config: &HostConfig,
) -> HostMeasurement {
    use simdbench_core::kernelgen::paper_gaussian_kernel;
    use simdbench_core::pipeline::{
        try_fused_edge_detect_with, try_fused_gaussian_blur_with, try_fused_sobel_with,
    };
    use simdbench_core::scratch::Scratch;

    if matches!(kernel, Kernel::Convert | Kernel::Threshold) {
        return measure(kernel, engine, work, config);
    }

    let (w, h) = work.resolution.dims();
    let mut dst_u8 = Image::<u8>::new(w, h);
    let mut dst_i16 = Image::<i16>::new(w, h);
    let mut scratch = Scratch::new();
    let gk = paper_gaussian_kernel();

    let _span = obs::span(kernel.table3_label());
    let run_once = |img_idx: usize| {
        let src = &work.gray[img_idx];
        match kernel {
            Kernel::Gaussian => {
                try_fused_gaussian_blur_with(src, &mut dst_u8, &gk, engine, &mut scratch)
            }
            Kernel::Sobel => {
                try_fused_sobel_with(src, &mut dst_i16, SobelDirection::X, engine, &mut scratch)
            }
            Kernel::Edge => try_fused_edge_detect_with(src, &mut dst_u8, 96, engine, &mut scratch),
            Kernel::Convert | Kernel::Threshold => unreachable!("handled above"),
        }
        .expect("fused pass over a valid work-set frame");
    };

    let (mean, samples) = run_protocol(work, config, run_once);
    HostMeasurement {
        kernel,
        engine,
        resolution: work.resolution,
        seconds: mean,
        runs: samples.len(),
        samples,
    }
}

/// Times the band-parallel fused pipeline for one stencil kernel on the
/// persistent worker pool at the current width, with the same paper
/// protocol as [`measure`]. Pointwise kernels have no banded variant and
/// return via [`measure`] unchanged (their row loops go through the same
/// pool).
pub fn measure_parallel(
    kernel: Kernel,
    engine: Engine,
    work: &WorkSet,
    config: &HostConfig,
) -> HostMeasurement {
    use simdbench_core::kernelgen::paper_gaussian_kernel;
    use simdbench_core::pipeline::{
        try_par_fused_edge_detect_with, try_par_fused_gaussian_blur_with, try_par_fused_sobel_with,
        BandPlan,
    };

    if matches!(kernel, Kernel::Convert | Kernel::Threshold) {
        return measure(kernel, engine, work, config);
    }

    let (w, h) = work.resolution.dims();
    let mut dst_u8 = Image::<u8>::new(w, h);
    let mut dst_i16 = Image::<i16>::new(w, h);
    let gk = paper_gaussian_kernel();
    let plan = BandPlan::for_width(w);

    let _span = obs::span(kernel.table3_label());
    let run_once = |img_idx: usize| {
        let src = &work.gray[img_idx];
        match kernel {
            Kernel::Gaussian => {
                try_par_fused_gaussian_blur_with(src, &mut dst_u8, &gk, engine, &plan)
            }
            Kernel::Sobel => {
                try_par_fused_sobel_with(src, &mut dst_i16, SobelDirection::X, engine, &plan)
            }
            Kernel::Edge => try_par_fused_edge_detect_with(src, &mut dst_u8, 96, engine, &plan),
            Kernel::Convert | Kernel::Threshold => unreachable!("handled above"),
        }
        .expect("parallel fused pass over a valid work-set frame");
    };

    let (mean, samples) = run_protocol(work, config, run_once);
    HostMeasurement {
        kernel,
        engine,
        resolution: work.resolution,
        seconds: mean,
        runs: samples.len(),
        samples,
    }
}

/// The host's AUTO engine (compiler auto-vectorized source) — the fair
/// analogue of the paper's `-O3` builds.
pub fn host_auto_engine() -> Engine {
    Engine::Autovec
}

/// The host's HAND engine (native intrinsics).
pub fn host_hand_engine() -> Engine {
    Engine::Native
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_measurement_produces_sane_numbers() {
        let work = WorkSet::new(Resolution::Vga, 2);
        let config = HostConfig::quick();
        let m = measure(Kernel::Threshold, Engine::Native, &work, &config);
        assert!(m.seconds > 0.0);
        assert!(m.seconds < 1.0, "VGA threshold should be far under 1s");
        assert_eq!(m.runs, 4);
    }

    #[test]
    fn measurement_retains_per_pass_samples() {
        let work = WorkSet::new(Resolution::Vga, 2);
        let config = HostConfig::quick();
        let m = measure(Kernel::Threshold, Engine::Native, &work, &config);
        assert_eq!(m.samples.len(), m.runs);
        let mean = m.samples.iter().sum::<f64>() / m.samples.len() as f64;
        assert!((mean - m.seconds).abs() < 1e-12);
        let s = m.stats();
        assert_eq!(s.count, 4);
        assert!(s.min <= s.median && s.median <= s.p95 && s.p95 <= s.max);
        assert!(s.stddev >= 0.0);
    }

    #[test]
    fn workset_shares_dimensions() {
        let work = WorkSet::new(Resolution::Vga, 3);
        assert_eq!(work.gray.len(), 3);
        assert_eq!(work.float.len(), 3);
        assert_eq!(work.gray[0].width(), 640);
        assert_eq!(work.float[0].width(), 640);
    }

    #[test]
    fn float_inputs_exercise_the_full_i16_range() {
        // 257*255 - 32768 = 32767; 257*0 - 32768 = -32768.
        let work = WorkSet::new(Resolution::Vga, 1);
        let min = work.float[0].iter_pixels().fold(f32::MAX, f32::min);
        let max = work.float[0].iter_pixels().fold(f32::MIN, f32::max);
        assert!(min >= -32768.0);
        assert!(max <= 32767.0);
        assert!(max - min > 20000.0, "range {min}..{max}");
    }

    #[test]
    fn fused_measurement_produces_sane_numbers() {
        let work = WorkSet::new(Resolution::Vga, 2);
        let config = HostConfig::quick();
        let m = measure_fused(Kernel::Edge, Engine::Native, &work, &config);
        assert!(m.seconds > 0.0);
        assert!(m.seconds < 1.0, "VGA fused edge should be far under 1s");
        assert_eq!(m.runs, 4);
        // Pointwise kernels route through the plain measurement.
        let m = measure_fused(Kernel::Threshold, Engine::Native, &work, &config);
        assert!(m.seconds > 0.0);
    }

    #[test]
    fn parallel_measurement_produces_sane_numbers() {
        let work = WorkSet::new(Resolution::Vga, 2);
        let config = HostConfig::quick();
        let m = measure_parallel(Kernel::Edge, Engine::Native, &work, &config);
        assert!(m.seconds > 0.0);
        assert!(m.seconds < 1.0, "VGA parallel edge should be far under 1s");
        assert_eq!(m.runs, 4);
        // Pointwise kernels route through the plain measurement.
        let m = measure_parallel(Kernel::Convert, Engine::Native, &work, &config);
        assert!(m.seconds > 0.0);
    }

    #[test]
    fn default_config_matches_paper_protocol() {
        let c = HostConfig::default();
        assert_eq!(c.images, 5);
        assert_eq!(c.cycles, 25);
    }
}
