//! Telemetry cost smoke test: with the global enable flag off, every
//! `obs` entry point in the fused pipeline and the stream engine must
//! reduce to one relaxed atomic load and a branch. These tests guard
//! against regressions that make the disabled path allocate, lock, or
//! time.
//!
//! It is a *smoke* test, not a benchmark: CI machines are noisy, so the
//! threshold is deliberately generous (2x). The honest measurement
//! lives in EXPERIMENTS.md and uses the full paper protocol.

use obs::HistId;
use pixelimage::{synthetic_suite, Image, Resolution};
use simdbench_core::kernelgen::paper_gaussian_kernel;
use simdbench_core::prelude::*;
use simdbench_core::scratch::Scratch;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Held by each test for its whole run: the tests flip the
/// process-global enable flag and read process-global histograms.
static TELEMETRY: Mutex<()> = Mutex::new(());

/// The stream histograms, each recorded once per completed frame.
const STREAM_HISTS: [HistId; 3] = [
    HistId::StreamFrameNanos,
    HistId::StreamQueueWaitNanos,
    HistId::StreamServiceNanos,
];

fn time_passes(src: &Image<u8>, passes: usize) -> f64 {
    let mut dst = Image::<u8>::new(src.width(), src.height());
    let mut scratch = Scratch::new();
    let gk = paper_gaussian_kernel();
    // Warm up: populate the scratch arena and caches.
    for _ in 0..2 {
        try_fused_gaussian_blur_with(src, &mut dst, &gk, Engine::Native, &mut scratch).unwrap();
    }
    let start = Instant::now();
    for _ in 0..passes {
        try_fused_gaussian_blur_with(src, &mut dst, &gk, Engine::Native, &mut scratch).unwrap();
    }
    start.elapsed().as_secs_f64()
}

#[test]
fn disabled_telemetry_is_cheap_on_the_fused_pipeline() {
    let _flag = TELEMETRY.lock().unwrap_or_else(PoisonError::into_inner);
    let src = synthetic_suite(Resolution::Vga, 1).remove(0);
    const PASSES: usize = 30;

    obs::set_enabled(false);
    // Interleave the two arms so machine-load drift hits both equally,
    // and keep the best-of-three minimum per arm (noise only adds time).
    let mut off = f64::MAX;
    let mut on = f64::MAX;
    for _ in 0..3 {
        obs::set_enabled(false);
        off = off.min(time_passes(&src, PASSES));
        obs::set_enabled(true);
        on = on.min(time_passes(&src, PASSES));
    }
    obs::set_enabled(false);
    obs::reset();

    // Both directions, each with a huge margin (the real ratio is
    // within noise of 1.0): enabled telemetry must not blow up the
    // fused pipeline, and the disabled path must not secretly do the
    // work anyway.
    assert!(
        on < off * 3.0 + 1e-3,
        "enabled {on:.6}s vs disabled {off:.6}s — telemetry overhead is not a branch"
    );
    assert!(
        off < on * 3.0 + 1e-3,
        "disabled {off:.6}s vs enabled {on:.6}s — disabled path is doing work"
    );
}

/// Streams `frames` closed-loop frames of `src` through a fresh engine and
/// returns the wall seconds from the first submit to the last outcome.
fn time_stream(src: &Arc<Image<u8>>, frames: u64) -> f64 {
    let mut cfg = StreamConfig::new(src.width(), src.height());
    cfg.engine = Engine::Native;
    let engine = StreamEngine::new(cfg).unwrap();
    let start = Instant::now();
    for id in 0..frames {
        while let Err(StreamError::Saturated { .. }) = engine.submit(id, Arc::clone(src)) {
            engine.wait_idle();
        }
    }
    let outcomes = engine.finish();
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(outcomes.len() as u64, frames);
    assert!(outcomes
        .iter()
        .all(|o| matches!(o.status, FrameStatus::Completed { .. })));
    elapsed
}

#[test]
fn disabled_telemetry_is_cheap_on_the_stream() {
    let _flag = TELEMETRY.lock().unwrap_or_else(PoisonError::into_inner);
    let src = Arc::new(synthetic_suite(Resolution::Vga, 1).remove(0));
    const FRAMES: u64 = 24;

    let mut off = f64::MAX;
    let mut on = f64::MAX;
    for _ in 0..3 {
        obs::set_enabled(false);
        off = off.min(time_stream(&src, FRAMES));
        obs::set_enabled(true);
        on = on.min(time_stream(&src, FRAMES));
    }
    assert!(
        on < off * 3.0 + 1e-3,
        "enabled {on:.6}s vs disabled {off:.6}s — stream telemetry is not a branch"
    );
    assert!(
        off < on * 3.0 + 1e-3,
        "disabled {off:.6}s vs enabled {on:.6}s — disabled path is doing work"
    );

    // Disabled, the frame, queue-wait and service histograms record
    // nothing; enabled, each records every completed frame once.
    obs::set_enabled(false);
    obs::reset();
    time_stream(&src, 4);
    let snap = obs::snapshot();
    for h in STREAM_HISTS {
        assert_eq!(
            snap.hist(h).count,
            0,
            "{} recorded while disabled",
            h.name()
        );
    }
    obs::set_enabled(true);
    time_stream(&src, 4);
    obs::set_enabled(false);
    let snap = obs::snapshot();
    obs::reset();
    for h in STREAM_HISTS {
        assert_eq!(
            snap.hist(h).count,
            4,
            "{} must record each frame once",
            h.name()
        );
    }
}

#[test]
fn halo_rows_count_only_ring_recomputation() {
    let _flag = TELEMETRY.lock().unwrap_or_else(PoisonError::into_inner);
    let src = synthetic_suite(Resolution::Vga, 1).remove(0);
    let mut dst = Image::<u8>::new(src.width(), src.height());
    let plan = BandPlan {
        band_rows: 48,
        threads: rayon::current_num_threads(),
    };
    let bands = plan.num_bands(src.height()) as u64;
    let halo_rows = |engine: Engine, dst: &mut Image<u8>| {
        obs::reset();
        obs::set_enabled(true);
        try_par_fused_edge_detect_with(&src, dst, 96, engine, &plan).unwrap();
        obs::set_enabled(false);
        let snap = obs::snapshot();
        obs::reset();
        assert_eq!(
            snap.counter(obs::Counter::PipelineBands),
            bands,
            "{engine:?}"
        );
        snap.counter(obs::Counter::PipelineHaloRows)
    };
    // The native edge band reads its three source rows directly and keeps
    // no ring, so it recomputes nothing; the ring chain recomputes the one
    // row above every band but the first.
    assert_eq!(halo_rows(Engine::Native, &mut dst), 0);
    assert_eq!(halo_rows(Engine::Autovec, &mut dst), bands - 1);
}
