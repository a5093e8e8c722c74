//! Fault-model contract of the stream engine (DESIGN.md §11):
//!
//! 1. an over-offered load **sheds and backpressures** — it never
//!    deadlocks, and every admitted frame still gets exactly one
//!    outcome,
//! 2. shed and faulted frames leave **no scratch-ledger bytes
//!    outstanding** in any slot arena (the PR 4 leak sweep, applied to
//!    the slot ring),
//! 3. an injected **worker death mid-stream** does not lose frames: the
//!    pool self-heals and every frame completes bit-exact against the
//!    serial fused kernel,
//! 4. while the pool's **circuit breaker is open** every frame runs
//!    degraded (serially, still bit-exact) and admission is capped at
//!    half the queue; once the breaker closes frames run on the pool
//!    again.
//!
//! This is one test function (not several) because faultline state is
//! process-global and the libtest harness runs sibling tests on other
//! threads.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pixelimage::{synthetic_image, Image};
use simdbench_core::dispatch::Engine;
use simdbench_core::error::KernelError;
use simdbench_core::kernelgen::paper_gaussian_kernel;
use simdbench_core::pipeline::{
    try_fused_gaussian_blur_with, try_par_fused_gaussian_blur_with, BandPlan,
};
use simdbench_core::scratch::Scratch;
use simdbench_core::stream::{
    frame_checksum, summarize, FrameStatus, StreamConfig, StreamEngine, StreamError,
};

fn config(w: usize, h: usize) -> StreamConfig {
    let mut cfg = StreamConfig::new(w, h);
    cfg.engine = Engine::Native;
    cfg.slots = 1;
    cfg.queue_cap = 2;
    cfg
}

fn submit_closed_loop(engine: &StreamEngine, id: u64, src: &Arc<Image<u8>>) {
    loop {
        match engine.submit(id, Arc::clone(src)) {
            Ok(()) => return,
            Err(StreamError::Saturated { .. }) => engine.wait_idle(),
            Err(e) => panic!("unexpected rejection for frame {id}: {e}"),
        }
    }
}

/// Waits up to 10 s for at least `want` pool workers to be live and
/// returns the census. A worker counts itself live only once its thread
/// has started, and respawns are asynchronous.
fn live_workers_after_wait(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(10);
    while rayon::pool_live_workers() < want && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    rayon::pool_live_workers()
}

#[test]
fn overload_sheds_cleanly_and_worker_death_loses_nothing() {
    faultline::disarm_all();
    rayon::reset_circuit_breaker();
    let (w, h) = (160, 120);
    let src = Arc::new(synthetic_image(w, h, 311));

    // Serial reference checksum for every bit-exactness assertion.
    let want = {
        let mut reference = Image::new(w, h);
        let mut scratch = Scratch::new();
        try_fused_gaussian_blur_with(
            &src,
            &mut reference,
            &paper_gaussian_kernel(),
            Engine::Native,
            &mut scratch,
        )
        .expect("serial reference");
        frame_checksum(&reference)
    };

    // --- 1. Over-offered load: sheds + rejects, never deadlocks. ------
    // Each frame is pinned to >= 20ms of injected service time against a
    // 5ms SLO and a 2-deep queue: frames age out in the queue while the
    // single slot is busy, so the open-loop burst below MUST shed, and
    // the whole batch must still settle (the test completing at all is
    // the no-deadlock claim).
    let mut cfg = config(w, h);
    cfg.slo = Some(Duration::from_millis(5));
    let engine = StreamEngine::new(cfg).expect("engine");
    faultline::arm("stream.frame", faultline::Action::Delay(20), 1.0, 9001);
    let offered = 30u64;
    let mut rejected = 0usize;
    for id in 0..offered {
        match engine.submit(id, Arc::clone(&src)) {
            Ok(()) => {}
            Err(StreamError::Saturated { .. }) => rejected += 1,
            Err(e) => panic!("unexpected rejection: {e}"),
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    engine.wait_idle();
    faultline::disarm_all();
    assert_eq!(
        engine.outstanding_scratch_bytes(),
        0,
        "shed/served frames must return every workspace"
    );
    let outcomes = engine.finish();
    let summary = summarize(&outcomes);
    assert_eq!(
        outcomes.len() + rejected,
        offered as usize,
        "every admitted frame needs exactly one outcome"
    );
    assert!(
        summary.shed > 0,
        "a 20ms-per-frame load against a 5ms SLO must shed (shed={}, rejected={rejected})",
        summary.shed
    );
    assert_eq!(summary.failed, 0, "delays are not failures");
    for o in &outcomes {
        match &o.status {
            FrameStatus::Completed { checksum } => assert_eq!(*checksum, want),
            FrameStatus::Shed(e) => {
                let msg = e.to_string();
                assert!(
                    msg.contains("deadline exceeded"),
                    "shed frames carry the DeadlineExceeded verdict, got {msg}"
                );
            }
            FrameStatus::Failed(e) => panic!("unexpected failure: {e}"),
        }
    }

    // --- 2. Injected faults at the slot lifecycle leak nothing. -------
    // Forced errors at admission and on the worker surface as Rejected /
    // Failed outcomes, and the ledgers stay clean.
    let engine = StreamEngine::new(config(w, h)).expect("engine");
    faultline::arm("stream.admit", faultline::Action::Error, 1.0, 9002);
    match engine.submit(0, Arc::clone(&src)) {
        Err(StreamError::Rejected(e)) => {
            assert!(e.to_string().contains("stream.admit"), "got {e}")
        }
        other => panic!("armed stream.admit must reject, got {other:?}"),
    }
    faultline::disarm_all();
    faultline::arm("stream.frame", faultline::Action::Error, 1.0, 9003);
    submit_closed_loop(&engine, 1, &src);
    engine.wait_idle();
    faultline::disarm_all();
    assert_eq!(engine.outstanding_scratch_bytes(), 0);
    let outcomes = engine.finish();
    assert_eq!(outcomes.len(), 1);
    match &outcomes[0].status {
        FrameStatus::Failed(e) => assert!(e.to_string().contains("stream.frame"), "got {e}"),
        other => panic!("armed stream.frame must fail the frame, got {other:?}"),
    }

    // --- 3. Worker death mid-stream: self-heal, no lost frames. -------
    // `pool.worker` panics unwind the worker *after* each detached frame
    // task finishes, so frames keep completing while the pool loses and
    // respawns workers underneath the stream.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // injected panics by design
    let complement = live_workers_after_wait(rayon::current_num_threads());
    let engine = StreamEngine::new(config(w, h)).expect("engine");
    faultline::arm("pool.worker", faultline::Action::Panic, 0.5, 9004);
    for id in 0..20u64 {
        submit_closed_loop(&engine, id, &src);
    }
    engine.wait_idle();
    faultline::disarm_all();
    std::panic::set_hook(prev_hook);
    let outcomes = engine.finish();
    assert_eq!(outcomes.len(), 20);
    for o in &outcomes {
        match &o.status {
            FrameStatus::Completed { checksum } => {
                assert_eq!(*checksum, want, "frame {} not bit-exact", o.id)
            }
            other => panic!("frame {} lost to worker death: {other:?}", o.id),
        }
    }
    // The complement restores once the deaths stop.
    assert!(
        live_workers_after_wait(complement) >= complement,
        "pool complement not restored after injected worker deaths"
    );

    // --- 4. Open breaker: degraded frames, halved admission cap. ------
    // Three consecutive failed pool jobs open the breaker; nothing the
    // stream does afterwards runs a pool job, so it stays open until
    // reset.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // injected panics by design
    let plan = BandPlan {
        band_rows: 8,
        threads: 4,
    };
    let kernel = paper_gaussian_kernel();
    faultline::arm("pool.task", faultline::Action::Panic, 1.0, 9005);
    for round in 0..3 {
        let mut dst = Image::new(w, h);
        assert_eq!(
            try_par_fused_gaussian_blur_with(&src, &mut dst, &kernel, Engine::Native, &plan),
            Err(KernelError::FaultInjected {
                failpoint: "pool.task".into()
            }),
            "round {round}: an injected task panic must fail the job"
        );
    }
    faultline::disarm_all();
    std::panic::set_hook(prev_hook);
    assert!(
        rayon::circuit_breaker_open(),
        "three failed pool jobs must open the breaker"
    );

    let queue_cap = 4;
    let mut cfg = config(w, h);
    cfg.queue_cap = queue_cap;
    let engine = StreamEngine::new(cfg).expect("engine");
    for id in 0..4u64 {
        submit_closed_loop(&engine, id, &src);
    }
    engine.wait_idle();
    // Slow every frame down so the queue fills: the first refusal must
    // come at half the configured depth.
    faultline::arm("stream.frame", faultline::Action::Delay(50), 1.0, 9006);
    let refused_at = (4..64u64).find_map(|id| match engine.submit(id, Arc::clone(&src)) {
        Ok(()) => None,
        Err(StreamError::Saturated { cap, .. }) => Some(cap),
        Err(e) => panic!("unexpected rejection for frame {id}: {e}"),
    });
    engine.wait_idle();
    faultline::disarm_all();
    assert_eq!(
        refused_at,
        Some((queue_cap / 2).max(1)),
        "an open breaker must halve the admission cap"
    );
    assert!(rayon::circuit_breaker_open());
    let outcomes = engine.finish();
    assert!(outcomes.len() > 4, "delayed frames were admitted");
    for o in &outcomes {
        match &o.status {
            FrameStatus::Completed { checksum } => {
                assert_eq!(*checksum, want, "degraded frame {} not bit-exact", o.id)
            }
            other => panic!("degraded frame {} did not complete: {other:?}", o.id),
        }
        assert!(
            o.degraded,
            "frame {} not degraded with the breaker open",
            o.id
        );
    }
    assert_eq!(summarize(&outcomes).degraded, outcomes.len());

    // Closed again, frames go back to the pool.
    rayon::reset_circuit_breaker();
    let engine = StreamEngine::new(config(w, h)).expect("engine");
    submit_closed_loop(&engine, 0, &src);
    engine.wait_idle();
    let outcomes = engine.finish();
    assert_eq!(outcomes.len(), 1);
    assert_eq!(
        outcomes[0].status,
        FrameStatus::Completed { checksum: want }
    );
    assert!(
        !outcomes[0].degraded,
        "closed breaker still degraded a frame"
    );
}
