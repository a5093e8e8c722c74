//! Injected-fault behaviour of the fallible kernel and pipeline entry
//! points: armed failpoints surface as `KernelError::FaultInjected`
//! (never as unwinds through the `try_*` APIs), scratch workspaces are
//! returned even when a band dies mid-flight, and the whole decision
//! sequence replays bit-identically for a given seed.
//!
//! This is one test function (not several) because faultline state is
//! process-global and the parallel phases share one worker pool.

use pixelimage::{synthetic_image, Image};
use simdbench_core::dispatch::Engine;
use simdbench_core::error::KernelError;
use simdbench_core::kernelgen::paper_gaussian_kernel;
use simdbench_core::pipeline::{
    try_fused_gaussian_blur_with, try_par_fused_edge_detect_with, BandPlan,
};
use simdbench_core::scratch::{self, Scratch};
use simdbench_core::sobel::SobelDirection;
use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn injected_faults_surface_cleanly_and_leak_nothing() {
    faultline::disarm_all();
    rayon::reset_circuit_breaker();

    let src = synthetic_image(96, 64, 21);
    let kernel = paper_gaussian_kernel();

    // --- Forced errors at the kernel entry -----------------------------
    faultline::arm("kernel.entry", faultline::Action::Error, 1.0, 7);
    let mut gi16 = Image::<i16>::new(96, 64);
    assert_eq!(
        simdbench_core::sobel::try_sobel(&src, &mut gi16, SobelDirection::X, Engine::Native),
        Err(KernelError::FaultInjected {
            failpoint: "kernel.entry".into()
        })
    );
    // The same forced error propagates out of the composite kernel
    // (edge = sobel + sobel + threshold) as an error, not a panic.
    let mut du8 = Image::<u8>::new(96, 64);
    assert_eq!(
        simdbench_core::edge::try_edge_detect(&src, &mut du8, 96, Engine::Native),
        Err(KernelError::FaultInjected {
            failpoint: "kernel.entry".into()
        })
    );
    faultline::disarm("kernel.entry");

    // --- Deterministic replay per seed ---------------------------------
    let decisions = |seed: u64| -> Vec<bool> {
        faultline::arm("kernel.entry", faultline::Action::Error, 0.5, seed);
        let mut out = Image::<i16>::new(96, 64);
        let hits = (0..32)
            .map(|_| {
                simdbench_core::sobel::try_sobel(&src, &mut out, SobelDirection::X, Engine::Native)
                    .is_err()
            })
            .collect();
        faultline::disarm("kernel.entry");
        hits
    };
    let a = decisions(1234);
    let b = decisions(1234);
    assert_eq!(a, b, "same seed must replay the same fault sequence");
    assert!(a.iter().any(|&e| e) && a.iter().any(|&e| !e), "rate 0.5");

    // --- Injected band panic: sequential pipeline ----------------------
    // The band dies mid-flight *after* its workspace checkout; the
    // try_* wrapper must convert the recognised injected panic into an
    // error and the drop guard must return the workspace.
    faultline::arm("pipeline.band", faultline::Action::Panic, 1.0, 99);
    let mut scratch = Scratch::new();
    let mut dst = Image::<u8>::new(96, 64);
    assert_eq!(
        try_fused_gaussian_blur_with(&src, &mut dst, &kernel, Engine::Native, &mut scratch),
        Err(KernelError::FaultInjected {
            failpoint: "pipeline.band".into()
        })
    );
    assert_eq!(scratch.outstanding(), 0, "faulted band leaked a workspace");
    assert_eq!(scratch.outstanding_bytes(), 0);
    faultline::disarm("pipeline.band");
    // The identical call now succeeds, reusing the recovered workspace.
    let mut expect = Image::<u8>::new(96, 64);
    simdbench_core::gaussian::try_gaussian_blur_kernel(&src, &mut expect, &kernel, Engine::Native)
        .unwrap();
    assert_eq!(
        try_fused_gaussian_blur_with(&src, &mut dst, &kernel, Engine::Native, &mut scratch),
        Ok(())
    );
    assert!(dst.pixels_eq(&expect), "recovery run must be bit-exact");

    // --- Injected band panic: parallel pipeline ------------------------
    // Worker-side panics cross the pool latch as the original payload,
    // so the try_* wrapper still classifies them; every worker's
    // thread-local arena must end with nothing outstanding. The edge runs
    // Autovec, whose band checks out two rings and the row temps; the
    // Native band needs no workspace, so it could leak nothing.
    faultline::arm("pipeline.band", faultline::Action::Panic, 1.0, 4242);
    let plan = BandPlan {
        band_rows: 8,
        threads: 4,
    };
    let mut par_dst = Image::<u8>::new(96, 64);
    assert_eq!(
        try_par_fused_edge_detect_with(&src, &mut par_dst, 96, Engine::Autovec, &plan),
        Err(KernelError::FaultInjected {
            failpoint: "pipeline.band".into()
        })
    );
    faultline::disarm("pipeline.band");
    // Sweep every pool worker's arena ledger.
    let leaked = AtomicUsize::new(0);
    rayon::broadcast(|_| {
        leaked.fetch_add(scratch::worker_arena_outstanding_bytes(), Ordering::Relaxed);
    });
    assert_eq!(
        leaked.load(Ordering::Relaxed),
        0,
        "a worker arena leaked workspace bytes after injected band panics"
    );
    // Disarmed, the parallel pipeline recovers to bit-exactness.
    let mut expect = Image::<u8>::new(96, 64);
    simdbench_core::edge::try_edge_detect(&src, &mut expect, 96, Engine::Native).unwrap();
    assert_eq!(
        try_par_fused_edge_detect_with(&src, &mut par_dst, 96, Engine::Autovec, &plan),
        Ok(())
    );
    assert!(par_dst.pixels_eq(&expect));

    // A real validation failure is reported as itself, never as an
    // injected fault, and a genuine panic raised on it is not classified
    // as injected: the try_* contract only absorbs faults it can
    // attribute to faultline.
    let mut d = Image::<u8>::new(95, 64);
    let real = simdbench_core::edge::try_edge_detect(&src, &mut d, 96, Engine::Native);
    assert_eq!(real, Err(KernelError::WidthMismatch { src: 96, dst: 95 }));
    let err = std::panic::catch_unwind(|| real.unwrap()).expect_err("unwrap on Err must panic");
    assert!(!faultline::is_injected_panic(err.as_ref()));

    faultline::disarm_all();
    rayon::reset_circuit_breaker();
}
