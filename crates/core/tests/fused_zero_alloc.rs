//! Allocator-level proof of the fused pipeline's zero-allocation contract,
//! counted by a wrapping global allocator rather than inferred from the
//! arena's own ledger:
//!
//! 1. once a [`Scratch`] arena is warm, a sequential `try_fused_*_with` call
//!    performs **no** heap allocations at all, and
//! 2. once the persistent pool's workers have run each kernel shape once,
//!    steady-state `try_par_fused_*` calls perform **no** heap allocations on
//!    any worker thread — band workspaces come from the workers'
//!    thread-local arenas and the scheduler's deques reuse their capacity.
//!
//! The parallel phase counts *worker-side* allocations only: the
//! submitting thread still builds the per-call band list (a bounded
//! `Vec`), which is dispatch bookkeeping, not per-pixel work. Workers are
//! identified with a `broadcast` that sets a const-initialised
//! thread-local flag (const-init so reading it inside the allocator can
//! never itself allocate).
//!
//! The whole file is a single `#[test]` because the counter is global and
//! the libtest harness runs sibling tests on other threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static WORKER_ONLY: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static IS_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn should_count() -> bool {
    if !COUNTING.load(Ordering::Relaxed) {
        return false;
    }
    if WORKER_ONLY.load(Ordering::Relaxed) {
        // `try_with` so a (de)allocation during TLS teardown cannot panic.
        IS_WORKER.try_with(Cell::get).unwrap_or(false)
    } else {
        true
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if should_count() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if should_count() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with allocation counting on; returns how many allocations
/// (including reallocations) it performed.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    f();
    COUNTING.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

/// Like [`count_allocs`], but only allocations made on pool worker
/// threads (those marked via `IS_WORKER`) are counted.
fn count_worker_allocs(f: impl FnOnce()) -> u64 {
    WORKER_ONLY.store(true, Ordering::SeqCst);
    let n = count_allocs(f);
    WORKER_ONLY.store(false, Ordering::SeqCst);
    n
}

#[test]
fn warm_fused_calls_do_not_allocate() {
    use pixelimage::{synthetic_image, Image};
    use simdbench_core::dispatch::Engine;
    use simdbench_core::kernelgen::paper_gaussian_kernel;
    use simdbench_core::pipeline::{
        try_fused_edge_detect_with, try_fused_gaussian_blur_with, try_fused_sobel_with,
        try_par_fused_edge_detect_with, try_par_fused_gaussian_blur_with, try_par_fused_sobel_with,
        BandPlan,
    };
    use simdbench_core::scratch::{warm_worker_arenas, Scratch, WorkspaceSpec};
    use simdbench_core::sobel::SobelDirection::{X, Y};

    let (w, h) = (257, 53); // odd width: scalar tails + SIMD interior
    let src = synthetic_image(w, h, 163);
    let kernel = paper_gaussian_kernel();
    let mut dst_u8 = Image::new(w, h);
    let mut dst_i16 = Image::new(w, h);
    let mut scratch = Scratch::new();

    for engine in Engine::ALL {
        // Cold pass: allowed to allocate (fills the arena).
        try_fused_gaussian_blur_with(&src, &mut dst_u8, &kernel, engine, &mut scratch).unwrap();
        try_fused_sobel_with(&src, &mut dst_i16, X, engine, &mut scratch).unwrap();
        try_fused_sobel_with(&src, &mut dst_i16, Y, engine, &mut scratch).unwrap();
        try_fused_edge_detect_with(&src, &mut dst_u8, 96, engine, &mut scratch).unwrap();

        // Warm pass: zero allocations, enforced at the allocator.
        let n = count_allocs(|| {
            try_fused_gaussian_blur_with(&src, &mut dst_u8, &kernel, engine, &mut scratch).unwrap();
            try_fused_sobel_with(&src, &mut dst_i16, X, engine, &mut scratch).unwrap();
            try_fused_sobel_with(&src, &mut dst_i16, Y, engine, &mut scratch).unwrap();
            try_fused_edge_detect_with(&src, &mut dst_u8, 96, engine, &mut scratch).unwrap();
        });
        assert_eq!(n, 0, "warm fused calls allocated {n} times ({engine:?})");
    }

    // --- Parallel path: no worker-side allocations at steady state. ---
    // A 4-wide install forces the real pool scheduler even on single-core
    // hosts; band_rows = 8 yields several bands per call so tasks are
    // actually split and stolen.
    let wide = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .expect("pool build");
    wide.install(|| {
        rayon::broadcast(|_| IS_WORKER.with(|c| c.set(true)));
        let (plan, native) = (BandPlan { band_rows: 8 }, Engine::Native);
        warm_worker_arenas(&[
            WorkspaceSpec::gaussian(w, kernel.len()),
            WorkspaceSpec::sobel(w),
            WorkspaceSpec::edge(w),
        ]);

        // Cold parallel passes grow the scheduler's deques and any
        // remaining lazy state to their steady-state footprint.
        for _ in 0..3 {
            try_par_fused_gaussian_blur_with(&src, &mut dst_u8, &kernel, native, &plan).unwrap();
            try_par_fused_sobel_with(&src, &mut dst_i16, X, native, &plan).unwrap();
            try_par_fused_edge_detect_with(&src, &mut dst_u8, 96, native, &plan).unwrap();
        }

        let n = count_worker_allocs(|| {
            for _ in 0..5 {
                try_par_fused_gaussian_blur_with(&src, &mut dst_u8, &kernel, native, &plan)
                    .unwrap();
                try_par_fused_sobel_with(&src, &mut dst_i16, X, native, &plan).unwrap();
                try_par_fused_edge_detect_with(&src, &mut dst_u8, 96, native, &plan).unwrap();
            }
        });
        assert_eq!(
            n, 0,
            "steady-state par_fused calls allocated {n} times on pool workers"
        );
    });
}
