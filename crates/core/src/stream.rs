//! Streaming multi-frame engine: sustained throughput over the fused
//! band-tiled pipeline (DESIGN.md §11).
//!
//! The paper measures one kernel on one frame; a serving system measures
//! frames per second under sustained offered load. This module pipelines
//! frames through [`crate::pipeline`]'s fused serial kernels using the
//! persistent shim-rayon pool — one frame per pool worker via
//! [`rayon::spawn`], several frames in flight at once — with:
//!
//! * a **fixed slot ring** of reusable per-frame [`Scratch`] arenas and
//!   destination images, warmed at construction so the steady state
//!   performs zero heap allocation (proved by the allocator-instrumented
//!   integration test),
//! * a **bounded admission queue**: [`StreamEngine::submit`] applies
//!   backpressure by returning [`StreamError::Saturated`] instead of
//!   queueing unboundedly,
//! * **deadline-based load shedding**: a frame whose SLO already expired
//!   when it reaches the head of the queue is shed with
//!   [`KernelError::DeadlineExceeded`] — an outcome the caller sees,
//!   never a silent drop,
//! * **graceful degradation** composing with the pool's circuit breaker:
//!   while the breaker is open, frames run serially on the dispatcher
//!   thread and the admission cap is halved, trading throughput for
//!   survival instead of piling work onto a sick pool.
//!
//! Every decision is counted through `obs` (`stream.*` metrics) and
//! every frame produces exactly one [`FrameOutcome`], including frames
//! abandoned by an injected worker death.
//!
//! Failpoints (chaos testing, see `faultline`): `stream.admit` rejects
//! at submit, `stream.slot` fails a frame in the dispatcher (the
//! dispatcher itself survives injected panics there), and
//! `stream.frame` fails or kills the frame on the worker.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use obs::{Counter, Gauge, HistId};
use pixelimage::Image;

use crate::dispatch::Engine;
use crate::error::{validate_frame, KernelError};
use crate::kernelgen::{paper_gaussian_kernel, FixedKernel};
use crate::pipeline::{try_fused_edge_detect_with, try_fused_gaussian_blur_with};
use crate::scratch::{Scratch, WorkspaceSpec};

/// Which fused pipeline a stream runs. Both produce `u8` frames, so a
/// slot's destination image is shared across kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKernel {
    /// Fused Gaussian blur with the paper's σ=1 Q8 kernel.
    Gaussian,
    /// Fused edge detect (Sobel magnitude + threshold).
    Edge,
}

/// Configuration for a [`StreamEngine`].
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Frame width in pixels; every submitted frame must match.
    pub width: usize,
    /// Frame height in pixels; every submitted frame must match.
    pub height: usize,
    /// Number of slots in the ring — the maximum frames in flight on
    /// the pool at once. Clamped to ≥ 1.
    pub slots: usize,
    /// Admission queue capacity; [`StreamEngine::submit`] returns
    /// [`StreamError::Saturated`] beyond this. Clamped to ≥ 1.
    pub queue_cap: usize,
    /// Optional service-level objective. A frame still queued when its
    /// SLO expires is shed with [`KernelError::DeadlineExceeded`].
    pub slo: Option<Duration>,
    /// Which fused kernel to run.
    pub kernel: StreamKernel,
    /// Compute backend for the fused kernel.
    pub engine: Engine,
    /// Threshold for [`StreamKernel::Edge`]; ignored for Gaussian.
    pub thresh: u8,
}

impl StreamConfig {
    /// A sensible default: Gaussian blur, autovec backend, one slot per
    /// pool worker, a queue twice the slot count, no SLO.
    pub fn new(width: usize, height: usize) -> Self {
        let slots = rayon::current_num_threads().max(1);
        StreamConfig {
            width,
            height,
            slots,
            queue_cap: slots * 2,
            slo: None,
            kernel: StreamKernel::Gaussian,
            engine: Engine::Autovec,
            thresh: 128,
        }
    }
}

/// Why [`StreamEngine::submit`] refused a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// The admission queue is full (backpressure): retry later or slow
    /// the offered rate. `cap` is the *effective* cap, which is halved
    /// while the pool's circuit breaker is open.
    Saturated {
        /// Queue depth at the time of the attempt.
        depth: usize,
        /// Effective admission capacity.
        cap: usize,
    },
    /// The frame itself was rejected (geometry mismatch against the
    /// stream's configured dimensions, or an injected admission fault).
    Rejected(KernelError),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Saturated { depth, cap } => {
                write!(f, "stream saturated: queue depth {depth} at cap {cap}")
            }
            StreamError::Rejected(e) => write!(f, "frame rejected: {e}"),
        }
    }
}

impl std::error::Error for StreamError {}

/// Terminal state of one submitted frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameStatus {
    /// The frame ran to completion; `checksum` is the word-wide
    /// four-lane hash of the output pixels (see [`frame_checksum`]), for
    /// bit-exactness checks without retaining every output image.
    Completed {
        /// [`frame_checksum`] of the destination pixels.
        checksum: u64,
    },
    /// Shed before execution (deadline expired in queue). The error is
    /// boxed so that the outcome ledger, which holds one
    /// [`FrameOutcome`] per admitted frame until
    /// [`StreamEngine::finish`], pays for it only on frames that have one.
    Shed(Box<KernelError>),
    /// Started but failed (kernel error or injected fault).
    Failed(Box<KernelError>),
}

/// One frame's journey through the stream, recorded exactly once.
#[derive(Debug, Clone)]
pub struct FrameOutcome {
    /// Caller-assigned frame id from [`StreamEngine::submit`].
    pub id: u64,
    /// How the frame ended.
    pub status: FrameStatus,
    /// Admission-to-outcome latency.
    pub latency: Duration,
    /// True if the frame ran serially on the dispatcher because the
    /// pool's circuit breaker was open.
    pub degraded: bool,
}

/// Aggregate counts over a batch of [`FrameOutcome`]s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamSummary {
    /// Frames that completed successfully.
    pub completed: usize,
    /// Frames shed for blowing their SLO while queued.
    pub shed: usize,
    /// Frames that started but failed.
    pub failed: usize,
    /// Frames executed in degraded (breaker-open, serial) mode.
    pub degraded: usize,
}

/// Tallies a slice of outcomes into a [`StreamSummary`].
pub fn summarize(outcomes: &[FrameOutcome]) -> StreamSummary {
    let mut s = StreamSummary::default();
    for o in outcomes {
        match o.status {
            FrameStatus::Completed { .. } => s.completed += 1,
            FrameStatus::Shed(_) => s.shed += 1,
            FrameStatus::Failed(_) => s.failed += 1,
        }
        if o.degraded {
            s.degraded += 1;
        }
    }
    s
}

/// Odd multiplier of the checksum step (⌊2⁶⁴/φ⌋, the Fibonacci-hashing
/// constant). Odd makes the multiply a bijection on `u64`.
const CHECKSUM_MUL: u64 = 0x9e37_79b9_7f4a_7c15;
/// Rotation of the checksum step: brings the well-mixed high product
/// bits down to where the next word's low bits land.
const CHECKSUM_ROT: u32 = 31;
/// Starting state of the four lanes (the SHA-512 initial values), distinct
/// so that no two lanes are interchangeable.
const CHECKSUM_SEEDS: [u64; 4] = [
    0x6a09_e667_f3bc_c908,
    0xbb67_ae85_84ca_a73b,
    0x3c6e_f372_fe94_f82b,
    0xa54f_f53a_5f1d_36f1,
];

/// How far ahead of the lanes, in bytes, [`prefetch`] asks for the frame.
/// A frame that comes from DRAM rather than cache otherwise stalls the
/// lanes on every line: at 3264×2448 on a 2-vCPU Xeon the hash of a
/// DRAM-resident frame took 1.4 ms without it and 0.8 ms with it.
const CHECKSUM_PREFETCH: usize = 4096;

/// Hints the cache to fetch the line holding `p`. A no-op off x86-64.
#[inline(always)]
fn prefetch(p: *const u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `prefetcht0` only hints the cache. It never faults, whatever
    // the address, and reads nothing into the program; SSE, which provides
    // it, is part of the x86-64 baseline.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// One lane step, `rotl((h ^ word) · MUL, ROT)`. For a fixed word it is a
/// bijection of `h` (xor, odd multiply and rotate each are), and for a
/// fixed `h` a bijection of `word`.
#[inline(always)]
fn checksum_step(h: u64, word: u64) -> u64 {
    (h ^ word)
        .wrapping_mul(CHECKSUM_MUL)
        .rotate_left(CHECKSUM_ROT)
}

/// Feeds one 32-byte block into the four lanes, one little-endian word each.
#[inline(always)]
fn checksum_block(lanes: &mut [u64; 4], block: &[u8; 32]) {
    for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
        let word = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        *lane = checksum_step(*lane, word);
    }
}

/// Word-wide four-lane hash of an image's pixel bytes — the checksum
/// recorded in [`FrameStatus::Completed`]. Stable across runs and
/// platforms (words are read little-endian), so bit-exactness across
/// engines and faults reduces to comparing two `u64`s.
///
/// Each row's pixels (never its stride padding) are read as
/// little-endian `u64` words, dealt round-robin to four independent
/// lanes, with the row tail zero-padded to a whole 32-byte block. The
/// lanes run in parallel, so the hash costs about one multiply per 8
/// bytes instead of one dependent multiply per byte. Width, height and
/// the four lanes are then folded through the same step in that order.
/// Because every step is a bijection of the running state, a frame that
/// differs from another of the same size in any single 8-byte word is
/// guaranteed to hash differently.
pub fn frame_checksum(img: &Image<u8>) -> u64 {
    let mut lanes = CHECKSUM_SEEDS;
    for y in 0..img.height() {
        let row = img.row(y);
        let mut blocks = row.chunks_exact(32);
        for (i, block) in (&mut blocks).enumerate() {
            // `wrapping_add`: the hinted address may lie past the frame.
            prefetch(row.as_ptr().wrapping_add(i * 32 + CHECKSUM_PREFETCH));
            checksum_block(&mut lanes, block.try_into().expect("32-byte chunk"));
        }
        let tail = blocks.remainder();
        if !tail.is_empty() {
            let mut block = [0u8; 32];
            block[..tail.len()].copy_from_slice(tail);
            checksum_block(&mut lanes, &block);
        }
    }
    [img.width() as u64, img.height() as u64]
        .into_iter()
        .chain(lanes)
        .fold(0, checksum_step)
}

struct FrameRequest {
    id: u64,
    src: Arc<Image<u8>>,
    admitted: Instant,
    deadline: Option<Instant>,
}

/// One reusable execution slot: a warmed scratch arena plus a
/// preallocated destination image. Slots are the only place frame
/// output lands, so slot count bounds in-flight memory exactly.
struct Slot {
    scratch: Scratch,
    dst: Image<u8>,
}

struct State {
    queue: VecDeque<FrameRequest>,
    free_slots: Vec<usize>,
    /// Frames popped from the queue whose outcome is not yet recorded.
    /// Incremented at pop, decremented exactly once per outcome, so
    /// `queue.is_empty() && active == 0` is the idle predicate even
    /// while a frame is between queue and slot.
    active: usize,
    shutdown: bool,
}

struct Shared {
    config: StreamConfig,
    kernel: FixedKernel,
    state: Mutex<State>,
    /// Dispatcher wakes on new work or shutdown.
    work_cv: Condvar,
    /// Dispatcher wakes when a slot frees.
    slot_cv: Condvar,
    /// Callers in `wait_idle`/`finish` wake when the stream drains.
    idle_cv: Condvar,
    slots: Vec<Mutex<Slot>>,
    outcomes: Mutex<Vec<FrameOutcome>>,
}

/// Locks ignoring poison: every protected structure stays coherent
/// across an unwind (scratch checkouts are drop-guarded, the queue and
/// ledgers are plain data), so a panicking worker must not wedge the
/// stream.
fn lock_clean<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn record_outcome(&self, outcome: FrameOutcome) {
        // Never nest the outcomes and state locks: submit reserves
        // outcome capacity under `outcomes` alone, workers push under
        // `outcomes` alone, and the idle accounting below takes `state`
        // alone — no ordering between the two exists to invert.
        lock_clean(&self.outcomes).push(outcome);
        let mut st = lock_clean(&self.state);
        st.active -= 1;
        if st.active == 0 && st.queue.is_empty() {
            self.idle_cv.notify_all();
        }
    }

    fn release_slot(&self, slot: usize) {
        let mut st = lock_clean(&self.state);
        st.free_slots.push(slot);
        self.slot_cv.notify_one();
    }
}

/// Ownership of one slot for one frame, alive from dispatch to outcome.
///
/// The lease travels into the spawned closure; its `Drop` releases the
/// slot *unconditionally* and records an abandonment outcome if none
/// was recorded — so a frame whose closure is dropped unrun (e.g. an
/// injected `pool.task` panic fires before the closure body) or whose
/// worker dies mid-kernel still frees its slot and stays accounted.
struct Lease {
    shared: Arc<Shared>,
    slot: usize,
    id: u64,
    admitted: Instant,
    degraded: bool,
    done: bool,
}

impl Lease {
    fn complete(&mut self, status: FrameStatus) {
        self.done = true;
        self.shared.record_outcome(FrameOutcome {
            id: self.id,
            status,
            latency: self.admitted.elapsed(),
            degraded: self.degraded,
        });
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        if !self.done {
            obs::add(Counter::StreamFailed, 1);
            self.shared.record_outcome(FrameOutcome {
                id: self.id,
                status: FrameStatus::Failed(Box::new(KernelError::FaultInjected {
                    failpoint: "stream.abandoned".to_string(),
                })),
                latency: self.admitted.elapsed(),
                degraded: self.degraded,
            });
        }
        self.shared.release_slot(self.slot);
    }
}

/// The multi-frame streaming scheduler. See the module docs for the
/// architecture; typical use:
///
/// ```
/// use simdbench_core::stream::{StreamConfig, StreamEngine, StreamError};
/// use std::sync::Arc;
///
/// let engine = StreamEngine::new(StreamConfig::new(64, 48)).unwrap();
/// let frame = Arc::new(pixelimage::Image::<u8>::from_fn(64, 48, |x, y| (x ^ y) as u8));
/// for id in 0..8 {
///     loop {
///         match engine.submit(id, Arc::clone(&frame)) {
///             Ok(()) => break,
///             Err(StreamError::Saturated { .. }) => std::thread::yield_now(),
///             Err(e) => panic!("{e}"),
///         }
///     }
/// }
/// let outcomes = engine.finish();
/// assert_eq!(outcomes.len(), 8);
/// ```
pub struct StreamEngine {
    shared: Arc<Shared>,
    dispatcher: Option<std::thread::JoinHandle<()>>,
}

impl StreamEngine {
    /// Builds the slot ring (warming every arena and destination image
    /// so the steady state allocates nothing) and starts the dispatcher
    /// thread. Fails on degenerate geometry.
    pub fn new(mut config: StreamConfig) -> Result<StreamEngine, KernelError> {
        validate_frame(config.width, config.height, config.width)?;
        config.slots = config.slots.max(1);
        config.queue_cap = config.queue_cap.max(1);

        let kernel = paper_gaussian_kernel();
        let spec = match config.kernel {
            StreamKernel::Gaussian => WorkspaceSpec::gaussian(config.width, kernel.len()),
            StreamKernel::Edge => WorkspaceSpec::edge(config.width, config.engine),
        };
        let slots: Vec<Mutex<Slot>> = (0..config.slots)
            .map(|_| {
                let mut scratch = Scratch::new();
                scratch.warm(spec);
                Mutex::new(Slot {
                    scratch,
                    dst: Image::new(config.width, config.height),
                })
            })
            .collect();

        let state = State {
            queue: VecDeque::with_capacity(config.queue_cap),
            free_slots: (0..config.slots).collect(),
            active: 0,
            shutdown: false,
        };
        let shared = Arc::new(Shared {
            config,
            kernel,
            state: Mutex::new(state),
            work_cv: Condvar::new(),
            slot_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            slots,
            outcomes: Mutex::new(Vec::new()),
        });
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("stream-dispatch".into())
                .spawn(move || run_dispatcher(shared))
                .expect("spawn stream dispatcher")
        };
        Ok(StreamEngine {
            shared,
            dispatcher: Some(dispatcher),
        })
    }

    /// Offers one frame. Returns immediately: `Ok` means admitted (an
    /// outcome will eventually exist for `id`), `Err` means the frame
    /// was never taken — [`StreamError::Saturated`] is backpressure,
    /// [`StreamError::Rejected`] is a bad frame. While the pool's
    /// circuit breaker is open the effective queue cap is halved, so
    /// saturation pushes back harder during degradation.
    pub fn submit(&self, id: u64, src: Arc<Image<u8>>) -> Result<(), StreamError> {
        if let Some(fault) = faultline::inject("stream.admit") {
            obs::add(Counter::StreamRejected, 1);
            return Err(StreamError::Rejected(fault.into()));
        }
        let cfg = &self.shared.config;
        if src.width() != cfg.width {
            obs::add(Counter::StreamRejected, 1);
            return Err(StreamError::Rejected(KernelError::WidthMismatch {
                src: src.width(),
                dst: cfg.width,
            }));
        }
        if src.height() != cfg.height {
            obs::add(Counter::StreamRejected, 1);
            return Err(StreamError::Rejected(KernelError::HeightMismatch {
                src: src.height(),
                dst: cfg.height,
            }));
        }
        // Reserve outcome space on the submitting thread so workers
        // never grow the vector: frames in flight are bounded by
        // queue + slots + the one frame between queue and slot.
        {
            let mut outcomes = lock_clean(&self.shared.outcomes);
            let want = outcomes.len() + cfg.queue_cap + cfg.slots + 1;
            if outcomes.capacity() < want {
                let len = outcomes.len();
                outcomes.reserve(want - len);
            }
        }
        let mut st = lock_clean(&self.shared.state);
        let cap = if rayon::circuit_breaker_open() {
            (cfg.queue_cap / 2).max(1)
        } else {
            cfg.queue_cap
        };
        if st.queue.len() >= cap {
            obs::add(Counter::StreamRejected, 1);
            return Err(StreamError::Saturated {
                depth: st.queue.len(),
                cap,
            });
        }
        let now = Instant::now();
        st.queue.push_back(FrameRequest {
            id,
            src,
            admitted: now,
            deadline: cfg.slo.map(|slo| now + slo),
        });
        obs::add(Counter::StreamAdmitted, 1);
        obs::gauge_max(Gauge::StreamQueueDepthHighWater, st.queue.len() as u64);
        self.shared.work_cv.notify_one();
        Ok(())
    }

    /// Blocks until every admitted frame has an outcome and the queue
    /// is empty. Does not stop the engine; more frames may follow.
    pub fn wait_idle(&self) {
        let mut st = lock_clean(&self.shared.state);
        while !(st.queue.is_empty() && st.active == 0) {
            st = self
                .shared
                .idle_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Total scratch-ledger bytes checked out across all slots. Zero
    /// whenever the stream is idle — shed, failed, and even abandoned
    /// frames must not leak workspace bytes (the leak-sweep tests pin
    /// this down).
    pub fn outstanding_scratch_bytes(&self) -> usize {
        self.shared
            .slots
            .iter()
            .map(|s| lock_clean(s).scratch.outstanding_bytes())
            .sum()
    }

    /// Sum of fresh arena allocations across all slots. Flat across a
    /// steady-state run after warm-up: the zero-alloc proof.
    pub fn slot_fresh_allocs(&self) -> usize {
        self.shared
            .slots
            .iter()
            .map(|s| lock_clean(s).scratch.fresh_allocs())
            .sum()
    }

    /// Drains the stream and returns every frame's outcome, in
    /// completion order. Consumes the engine: shuts the dispatcher
    /// down after the queue empties and all in-flight frames settle.
    pub fn finish(mut self) -> Vec<FrameOutcome> {
        self.shutdown_and_join();
        let shared = Arc::clone(&self.shared);
        drop(self); // Drop is a no-op now; keeps one exit path.
        let outcomes = std::mem::take(&mut *lock_clean(&shared.outcomes));
        outcomes
    }

    fn shutdown_and_join(&mut self) {
        {
            let mut st = lock_clean(&self.shared.state);
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
        // The dispatcher drained the queue before exiting; wait for the
        // frames it handed to the pool.
        self.wait_idle();
    }
}

impl Drop for StreamEngine {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

fn run_dispatcher(shared: Arc<Shared>) {
    loop {
        let req = {
            let mut st = lock_clean(&shared.state);
            loop {
                if let Some(r) = st.queue.pop_front() {
                    st.active += 1;
                    break r;
                }
                if st.shutdown {
                    return;
                }
                st = shared
                    .work_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };

        // Shed check: the SLO clock started at admission, so a frame
        // that sat in the queue past its deadline is doomed — reject it
        // now rather than spend a slot on work nobody will take.
        if let (Some(deadline), Some(slo)) = (req.deadline, shared.config.slo) {
            let now = Instant::now();
            if now >= deadline {
                let waited = now.duration_since(req.admitted);
                obs::add(Counter::StreamShed, 1);
                shared.record_outcome(FrameOutcome {
                    id: req.id,
                    status: FrameStatus::Shed(Box::new(KernelError::DeadlineExceeded {
                        waited_us: waited.as_micros() as u64,
                        slo_us: slo.as_micros() as u64,
                    })),
                    latency: waited,
                    degraded: false,
                });
                continue;
            }
        }

        // `stream.slot` failpoint, caught so an injected panic fails
        // the frame instead of killing the dispatcher (which would
        // wedge the whole stream).
        if faultline::any_armed() {
            let verdict = catch_unwind(|| faultline::inject("stream.slot"));
            let injected = match verdict {
                Ok(None) => None,
                Ok(Some(fault)) => Some(fault.failpoint),
                Err(payload) => {
                    if let Some(fp) = faultline::injected_failpoint(&payload) {
                        Some(fp.to_string())
                    } else {
                        std::panic::resume_unwind(payload);
                    }
                }
            };
            if let Some(failpoint) = injected {
                obs::add(Counter::StreamFailed, 1);
                shared.record_outcome(FrameOutcome {
                    id: req.id,
                    status: FrameStatus::Failed(Box::new(KernelError::FaultInjected { failpoint })),
                    latency: req.admitted.elapsed(),
                    degraded: false,
                });
                continue;
            }
        }

        let slot = {
            let mut st = lock_clean(&shared.state);
            loop {
                if let Some(i) = st.free_slots.pop() {
                    break i;
                }
                st = shared
                    .slot_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };

        let degraded = rayon::circuit_breaker_open();
        let lease = Lease {
            shared: Arc::clone(&shared),
            slot,
            id: req.id,
            admitted: req.admitted,
            degraded,
            done: false,
        };
        if degraded {
            // Breaker open: the pool is suspect. Run serially right
            // here — slower, but it cannot compound pool damage, and
            // the halved admission cap in `submit` sheds the excess.
            obs::add(Counter::StreamDegradedFrames, 1);
            process_frame(lease, req.src);
        } else {
            rayon::spawn(move || process_frame(lease, req.src));
        }
    }
}

/// Runs one frame in its leased slot and records the outcome. Panics
/// injected by `faultline` become [`FrameStatus::Failed`]; any other
/// panic re-raises after the lease's `Drop` has recorded abandonment
/// and released the slot (the pool worker then dies and self-heals).
fn process_frame(mut lease: Lease, src: Arc<Image<u8>>) {
    let started = obs::start_timer();
    let shared = Arc::clone(&lease.shared);
    let slot = lease.slot;
    let result = catch_unwind(AssertUnwindSafe(|| -> Result<u64, KernelError> {
        if let Some(fault) = faultline::inject("stream.frame") {
            return Err(fault.into());
        }
        let mut guard = lock_clean(&shared.slots[slot]);
        let slot = &mut *guard;
        match shared.config.kernel {
            StreamKernel::Gaussian => try_fused_gaussian_blur_with(
                &src,
                &mut slot.dst,
                &shared.kernel,
                shared.config.engine,
                &mut slot.scratch,
            )?,
            StreamKernel::Edge => try_fused_edge_detect_with(
                &src,
                &mut slot.dst,
                shared.config.thresh,
                shared.config.engine,
                &mut slot.scratch,
            )?,
        }
        Ok(frame_checksum(&slot.dst))
    }));
    match result {
        Ok(Ok(checksum)) => {
            obs::add(Counter::StreamCompleted, 1);
            if let Some(started) = started {
                let waited = started.saturating_duration_since(lease.admitted);
                obs::record(HistId::StreamQueueWaitNanos, waited.as_nanos() as u64);
                obs::record(
                    HistId::StreamServiceNanos,
                    started.elapsed().as_nanos() as u64,
                );
            }
            obs::record(
                HistId::StreamFrameNanos,
                lease.admitted.elapsed().as_nanos() as u64,
            );
            lease.complete(FrameStatus::Completed { checksum });
        }
        Ok(Err(err)) => {
            obs::add(Counter::StreamFailed, 1);
            lease.complete(FrameStatus::Failed(Box::new(err)));
        }
        Err(payload) => {
            if let Some(fp) = faultline::injected_failpoint(&payload) {
                obs::add(Counter::StreamFailed, 1);
                lease.complete(FrameStatus::Failed(Box::new(KernelError::FaultInjected {
                    failpoint: fp.to_string(),
                })));
            } else {
                drop(lease);
                std::panic::resume_unwind(payload);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_frame(w: usize, h: usize) -> Arc<Image<u8>> {
        Arc::new(Image::from_fn(w, h, |x, y| {
            (x.wrapping_mul(31) ^ y.wrapping_mul(17)) as u8
        }))
    }

    /// `img` with the top bit of pixel `(x, y)` flipped.
    fn flip_bit(img: &Image<u8>, x: usize, y: usize) -> Image<u8> {
        let mut out = img.clone();
        out.set(x, y, img.get(x, y) ^ 0x80);
        out
    }

    #[test]
    fn one_flipped_bit_changes_the_checksum() {
        // Width 80 leaves a 16-byte row tail and 97 a 1-byte one; both
        // are zero-padded to a whole 32-byte block.
        for w in [80, 97] {
            let h = 9;
            let img = pixelimage::synthetic_image(w, h, 5);
            let base = frame_checksum(&img);
            let first = (0, 0);
            let mid_row = (w / 2, h / 2);
            let row_tail_end = (w - 1, h / 2);
            let frame_end = (w - 1, h - 1);
            for (x, y) in [first, mid_row, row_tail_end, frame_end] {
                assert_ne!(
                    frame_checksum(&flip_bit(&img, x, y)),
                    base,
                    "{w}x{h}: flipping pixel ({x}, {y}) went unseen"
                );
            }
        }
    }

    #[test]
    fn swapped_dimensions_change_the_checksum() {
        // Both widths are whole 32-byte blocks, so the lanes absorb the
        // same word sequence; only the folded width and height differ.
        let (w, h) = (64, 96);
        let bytes: Vec<u8> = (0..w * h).map(|i| (i * 7 + i / 13) as u8).collect();
        let a = Image::from_fn(w, h, |x, y| bytes[y * w + x]);
        let b = Image::from_fn(h, w, |x, y| bytes[y * h + x]);
        assert_ne!(frame_checksum(&a), frame_checksum(&b));
    }

    #[test]
    fn swapped_rows_change_the_checksum() {
        let img = pixelimage::synthetic_image(97, 13, 2);
        let mut swapped = img.clone();
        let (r2, r7) = swapped.two_rows_mut(2, 7);
        r2.swap_with_slice(r7);
        assert!(!swapped.pixels_eq(&img));
        assert_ne!(frame_checksum(&swapped), frame_checksum(&img));
    }

    #[test]
    fn stride_padding_does_not_enter_the_checksum() {
        let (w, h) = (97, 13);
        let padded = |fill: u8| {
            let mut img = Image::<u8>::new(w, h);
            assert!(img.stride() > w, "the test needs a padded stride");
            for y in 0..h {
                let row = img.row_padded_mut(y);
                let (pixels, padding) = row.split_at_mut(w);
                for (x, p) in pixels.iter_mut().enumerate() {
                    *p = (x * 3 + y * 11) as u8;
                }
                padding.fill(fill);
            }
            img
        };
        assert_eq!(frame_checksum(&padded(0x00)), frame_checksum(&padded(0xa5)));
    }

    #[test]
    fn checksum_of_a_fixed_frame_is_pinned() {
        // A platform or compiler that reads words in another order, or
        // hashes padding, fails here before any stream comparison can.
        let img = pixelimage::synthetic_image(97, 13, 1);
        assert_eq!(frame_checksum(&img), 0x9bc0_b180_49fb_1ae3);
    }

    #[test]
    fn frame_outcome_stays_small() {
        // The ledger holds one outcome per admitted frame until
        // `finish`, so its size is per-frame memory under overload.
        assert!(std::mem::size_of::<FrameOutcome>() <= 48);
    }

    #[test]
    fn completes_all_frames_bit_exact_against_serial() {
        let cfg = StreamConfig::new(96, 64);
        let frame = test_frame(96, 64);

        // Serial reference checksum.
        let mut reference = Image::new(96, 64);
        let mut scratch = Scratch::new();
        try_fused_gaussian_blur_with(
            &frame,
            &mut reference,
            &paper_gaussian_kernel(),
            cfg.engine,
            &mut scratch,
        )
        .unwrap();
        let want = frame_checksum(&reference);

        let engine = StreamEngine::new(cfg).unwrap();
        for id in 0..24u64 {
            loop {
                match engine.submit(id, Arc::clone(&frame)) {
                    Ok(()) => break,
                    Err(StreamError::Saturated { .. }) => engine.wait_idle(),
                    Err(e) => panic!("unexpected rejection: {e}"),
                }
            }
        }
        let outcomes = engine.finish();
        assert_eq!(outcomes.len(), 24);
        for o in &outcomes {
            match &o.status {
                FrameStatus::Completed { checksum } => assert_eq!(*checksum, want),
                other => panic!("frame {} not completed: {other:?}", o.id),
            }
        }
    }

    #[test]
    fn saturated_submit_is_backpressure_not_growth() {
        let mut cfg = StreamConfig::new(64, 48);
        cfg.queue_cap = 1;
        cfg.slots = 1;
        let engine = StreamEngine::new(cfg).unwrap();
        let frame = test_frame(64, 48);
        let mut saturated = 0usize;
        for id in 0..200u64 {
            if let Err(StreamError::Saturated { cap, .. }) = engine.submit(id, Arc::clone(&frame)) {
                assert_eq!(cap, 1);
                saturated += 1;
            }
        }
        let outcomes = engine.finish();
        // Every admitted frame has an outcome; rejected ones have none.
        assert_eq!(outcomes.len() + saturated, 200);
    }

    #[test]
    fn geometry_mismatch_is_rejected_at_submit() {
        let engine = StreamEngine::new(StreamConfig::new(64, 48)).unwrap();
        let wrong = test_frame(32, 48);
        match engine.submit(0, wrong) {
            Err(StreamError::Rejected(KernelError::WidthMismatch { src: 32, dst: 64 })) => {}
            other => panic!("expected width rejection, got {other:?}"),
        }
        assert!(engine.finish().is_empty());
    }

    #[test]
    fn degenerate_config_is_refused() {
        let cfg = StreamConfig::new(0, 48);
        assert!(matches!(
            StreamEngine::new(cfg),
            Err(KernelError::ZeroSize { .. })
        ));
    }

    #[test]
    fn edge_kernel_streams_and_checksums_match_serial() {
        let frame = test_frame(80, 60);
        // The serial two-pass scalar kernel: a fault in the fused rows of
        // the engine under test cannot agree with it.
        let mut two_pass = Image::new(80, 60);
        crate::edge::try_edge_detect(&frame, &mut two_pass, 96, Engine::Scalar).unwrap();
        let scalar = frame_checksum(&two_pass);
        // The default engine, and the one-pass native edge row.
        for engine in [StreamConfig::new(80, 60).engine, Engine::Native] {
            let mut cfg = StreamConfig::new(80, 60);
            cfg.kernel = StreamKernel::Edge;
            cfg.thresh = 96;
            cfg.engine = engine;

            let mut reference = Image::new(80, 60);
            let mut scratch = Scratch::new();
            try_fused_edge_detect_with(&frame, &mut reference, 96, cfg.engine, &mut scratch)
                .unwrap();
            let want = frame_checksum(&reference);
            assert_eq!(want, scalar, "{engine:?}");

            let engine = StreamEngine::new(cfg).unwrap();
            for id in 0..8u64 {
                while let Err(StreamError::Saturated { .. }) = engine.submit(id, Arc::clone(&frame))
                {
                    engine.wait_idle();
                }
            }
            let outcomes = engine.finish();
            assert_eq!(summarize(&outcomes).completed, 8);
            for o in &outcomes {
                assert_eq!(o.status, FrameStatus::Completed { checksum: want });
            }
        }
    }

    #[test]
    fn idle_stream_has_clean_ledgers() {
        let engine = StreamEngine::new(StreamConfig::new(64, 48)).unwrap();
        let frame = test_frame(64, 48);
        for id in 0..4u64 {
            while let Err(StreamError::Saturated { .. }) = engine.submit(id, Arc::clone(&frame)) {
                engine.wait_idle();
            }
        }
        engine.wait_idle();
        assert_eq!(engine.outstanding_scratch_bytes(), 0);
        let baseline = engine.slot_fresh_allocs();
        for id in 4..12u64 {
            while let Err(StreamError::Saturated { .. }) = engine.submit(id, Arc::clone(&frame)) {
                engine.wait_idle();
            }
        }
        engine.wait_idle();
        assert_eq!(
            engine.slot_fresh_allocs(),
            baseline,
            "steady state must not grow any slot arena"
        );
        drop(engine);
    }
}
