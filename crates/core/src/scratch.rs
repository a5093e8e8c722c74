//! Reusable scratch buffers for the fused band pipeline.
//!
//! The two-pass kernels allocate full-image intermediates on every call
//! (`Image<u16>` for the Gaussian, one or two `Image<i16>` for
//! Sobel/edge). The fused pipeline in [`crate::pipeline`] replaces those
//! with a handful of row-sized ring buffers per band, and this module
//! provides the arena they come from: a [`Scratch`] owns a pool of
//! [`BandWorkspace`]s that are checked out before a (possibly parallel)
//! band loop and returned afterwards, so steady-state processing performs
//! **zero** heap allocations — a property the arena itself can attest via
//! [`Scratch::fresh_allocs`], which counts every buffer the pool had to
//! grow. Tests assert the counter stays flat on warm runs.

use crate::dispatch::Engine;
use simd_vector::align::AlignedBuf;

/// Largest kernel length (taps) the fused pipeline supports without
/// falling back to the two-pass implementation; also bounds the stack
/// arrays used for tap pointers and splatted weights, keeping per-row
/// state off the heap.
pub const MAX_TAPS: usize = 31;

/// Per-band working memory for any of the fused kernels.
///
/// One workspace serves every fused kernel shape:
///
/// * Gaussian: `ring_u16` holds the `k = 2r+1` most recent horizontal-pass
///   rows.
/// * Sobel: the first 3 rows of `ring_a` hold the `[-1,0,1]` or `[1,2,1]`
///   horizontal results.
/// * Edge, on every engine without a one-pass edge row: `ring_a` (h-diff)
///   and `ring_b` (h-smooth) both cycle 3 rows; `row_gx`/`row_gy`/`row_u8`
///   hold the per-row gradient and magnitude.
///
/// Buffers are allocated at least as large as requested and sliced to the
/// image width at the point of use, so a workspace warmed on one image is
/// reused as-is for any image of equal or smaller width.
#[derive(Debug)]
pub struct BandWorkspace {
    /// Gaussian horizontal-pass ring (`k` rows).
    pub ring_u16: Vec<AlignedBuf<u16>>,
    /// Sobel/edge first horizontal ring (3 rows).
    pub ring_a: Vec<AlignedBuf<i16>>,
    /// Edge second horizontal ring (3 rows).
    pub ring_b: Vec<AlignedBuf<i16>>,
    /// Per-row gx gradient.
    pub row_gx: AlignedBuf<i16>,
    /// Per-row gy gradient.
    pub row_gy: AlignedBuf<i16>,
    /// Per-row u8 temporary (gradient magnitude).
    pub row_u8: AlignedBuf<u8>,
}

impl Default for BandWorkspace {
    /// An empty workspace; zero-length `AlignedBuf`s allocate nothing.
    fn default() -> Self {
        BandWorkspace {
            ring_u16: Vec::new(),
            ring_a: Vec::new(),
            ring_b: Vec::new(),
            row_gx: AlignedBuf::zeroed(0),
            row_gy: AlignedBuf::zeroed(0),
            row_u8: AlignedBuf::zeroed(0),
        }
    }
}

/// Buffer-shape requirements for one checkout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkspaceSpec {
    /// Row length every buffer must support (image width).
    pub width: usize,
    /// Rows needed in `ring_u16` (0 when the kernel does not use it).
    pub u16_rows: usize,
    /// Rows needed in `ring_a`.
    pub a_rows: usize,
    /// Rows needed in `ring_b`.
    pub b_rows: usize,
    /// Whether the per-row gx/gy/u8 buffers are needed.
    pub row_temps: bool,
}

impl WorkspaceSpec {
    /// Upper bound on the bytes a cold arena allocates to satisfy this
    /// spec (every ring row and temp at exactly `width`). Used by the
    /// arena cap check in [`Scratch::try_checkout_guarded`].
    pub fn bytes(&self) -> usize {
        self.width * 2 * (self.u16_rows + self.a_rows + self.b_rows)
            + if self.row_temps { self.width * 5 } else { 0 }
    }

    /// Spec for a fused Gaussian with a `k`-tap kernel.
    pub fn gaussian(width: usize, k: usize) -> Self {
        WorkspaceSpec {
            width,
            u16_rows: k,
            a_rows: 0,
            b_rows: 0,
            row_temps: false,
        }
    }

    /// Spec for a fused Sobel pass.
    pub fn sobel(width: usize) -> Self {
        WorkspaceSpec {
            width,
            u16_rows: 0,
            a_rows: 3,
            b_rows: 0,
            row_temps: false,
        }
    }

    /// Spec for the fused edge-detection chain on `engine`. A band of an
    /// engine with a one-pass edge row (`Native` and `Sse2Sim`, see
    /// [`one_pass_edge_row`](crate::edge::one_pass_edge_row)) reads its
    /// three source rows directly and needs no workspace, so its spec is
    /// empty; every other engine needs two 3-row rings and the per-row
    /// temps.
    pub fn edge(width: usize, engine: Engine) -> Self {
        let ringed = crate::edge::one_pass_edge_row(engine).is_none();
        WorkspaceSpec {
            width,
            u16_rows: 0,
            a_rows: if ringed { 3 } else { 0 },
            b_rows: if ringed { 3 } else { 0 },
            row_temps: ringed,
        }
    }
}

/// A pool of [`BandWorkspace`]s with an allocation ledger.
///
/// `Scratch` is cheap to construct (allocates nothing until first use) and
/// intended to be long-lived: the harness and benches create one per
/// kernel loop and feed it to every `try_fused_*_with` call. The
/// [`fresh_allocs`](Scratch::fresh_allocs) counter increments once per
/// buffer the pool had to allocate or grow, so
///
/// ```text
/// let before = scratch.fresh_allocs();
/// try_fused_edge_detect_with(..., &mut scratch)?; // second run, same size
/// assert_eq!(scratch.fresh_allocs(), before);  // fully warm: no allocs
/// ```
///
/// is the arena-level statement of the pipeline's zero-allocation
/// contract.
#[derive(Debug, Default)]
pub struct Scratch {
    pool: Vec<BandWorkspace>,
    fresh_allocs: usize,
    live_bytes: usize,
    outstanding: usize,
    outstanding_bytes: usize,
    cap_bytes: Option<usize>,
}

impl Scratch {
    /// Creates an empty arena. Nothing is allocated until a checkout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an arena that refuses (via [`Scratch::try_checkout_guarded`]) to
    /// grow beyond `cap` bytes.
    pub fn with_cap_bytes(cap: usize) -> Self {
        Scratch {
            cap_bytes: Some(cap),
            ..Self::default()
        }
    }

    /// Sets or clears the arena's byte cap, enforced by
    /// [`Scratch::try_checkout_guarded`].
    pub fn set_cap_bytes(&mut self, cap: Option<usize>) {
        self.cap_bytes = cap;
    }

    /// Number of buffer allocations (or growths) performed so far.
    pub fn fresh_allocs(&self) -> usize {
        self.fresh_allocs
    }

    /// Total bytes currently held by this arena's buffers (checked-out
    /// workspaces included — give-backs don't change the total).
    pub fn live_bytes(&self) -> usize {
        self.live_bytes
    }

    /// Number of workspaces currently checked out and not yet returned.
    /// Zero between operations — a nonzero value at rest means a panic
    /// path leaked a workspace (the invariant chaos runs assert).
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Bytes held by checked-out-but-unreturned workspaces. The
    /// "leaked scratch bytes" figure: zero between operations.
    pub fn outstanding_bytes(&self) -> usize {
        self.outstanding_bytes
    }

    /// Number of workspaces currently parked in the pool.
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// Checks out a workspace satisfying `spec`, reusing pooled buffers
    /// where they are already large enough and growing them (counted)
    /// where they are not.
    ///
    /// The pool is shape-aware: a pooled workspace that already satisfies
    /// `spec` is preferred over the most recently returned one, so a
    /// single arena serving differently-shaped kernels (gaussian rings vs
    /// edge rings) stays allocation-free once each shape has been seen.
    fn checkout(&mut self, spec: WorkspaceSpec) -> BandWorkspace {
        let ready = self.pool.iter().position(|ws| Self::satisfies(ws, &spec));
        let mut ws = match ready {
            Some(i) => self.pool.swap_remove(i),
            None => self.pool.pop().unwrap_or_default(),
        };
        let (allocs_before, bytes_before) = (self.fresh_allocs, self.live_bytes);
        let ledger = &mut (&mut self.fresh_allocs, &mut self.live_bytes);
        Self::ensure_ring(ledger, &mut ws.ring_u16, spec.u16_rows, spec.width);
        Self::ensure_ring(ledger, &mut ws.ring_a, spec.a_rows, spec.width);
        Self::ensure_ring(ledger, &mut ws.ring_b, spec.b_rows, spec.width);
        if spec.row_temps {
            Self::ensure_buf(ledger, &mut ws.row_gx, spec.width);
            Self::ensure_buf(ledger, &mut ws.row_gy, spec.width);
            Self::ensure_buf(ledger, &mut ws.row_u8, spec.width);
        }
        if self.fresh_allocs > allocs_before {
            obs::add(
                obs::Counter::ScratchBuffersGrown,
                (self.fresh_allocs - allocs_before) as u64,
            );
            obs::add(
                obs::Counter::ScratchBytesAllocated,
                (self.live_bytes - bytes_before) as u64,
            );
        }
        obs::gauge_max(obs::Gauge::ScratchBytesHighWater, self.live_bytes as u64);
        self.outstanding += 1;
        self.outstanding_bytes += Self::workspace_bytes(&ws);
        ws
    }

    /// Fallible checkout: refuses with
    /// [`KernelError::ArenaExhausted`](crate::error::KernelError) when the
    /// arena has a byte cap and satisfying `spec` could grow it past the
    /// cap. The growth estimate is an upper bound ([`WorkspaceSpec::bytes`]
    /// when no pooled workspace already satisfies the spec), so a rejected
    /// checkout never allocates anything.
    fn try_checkout(
        &mut self,
        spec: WorkspaceSpec,
    ) -> Result<BandWorkspace, crate::error::KernelError> {
        if let Some(cap) = self.cap_bytes {
            let warm = self.pool.iter().any(|ws| Self::satisfies(ws, &spec));
            let projected = self.live_bytes + if warm { 0 } else { spec.bytes() };
            if projected > cap {
                return Err(crate::error::KernelError::ArenaExhausted {
                    requested: projected,
                    cap,
                });
            }
        }
        Ok(self.checkout(spec))
    }

    /// Fallible checkout (see `try_checkout`) whose give-back is a drop
    /// guard: the workspace returns to the arena when the [`CheckedOut`]
    /// handle drops, **including during unwinding**, so a panic inside a
    /// band loop cannot leak the buffers.
    pub fn try_checkout_guarded(
        &mut self,
        spec: WorkspaceSpec,
    ) -> Result<CheckedOut<'_>, crate::error::KernelError> {
        let ws = self.try_checkout(spec)?;
        Ok(CheckedOut {
            arena: self,
            ws: Some(ws),
        })
    }

    /// Pre-warms the arena for `spec`: checks a workspace out and
    /// straight back in, so the next checkout of the same shape is
    /// allocation-free. The stream engine warms each slot arena at
    /// construction time, making even the *first* frame through a slot
    /// part of the zero-allocation steady state.
    pub fn warm(&mut self, spec: WorkspaceSpec) {
        let ws = self.checkout(spec);
        self.give_back(ws);
    }

    /// Returns a workspace to the pool for later reuse.
    fn give_back(&mut self, ws: BandWorkspace) {
        self.outstanding = self.outstanding.saturating_sub(1);
        self.outstanding_bytes = self
            .outstanding_bytes
            .saturating_sub(Self::workspace_bytes(&ws));
        self.pool.push(ws);
    }

    /// Bytes currently held by `ws`'s buffers.
    fn workspace_bytes(ws: &BandWorkspace) -> usize {
        let ring_i16 = |ring: &[AlignedBuf<i16>]| ring.iter().map(|b| b.len() * 2).sum::<usize>();
        ws.ring_u16.iter().map(|b| b.len() * 2).sum::<usize>()
            + ring_i16(&ws.ring_a)
            + ring_i16(&ws.ring_b)
            + ws.row_gx.len() * 2
            + ws.row_gy.len() * 2
            + ws.row_u8.len()
    }

    /// True when `ws` can serve `spec` without any buffer growth.
    fn satisfies(ws: &BandWorkspace, spec: &WorkspaceSpec) -> bool {
        let ring_ok = |ring: &[AlignedBuf<i16>], rows: usize| {
            ring.len() >= rows && ring.iter().take(rows).all(|b| b.len() >= spec.width)
        };
        ws.ring_u16.len() >= spec.u16_rows
            && ws
                .ring_u16
                .iter()
                .take(spec.u16_rows)
                .all(|b| b.len() >= spec.width)
            && ring_ok(&ws.ring_a, spec.a_rows)
            && ring_ok(&ws.ring_b, spec.b_rows)
            && (!spec.row_temps
                || (ws.row_gx.len() >= spec.width
                    && ws.row_gy.len() >= spec.width
                    && ws.row_u8.len() >= spec.width))
    }

    fn ensure_ring<T: simd_vector::align::Pod>(
        ledger: &mut (&mut usize, &mut usize),
        ring: &mut Vec<AlignedBuf<T>>,
        rows: usize,
        width: usize,
    ) {
        for buf in ring.iter_mut().take(rows) {
            Self::ensure_buf(ledger, buf, width);
        }
        while ring.len() < rows {
            *ledger.0 += 1;
            *ledger.1 += width * std::mem::size_of::<T>();
            ring.push(AlignedBuf::zeroed(width));
        }
    }

    fn ensure_buf<T: simd_vector::align::Pod>(
        ledger: &mut (&mut usize, &mut usize),
        buf: &mut AlignedBuf<T>,
        width: usize,
    ) {
        if buf.len() < width {
            *ledger.0 += 1;
            *ledger.1 += (width - buf.len()) * std::mem::size_of::<T>();
            *buf = AlignedBuf::zeroed(width);
        }
    }
}

/// A checked-out workspace that returns itself to its arena on drop —
/// the unwind-safe counterpart of a checkout/give-back pair. The
/// sequential fused entry points hold their workspace through one of
/// these so an injected (or real) panic mid-band still restores the
/// arena's ledgers.
pub struct CheckedOut<'a> {
    arena: &'a mut Scratch,
    ws: Option<BandWorkspace>,
}

impl CheckedOut<'_> {
    /// The borrowed workspace (present until drop).
    pub fn ws(&mut self) -> &mut BandWorkspace {
        self.ws.as_mut().expect("workspace present until drop")
    }
}

impl Drop for CheckedOut<'_> {
    fn drop(&mut self) {
        if let Some(ws) = self.ws.take() {
            self.arena.give_back(ws);
        }
    }
}

thread_local! {
    /// Per-thread arena used by the parallel band drivers. Pool worker
    /// threads are persistent, so each worker's arena warms once and then
    /// serves every subsequent band it processes without touching the
    /// allocator; the main thread's arena plays the same role for the
    /// inline (width-1 / nested) path.
    static WORKER_SCRATCH: std::cell::RefCell<Scratch> =
        std::cell::RefCell::new(Scratch::new());
}

/// Runs `f` with a workspace checked out from the calling thread's
/// persistent arena.
///
/// This is how the zero-allocation ledger extends to the parallel path:
/// band tasks are scheduled dynamically (a worker may run any band, for
/// any kernel shape), so workspaces cannot be pre-bound to bands; instead
/// each worker owns an arena for the life of the thread. The workspace is
/// returned to the arena **even if `f` panics** — a drop guard performs
/// the give-back during unwinding, so injected band faults neither leak
/// buffers nor force the next checkout to reallocate.
pub fn with_worker_workspace<R>(spec: WorkspaceSpec, f: impl FnOnce(&mut BandWorkspace) -> R) -> R {
    struct ReturnOnDrop {
        ws: Option<BandWorkspace>,
    }
    impl Drop for ReturnOnDrop {
        fn drop(&mut self) {
            if let Some(ws) = self.ws.take() {
                // try_with/try_borrow_mut: during thread teardown or a
                // panic re-entering the arena the give-back is impossible;
                // the workspace is then simply freed (never double-held).
                let _ = WORKER_SCRATCH.try_with(|cell| {
                    if let Ok(mut arena) = cell.try_borrow_mut() {
                        arena.give_back(ws);
                    }
                });
            }
        }
    }
    let ws = WORKER_SCRATCH.with(|cell| cell.borrow_mut().checkout(spec));
    let mut guard = ReturnOnDrop { ws: Some(ws) };
    f(guard.ws.as_mut().expect("workspace present until drop"))
}

/// Number of buffer allocations the calling thread's worker arena has
/// performed (its [`Scratch::fresh_allocs`] ledger).
pub fn worker_arena_fresh_allocs() -> usize {
    WORKER_SCRATCH.with(|cell| cell.borrow().fresh_allocs())
}

/// Workspaces checked out of the calling thread's worker arena and not
/// yet returned ([`Scratch::outstanding`]). Zero between operations.
pub fn worker_arena_outstanding() -> usize {
    WORKER_SCRATCH.with(|cell| cell.borrow().outstanding())
}

/// Bytes leaked from the calling thread's worker arena if nonzero at
/// rest ([`Scratch::outstanding_bytes`]).
pub fn worker_arena_outstanding_bytes() -> usize {
    WORKER_SCRATCH.with(|cell| cell.borrow().outstanding_bytes())
}

/// Pre-warms the worker arenas of **every spawned pool worker** (and the
/// calling thread) for the given workspace shapes, so a subsequent
/// parallel band loop on those workers performs no worker-side
/// allocations even on its first call. Used by benchmarks and the
/// allocator-level zero-alloc tests to make warmth deterministic — with
/// dynamic scheduling there is otherwise no guarantee which worker first
/// sees which kernel shape.
pub fn warm_worker_arenas(specs: &[WorkspaceSpec]) {
    rayon::broadcast(|_| {
        for &spec in specs {
            with_worker_workspace(spec, |_| ());
        }
    });
    for &spec in specs {
        with_worker_workspace(spec, |_| ());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_workspace_is_warm_after_first_use() {
        let spec = WorkspaceSpec::edge(320, Engine::Autovec);
        with_worker_workspace(spec, |ws| {
            assert!(ws.ring_a.len() >= 3 && ws.row_u8.len() >= 320);
        });
        let warm = worker_arena_fresh_allocs();
        for _ in 0..3 {
            with_worker_workspace(spec, |_| ());
        }
        assert_eq!(worker_arena_fresh_allocs(), warm);
    }

    #[test]
    fn cold_checkout_allocates_warm_checkout_does_not() {
        let mut scratch = Scratch::new();
        let spec = WorkspaceSpec::edge(640, Engine::Autovec);
        let ws = scratch.checkout(spec);
        let cold = scratch.fresh_allocs();
        assert!(cold >= 9, "edge spec needs 3+3 ring rows and 3 row temps");
        scratch.give_back(ws);

        let ws = scratch.checkout(spec);
        assert_eq!(scratch.fresh_allocs(), cold, "warm checkout allocated");
        assert!(ws.ring_a.len() >= 3 && ws.ring_b.len() >= 3);
        assert!(ws.row_gx.len() >= 640 && ws.row_u8.len() >= 640);
        scratch.give_back(ws);
    }

    #[test]
    fn smaller_requests_reuse_larger_buffers() {
        let mut scratch = Scratch::new();
        let ws = scratch.checkout(WorkspaceSpec::gaussian(1000, 7));
        let cold = scratch.fresh_allocs();
        scratch.give_back(ws);
        let ws = scratch.checkout(WorkspaceSpec::gaussian(500, 7));
        assert_eq!(scratch.fresh_allocs(), cold);
        scratch.give_back(ws);
    }

    #[test]
    fn wider_requests_grow_and_are_counted() {
        let mut scratch = Scratch::new();
        let ws = scratch.checkout(WorkspaceSpec::sobel(100));
        let cold = scratch.fresh_allocs();
        scratch.give_back(ws);
        let ws = scratch.checkout(WorkspaceSpec::sobel(200));
        assert!(scratch.fresh_allocs() > cold, "growth must be visible");
        scratch.give_back(ws);
    }

    #[test]
    fn live_bytes_tracks_buffer_growth_exactly() {
        let mut scratch = Scratch::new();
        assert_eq!(scratch.live_bytes(), 0);
        // Sobel spec: 3 i16 ring rows of `width` elements.
        let ws = scratch.checkout(WorkspaceSpec::sobel(100));
        assert_eq!(scratch.live_bytes(), 3 * 100 * 2);
        scratch.give_back(ws);
        // Warm checkout: no change.
        let ws = scratch.checkout(WorkspaceSpec::sobel(100));
        assert_eq!(scratch.live_bytes(), 3 * 100 * 2);
        scratch.give_back(ws);
        // Growth counts only the delta per buffer.
        let ws = scratch.checkout(WorkspaceSpec::sobel(150));
        assert_eq!(scratch.live_bytes(), 3 * 150 * 2);
        scratch.give_back(ws);
    }

    #[test]
    fn outstanding_ledger_tracks_checkout_and_return() {
        let mut scratch = Scratch::new();
        assert_eq!(scratch.outstanding(), 0);
        assert_eq!(scratch.outstanding_bytes(), 0);
        let ws = scratch.checkout(WorkspaceSpec::sobel(100));
        assert_eq!(scratch.outstanding(), 1);
        assert_eq!(scratch.outstanding_bytes(), 3 * 100 * 2);
        scratch.give_back(ws);
        assert_eq!(scratch.outstanding(), 0);
        assert_eq!(scratch.outstanding_bytes(), 0);
    }

    #[test]
    fn guarded_checkout_returns_workspace_on_unwind() {
        let mut scratch = Scratch::new();
        let spec = WorkspaceSpec::edge(256, Engine::Autovec);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut co = scratch.try_checkout_guarded(spec).unwrap();
            assert!(co.ws().ring_a.len() >= 3);
            panic!("band body died");
        }));
        assert!(err.is_err());
        assert_eq!(scratch.outstanding(), 0, "guard must give back on unwind");
        assert_eq!(scratch.outstanding_bytes(), 0);
        // And the pooled workspace is reusable without fresh allocations.
        let warm = scratch.fresh_allocs();
        let co = scratch.try_checkout_guarded(spec).unwrap();
        drop(co);
        assert_eq!(scratch.fresh_allocs(), warm);
    }

    #[test]
    fn worker_workspace_survives_panicking_closure() {
        let spec = WorkspaceSpec::sobel(128);
        // Warm first so the ledger comparison is exact.
        with_worker_workspace(spec, |_| ());
        let warm = worker_arena_fresh_allocs();
        let err = std::panic::catch_unwind(|| {
            with_worker_workspace(spec, |_| panic!("injected band fault"));
        });
        assert!(err.is_err());
        assert_eq!(worker_arena_outstanding(), 0, "panic leaked a workspace");
        assert_eq!(worker_arena_outstanding_bytes(), 0);
        with_worker_workspace(spec, |_| ());
        assert_eq!(
            worker_arena_fresh_allocs(),
            warm,
            "post-panic checkout had to reallocate"
        );
    }

    #[test]
    fn capped_arena_rejects_oversized_checkouts_without_allocating() {
        let spec = WorkspaceSpec::sobel(1000); // needs 6000 B
        let mut scratch = Scratch::with_cap_bytes(spec.bytes() - 1);
        match scratch.try_checkout(spec) {
            Err(crate::error::KernelError::ArenaExhausted { requested, cap }) => {
                assert_eq!(requested, spec.bytes());
                assert_eq!(cap, spec.bytes() - 1);
            }
            other => panic!("expected ArenaExhausted, got {other:?}"),
        }
        assert_eq!(scratch.live_bytes(), 0, "rejected checkout allocated");
        assert_eq!(scratch.fresh_allocs(), 0);
        // Raising the cap makes the same checkout succeed, and a warm
        // re-checkout passes the cap check via the pooled workspace.
        scratch.set_cap_bytes(Some(spec.bytes()));
        let ws = scratch.try_checkout(spec).expect("fits exactly");
        scratch.give_back(ws);
        let ws = scratch.try_checkout(spec).expect("warm re-checkout");
        scratch.give_back(ws);
    }

    #[test]
    fn multiple_checkouts_pool_independently() {
        let mut scratch = Scratch::new();
        let a = scratch.checkout(WorkspaceSpec::sobel(64));
        let b = scratch.checkout(WorkspaceSpec::sobel(64));
        scratch.give_back(a);
        scratch.give_back(b);
        assert_eq!(scratch.pooled(), 2);
        let cold = scratch.fresh_allocs();
        let a = scratch.checkout(WorkspaceSpec::sobel(64));
        let b = scratch.checkout(WorkspaceSpec::sobel(64));
        assert_eq!(scratch.fresh_allocs(), cold);
        scratch.give_back(a);
        scratch.give_back(b);
    }
}
