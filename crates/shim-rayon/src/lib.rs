//! Offline stand-in for the `rayon` crate, built on a **persistent
//! work-stealing thread pool**.
//!
//! Implements the subset this workspace uses — `Vec::into_par_iter()` /
//! `Range::into_par_iter()` with `.enumerate()` and `.for_each()`, plus
//! `ThreadPoolBuilder`/`ThreadPool::install`, `current_num_threads`,
//! `broadcast` and detached [`spawn`] — over a single process-wide
//! worker pool.
//!
//! # Scheduler architecture
//!
//! * **Workers are spawned once.** The pool structure is created behind a
//!   `OnceLock` on first use; worker threads are spawned lazily as jobs
//!   request width, each thread exactly once, and then live for the rest
//!   of the process parked on a condvar when idle. A `par_*` call costs a
//!   few queue pushes and one condvar round-trip — not `t` OS thread
//!   spawns and joins, which at small images used to be the same order of
//!   cost as the kernel itself.
//! * **Per-worker deques with stealing.** Every worker owns a
//!   mutex-guarded `VecDeque` of tasks. Owners pop newest-first (LIFO,
//!   cache-warm); thieves steal oldest-first (FIFO, the biggest unsplit
//!   ranges) from victims scanned in a per-worker pseudo-random rotation —
//!   the classic Chase–Lev discipline with a lock in place of the
//!   lock-free ring, which benchmarks identically at this workspace's
//!   task grain (tens of tasks per job, each thousands of pixels).
//! * **Chunked dynamic tasks.** A job enters the pool as one near-equal
//!   seed range per participating worker, and every task larger than the
//!   job's *grain* splits in half on pop: one half is pushed back
//!   (stealable), the other processed recursively. Ragged band workloads
//!   therefore load-balance instead of being pinned to a static
//!   one-chunk-per-thread partition.
//! * **Scope-style join latch.** The submitting thread parks on a
//!   per-job latch until the job's outstanding-task count drops to zero,
//!   so worker closures may borrow the submitter's stack (the `rows_mut`
//!   slices flow through unchanged). Worker panics are caught, carried to
//!   the latch, and re-raised on the submitting thread.
//! * **`install` scopes a width without respawning.** A [`ThreadPool`] is
//!   only a configured width: `install` sets a thread-local override that
//!   governs how many workers a job seeds and admits (task eligibility is
//!   `worker_index < job_width`), while the workers themselves are the
//!   same process-wide threads.
//!
//! Nested parallel calls issued from inside a worker run inline
//! sequentially (a worker never blocks on another job), which is also the
//! behaviour with width 1: bit-exactness is index-based, not
//! schedule-based, so inline and pooled execution are indistinguishable
//! to callers.
//!
//! When `obs` telemetry is enabled the scheduler reports jobs, tasks,
//! steals (by victim), parks/wakeups, inline-nested runs and the deque
//! depth high-water; disabled, each site costs one flag branch (see
//! `obs`'s cost model and the pool-counter aggregation test in
//! `tests/telemetry.rs`).
//!
//! # Self-healing
//!
//! The pool tolerates its own workers dying, not just leaf panics:
//!
//! * **Worker respawn.** Leaf panics are caught and carried to the latch,
//!   but a panic that escapes the leaf guard (injected via the
//!   `pool.worker` failpoint, or a defect in the scheduler itself) kills
//!   the worker thread. A drop guard in `Pool::worker_entry` notices the
//!   unwind and respawns the same slot, so the pool returns to its full
//!   complement (`pool.respawns` counter, [`pool_live_workers`]).
//! * **Job watchdog.** With [`set_job_watchdog`] armed, a submitter that
//!   waits longer than the deadline stops trusting the workers and drains
//!   the job's still-queued tasks inline on its own thread
//!   (`pool.watchdog_trips`). Combined with the latch drop guard below,
//!   a job can therefore always finish even if every worker died.
//! * **Latch drop guard.** Each task's `pending` decrement lives in a
//!   drop guard around the leaf, so latch accounting settles exactly once
//!   per task even when the worker running it unwinds to death.
//! * **Circuit breaker.** Three consecutive parallel-job failures open a
//!   breaker: the next eight jobs run serially in the submitting thread
//!   (`pool.degraded_runs`) — degraded but correct — after which one job
//!   runs parallel as a half-open probe; success closes the breaker,
//!   failure re-opens it. [`circuit_breaker_open`] / [`reset_circuit_breaker`]
//!   expose the state for harnesses.
//!
//! All of it is deterministic-testable through `faultline`'s `pool.task`
//! (inside the leaf guard: surfaces as a job error) and `pool.worker`
//! (after the leaf guard: kills the worker) failpoints; when no failpoint
//! is armed each costs one relaxed load and branch per task.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

thread_local! {
    /// Thread-count override installed by [`ThreadPool::install`].
    static INSTALLED_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
    /// Index of the pool worker running on this thread, if any.
    static WORKER_INDEX: Cell<Option<usize>> = const { Cell::new(None) };
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Number of worker threads parallel iterators will use on this thread.
pub fn current_num_threads() -> usize {
    INSTALLED_THREADS.with(|t| match t.get() {
        Some(n) => n,
        None => host_parallelism(),
    })
}

/// Index of the pool worker executing the current code, or `None` when
/// called from outside the pool (extension over rayon's API; the pool
/// uses it to run nested parallel calls inline).
pub fn worker_index() -> Option<usize> {
    WORKER_INDEX.with(|w| w.get())
}

// ---------------------------------------------------------------------------
// Fault tolerance: watchdog, circuit breaker, worker-complement ledger
// ---------------------------------------------------------------------------

/// Per-job latch deadline in milliseconds; 0 disables the watchdog.
static JOB_WATCHDOG_MS: AtomicU64 = AtomicU64::new(0);
/// Worker threads currently alive (incremented on entry, decremented when
/// one dies; a respawned slot increments again).
static LIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);
/// Consecutive parallel-job failures; any success resets to zero.
static BREAKER_FAILS: AtomicUsize = AtomicUsize::new(0);
/// Remaining serial degraded runs while the breaker is open.
static BREAKER_COOLDOWN: AtomicUsize = AtomicUsize::new(0);

/// Consecutive failures that open the circuit breaker.
const BREAKER_TRIP: usize = 3;
/// Serial degraded runs served while open, before a half-open probe.
const BREAKER_COOLDOWN_RUNS: usize = 8;

/// Arms (or with `None` disarms) the per-job watchdog: a submitter whose
/// latch wait exceeds `deadline` drains the job's still-queued tasks
/// inline on its own thread. Sub-millisecond deadlines round up to 1 ms.
pub fn set_job_watchdog(deadline: Option<Duration>) {
    let ms = deadline.map_or(0, |d| (d.as_millis() as u64).max(1));
    JOB_WATCHDOG_MS.store(ms, Ordering::Relaxed);
}

/// Number of pool worker threads currently alive. Transiently below the
/// spawned complement while a dead worker's replacement is starting.
pub fn pool_live_workers() -> usize {
    LIVE_WORKERS.load(Ordering::SeqCst)
}

/// Whether the circuit breaker has tripped (jobs degrade to serial
/// in-caller execution until a half-open probe succeeds).
pub fn circuit_breaker_open() -> bool {
    BREAKER_FAILS.load(Ordering::SeqCst) >= BREAKER_TRIP
}

/// Force-closes the circuit breaker (test and harness hook).
pub fn reset_circuit_breaker() {
    BREAKER_FAILS.store(0, Ordering::SeqCst);
    BREAKER_COOLDOWN.store(0, Ordering::SeqCst);
}

/// If the breaker is open, consumes one cooldown slot and returns `true`
/// (caller must run serially). Once the cooldown is exhausted the caller
/// becomes the half-open probe and runs in parallel.
fn breaker_take_degraded_slot() -> bool {
    if BREAKER_FAILS.load(Ordering::SeqCst) < BREAKER_TRIP {
        return false;
    }
    let mut left = BREAKER_COOLDOWN.load(Ordering::SeqCst);
    while left > 0 {
        match BREAKER_COOLDOWN.compare_exchange_weak(
            left,
            left - 1,
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(_) => return true,
            Err(now) => left = now,
        }
    }
    false
}

/// Records a parallel job that re-raised a panic at its latch. Opening
/// (or re-opening, for a failed half-open probe) refills the cooldown.
fn breaker_record_failure() {
    let fails = BREAKER_FAILS.fetch_add(1, Ordering::SeqCst) + 1;
    if fails >= BREAKER_TRIP {
        BREAKER_COOLDOWN.store(BREAKER_COOLDOWN_RUNS, Ordering::SeqCst);
    }
}

/// Records a clean parallel job: consecutive-failure count resets, which
/// also closes the breaker after a successful half-open probe.
fn breaker_record_success() {
    BREAKER_FAILS.store(0, Ordering::SeqCst);
}

// ---------------------------------------------------------------------------
// Pool internals
// ---------------------------------------------------------------------------

/// One schedulable unit: either a half-open index range of a latched
/// job, or a detached one-shot closure ([`spawn`]).
enum Task {
    /// A sub-range of a [`JobShared`]. Holds a raw pointer to the job
    /// header on the submitting thread's stack; the join latch
    /// guarantees the header outlives every task.
    Range {
        job: *const JobShared,
        start: usize,
        end: usize,
        /// Pinned tasks ([`broadcast`]) may only run on the queue's owner.
        pinned: bool,
    },
    /// A detached closure with no latch: runs once on whichever worker
    /// pops or steals it; the submitter does not wait.
    Once(Box<dyn FnOnce() + Send>),
}

// SAFETY: the job header is Sync (atomics, mutexes and a Sync closure)
// and outlives the task per the latch protocol; the `Once` payload is
// `Send` by its bound.
unsafe impl Send for Task {}

/// Per-job header, allocated on the submitting thread's stack.
struct JobShared {
    /// The leaf body, `run(start, end)`. Lifetime-erased to `'static`;
    /// valid because the submitter blocks on the latch until `pending`
    /// reaches zero, after which no task can touch the job again.
    run: &'static (dyn Fn(usize, usize) + Sync),
    /// Outstanding tasks (queued or executing).
    pending: AtomicUsize,
    /// Worker admission: only workers with `index < width` may run tasks
    /// of this job. This is what makes `install(t)` an effective width on
    /// a pool with more live workers than `t`.
    width: usize,
    /// Ranges at most this long execute directly; longer ones split.
    grain: usize,
    /// Join latch: flipped under the mutex when `pending` hits zero.
    done: Mutex<bool>,
    done_cv: Condvar,
    /// First panic payload captured from a worker, re-raised at the latch.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// The process-wide pool.
struct Pool {
    /// One deque per worker *slot*. Slots exist up to the hard cap;
    /// threads are spawned lazily per slot, each at most once.
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// How many worker threads have been spawned so far.
    spawned: Mutex<usize>,
    /// Bumped on every push; lets sleepers detect work they raced past.
    generation: AtomicU64,
    /// Idle workers park here.
    sleep: Mutex<()>,
    wake: Condvar,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Returns the pool, creating the (threadless) structure on first call.
///
/// The slot count is fixed at creation: twice the host parallelism, floor
/// eight, so `install` widths beyond the core count still schedule
/// through the real pool (oversubscription is how the scheduler tests
/// exercise stealing on small CI hosts).
fn pool() -> &'static Pool {
    static POOL: OnceLock<&'static Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let slots = (host_parallelism() * 2).max(8);
        Box::leak(Box::new(Pool {
            queues: (0..slots).map(|_| Mutex::new(VecDeque::new())).collect(),
            spawned: Mutex::new(0),
            generation: AtomicU64::new(0),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
        }))
    })
}

impl Pool {
    /// Ensures at least `n` worker threads are live and returns `n`
    /// clamped to the slot count. Each slot's thread is spawned exactly
    /// once, ever.
    fn ensure_workers(&'static self, n: usize) -> usize {
        let n = n.min(self.queues.len());
        let mut spawned = lock(&self.spawned);
        while *spawned < n {
            let index = *spawned;
            std::thread::Builder::new()
                .name(format!("rayon-shim-worker-{index}"))
                .spawn(move || self.worker_entry(index))
                .expect("failed to spawn pool worker");
            *spawned += 1;
        }
        n
    }

    /// Number of live workers.
    fn live_workers(&self) -> usize {
        *lock(&self.spawned)
    }

    /// Enqueues a task on `queue` and wakes sleepers.
    ///
    /// The wake notification happens under the sleep mutex: a worker that
    /// found nothing checks `generation` under the same mutex before
    /// parking, so this push can never slip into its check-to-wait window.
    fn push(&self, queue: usize, task: Task) {
        let depth = {
            let mut q = lock(&self.queues[queue]);
            q.push_back(task);
            q.len()
        };
        obs::gauge_max(obs::Gauge::PoolDequeDepthHighWater, depth as u64);
        self.generation.fetch_add(1, Ordering::SeqCst);
        let _guard = lock(&self.sleep);
        self.wake.notify_all();
    }

    /// Pops or steals one task runnable by worker `me`.
    fn find_task(&self, me: usize, rng: &mut u64) -> Option<Task> {
        // Own deque, newest first: the most recently split (cache-warm)
        // range. Everything in the own deque is runnable by its owner:
        // seeds land only on queues `< width` and splits are self-pushed.
        if let Some(task) = lock(&self.queues[me]).pop_back() {
            return Some(task);
        }
        // Steal, oldest first, from victims in pseudo-random rotation.
        let n = self.queues.len();
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        let offset = (*rng as usize) % n;
        for k in 0..n {
            let victim = (offset + k) % n;
            if victim == me {
                continue;
            }
            let mut q = lock(&self.queues[victim]);
            let eligible = |t: &Task| match t {
                // SAFETY: queued tasks keep their job pending (alive).
                Task::Range { job, pinned, .. } => !*pinned && me < unsafe { &**job }.width,
                Task::Once(_) => true,
            };
            if let Some(pos) = q.iter().position(eligible) {
                let task = q.remove(pos);
                drop(q);
                obs::add(obs::Counter::PoolSteals, 1);
                obs::record_steal(victim);
                return task;
            }
        }
        None
    }

    /// Runs one task: splits it down to the job's grain (pushing the far
    /// halves for other workers to steal), executes the leaf, and settles
    /// the job's latch accounting.
    ///
    /// The `pending` decrement lives in a drop guard so it runs exactly
    /// once per task even if this thread unwinds past the leaf's own
    /// catch (the `pool.worker` failpoint, or a scheduler defect): the
    /// job still completes, only the worker dies — and is respawned.
    fn execute(&self, me: usize, task: Task) {
        obs::add(obs::Counter::PoolTasks, 1);
        let (job_ptr, start, mut end) = match task {
            Task::Range {
                job, start, end, ..
            } => (job, start, end),
            Task::Once(f) => {
                // Detached task: no latch to settle and no job header to
                // carry a panic payload, so no leaf catch either — a
                // panic escaping `f` unwinds this worker (the respawn
                // guard restores the complement) and, because the
                // closure has already been consumed, cannot re-run.
                // Callers needing panic isolation catch inside `f`.
                faultline::fire("pool.task");
                f();
                faultline::fire("pool.worker");
                return;
            }
        };
        // SAFETY: `pending` includes this task, so the header is alive.
        let job = unsafe { &*job_ptr };
        while end - start > job.grain {
            let mid = start + (end - start) / 2;
            job.pending.fetch_add(1, Ordering::SeqCst);
            self.push(
                me,
                Task::Range {
                    job: job_ptr,
                    start: mid,
                    end,
                    pinned: false,
                },
            );
            end = mid;
        }
        struct LatchSettle(*const JobShared);
        impl Drop for LatchSettle {
            fn drop(&mut self) {
                // SAFETY: this task's slot of `pending` is still ours.
                let job = unsafe { &*self.0 };
                if job.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
                    let mut done = lock(&job.done);
                    *done = true;
                    job.done_cv.notify_all();
                    // The submitter may free the job as soon as it
                    // observes the flag; nothing may touch `job` after.
                }
            }
        }
        let settle = LatchSettle(job_ptr);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| {
            // Inside the guard: an injected panic here is a *task*
            // failure, carried to the latch like any leaf panic.
            faultline::fire("pool.task");
            (job.run)(start, end)
        })) {
            let mut slot = lock(&job.panic);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        drop(settle);
        // Past the guard: an injected panic here unwinds the worker
        // thread itself, *after* the job's accounting is settled — no
        // work is lost, the latch cannot hang, and the respawn guard in
        // `worker_entry` restores the complement.
        faultline::fire("pool.worker");
    }

    /// Pops every still-queued task of `job` and runs it on the calling
    /// (submitting) thread. The watchdog's help-drain: leaves run
    /// directly — no splitting and no `pool.task` failpoint, so an armed
    /// delay or panic cannot also sabotage the rescue path.
    fn drain_job_inline(&self, job: &JobShared) {
        let job_ptr: *const JobShared = job;
        let belongs =
            |t: &Task| matches!(t, Task::Range { job, .. } if std::ptr::eq(*job, job_ptr));
        loop {
            let mut found = None;
            for q in &self.queues {
                let mut q = lock(q);
                if let Some(pos) = q.iter().position(belongs) {
                    found = q.remove(pos);
                    break;
                }
            }
            let Some(Task::Range { start, end, .. }) = found else {
                break;
            };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (job.run)(start, end))) {
                let mut slot = lock(&job.panic);
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            if job.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
                let mut done = lock(&job.done);
                *done = true;
                job.done_cv.notify_all();
            }
        }
    }

    /// Thread entry: runs the worker loop under a respawn guard. If the
    /// loop ever unwinds (it contains no `return`), the guard starts a
    /// replacement thread on the same slot, keeping the pool at full
    /// complement without touching the `spawned` ledger.
    fn worker_entry(&'static self, index: usize) {
        struct RespawnGuard {
            pool: &'static Pool,
            index: usize,
        }
        impl Drop for RespawnGuard {
            fn drop(&mut self) {
                LIVE_WORKERS.fetch_sub(1, Ordering::SeqCst);
                if std::thread::panicking() {
                    obs::add(obs::Counter::PoolRespawns, 1);
                    let pool = self.pool;
                    let index = self.index;
                    // Spawn failure (resource exhaustion) leaves the slot
                    // empty; queued tasks remain stealable and the job
                    // watchdog covers the pathological all-dead case.
                    let _ = std::thread::Builder::new()
                        .name(format!("rayon-shim-worker-{index}"))
                        .spawn(move || pool.worker_entry(index));
                }
            }
        }
        LIVE_WORKERS.fetch_add(1, Ordering::SeqCst);
        let _respawn = RespawnGuard { pool: self, index };
        self.worker_loop(index);
    }

    /// The body of every worker thread.
    fn worker_loop(&'static self, index: usize) {
        WORKER_INDEX.with(|w| w.set(Some(index)));
        let mut rng = (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        loop {
            let gen = self.generation.load(Ordering::SeqCst);
            if let Some(task) = self.find_task(index, &mut rng) {
                self.execute(index, task);
                continue;
            }
            // Nothing runnable: park unless a push landed since the scan
            // started (the push's notify happens under this same mutex).
            let guard = lock(&self.sleep);
            if self.generation.load(Ordering::SeqCst) == gen {
                obs::add(obs::Counter::PoolParks, 1);
                let _guard = self.wake.wait(guard).unwrap_or_else(|e| e.into_inner());
                obs::add(obs::Counter::PoolWakeups, 1);
            }
        }
    }
}

/// Submits `leaf` over `0..len` at `width` and blocks until every task
/// has run. Must not be called from a worker thread (callers run nested
/// jobs inline instead).
fn run_job(len: usize, width: usize, leaf: &(dyn Fn(usize, usize) + Sync)) {
    let pool = pool();
    let width = pool.ensure_workers(width).min(len).max(1);
    if width <= 1 {
        leaf(0, len);
        return;
    }
    if breaker_take_degraded_slot() {
        // Breaker open: serial in-caller execution — degraded, correct,
        // and immune to whatever is killing the workers. A panic here
        // propagates directly and does not count against the breaker
        // (degraded runs measure pool health, not kernel health).
        obs::add(obs::Counter::PoolDegradedRuns, 1);
        leaf(0, len);
        return;
    }
    obs::add(obs::Counter::PoolJobs, 1);
    // Each seed splits into ~4 leaves, giving thieves something to take
    // without shrinking tasks below a useful size.
    let grain = (len / (width * 4)).max(1);
    let job = JobShared {
        // SAFETY: lifetime erasure justified by the latch wait below.
        run: unsafe {
            std::mem::transmute::<
                &(dyn Fn(usize, usize) + Sync),
                &'static (dyn Fn(usize, usize) + Sync),
            >(leaf)
        },
        pending: AtomicUsize::new(width),
        width,
        grain,
        done: Mutex::new(false),
        done_cv: Condvar::new(),
        panic: Mutex::new(None),
    };
    let base = len / width;
    let rem = len % width;
    let mut start = 0;
    for i in 0..width {
        let size = base + usize::from(i < rem);
        pool.push(
            i,
            Task::Range {
                job: &job,
                start,
                end: start + size,
                pinned: false,
            },
        );
        start += size;
    }
    let watchdog_ms = JOB_WATCHDOG_MS.load(Ordering::Relaxed);
    let mut done = lock(&job.done);
    if watchdog_ms == 0 {
        while !*done {
            done = job.done_cv.wait(done).unwrap_or_else(|e| e.into_inner());
        }
    } else {
        let deadline = Duration::from_millis(watchdog_ms);
        while !*done {
            let (guard, timeout) = job
                .done_cv
                .wait_timeout(done, deadline)
                .unwrap_or_else(|e| e.into_inner());
            done = guard;
            if timeout.timed_out() && !*done {
                // Deadline blown: stop trusting the workers and drain
                // whatever is still queued on the submitting thread.
                // Tasks already *executing* on a live worker still settle
                // through their own latch guards; we re-wait after.
                obs::add(obs::Counter::PoolWatchdogTrips, 1);
                drop(done);
                pool.drain_job_inline(&job);
                done = lock(&job.done);
            }
        }
    }
    drop(done);
    let payload = lock(&job.panic).take();
    match payload {
        Some(payload) => {
            breaker_record_failure();
            resume_unwind(payload);
        }
        None => breaker_record_success(),
    }
}

/// Runs `leaf(start, end)` over sub-ranges of `0..len`, in parallel when
/// the effective width allows, inline otherwise (width 1, trivial length,
/// or nested inside a worker).
fn drive_range(len: usize, leaf: &(dyn Fn(usize, usize) + Sync)) {
    if len == 0 {
        return;
    }
    let width = current_num_threads();
    if width <= 1 || len == 1 || worker_index().is_some() {
        if worker_index().is_some() {
            obs::add(obs::Counter::PoolInlineNested, 1);
        }
        leaf(0, len);
        return;
    }
    run_job(len, width, leaf);
}

/// Runs `f(worker_index)` exactly once on every live pool worker and
/// blocks until all have finished (rayon's `broadcast`, with the context
/// reduced to the index). Spawns workers up to the current effective
/// width first, so a following `par_*` call finds them warm. Called from
/// inside the pool it degenerates to `f(own_index)`.
pub fn broadcast<F>(f: F)
where
    F: Fn(usize) + Send + Sync,
{
    if let Some(me) = worker_index() {
        f(me);
        return;
    }
    let pool = pool();
    pool.ensure_workers(current_num_threads().max(1));
    let n = pool.live_workers();
    if n == 0 {
        return;
    }
    obs::add(obs::Counter::PoolJobs, 1);
    let leaf = |s: usize, _e: usize| f(s);
    let dyn_leaf: &(dyn Fn(usize, usize) + Sync) = &leaf;
    let job = JobShared {
        // SAFETY: as in `run_job` — the latch wait keeps `leaf` alive.
        run: unsafe {
            std::mem::transmute::<
                &(dyn Fn(usize, usize) + Sync),
                &'static (dyn Fn(usize, usize) + Sync),
            >(dyn_leaf)
        },
        pending: AtomicUsize::new(n),
        width: n,
        grain: 1,
        done: Mutex::new(false),
        done_cv: Condvar::new(),
        panic: Mutex::new(None),
    };
    for i in 0..n {
        pool.push(
            i,
            Task::Range {
                job: &job,
                start: i,
                end: i + 1,
                pinned: true,
            },
        );
    }
    let mut done = lock(&job.done);
    while !*done {
        done = job.done_cv.wait(done).unwrap_or_else(|e| e.into_inner());
    }
    drop(done);
    let payload = lock(&job.panic).take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// Round-robin cursor distributing [`spawn`]ed tasks across workers.
static SPAWN_CURSOR: AtomicUsize = AtomicUsize::new(0);

/// Submits a detached closure to the persistent pool and returns
/// immediately (rayon's `spawn`): the closure runs once on whichever
/// worker pops or steals it, and **no thread ever blocks on it** — not
/// the submitter (there is no latch) and no pool worker (the closure is
/// ordinary queue work, stealable like any task). This is the
/// submit-from-outside entry the stream engine pipelines frames
/// through: the dispatcher hands a frame to the pool and moves straight
/// on to admitting the next one.
///
/// Contract differences from latched jobs:
///
/// * Completion is the closure's own business — signal through an
///   `Arc`/channel captured by `f` if the submitter needs to know.
/// * A panic escaping `f` is **not** carried anywhere: it unwinds the
///   worker (respawned by the self-healing guard) and the closure,
///   already consumed, never re-runs. Callers needing panic isolation
///   catch inside `f`; the stream engine's slot lease is the worked
///   example (outcome recorded and slot released from a drop guard).
/// * The circuit breaker neither gates nor counts detached tasks; it
///   measures latched-job health.
pub fn spawn<F>(f: F)
where
    F: FnOnce() + Send + 'static,
{
    let pool = pool();
    if let Some(me) = worker_index() {
        // From inside the pool: queue on our own deque (never block).
        pool.push(me, Task::Once(Box::new(f)));
        return;
    }
    let n = pool.ensure_workers(current_num_threads().max(1)).max(1);
    let target = SPAWN_CURSOR.fetch_add(1, Ordering::Relaxed) % n;
    pool.push(target, Task::Once(Box::new(f)));
}

// ---------------------------------------------------------------------------
// Public rayon-compatible surface
// ---------------------------------------------------------------------------

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// Creates a builder with default (host) parallelism.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker-thread count (0 = host parallelism, as rayon).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = if n == 0 { None } else { Some(n) };
        self
    }

    /// Builds the pool handle. Worker threads for the requested width are
    /// spawned now (each at most once, process-wide) so the first
    /// `install`ed parallel call runs at full width; repeated builds
    /// never respawn anything. `Result` mirrors rayon's API.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = self.num_threads.unwrap_or_else(host_parallelism);
        if threads > 1 {
            pool().ensure_workers(threads);
        }
        Ok(ThreadPool { threads })
    }
}

/// Error type mirroring rayon's (never produced by this shim).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// A configured degree of parallelism over the process-wide persistent
/// pool. `install` scopes this width over the closure — jobs submitted
/// inside seed and admit at most `threads` workers — without spawning or
/// parking anything.
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Runs `f` with this pool's thread count governing parallel
    /// iterators. Nested installs are scoped: the innermost width wins
    /// and the previous width is restored on exit.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        INSTALLED_THREADS.with(|t| {
            let prev = t.replace(Some(self.threads));
            let out = f();
            t.set(prev);
            out
        })
    }

    /// The configured thread count.
    pub fn current_num_threads(&self) -> usize {
        self.threads
    }
}

/// Types convertible into a parallel iterator.
pub trait IntoParallelIterator {
    /// Element type.
    type Item: Send;
    /// Concrete iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Converts into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

/// The parallel-iterator operations this workspace uses.
pub trait ParallelIterator: Sized {
    /// Element type.
    type Item: Send;

    /// Consumes the iterator, applying `f` to every element in parallel.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Send + Sync;

    /// Pairs every element with its index (indices are assigned in the
    /// original order, independent of the execution schedule).
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { inner: self }
    }
}

/// Raw-pointer wrapper so leaf closures can address a shared buffer whose
/// disjoint elements they own by index.
struct SendPtr<T>(*mut T);

// SAFETY: used only to move `T: Send` values across threads; every index
// is read by exactly one leaf of one task.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Parallel iterator over an owned `Vec`.
pub struct VecParIter<T> {
    items: Vec<T>,
}

impl<T: Send> VecParIter<T> {
    /// Runs `f(index, item)` over all items.
    ///
    /// The buffer is consumed in place: leaves move elements out of the
    /// single allocation by index (`ptr::read` over disjoint sub-ranges),
    /// so no per-chunk `Vec`s are ever created. If a leaf panics, the
    /// unread elements of that leaf's range leak (they are never
    /// double-dropped); the panic then propagates to the caller.
    fn drive<F>(self, f: F)
    where
        F: Fn(usize, T) + Send + Sync,
    {
        let mut items = self.items;
        let len = items.len();
        if len == 0 {
            return;
        }
        let width = current_num_threads();
        if width <= 1 || len == 1 || worker_index().is_some() {
            if worker_index().is_some() {
                obs::add(obs::Counter::PoolInlineNested, 1);
            }
            for (i, item) in items.into_iter().enumerate() {
                f(i, item);
            }
            return;
        }
        let base = SendPtr(items.as_mut_ptr());
        // SAFETY: ownership of the elements transfers to the job; the
        // vector is left empty so it frees only its capacity afterwards.
        unsafe { items.set_len(0) };
        let base = &base;
        run_job(len, width, &move |s: usize, e: usize| {
            for i in s..e {
                // SAFETY: leaves cover disjoint sub-ranges of 0..len,
                // each exactly once; `base` outlives the job latch.
                let item = unsafe { std::ptr::read(base.0.add(i)) };
                f(i, item);
            }
        });
    }
}

impl<T: Send> ParallelIterator for VecParIter<T> {
    type Item = T;

    fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Send + Sync,
    {
        self.drive(move |_, item| f(item));
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = VecParIter<T>;

    fn into_par_iter(self) -> VecParIter<T> {
        VecParIter { items: self }
    }
}

/// Parallel iterator over `Range<usize>`.
pub struct RangeParIter {
    range: Range<usize>,
}

impl ParallelIterator for RangeParIter {
    type Item = usize;

    fn for_each<F>(self, f: F)
    where
        F: Fn(usize) + Send + Sync,
    {
        // Indices are computed from the sub-range bounds — no
        // materialised index buffer, no allocation at all.
        let start = self.range.start;
        let len = self.range.end.saturating_sub(start);
        drive_range(len, &|s: usize, e: usize| {
            for i in s..e {
                f(start + i);
            }
        });
    }
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    type Iter = RangeParIter;

    fn into_par_iter(self) -> RangeParIter {
        RangeParIter { range: self }
    }
}

/// Index-pairing adapter returned by [`ParallelIterator::enumerate`].
pub struct Enumerate<I> {
    inner: I,
}

impl<T: Send> ParallelIterator for Enumerate<VecParIter<T>> {
    type Item = (usize, T);

    fn for_each<F>(self, f: F)
    where
        F: Fn((usize, T)) + Send + Sync,
    {
        self.inner.drive(move |i, item| f((i, item)));
    }
}

impl ParallelIterator for Enumerate<RangeParIter> {
    type Item = (usize, usize);

    fn for_each<F>(self, f: F)
    where
        F: Fn((usize, usize)) + Send + Sync,
    {
        let start = self.inner.range.start;
        let len = self.inner.range.end.saturating_sub(start);
        drive_range(len, &|s: usize, e: usize| {
            for i in s..e {
                f((i, start + i));
            }
        });
    }
}

/// Glob-import module mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::thread::ThreadId;

    /// A pool wide enough to schedule off the main thread even on a
    /// single-core CI host.
    fn wide_pool() -> super::ThreadPool {
        super::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap()
    }

    #[test]
    fn for_each_visits_every_item_once() {
        let hits = AtomicUsize::new(0);
        let items: Vec<usize> = (0..1000).collect();
        items.into_par_iter().for_each(|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn enumerate_indices_match_original_order() {
        let items: Vec<u32> = (0..500).map(|i| i * 3).collect();
        let sum = AtomicUsize::new(0);
        wide_pool().install(|| {
            items
                .clone()
                .into_par_iter()
                .enumerate()
                .for_each(|(i, v)| {
                    assert_eq!(v, items[i]);
                    sum.fetch_add(1, Ordering::Relaxed);
                });
        });
        assert_eq!(sum.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn mutable_slices_are_written_in_parallel() {
        let mut data = [0u8; 64];
        let rows: Vec<&mut [u8]> = data.chunks_mut(8).collect();
        wide_pool().install(|| {
            rows.into_par_iter().enumerate().for_each(|(i, row)| {
                for b in row.iter_mut() {
                    *b = i as u8;
                }
            });
        });
        for (i, chunk) in data.chunks(8).enumerate() {
            assert!(chunk.iter().all(|&b| b == i as u8));
        }
    }

    #[test]
    fn owned_values_are_consumed_exactly_once() {
        let items: Vec<String> = (0..300).map(|i| format!("item-{i}")).collect();
        let seen = Mutex::new(HashSet::new());
        wide_pool().install(|| {
            items.into_par_iter().for_each(|s| {
                assert!(seen.lock().unwrap().insert(s), "duplicate delivery");
            });
        });
        assert_eq!(seen.lock().unwrap().len(), 300);
    }

    #[test]
    fn pool_install_overrides_thread_count() {
        let pool = super::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        pool.install(|| {
            assert_eq!(super::current_num_threads(), 2);
        });
        let pool1 = super::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        pool1.install(|| {
            // Single-threaded path runs inline.
            let items: Vec<usize> = (0..10).collect();
            let tid = std::thread::current().id();
            items.into_par_iter().for_each(|_| {
                assert_eq!(std::thread::current().id(), tid);
            });
        });
    }

    #[test]
    fn nested_install_restores_outer_width() {
        let outer = super::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let inner = super::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        outer.install(|| {
            assert_eq!(super::current_num_threads(), 2);
            inner.install(|| assert_eq!(super::current_num_threads(), 4));
            assert_eq!(super::current_num_threads(), 2);
        });
        // Outside any install the host default is back in force.
        assert_eq!(
            super::current_num_threads(),
            std::thread::available_parallelism().map_or(1, |n| n.get())
        );
    }

    #[test]
    fn range_par_iter_covers_range() {
        let hits = AtomicUsize::new(0);
        wide_pool().install(|| {
            (5..105usize).into_par_iter().for_each(|v| {
                assert!((5..105).contains(&v));
                hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn range_enumerate_pairs_offset_with_value() {
        let sum = AtomicUsize::new(0);
        wide_pool().install(|| {
            (10..74usize)
                .into_par_iter()
                .enumerate()
                .for_each(|(i, v)| {
                    assert_eq!(v, i + 10);
                    sum.fetch_add(1, Ordering::Relaxed);
                });
        });
        assert_eq!(sum.load(Ordering::Relaxed), 64);
    }

    /// The thread-id sets observed by parallel work and by `broadcast`
    /// across many calls: workers must be spawned once and reused, never
    /// respawned per call.
    #[test]
    fn pool_spawns_workers_once_across_repeated_calls() {
        let pool = wide_pool();
        let collect_round = || {
            let ids: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
            pool.install(|| {
                for _ in 0..20 {
                    (0..128usize).into_par_iter().for_each(|_| {
                        ids.lock().unwrap().insert(std::thread::current().id());
                    });
                }
                super::broadcast(|_| {
                    ids.lock().unwrap().insert(std::thread::current().id());
                });
            });
            ids.into_inner().unwrap()
        };
        let first = collect_round();
        assert!(!first.is_empty());
        assert!(
            !first.contains(&std::thread::current().id()),
            "width-4 jobs must run on pool workers, not the submitter"
        );
        for round in 0..10 {
            let again = collect_round();
            assert!(
                again.is_subset(&first),
                "round {round} saw new worker threads: pool respawned"
            );
        }
    }

    #[test]
    fn broadcast_reaches_every_worker_exactly_once() {
        let pool = wide_pool();
        let indices: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        pool.install(|| {
            super::broadcast(|i| indices.lock().unwrap().push(i));
        });
        let mut indices = indices.into_inner().unwrap();
        indices.sort_unstable();
        // At least the four ensured workers; each index exactly once.
        assert!(indices.len() >= 4);
        let unique: HashSet<_> = indices.iter().collect();
        assert_eq!(unique.len(), indices.len(), "worker ran broadcast twice");
    }

    #[test]
    fn nested_parallel_calls_run_inline_without_deadlock() {
        let hits = AtomicUsize::new(0);
        wide_pool().install(|| {
            (0..8usize).into_par_iter().for_each(|_| {
                (0..16usize).into_par_iter().for_each(|_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 128);
    }

    #[test]
    #[should_panic(expected = "boom at 37")]
    fn worker_panic_propagates_to_the_caller() {
        wide_pool().install(|| {
            (0..64usize).into_par_iter().for_each(|i| {
                if i == 37 {
                    panic!("boom at 37");
                }
            });
        });
    }

    /// Scheduler stress: thousands of small jobs, including concurrent
    /// submitters, ragged lengths and zero-length ranges. Exercises
    /// seeding, splitting, stealing, parking and the latch under churn;
    /// wired into `scripts/ci.sh` so regressions fail fast.
    #[test]
    fn pool_stress_many_small_calls() {
        let pool = wide_pool();
        pool.install(|| {
            for n in 0..400usize {
                let hits = AtomicUsize::new(0);
                (0..n % 23).into_par_iter().for_each(|_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
                assert_eq!(hits.load(Ordering::Relaxed), n % 23);
            }
        });
        // Concurrent submitters from plain OS threads, each with its own
        // installed width.
        std::thread::scope(|s| {
            for t in 1..=4usize {
                s.spawn(move || {
                    let p = super::ThreadPoolBuilder::new()
                        .num_threads(t)
                        .build()
                        .unwrap();
                    p.install(|| {
                        for n in [1usize, 2, 3, 7, 64, 129] {
                            let sum = AtomicUsize::new(0);
                            (0..n).into_par_iter().for_each(|i| {
                                sum.fetch_add(i + 1, Ordering::Relaxed);
                            });
                            assert_eq!(sum.load(Ordering::Relaxed), n * (n + 1) / 2);
                        }
                    });
                });
            }
        });
    }
}
