//! The workspace's own scheduler: a **persistent work-stealing thread
//! pool** that runs the fused pipeline's bands ([`for_each`]), the stream
//! engine's frames ([`spawn`]) and per-worker setup ([`broadcast`]).
//!
//! It is not a stand-in for the `rayon` crate and implements none of its
//! iterator or pool-handle API. The package keeps the name `rayon` only
//! because the benchmark crate pins it as a path dependency under that
//! name.
//!
//! # Scheduler architecture
//!
//! * **Workers are spawned once.** The pool structure is created behind a
//!   `OnceLock` on first use; worker threads are spawned lazily as jobs
//!   request width, each thread exactly once, and then live for the rest
//!   of the process parked on a condvar when idle. A [`for_each`] call
//!   costs a few queue pushes and one condvar round-trip — not `t` OS thread
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
//!   so worker closures may borrow the submitter's stack (the band
//!   destination slices flow through unchanged). Worker panics are caught, carried to
//!   the latch, and re-raised on the submitting thread.
//! * **Width per call, without respawning.** The `threads` argument of
//!   [`for_each`] governs how many workers that one job seeds and admits
//!   (task eligibility is `worker_index < job_width`), while the workers
//!   themselves are the same process-wide threads.
//!
//! Nested [`for_each`] calls issued from inside a worker run inline
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
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

thread_local! {
    /// Index of the pool worker running on this thread, if any.
    static WORKER_INDEX: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The host's parallelism: the default width callers pass to
/// [`for_each`], and the worker count [`broadcast`] and [`spawn`] ensure.
///
/// Read once per process: `available_parallelism` reads cgroup files on
/// every call (14–16 µs on Linux), and `spawn` asks once per stream frame.
pub fn current_num_threads() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Index of the pool worker executing the current code, or `None` when
/// called from outside the pool (the pool uses it to run nested calls
/// inline).
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
    /// of this job. This is what makes a call's `threads` an effective
    /// width on a pool with more live workers than that.
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
/// eight, so `threads` values beyond the core count still schedule
/// through the real pool (oversubscription is how the scheduler tests
/// exercise stealing on small CI hosts).
fn pool() -> &'static Pool {
    static POOL: OnceLock<&'static Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let slots = (current_num_threads() * 2).max(8);
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
                .name(format!("pool-worker-{index}"))
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
                        .name(format!("pool-worker-{index}"))
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

/// Runs `f(worker_index)` exactly once on every spawned pool worker and
/// blocks until all have finished. Spawns workers up to the host's
/// parallelism first, so a following host-wide [`for_each`] finds them
/// warm; workers a wider call spawned earlier are reached too. Called
/// from inside the pool it degenerates to `f(own_index)`.
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
/// immediately: the closure runs once on whichever
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

/// Raw-pointer wrapper so leaf closures can address a shared buffer whose
/// disjoint elements they own by index.
struct SendPtr<T>(*mut T);

// SAFETY: used only to move `T: Send` values across threads; every index
// is read by exactly one leaf of one task.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Runs `f` once on every element of `items`, over up to `threads` pool
/// workers, and returns when all have run. This is the pool's one
/// latched parallel job: the fused pipeline hands it one item per band.
///
/// It runs inline on the calling thread, in order, when `threads <= 1`,
/// when there is only one item, or when called from a pool worker
/// (nesting never blocks a worker). Otherwise the buffer is consumed in
/// place: leaves move elements out of the single allocation by index
/// (`ptr::read` over disjoint sub-ranges), so no per-chunk `Vec`s are
/// ever created. If a leaf panics, the unread elements of that leaf's
/// range leak (they are never double-dropped); the panic then propagates
/// to the caller.
pub fn for_each<T: Send>(mut items: Vec<T>, threads: usize, f: impl Fn(T) + Send + Sync) {
    let len = items.len();
    if len == 0 {
        return;
    }
    if threads <= 1 || len == 1 || worker_index().is_some() {
        if worker_index().is_some() {
            obs::add(obs::Counter::PoolInlineNested, 1);
        }
        items.into_iter().for_each(f);
        return;
    }
    let base = SendPtr(items.as_mut_ptr());
    // SAFETY: ownership of the elements transfers to the job; the
    // vector is left empty so it frees only its capacity afterwards.
    unsafe { items.set_len(0) };
    let base = &base;
    run_job(len, threads, &move |s: usize, e: usize| {
        for i in s..e {
            // SAFETY: leaves cover disjoint sub-ranges of 0..len,
            // each exactly once; `base` outlives the job latch.
            f(unsafe { std::ptr::read(base.0.add(i)) });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::for_each;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::thread::ThreadId;

    /// Wide enough to schedule off the calling thread even on a
    /// single-core CI host.
    const WIDE: usize = 4;

    #[test]
    fn for_each_visits_every_item_once() {
        let hits = AtomicUsize::new(0);
        let items: Vec<usize> = (0..1000).collect();
        for_each(items, WIDE, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn mutable_slices_are_written_in_parallel() {
        let mut data = [0u8; 64];
        let rows: Vec<(usize, &mut [u8])> = data.chunks_mut(8).enumerate().collect();
        for_each(rows, WIDE, |(i, row)| {
            for b in row.iter_mut() {
                *b = i as u8;
            }
        });
        for (i, chunk) in data.chunks(8).enumerate() {
            assert!(chunk.iter().all(|&b| b == i as u8));
        }
    }

    #[test]
    fn owned_values_are_consumed_exactly_once() {
        let items: Vec<String> = (0..300).map(|i| format!("item-{i}")).collect();
        let seen = Mutex::new(HashSet::new());
        for_each(items, WIDE, |s| {
            assert!(seen.lock().unwrap().insert(s), "duplicate delivery");
        });
        assert_eq!(seen.lock().unwrap().len(), 300);
    }

    #[test]
    fn single_thread_calls_run_inline_on_the_caller() {
        let tid = std::thread::current().id();
        for_each((0..10).collect(), 1, |_: usize| {
            assert_eq!(std::thread::current().id(), tid);
        });
    }

    /// The thread-id sets observed by parallel work and by `broadcast`
    /// across many calls: workers must be spawned once and reused, never
    /// respawned per call.
    #[test]
    fn pool_spawns_workers_once_across_repeated_calls() {
        let collect_round = || {
            let ids: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
            for _ in 0..20 {
                for_each((0..128).collect(), WIDE, |_: usize| {
                    ids.lock().unwrap().insert(std::thread::current().id());
                });
            }
            super::broadcast(|_| {
                ids.lock().unwrap().insert(std::thread::current().id());
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
        // One 4-wide call spawns the four workers broadcast must reach.
        for_each(vec![(); WIDE], WIDE, |()| ());
        let indices: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        super::broadcast(|i| indices.lock().unwrap().push(i));
        let mut indices = indices.into_inner().unwrap();
        indices.sort_unstable();
        // At least the four spawned workers; each index exactly once.
        assert!(indices.len() >= WIDE);
        let unique: HashSet<_> = indices.iter().collect();
        assert_eq!(unique.len(), indices.len(), "worker ran broadcast twice");
    }

    #[test]
    fn nested_parallel_calls_run_inline_without_deadlock() {
        let hits = AtomicUsize::new(0);
        for_each((0..8).collect(), WIDE, |_: usize| {
            for_each((0..16).collect(), WIDE, |_: usize| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 128);
    }

    #[test]
    #[should_panic(expected = "boom at 37")]
    fn worker_panic_propagates_to_the_caller() {
        for_each((0..64).collect(), WIDE, |i: usize| {
            if i == 37 {
                panic!("boom at 37");
            }
        });
    }

    /// Scheduler stress: thousands of small jobs, including concurrent
    /// submitters at different widths, ragged lengths and empty item
    /// lists. Exercises seeding, splitting, stealing, parking and the
    /// latch under churn; wired into `scripts/ci.sh` so regressions fail
    /// fast.
    #[test]
    fn pool_stress_many_small_calls() {
        for n in 0..400usize {
            let hits = AtomicUsize::new(0);
            for_each((0..n % 23).collect(), WIDE, |_: usize| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), n % 23);
        }
        // Concurrent submitters from plain OS threads, each at its own
        // width. A job's width is its own: no item may run on a worker
        // at or beyond it, whatever the other submitters ask for.
        std::thread::scope(|s| {
            for t in 1..=WIDE {
                s.spawn(move || {
                    for n in [1usize, 2, 3, 7, 64, 129] {
                        let sum = AtomicUsize::new(0);
                        for_each((0..n).collect(), t, |i: usize| {
                            if let Some(w) = super::worker_index() {
                                assert!(w < t, "width-{t} job ran on worker {w}");
                            }
                            sum.fetch_add(i + 1, Ordering::Relaxed);
                        });
                        assert_eq!(sum.load(Ordering::Relaxed), n * (n + 1) / 2);
                    }
                });
            }
        });
    }
}
