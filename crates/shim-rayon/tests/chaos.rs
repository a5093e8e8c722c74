//! Pool self-healing under deterministic fault injection: worker death
//! and respawn, task-panic propagation feeding the circuit breaker,
//! degraded serial runs, the half-open probe, and the job watchdog's
//! inline help-drain.
//!
//! This is one test function (not several) because faultline, the
//! breaker, the watchdog and `obs` are all process-global and the
//! integration binary shares one worker pool.

use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One parallel sum over `0..n`; returns whether the job panicked and
/// the accumulated total (correct iff every index ran exactly once).
fn par_sum(pool: &rayon::ThreadPool, n: usize) -> (bool, usize) {
    let sum = AtomicUsize::new(0);
    let panicked = pool.install(|| {
        catch_unwind(AssertUnwindSafe(|| {
            (0..n).into_par_iter().for_each(|i| {
                sum.fetch_add(i + 1, Ordering::Relaxed);
            });
        }))
        .is_err()
    });
    (panicked, sum.load(Ordering::Relaxed))
}

fn expected_sum(n: usize) -> usize {
    n * (n + 1) / 2
}

/// Waits until at least `want` pool workers are live; fails the test if
/// the census is still short after a 10 s window.
fn wait_for_live_workers(want: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while rayon::pool_live_workers() < want {
        assert!(
            Instant::now() < deadline,
            "pool stuck at {}/{} live workers after 10 s",
            rayon::pool_live_workers(),
            want
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn pool_self_heals_under_injected_faults() {
    faultline::disarm_all();
    rayon::reset_circuit_breaker();
    rayon::set_job_watchdog(None);
    obs::set_enabled(true);
    obs::reset();

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .expect("pool build");

    // Warm-up: spawn the workers and establish the healthy complement. A
    // worker counts itself live only once its thread has started, so wait
    // for the census to reach the pool width before taking the snapshot.
    let (panicked, sum) = par_sum(&pool, 503);
    assert!(!panicked);
    assert_eq!(sum, expected_sum(503));
    wait_for_live_workers(pool.current_num_threads());
    let complement = rayon::pool_live_workers();
    assert!(complement >= 4, "complement = {complement}");

    // --- Phase 1: worker death and respawn -----------------------------
    // Every executed task kills its worker *after* settling the latch:
    // jobs must still complete with correct results, and the respawn
    // guard must restore the full complement once disarmed.
    faultline::arm("pool.worker", faultline::Action::Panic, 1.0, 0xD1E);
    for _ in 0..3 {
        let (panicked, sum) = par_sum(&pool, 257);
        assert!(!panicked, "worker death must not surface as a job panic");
        assert_eq!(sum, expected_sum(257), "worker death lost work");
    }
    faultline::disarm("pool.worker");
    wait_for_live_workers(complement);
    let snap = obs::snapshot();
    assert!(
        snap.counter(obs::Counter::PoolRespawns) >= 1,
        "worker deaths must be counted as respawns"
    );
    assert!(
        !rayon::circuit_breaker_open(),
        "clean jobs must not trip the breaker"
    );

    // --- Phase 2: task panics open the breaker; degraded serial runs ---
    faultline::arm("pool.task", faultline::Action::Panic, 1.0, 0xBAD);
    for round in 0..3 {
        let (panicked, _) = par_sum(&pool, 257);
        assert!(panicked, "round {round}: injected task panic must surface");
    }
    faultline::disarm("pool.task");
    assert!(
        rayon::circuit_breaker_open(),
        "three consecutive job failures must open the breaker"
    );
    // Open breaker: the cooldown window serves serial in-caller runs
    // that are degraded but correct.
    let degraded_before = obs::snapshot().counter(obs::Counter::PoolDegradedRuns);
    let (panicked, sum) = par_sum(&pool, 257);
    assert!(!panicked);
    assert_eq!(
        sum,
        expected_sum(257),
        "degraded serial run must be correct"
    );
    let degraded_after = obs::snapshot().counter(obs::Counter::PoolDegradedRuns);
    assert_eq!(
        degraded_after,
        degraded_before + 1,
        "open breaker must route the job through the degraded serial path"
    );
    // Exhaust the cooldown; the next job is the half-open parallel
    // probe, and its success closes the breaker.
    for _ in 0..16 {
        let (panicked, sum) = par_sum(&pool, 101);
        assert!(!panicked);
        assert_eq!(sum, expected_sum(101));
        if !rayon::circuit_breaker_open() {
            break;
        }
    }
    assert!(
        !rayon::circuit_breaker_open(),
        "successful half-open probe must close the breaker"
    );

    // --- Phase 3: watchdog help-drain under injected task delays -------
    // Every executed pool task stalls 30 ms; the submitter's 5 ms
    // watchdog trips and drains the still-queued tasks inline (without
    // evaluating pool.task), so the job both finishes and finishes
    // correctly.
    faultline::arm("pool.task", faultline::Action::Delay(30), 1.0, 0x51_0e);
    rayon::set_job_watchdog(Some(Duration::from_millis(5)));
    let (panicked, sum) = par_sum(&pool, 256);
    assert!(!panicked);
    assert_eq!(
        sum,
        expected_sum(256),
        "watchdog drain lost or repeated work"
    );
    rayon::set_job_watchdog(None);
    faultline::disarm_all();
    let snap = obs::snapshot();
    assert!(
        snap.counter(obs::Counter::PoolWatchdogTrips) >= 1,
        "a 5 ms deadline against 30 ms tasks must trip the watchdog"
    );

    // Leave the process-global state clean for any later telemetry use.
    rayon::reset_circuit_breaker();
    obs::reset();
    obs::set_enabled(false);
}
