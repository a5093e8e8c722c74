//! Pool telemetry aggregation: counters recorded from worker threads
//! land in per-thread sinks; `obs::snapshot()` must fold them into
//! totals that match a serial reference computed with shared atomics.
//!
//! This is one test function (not several) because `obs` state is
//! process-global and integration tests run on a shared thread pool.

use std::sync::atomic::{AtomicU64, Ordering};

#[test]
fn pool_counter_aggregation_matches_serial_reference() {
    obs::set_enabled(true);
    obs::reset();

    const JOBS: usize = 8;
    const ITEMS: usize = 503; // odd, so chunk splits are uneven
    let reference = AtomicU64::new(0);

    for _ in 0..JOBS {
        rayon::for_each((0..ITEMS).collect(), 4, |i: usize| {
            obs::add(obs::Counter::PipelineBands, 1);
            obs::add(obs::Counter::PipelineHaloRows, i as u64);
            obs::record(obs::HistId::PipelineBandNanos, (i as u64) + 1);
            reference.fetch_add(1, Ordering::Relaxed);
        });
    }

    let snap = obs::snapshot();
    let expected = (JOBS * ITEMS) as u64;
    assert_eq!(reference.load(Ordering::Relaxed), expected);

    // Per-item counters: every increment from every worker is visible.
    assert_eq!(snap.counter(obs::Counter::PipelineBands), expected);
    let halo_sum: u64 = (0..ITEMS as u64).sum();
    assert_eq!(
        snap.counter(obs::Counter::PipelineHaloRows),
        halo_sum * JOBS as u64
    );

    // Histogram records aggregate too, with exact count/min/max.
    let hist = snap.hist(obs::HistId::PipelineBandNanos);
    assert_eq!(hist.count, expected);
    assert_eq!(hist.min, 1);
    assert_eq!(hist.max, ITEMS as u64);

    // The scheduler's own counters: each for_each call is one job.
    assert_eq!(snap.counter(obs::Counter::PoolJobs), JOBS as u64);
    assert!(snap.counter(obs::Counter::PoolTasks) >= JOBS as u64);
    // Work ran on more than the submitting thread.
    assert!(snap.threads >= 2, "threads = {}", snap.threads);

    // Steal attribution never exceeds the total steal count.
    let attributed: u64 = snap.steal_victims.iter().sum();
    assert_eq!(attributed, snap.counter(obs::Counter::PoolSteals));

    // reset() returns every aggregate to zero without dropping sinks.
    obs::reset();
    let clean = obs::snapshot();
    assert_eq!(clean.counter(obs::Counter::PipelineBands), 0);
    assert_eq!(clean.counter(obs::Counter::PoolJobs), 0);
    assert_eq!(clean.hist(obs::HistId::PipelineBandNanos).count, 0);

    obs::set_enabled(false);
}
