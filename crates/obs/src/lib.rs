//! Zero-dependency telemetry for the reproduction: scoped **spans**
//! assembling a nested wall-time tree, cross-thread **counters** and
//! **gauges** (high-water marks), and fixed-bucket log-scale
//! **histograms** — the instrumentation substrate the perf PRs use to
//! justify their numbers (the paper's Section V argues from instruction
//! *mixes*, not single averages; this crate plays the same role for the
//! runtime side).
//!
//! # Cost model
//!
//! Telemetry is **off by default**. Every recording entry point
//! ([`add`], [`gauge_max`], [`record`], [`record_steal`], [`span()`])
//! starts with the same guard: one relaxed atomic load of the global
//! enable flag and one predictable branch — the `op-trace` crate's
//! proven disabled-cost pattern, lifted from a thread-local to a
//! process-global flag because the work-stealing pool's persistent
//! worker threads must observe an enable issued from the main thread.
//! When disabled nothing else runs: no clock reads, no sink lookup, no
//! allocation.
//!
//! # Aggregation model
//!
//! When enabled, each thread records into its own lazily-created
//! **sink** (counters, gauges and histogram buckets are relaxed
//! atomics; completed span trees sit behind a per-sink mutex touched
//! once per root span). Sinks register themselves in a process-wide
//! registry and live for the life of the process — exactly like the
//! pool's worker threads. [`snapshot`] folds every sink into one
//! [`Snapshot`]: counters and histogram buckets sum, gauges take the
//! max, span trees merge by name path.
//!
//! # Snapshot / reset lifecycle
//!
//! Counters accumulate from the moment telemetry is enabled; they are
//! **not** cleared by [`snapshot`]. Back-to-back measurements that must
//! not bleed into each other (e.g. `repro parallel`'s spawn-baseline
//! arm vs. pool arm) call [`reset`] at the boundary: it zeroes every
//! sink in place (registered threads keep recording into the same
//! storage, so no enable/disable round-trip is needed). Spans that are
//! *open* across a reset are unaffected and merge their full duration
//! after they close; don't reset in the middle of a measured region.

#![warn(missing_docs)]

pub mod hist;
pub mod json;
pub mod report;
pub mod span;
pub mod stats;

use hist::{AtomicHistogram, HistData};
use span::SpanNode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Metric identifiers
// ---------------------------------------------------------------------------

/// Monotonically increasing event counters, summed across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Bands processed by the fused pipeline (any kernel, any scheduler).
    PipelineBands,
    /// Halo rows whose horizontal pass was recomputed because the band
    /// boundary cut through a stencil neighbourhood.
    PipelineHaloRows,
    /// Bytes of scratch-arena buffer the allocator had to provide
    /// (growth included; reuse is free and therefore uncounted).
    ScratchBytesAllocated,
    /// Individual buffers the scratch ledger allocated or grew.
    ScratchBuffersGrown,
    /// Jobs submitted to the work-stealing pool (one per `par_*` call
    /// that actually went parallel, plus one per `broadcast`).
    PoolJobs,
    /// Tasks executed by pool workers (seeds plus split halves).
    PoolTasks,
    /// Successful steals (a task taken from another worker's deque).
    PoolSteals,
    /// Times a worker parked on the idle condvar.
    PoolParks,
    /// Times a parked worker was woken.
    PoolWakeups,
    /// Nested parallel calls that ran inline inside a worker.
    PoolInlineNested,
    /// Worker threads respawned after dying outside `catch_unwind`
    /// (the pool's self-healing drop-guard).
    PoolRespawns,
    /// Jobs executed serially in-caller because the circuit breaker was
    /// open (degraded mode after consecutive job failures).
    PoolDegradedRuns,
    /// Times a submitting thread's per-job watchdog deadline expired and
    /// it started draining the job's queued tasks itself.
    PoolWatchdogTrips,
    /// Timed passes executed by the measurement harness.
    HarnessPasses,
    /// Frames accepted into the stream engine's admission queue.
    StreamAdmitted,
    /// Frames refused at admission (queue full, or reduced admission
    /// while the circuit breaker is open).
    StreamRejected,
    /// Frames shed by the dispatcher because their deadline had already
    /// passed when they reached the head of the queue.
    StreamShed,
    /// Frames that completed processing and produced output.
    StreamCompleted,
    /// Frames whose processing returned an error or was abandoned by a
    /// dying worker (chaos runs; zero in production configuration).
    StreamFailed,
    /// Frames processed serially by the dispatcher because the pool's
    /// circuit breaker was open (graceful degradation).
    StreamDegradedFrames,
}

impl Counter {
    /// Every counter, in display order.
    pub const ALL: [Counter; 20] = [
        Counter::PipelineBands,
        Counter::PipelineHaloRows,
        Counter::ScratchBytesAllocated,
        Counter::ScratchBuffersGrown,
        Counter::PoolJobs,
        Counter::PoolTasks,
        Counter::PoolSteals,
        Counter::PoolParks,
        Counter::PoolWakeups,
        Counter::PoolInlineNested,
        Counter::PoolRespawns,
        Counter::PoolDegradedRuns,
        Counter::PoolWatchdogTrips,
        Counter::HarnessPasses,
        Counter::StreamAdmitted,
        Counter::StreamRejected,
        Counter::StreamShed,
        Counter::StreamCompleted,
        Counter::StreamFailed,
        Counter::StreamDegradedFrames,
    ];

    /// Index into the per-sink counter array.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Dotted metric name used in reports and JSON.
    pub const fn name(self) -> &'static str {
        match self {
            Counter::PipelineBands => "pipeline.bands",
            Counter::PipelineHaloRows => "pipeline.halo_rows",
            Counter::ScratchBytesAllocated => "scratch.bytes_allocated",
            Counter::ScratchBuffersGrown => "scratch.buffers_grown",
            Counter::PoolJobs => "pool.jobs",
            Counter::PoolTasks => "pool.tasks",
            Counter::PoolSteals => "pool.steals",
            Counter::PoolParks => "pool.parks",
            Counter::PoolWakeups => "pool.wakeups",
            Counter::PoolInlineNested => "pool.inline_nested",
            Counter::PoolRespawns => "pool.respawns",
            Counter::PoolDegradedRuns => "pool.degraded_runs",
            Counter::PoolWatchdogTrips => "pool.watchdog_trips",
            Counter::HarnessPasses => "harness.passes",
            Counter::StreamAdmitted => "stream.admitted",
            Counter::StreamRejected => "stream.rejected",
            Counter::StreamShed => "stream.shed",
            Counter::StreamCompleted => "stream.completed",
            Counter::StreamFailed => "stream.failed",
            Counter::StreamDegradedFrames => "stream.degraded_frames",
        }
    }
}

/// Number of [`Counter`] variants.
pub const NUM_COUNTERS: usize = Counter::ALL.len();

/// High-water gauges, merged across threads by maximum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gauge {
    /// Largest number of live scratch-arena bytes any single arena held.
    ScratchBytesHighWater,
    /// Deepest any worker deque ever got (tasks queued on one worker).
    PoolDequeDepthHighWater,
    /// Deepest the stream engine's admission queue ever got.
    StreamQueueDepthHighWater,
}

impl Gauge {
    /// Every gauge, in display order.
    pub const ALL: [Gauge; 3] = [
        Gauge::ScratchBytesHighWater,
        Gauge::PoolDequeDepthHighWater,
        Gauge::StreamQueueDepthHighWater,
    ];

    /// Index into the per-sink gauge array.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Dotted metric name used in reports and JSON.
    pub const fn name(self) -> &'static str {
        match self {
            Gauge::ScratchBytesHighWater => "scratch.bytes_high_water",
            Gauge::PoolDequeDepthHighWater => "pool.deque_depth_high_water",
            Gauge::StreamQueueDepthHighWater => "stream.queue_depth_high_water",
        }
    }
}

/// Number of [`Gauge`] variants.
pub const NUM_GAUGES: usize = Gauge::ALL.len();

/// Fixed-bucket log-scale histograms, bucket-wise summed across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistId {
    /// Wall nanoseconds per fused-pipeline band.
    PipelineBandNanos,
    /// Wall nanoseconds per harness measurement pass (one full image).
    HarnessPassNanos,
    /// Wall nanoseconds from a frame's admission to its completion in
    /// the stream engine (queue wait plus processing).
    StreamFrameNanos,
    /// Wall nanoseconds a completed stream frame waited between
    /// admission and the start of its run in a leased slot.
    StreamQueueWaitNanos,
    /// Wall nanoseconds a completed stream frame spent in its slot, from
    /// the start of its run through the kernel and the output checksum.
    StreamServiceNanos,
}

impl HistId {
    /// Every histogram, in display order.
    pub const ALL: [HistId; 5] = [
        HistId::PipelineBandNanos,
        HistId::HarnessPassNanos,
        HistId::StreamFrameNanos,
        HistId::StreamQueueWaitNanos,
        HistId::StreamServiceNanos,
    ];

    /// Index into the per-sink histogram array.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Dotted metric name used in reports and JSON.
    pub const fn name(self) -> &'static str {
        match self {
            HistId::PipelineBandNanos => "pipeline.band_ns",
            HistId::HarnessPassNanos => "harness.pass_ns",
            HistId::StreamFrameNanos => "stream.frame_ns",
            HistId::StreamQueueWaitNanos => "stream.queue_wait_ns",
            HistId::StreamServiceNanos => "stream.service_ns",
        }
    }
}

/// Number of [`HistId`] variants.
pub const NUM_HISTS: usize = HistId::ALL.len();

/// Slots in the steals-by-victim table; victims with higher worker
/// indices fold into the last slot.
pub const STEAL_VICTIM_SLOTS: usize = 32;

// ---------------------------------------------------------------------------
// Enable flag
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether telemetry is currently recording.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns telemetry recording on or off, process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

// ---------------------------------------------------------------------------
// Per-thread sinks
// ---------------------------------------------------------------------------

/// One thread's storage. Lazily allocated, registered globally, leaked
/// (threads — notably pool workers — persist for the process lifetime).
pub(crate) struct Sink {
    counters: [AtomicU64; NUM_COUNTERS],
    gauges: [AtomicU64; NUM_GAUGES],
    hists: [AtomicHistogram; NUM_HISTS],
    steal_victims: [AtomicU64; STEAL_VICTIM_SLOTS],
    /// Completed root spans of this thread, merged by name.
    pub(crate) spans: Mutex<Vec<SpanNode>>,
}

impl Sink {
    fn new() -> Self {
        Sink {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| AtomicHistogram::new()),
            steal_victims: std::array::from_fn(|_| AtomicU64::new(0)),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn reset(&self) {
        for c in &self.counters {
            c.store(0, Ordering::Relaxed);
        }
        for g in &self.gauges {
            g.store(0, Ordering::Relaxed);
        }
        for h in &self.hists {
            h.reset();
        }
        for s in &self.steal_victims {
            s.store(0, Ordering::Relaxed);
        }
        lock_spans(self).clear();
    }
}

pub(crate) fn lock_spans(sink: &Sink) -> std::sync::MutexGuard<'_, Vec<SpanNode>> {
    sink.spans.lock().unwrap_or_else(|e| e.into_inner())
}

fn registry() -> &'static Mutex<Vec<&'static Sink>> {
    static REGISTRY: OnceLock<Mutex<Vec<&'static Sink>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static SINK: std::cell::Cell<Option<&'static Sink>> = const { std::cell::Cell::new(None) };
}

/// The calling thread's sink, created and registered on first use.
pub(crate) fn sink() -> &'static Sink {
    SINK.with(|cell| match cell.get() {
        Some(s) => s,
        None => {
            let s: &'static Sink = Box::leak(Box::new(Sink::new()));
            registry().lock().unwrap_or_else(|e| e.into_inner()).push(s);
            cell.set(Some(s));
            s
        }
    })
}

// ---------------------------------------------------------------------------
// Recording entry points
// ---------------------------------------------------------------------------

/// Adds `n` to a counter (no-op unless telemetry is enabled).
#[inline]
pub fn add(counter: Counter, n: u64) {
    if enabled() {
        sink().counters[counter.index()].fetch_add(n, Ordering::Relaxed);
    }
}

/// Raises a high-water gauge to at least `value`.
#[inline]
pub fn gauge_max(gauge: Gauge, value: u64) {
    if enabled() {
        sink().gauges[gauge.index()].fetch_max(value, Ordering::Relaxed);
    }
}

/// Records one sample into a histogram.
#[inline]
pub fn record(hist: HistId, value: u64) {
    if enabled() {
        sink().hists[hist.index()].record(value);
    }
}

/// Records a successful steal from worker `victim`'s deque.
#[inline]
pub fn record_steal(victim: usize) {
    if enabled() {
        sink().steal_victims[victim.min(STEAL_VICTIM_SLOTS - 1)].fetch_add(1, Ordering::Relaxed);
    }
}

/// Starts a wall-clock timer when telemetry is enabled (`None` when
/// disabled, costing only the flag branch).
#[inline]
pub fn start_timer() -> Option<Instant> {
    if enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Stops a timer from [`start_timer`] and records the elapsed
/// nanoseconds into `hist`. Accepts `None` silently so call sites stay
/// branch-free.
#[inline]
pub fn stop_timer(hist: HistId, timer: Option<Instant>) {
    if let Some(start) = timer {
        record(hist, start.elapsed().as_nanos() as u64);
    }
}

pub use span::{span, SpanGuard};

// ---------------------------------------------------------------------------
// Snapshot / reset
// ---------------------------------------------------------------------------

/// An aggregated, immutable view of every thread's telemetry.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Counter totals, summed across threads, indexed by [`Counter`].
    pub counters: [u64; NUM_COUNTERS],
    /// Gauge high-waters, max across threads, indexed by [`Gauge`].
    pub gauges: [u64; NUM_GAUGES],
    /// Histograms, bucket-wise summed, indexed by [`HistId`].
    pub hists: [HistData; NUM_HISTS],
    /// Steal counts by victim worker index (last slot = overflow).
    pub steal_victims: [u64; STEAL_VICTIM_SLOTS],
    /// Root span forest, merged across threads by name path.
    pub spans: Vec<SpanNode>,
    /// Number of thread sinks that contributed.
    pub threads: usize,
}

impl Snapshot {
    /// Value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }

    /// Value of one gauge.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g.index()]
    }

    /// One histogram's aggregated data.
    pub fn hist(&self, h: HistId) -> &HistData {
        &self.hists[h.index()]
    }

    /// Human-readable Section-V-style report (see [`report`]).
    pub fn render(&self) -> String {
        report::render(self)
    }

    /// Machine-readable JSON document (see [`json`] for the writer).
    pub fn to_json(&self) -> String {
        json::snapshot_to_json(self)
    }
}

/// Aggregates every registered sink into a [`Snapshot`]. Does not
/// clear anything; see the module docs for the lifecycle.
pub fn snapshot() -> Snapshot {
    let registry = registry().lock().unwrap_or_else(|e| e.into_inner());
    let mut snap = Snapshot {
        counters: [0; NUM_COUNTERS],
        gauges: [0; NUM_GAUGES],
        hists: std::array::from_fn(|_| HistData::default()),
        steal_victims: [0; STEAL_VICTIM_SLOTS],
        spans: Vec::new(),
        threads: registry.len(),
    };
    for s in registry.iter() {
        for (dst, src) in snap.counters.iter_mut().zip(&s.counters) {
            *dst += src.load(Ordering::Relaxed);
        }
        for (dst, src) in snap.gauges.iter_mut().zip(&s.gauges) {
            *dst = (*dst).max(src.load(Ordering::Relaxed));
        }
        for (dst, src) in snap.hists.iter_mut().zip(&s.hists) {
            dst.merge_from(src);
        }
        for (dst, src) in snap.steal_victims.iter_mut().zip(&s.steal_victims) {
            *dst += src.load(Ordering::Relaxed);
        }
        for node in lock_spans(s).iter() {
            span::merge_node(&mut snap.spans, node.clone());
        }
    }
    snap
}

/// Zeroes every sink in place (counters, gauges, histograms, steal
/// table, completed spans). Threads keep recording into the same
/// storage; spans still open finish normally and merge afterwards.
pub fn reset() {
    let registry = registry().lock().unwrap_or_else(|e| e.into_inner());
    for s in registry.iter() {
        s.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Telemetry state is process-global, so the unit tests that flip it
    /// serialize on this lock: no test observes another's half-done flip.
    pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

    pub(crate) fn guard() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = guard();
        set_enabled(false);
        reset();
        add(Counter::PoolJobs, 5);
        gauge_max(Gauge::PoolDequeDepthHighWater, 9);
        record(HistId::PipelineBandNanos, 1234);
        record_steal(3);
        assert!(start_timer().is_none());
        let snap = snapshot();
        assert_eq!(snap.counter(Counter::PoolJobs), 0);
        assert_eq!(snap.gauge(Gauge::PoolDequeDepthHighWater), 0);
        assert_eq!(snap.hist(HistId::PipelineBandNanos).count, 0);
        assert_eq!(snap.steal_victims.iter().sum::<u64>(), 0);
    }

    #[test]
    fn enabled_counters_accumulate_and_reset_clears() {
        let _g = guard();
        set_enabled(true);
        reset();
        add(Counter::PipelineBands, 3);
        add(Counter::PipelineBands, 4);
        gauge_max(Gauge::ScratchBytesHighWater, 100);
        gauge_max(Gauge::ScratchBytesHighWater, 50); // lower: no effect
        record_steal(2);
        record_steal(STEAL_VICTIM_SLOTS + 10); // folds into last slot
        let snap = snapshot();
        assert_eq!(snap.counter(Counter::PipelineBands), 7);
        assert_eq!(snap.gauge(Gauge::ScratchBytesHighWater), 100);
        assert_eq!(snap.steal_victims[2], 1);
        assert_eq!(snap.steal_victims[STEAL_VICTIM_SLOTS - 1], 1);
        reset();
        let snap = snapshot();
        assert_eq!(snap.counter(Counter::PipelineBands), 0);
        assert_eq!(snap.gauge(Gauge::ScratchBytesHighWater), 0);
        set_enabled(false);
    }

    #[test]
    fn timer_feeds_histogram_when_enabled() {
        let _g = guard();
        set_enabled(true);
        reset();
        let t = start_timer();
        assert!(t.is_some());
        std::thread::sleep(std::time::Duration::from_millis(1));
        stop_timer(HistId::HarnessPassNanos, t);
        let snap = snapshot();
        let h = snap.hist(HistId::HarnessPassNanos);
        assert_eq!(h.count, 1);
        assert!(h.min >= 1_000_000, "slept >= 1ms, recorded {}", h.min);
        set_enabled(false);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.extend(Gauge::ALL.iter().map(|g| g.name()));
        names.extend(HistId::ALL.iter().map(|h| h.name()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
