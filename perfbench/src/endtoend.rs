//! The untraced run: what a user of the system sees.
//!
//! Four phases: the paper suite (HAND and AUTO passes interleaved), one
//! pool-parallel frame at a time, a closed-loop stream (skipped under
//! overload) and an open-loop stream at the workload's fixed rate. On a
//! shared host the speed drifts over seconds, so the run is cut into
//! one-second rounds and every round gives each phase its share: each
//! metric then samples the whole run rather than one stretch of it.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::adapter::{self, Engine, Frame, Kernel, Offer, Path, Status, Stream, StreamSpec};
use crate::inputs::Inputs;
use crate::openloop::{self, Sent};
use crate::stats::{self, Spans};
use crate::{Report, Tally, Workload};

/// Length of one round of the untraced run.
pub const ROUND_SECS: f64 = 1.0;

pub fn run(
    wl: &Workload,
    inputs: &Inputs,
    seconds: f64,
    report: &mut Report,
    tally: &mut Tally,
) -> Result<(), String> {
    let (suite_share, par_share, closed_share) = if wl.overload {
        (0.10, 0.05, 0.0)
    } else {
        (0.30, 0.10, 0.25)
    };
    let open_share = 1.0 - suite_share - par_share - closed_share;
    let rounds = ((seconds / ROUND_SECS).round() as usize).max(2);
    let round = seconds / rounds as f64;

    let mut suite = Suite::new(wl);
    let mut par = ParFrame::new(wl);
    let mut closed = if wl.overload {
        None
    } else {
        Some(ClosedLoop::start(wl, inputs)?)
    };
    let mut open = OpenLoop::start(wl, inputs)?;
    let mut spans = Spans::new(false);
    for _ in 0..rounds {
        suite.run_for(inputs, round * suite_share, tally);
        par.run_for(inputs, round * par_share, tally);
        if let Some(c) = closed.as_mut() {
            c.window(inputs, round * closed_share, &mut spans)?;
        }
        open.slice(wl, inputs, round * open_share);
    }

    let nominal = RefLoop::nominal_ms(wl);
    let hand = stats::median(&suite.rel[0]) * nominal;
    let auto = stats::median(&suite.rel[1]) * nominal;
    let par_ms = stats::median(&par.rel) * nominal;
    println!(
        "reference loop: {:.4} ms per pass measured, {nominal:.4} ms at {REF_NS_PER_PX} ns/px",
        stats::median(&suite.ref_loop.ms)
    );
    println!(
        "suite: HAND {hand:.4} ms, AUTO {auto:.4} ms per five-kernel pass at reference speed \
         ({:.4} and {:.4} ms measured, {} passes each)",
        stats::median(&suite.ms[0]),
        stats::median(&suite.ms[1]),
        suite.ms[0].len()
    );
    println!(
        "par_frame: {par_ms:.4} ms at reference speed ({:.4} ms measured; {} at pool width {}, {} frames)",
        stats::median(&par.ms),
        wl.op.kernel().name(),
        adapter::pool_width(),
        par.ms.len()
    );
    let open = open.finish(wl, inputs, tally)?;
    let fps = match closed {
        None => open.delivered_fps,
        Some(c) => {
            println!(
                "closed loop: {} frames, fps per window p25/p50/p75 {:.1}/{:.1}/{:.1}",
                c.admitted,
                stats::percentile(&c.fps, 25.0),
                stats::median(&c.fps),
                stats::percentile(&c.fps, 75.0)
            );
            let fps = stats::median(&c.fps);
            c.finish(inputs, tally);
            fps
        }
    };

    report.put("stream_fps", fps, "1/s");
    report.put("frame_p50_ms", stats::median(&open.latency_ms), "ms");
    report.put(
        "frame_tail_ms",
        stats::percentile(&open.latency_ms, wl.tail_pct),
        "ms",
    );
    report.put(
        "error_rate",
        stats::wilson_upper(tally.errors(), tally.offered),
        "ratio",
    );
    report.put("suite_hand_ms", hand, "ms");
    report.put("suite_auto_ms", auto, "ms");
    report.put("par_frame_ms", par_ms, "ms");
    Ok(())
}

/// Cost per pixel of [`RefLoop`] at which suite and `par_frame` times
/// are reported.
pub const REF_NS_PER_PX: f64 = 0.75;

/// A fixed scalar loop owned by the benchmark, timed before every suite
/// pass and every `par_frame` frame: the rounded mean of two input
/// frames, one byte at a time.
///
/// On a shared host, throughput-bound code, whether SIMD or scalar, can
/// run at one of two speeds up to 1.9x apart, switching every few
/// seconds (measured on 2 vCPUs of an Intel Xeon: the reference and the
/// HAND pass slow down together, while a latency-bound multiply chain
/// does not). A suite
/// pass divided by the reference timed beside it is steady to a few
/// percent, so these times are reported as that ratio times the
/// reference's cost at [`REF_NS_PER_PX`]: milliseconds at the host's
/// fast speed. The measured times are printed beside them.
pub struct RefLoop {
    out: Vec<u8>,
    next: usize,
    /// Measured milliseconds per pass.
    pub ms: Vec<f64>,
}

impl RefLoop {
    pub fn new(wl: &Workload) -> Self {
        RefLoop {
            out: vec![0; wl.width],
            next: 0,
            ms: Vec::new(),
        }
    }

    /// Milliseconds one pass takes at [`REF_NS_PER_PX`].
    pub fn nominal_ms(wl: &Workload) -> f64 {
        (wl.width * wl.height) as f64 * REF_NS_PER_PX / 1e6
    }

    /// Times one pass over the next two of `frames`; returns milliseconds.
    pub fn pass(&mut self, frames: &[Arc<Frame>]) -> f64 {
        let a = &frames[self.next % frames.len()];
        let b = &frames[(self.next + 1) % frames.len()];
        self.next += 1;
        let t = Instant::now();
        for y in 0..a.height() {
            let (ra, rb) = (a.row(y), b.row(y));
            for x in 0..ra.len() {
                // Kept in this indexed form: its speed was measured to
                // move in step with the suite's when the host slows.
                self.out[x] = ((u16::from(ra[x]) + u16::from(rb[x]) + 1) >> 1) as u8;
            }
            black_box(&mut self.out);
        }
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.ms.push(ms);
        ms
    }
}

/// One serial pass of the five kernels, HAND (`Engine::Native`) and
/// AUTO (`Engine::Autovec`), fused where a fused kernel exists. Each
/// pass runs on the next frame; the two arms alternate which goes first.
struct Suite {
    ws: [adapter::Workspace; 2],
    ref_loop: RefLoop,
    /// Milliseconds per pass, HAND then AUTO.
    ms: [Vec<f64>; 2],
    /// Each pass over the reference pass timed before it.
    rel: [Vec<f64>; 2],
    pass: usize,
}

impl Suite {
    const ENGINES: [Engine; 2] = [Engine::Native, Engine::Autovec];

    fn new(wl: &Workload) -> Self {
        let ws = || adapter::Workspace::new(wl.width, wl.height);
        Suite {
            ws: [ws(), ws()],
            ref_loop: RefLoop::new(wl),
            ms: [Vec::new(), Vec::new()],
            rel: [Vec::new(), Vec::new()],
            pass: 0,
        }
    }

    /// Runs passes for `secs`, at least one of each arm. The very first
    /// pass warms the scratch arenas and is not counted.
    fn run_for(&mut self, inputs: &Inputs, secs: f64, tally: &mut Tally) {
        let deadline = Instant::now() + Duration::from_secs_f64(secs);
        loop {
            let i = self.pass % inputs.len();
            let order = if self.pass.is_multiple_of(2) {
                [0, 1]
            } else {
                [1, 0]
            };
            let ref_ms = self.ref_loop.pass(&inputs.frames);
            for e in order {
                let mut total = 0.0;
                for k in Kernel::ALL {
                    let (src, float) = (&inputs.frames[i], &inputs.floats[i]);
                    let ws = &mut self.ws[e];
                    let t = Instant::now();
                    let r = adapter::run(k, Path::Fused, Self::ENGINES[e], src, float, ws);
                    total += t.elapsed().as_secs_f64();
                    tally.check(r.map(|()| ws.digest(k)), inputs.digest(i, k));
                }
                if self.pass > 0 {
                    self.ms[e].push(total * 1e3);
                    self.rel[e].push(total * 1e3 / ref_ms);
                }
            }
            self.pass += 1;
            if Instant::now() >= deadline {
                return;
            }
        }
    }
}

/// One pool-parallel fused frame of the workload's kernel at pool width.
struct ParFrame {
    kernel: Kernel,
    ws: adapter::Workspace,
    ref_loop: RefLoop,
    ms: Vec<f64>,
    /// Each frame over the reference pass timed before it.
    rel: Vec<f64>,
    n: usize,
}

impl ParFrame {
    fn new(wl: &Workload) -> Self {
        ParFrame {
            kernel: wl.op.kernel(),
            ws: adapter::Workspace::new(wl.width, wl.height),
            ref_loop: RefLoop::new(wl),
            ms: Vec::new(),
            rel: Vec::new(),
            n: 0,
        }
    }

    fn run_for(&mut self, inputs: &Inputs, secs: f64, tally: &mut Tally) {
        let deadline = Instant::now() + Duration::from_secs_f64(secs);
        loop {
            let i = self.n % inputs.len();
            let (src, float) = (&inputs.frames[i], &inputs.floats[i]);
            let ref_ms = self.ref_loop.pass(&inputs.frames);
            let t = Instant::now();
            let r = adapter::run(
                self.kernel,
                Path::Pool,
                Engine::Native,
                src,
                float,
                &mut self.ws,
            );
            let dt = t.elapsed().as_secs_f64();
            tally.check(
                r.map(|()| self.ws.digest(self.kernel)),
                inputs.digest(i, self.kernel),
            );
            if self.n > 0 {
                self.ms.push(dt * 1e3);
                self.rel.push(dt * 1e3 / ref_ms);
            }
            self.n += 1;
            if Instant::now() >= deadline {
                return;
            }
        }
    }
}

/// The stream configuration of the closed loop and of set-up: one slot
/// per pool worker, the engine's default queue of two frames per slot.
pub fn closed_spec(wl: &Workload) -> StreamSpec {
    let slots = adapter::pool_width();
    StreamSpec {
        op: wl.op,
        width: wl.width,
        height: wl.height,
        slots,
        queue_cap: 2 * slots,
        slo: None,
    }
}

/// Submits rounds of one frame per slot until a round leaves the slot
/// arenas' allocation count unchanged.
pub fn warm_up(
    stream: &Stream,
    frames: &[Arc<Frame>],
    slots: usize,
    next_id: &mut u64,
) -> Result<(), String> {
    let mut last = None;
    for _ in 0..64 {
        for _ in 0..slots {
            let frame = &frames[*next_id as usize % frames.len()];
            stream.submit_until_admitted(*next_id, frame)?;
            *next_id += 1;
        }
        stream.wait_idle();
        let allocs = stream.fresh_allocs();
        if last == Some(allocs) {
            return Ok(());
        }
        last = Some(allocs);
    }
    Err("slot arenas kept allocating during warm-up".into())
}

/// `setup_s` in this (fresh) process: from the first use of the pool
/// through building the stream and warming it until the slot ledger is
/// flat.
pub fn setup_probe(wl: &Workload, seed: u64) -> Result<f64, String> {
    let frames = vec![Arc::new(adapter::frame(wl.width, wl.height, seed))];
    let spec = closed_spec(wl);
    let t = Instant::now();
    adapter::pool_noop();
    let stream = Stream::new(spec)?;
    let mut id = 0;
    warm_up(&stream, &frames, spec.slots, &mut id)?;
    let secs = t.elapsed().as_secs_f64();
    if stream.outstanding_bytes() != 0 {
        return Err("scratch bytes outstanding after warm-up".into());
    }
    let outcomes = stream.finish();
    let all_done = outcomes
        .iter()
        .all(|o| matches!(o.status, Status::Completed { .. }));
    if outcomes.len() as u64 != id || !all_done {
        return Err("a warm-up frame did not complete".into());
    }
    Ok(secs)
}

/// Checks every outcome against its frame's reference checksum.
pub fn check_outcomes(outcomes: &[adapter::Outcome], inputs: &Inputs, tally: &mut Tally) {
    for o in outcomes {
        let want = inputs.stream_checksums[o.id as usize % inputs.len()];
        match &o.status {
            Status::Completed { checksum } => tally.check(Ok(*checksum), want),
            Status::Shed => {
                tally.offered += 1;
                tally.shed += 1;
            }
            Status::Failed(e) => tally.check(Err(e.clone()), want),
        }
    }
}

/// Closed loop: one client keeps the stream's queue full, retrying
/// refused submits. It runs in windows; a window ends when the stream
/// has drained.
pub struct ClosedLoop {
    stream: Stream,
    next_id: u64,
    warm_allocs: usize,
    /// Frames per second of each window.
    pub fps: Vec<f64>,
    pub admitted: u64,
    /// Submit attempts the queue refused (each retried).
    pub refused_attempts: u64,
}

/// What a closed loop leaves behind once finished.
pub struct Ledger {
    /// Slot-arena allocations after warm-up (0 when steady).
    pub alloc_growth: usize,
    /// Scratch bytes still checked out once idle (0 when clean).
    pub outstanding_bytes: usize,
}

impl ClosedLoop {
    pub fn start(wl: &Workload, inputs: &Inputs) -> Result<ClosedLoop, String> {
        let spec = closed_spec(wl);
        let stream = Stream::new(spec)?;
        let mut next_id = 0;
        warm_up(&stream, &inputs.frames, spec.slots, &mut next_id)?;
        Ok(ClosedLoop {
            warm_allocs: stream.fresh_allocs(),
            stream,
            next_id,
            fps: Vec::new(),
            admitted: 0,
            refused_attempts: 0,
        })
    }

    /// One window of about `secs`, each submit under span `stream.submit`.
    pub fn window(&mut self, inputs: &Inputs, secs: f64, spans: &mut Spans) -> Result<(), String> {
        let window = Duration::from_secs_f64(secs);
        let t = Instant::now();
        let mut admitted = 0u64;
        while t.elapsed() < window {
            let id = self.next_id;
            let frame = &inputs.frames[id as usize % inputs.len()];
            let stream = &self.stream;
            self.refused_attempts +=
                spans.time("stream.submit", || stream.submit_until_admitted(id, frame))?;
            self.next_id += 1;
            admitted += 1;
        }
        self.stream.wait_idle();
        self.fps.push(admitted as f64 / t.elapsed().as_secs_f64());
        self.admitted += admitted;
        Ok(())
    }

    /// Drains the stream and checks every frame it produced.
    pub fn finish(self, inputs: &Inputs, tally: &mut Tally) -> Ledger {
        let ledger = Ledger {
            alloc_growth: self.stream.fresh_allocs() - self.warm_allocs,
            outstanding_bytes: self.stream.outstanding_bytes(),
        };
        check_outcomes(&self.stream.finish(), inputs, tally);
        ledger
    }
}

/// Open loop: frames offered at the workload's fixed rate whatever the
/// stream's state, in slices; each slice starts a fresh schedule and
/// ends when the stream has drained.
pub struct OpenLoop {
    stream: Stream,
    /// Id of the first offered (not warm-up) frame.
    base: u64,
    /// The generator's record of every offered frame, by `id - base`.
    sent: Vec<Sent>,
    busy_secs: f64,
}

/// An open loop's results.
pub struct OpenResult {
    /// Completed frames' latency from their due time.
    pub latency_ms: Vec<f64>,
    /// How late the generator offered each frame.
    pub lag_ms: Vec<f64>,
    /// Completed frames per second over the slices.
    pub delivered_fps: f64,
}

impl OpenLoop {
    pub fn start(wl: &Workload, inputs: &Inputs) -> Result<OpenLoop, String> {
        let spec = StreamSpec {
            queue_cap: wl.open_queue_cap,
            slo: wl.slo,
            ..closed_spec(wl)
        };
        let stream = Stream::new(spec)?;
        let mut base = 0;
        warm_up(&stream, &inputs.frames, spec.slots, &mut base)?;
        Ok(OpenLoop {
            stream,
            base,
            sent: Vec::new(),
            busy_secs: 0.0,
        })
    }

    pub fn slice(&mut self, wl: &Workload, inputs: &Inputs, secs: f64) {
        let first = self.base + self.sent.len() as u64;
        let count = ((wl.open_rate_hz * secs).round() as usize).max(1);
        let stream = &self.stream;
        let t = Instant::now();
        let sent = openloop::drive(wl.open_rate_hz, count, |i| {
            let id = first + i;
            match stream.offer(id, &inputs.frames[id as usize % inputs.len()]) {
                Offer::Admitted => true,
                Offer::Saturated => false,
                Offer::Rejected(e) => {
                    eprintln!("frame {id} rejected: {e}");
                    false
                }
            }
        });
        stream.wait_idle();
        self.busy_secs += t.elapsed().as_secs_f64();
        self.sent.extend(sent);
    }

    pub fn finish(
        self,
        wl: &Workload,
        inputs: &Inputs,
        tally: &mut Tally,
    ) -> Result<OpenResult, String> {
        let outcomes = self.stream.finish();
        check_outcomes(&outcomes, inputs, tally);
        let refused = self.sent.iter().filter(|s| !s.accepted).count() as u64;
        tally.offered += refused;
        tally.refused += refused;
        let latency_ms: Vec<f64> = outcomes
            .iter()
            .filter(|o| o.id >= self.base && matches!(o.status, Status::Completed { .. }))
            .map(|o| {
                let sent = &self.sent[(o.id - self.base) as usize];
                sent.latency(o.latency).as_secs_f64() * 1e3
            })
            .collect();
        let lag_ms: Vec<f64> = self
            .sent
            .iter()
            .map(|s| s.lag.as_secs_f64() * 1e3)
            .collect();
        let delivered_fps = latency_ms.len() as f64 / self.busy_secs;
        println!(
            "open loop: {} offered at {} fps, {} completed ({delivered_fps:.1} fps), {refused} refused; \
             latency p50 {:.3} ms, p{} {:.3} ms over {} samples ({} beyond); \
             generator lag p50 {:.3} ms, p{} {:.3} ms, max {:.3} ms",
            self.sent.len(),
            wl.open_rate_hz,
            latency_ms.len(),
            stats::median(&latency_ms),
            wl.tail_pct,
            stats::percentile(&latency_ms, wl.tail_pct),
            latency_ms.len(),
            stats::beyond(latency_ms.len(), wl.tail_pct),
            stats::median(&lag_ms),
            wl.tail_pct,
            stats::percentile(&lag_ms, wl.tail_pct),
            stats::percentile(&lag_ms, 100.0),
        );
        if latency_ms.is_empty() {
            return Err("open loop completed no frame".into());
        }
        Ok(OpenResult {
            latency_ms,
            lag_ms,
            delivered_fps,
        })
    }
}
