//! The traced run: per-layer metrics, each timed from outside by a span
//! around the calls into that layer, with the program's own telemetry
//! on. Layers, bottom up: row primitive → kernel (two-pass) → pipeline
//! (fused, serial) → pool (fused, parallel) → stream. Like the untraced
//! run it is cut into rounds, each giving every layer its share.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::adapter::{self, Engine, Kernel, Path, Prim, RowBlock, RowImpl, Stream, StreamSpec};
use crate::endtoend::{self, ClosedLoop, OpenLoop, ROUND_SECS};
use crate::inputs::Inputs;
use crate::stats::{self, Spans};
use crate::{Report, Tally, Workload};

const ENGINES: [Engine; 2] = [Engine::Native, Engine::Autovec];

fn row_impls() -> Vec<(Prim, RowImpl, String)> {
    let mut v = Vec::new();
    for p in Prim::ALL {
        for e in ENGINES {
            let name = format!("row.{}.{}.ns_per_px", p.name(), e.label());
            v.push((p, RowImpl::Engine(e), name));
        }
    }
    for p in Prim::AVX2 {
        v.push((p, RowImpl::Avx2, format!("row.avx2.{}.ns_per_px", p.name())));
    }
    v
}

fn kernel_name(k: Kernel, e: Engine) -> String {
    format!("kernel.{}.{}.ms", k.name(), e.label())
}

fn fused_name(k: Kernel, e: Engine) -> String {
    format!("pipeline.{}.{}.ms", k.name(), e.label())
}

fn pool_name(k: Kernel, _: Engine) -> String {
    format!("pool.par_fused.{}.ms", k.name())
}

/// Every per-layer metric, with its unit.
pub fn names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = row_impls()
        .into_iter()
        .map(|(_, _, n)| (n, "ns/px"))
        .collect();
    for k in Kernel::ALL {
        for e in ENGINES {
            v.push((kernel_name(k, e), "ms"));
        }
        v.push((format!("kernel.{}.hand_auto", k.name()), "ratio"));
    }
    for k in Kernel::STENCILS {
        for e in ENGINES {
            v.push((fused_name(k, e), "ms"));
        }
        v.push((format!("pipeline.{}.fused_gain", k.name()), "ratio"));
        v.push((format!("pipeline.{}.ceiling_frac", k.name()), "ratio"));
        v.push((pool_name(k, Engine::Native), "ms"));
        v.push((format!("pool.{}.speedup", k.name()), "ratio"));
    }
    for (n, u) in [
        ("pool.dispatch_us", "us"),
        ("pool.jobs_per_call", "ratio"),
        ("pool.steals_per_job", "ratio"),
        ("pool.parks_per_job", "ratio"),
        ("pool.wakeups_per_job", "ratio"),
        ("stream.checksum_us", "us"),
        ("stream.slot1_ms", "ms"),
        ("stream.overhead_ms", "ms"),
        ("stream.submit_retries_per_frame", "ratio"),
        ("stream.submit_useful_frac", "ratio"),
        ("stream.queue_depth_hw", "count"),
        ("stream.gen_lag_ms", "ms"),
        ("scratch.fresh_alloc_growth", "count"),
        ("scratch.outstanding_bytes", "bytes"),
        ("mem.copy_gbps", "GB/s"),
        ("host.ref_ns_per_px", "ns/px"),
        ("trace.overhead_frac", "ratio"),
    ] {
        v.push((n.to_string(), u));
    }
    v
}

pub fn run(
    wl: &Workload,
    inputs: &Inputs,
    seconds: f64,
    report: &mut Report,
    tally: &mut Tally,
) -> Result<(), String> {
    adapter::telemetry(true);
    let copy_gbps = mem_copy_gbps();
    let mut spans = Spans::new(true);
    let rounds = ((seconds / ROUND_SECS).round() as usize).max(2);
    let s = |share: f64| seconds * share / rounds as f64;

    let mut rows = Rows::new(inputs);
    let mut kernels = KernelTimer::new(wl, Path::TwoPass, &Kernel::ALL, &ENGINES, kernel_name);
    let mut fused = KernelTimer::new(wl, Path::Fused, &Kernel::STENCILS, &ENGINES, fused_name);
    let mut pool = KernelTimer::new(
        wl,
        Path::Pool,
        &Kernel::STENCILS,
        &[Engine::Native],
        pool_name,
    );
    let mut pool_counters = adapter::Counters::default();
    let mut slot1 = OneSlot::start(wl, inputs)?;
    let mut closed = ClosedLoop::start(wl, inputs)?;
    let mut open = OpenLoop::start(wl, inputs)?;
    let mut queue_hw = 0;
    let mut checksums = 0usize;
    let mut ref_loop = endtoend::RefLoop::new(wl);
    for _ in 0..rounds {
        ref_loop.pass(&inputs.frames);
        rows.run_for(s(0.12), &mut spans);
        kernels.run_for(inputs, s(0.15), &mut spans, tally);
        fused.run_for(inputs, s(0.12), &mut spans, tally);

        adapter::telemetry_reset();
        pool.run_for(inputs, s(0.08), &mut spans, tally);
        pool_counters.add(&adapter::counters());

        repeat_for(s(0.02), &mut spans, "pool.dispatch", adapter::pool_noop);
        repeat_for(s(0.03), &mut spans, "stream.checksum", || {
            checksums += 1;
            black_box(adapter::frame_checksum(
                &inputs.frames[checksums % inputs.len()],
            ));
        });
        slot1.run_for(inputs, s(0.08))?;

        // One closed-loop window with tracing off, one with it on: the
        // gap between the two is what tracing costs.
        for on in [false, true] {
            adapter::telemetry(on);
            spans.set(on);
            closed.window(inputs, s(0.075), &mut spans)?;
        }

        adapter::telemetry_reset();
        open.slice(wl, inputs, s(0.15));
        queue_hw = queue_hw.max(adapter::counters().stream_queue_depth_hw);
    }
    adapter::telemetry(false);

    let px = (wl.width * wl.height) as f64;
    report.put("mem.copy_gbps", copy_gbps, "GB/s");
    report.put(
        "host.ref_ns_per_px",
        stats::median(&ref_loop.ms) * 1e6 / px,
        "ns/px",
    );
    rows.report(&spans, report);
    for k in Kernel::ALL {
        let native = spans.median(&kernel_name(k, Engine::Native));
        let auto = spans.median(&kernel_name(k, Engine::Autovec));
        report.put(kernel_name(k, Engine::Native), native * 1e3, "ms");
        report.put(kernel_name(k, Engine::Autovec), auto * 1e3, "ms");
        report.put(
            format!("kernel.{}.hand_auto", k.name()),
            auto / native,
            "ratio",
        );
    }
    for k in Kernel::STENCILS {
        let two_pass = spans.median(&kernel_name(k, Engine::Native));
        let serial = spans.median(&fused_name(k, Engine::Native));
        let par = spans.median(&pool_name(k, Engine::Native));
        for e in ENGINES {
            report.put(
                fused_name(k, e),
                spans.median(&fused_name(k, e)) * 1e3,
                "ms",
            );
        }
        report.put(
            format!("pipeline.{}.fused_gain", k.name()),
            two_pass / serial,
            "ratio",
        );
        let gbps = k.bytes_per_px() * px / serial / 1e9;
        report.put(
            format!("pipeline.{}.ceiling_frac", k.name()),
            gbps / copy_gbps,
            "ratio",
        );
        report.put(pool_name(k, Engine::Native), par * 1e3, "ms");
        report.put(format!("pool.{}.speedup", k.name()), serial / par, "ratio");
    }
    let c = pool_counters;
    let jobs = c.pool_jobs.max(1) as f64;
    println!(
        "pool: {} bands per frame, {} calls, counters {c:?}",
        pool.ws.bands(wl.height),
        pool.calls
    );
    report.put(
        "pool.jobs_per_call",
        c.pool_jobs as f64 / pool.calls as f64,
        "ratio",
    );
    report.put("pool.steals_per_job", c.pool_steals as f64 / jobs, "ratio");
    report.put("pool.parks_per_job", c.pool_parks as f64 / jobs, "ratio");
    report.put(
        "pool.wakeups_per_job",
        c.pool_wakeups as f64 / jobs,
        "ratio",
    );
    report.put(
        "pool.dispatch_us",
        spans.median("pool.dispatch") * 1e6,
        "us",
    );

    let checksum_ms = spans.median("stream.checksum") * 1e3;
    let slot1_ms = slot1.finish(inputs, tally);
    let kernel_ms = spans.median(&fused_name(wl.op.kernel(), Engine::Native)) * 1e3;
    let overhead_ms = slot1_ms - kernel_ms - checksum_ms;
    println!(
        "one-slot frame {slot1_ms:.4} ms = fused {} {kernel_ms:.4} ms + checksum {checksum_ms:.4} ms \
         + unattributed {overhead_ms:.4} ms",
        wl.op.kernel().name()
    );
    report.put("stream.checksum_us", checksum_ms * 1e3, "us");
    report.put("stream.slot1_ms", slot1_ms, "ms");
    report.put("stream.overhead_ms", overhead_ms, "ms");

    let off: Vec<f64> = closed.fps.iter().step_by(2).copied().collect();
    let on: Vec<f64> = closed.fps.iter().skip(1).step_by(2).copied().collect();
    println!(
        "closed loop fps: untraced median {:.1}, traced median {:.1}",
        stats::median(&off),
        stats::median(&on)
    );
    report.put(
        "trace.overhead_frac",
        stats::median(&off) / stats::median(&on) - 1.0,
        "ratio",
    );
    let (admitted, refused) = (closed.admitted as f64, closed.refused_attempts as f64);
    report.put(
        "stream.submit_retries_per_frame",
        refused / admitted,
        "ratio",
    );
    report.put(
        "stream.submit_useful_frac",
        admitted / (admitted + refused),
        "ratio",
    );
    let ledger = closed.finish(inputs, tally);
    report.put(
        "scratch.fresh_alloc_growth",
        (ledger.alloc_growth + fused.alloc_growth()) as f64,
        "count",
    );
    report.put(
        "scratch.outstanding_bytes",
        (ledger.outstanding_bytes + fused.ws.scratch_outstanding_bytes()) as f64,
        "bytes",
    );

    let open = open.finish(wl, inputs, tally)?;
    report.put("stream.queue_depth_hw", queue_hw as f64, "count");
    report.put(
        "stream.gen_lag_ms",
        stats::percentile(&open.lag_ms, wl.tail_pct),
        "ms",
    );
    Ok(())
}

/// Runs `f` under span `name` until `secs` pass, at least once.
fn repeat_for(secs: f64, spans: &mut Spans, name: &str, mut f: impl FnMut()) {
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    loop {
        spans.time(name, &mut f);
        if Instant::now() >= deadline {
            return;
        }
    }
}

/// Row primitives over a cache-resident block of the first frame.
struct Rows {
    block: RowBlock,
    /// Implementation, span name, and sweeps per timed span.
    list: Vec<(Prim, RowImpl, String, usize)>,
}

impl Rows {
    fn new(inputs: &Inputs) -> Self {
        let f = &inputs.frames[0];
        let n_rows = 16.min(f.height());
        let y0 = (f.height() - n_rows) / 2;
        let mut block = RowBlock::new(f, &inputs.floats[0], y0, n_rows);
        let list = row_impls()
            .into_iter()
            .map(|(p, imp, name)| {
                // Batch sweeps so one timed span lasts at least 50 µs.
                let mut batch = 1usize;
                loop {
                    let t = Instant::now();
                    for _ in 0..batch {
                        black_box(block.sweep(p, imp));
                    }
                    if t.elapsed() >= Duration::from_micros(50) || batch >= 1 << 20 {
                        break (p, imp, name, batch);
                    }
                    batch *= 2;
                }
            })
            .collect();
        println!("rows: AVX2 available {}", adapter::avx2_available());
        Rows { block, list }
    }

    fn run_for(&mut self, secs: f64, spans: &mut Spans) {
        let per = secs / self.list.len() as f64;
        for (p, imp, name, batch) in &self.list {
            let block = &mut self.block;
            repeat_for(per, spans, name, || {
                for _ in 0..*batch {
                    black_box(block.sweep(*p, *imp));
                }
            });
        }
    }

    fn report(&self, spans: &Spans, report: &mut Report) {
        for (_, _, name, batch) in &self.list {
            let px = (batch * self.block.pixels()) as f64;
            report.put(name.clone(), spans.median(name) * 1e9 / px, "ns/px");
        }
    }
}

/// Times one entry point for a set of kernels × engines on rotating
/// frames, checking every output. Each (kernel, engine) pair's first
/// call warms up and is not timed; a cursor carries the rotation across
/// rounds, so a round shorter than one sweep still advances it.
struct KernelTimer {
    path: Path,
    calls_list: Vec<(Kernel, Engine, String)>,
    cursor: usize,
    calls: usize,
    warm_allocs: Option<usize>,
    ws: adapter::Workspace,
}

impl KernelTimer {
    fn new(
        wl: &Workload,
        path: Path,
        kernels: &[Kernel],
        engines: &[Engine],
        name: fn(Kernel, Engine) -> String,
    ) -> Self {
        let calls_list = kernels
            .iter()
            .flat_map(|&k| engines.iter().map(move |&e| (k, e, name(k, e))))
            .collect();
        KernelTimer {
            path,
            calls_list,
            cursor: 0,
            calls: 0,
            warm_allocs: None,
            ws: adapter::Workspace::new(wl.width, wl.height),
        }
    }

    fn run_for(&mut self, inputs: &Inputs, secs: f64, spans: &mut Spans, tally: &mut Tally) {
        let n = self.calls_list.len();
        let deadline = Instant::now() + Duration::from_secs_f64(secs);
        loop {
            let sweep = self.cursor / n;
            // Alternate the order within a sweep so neither engine of a
            // kernel always runs second.
            let j = if sweep.is_multiple_of(2) {
                self.cursor % n
            } else {
                n - 1 - self.cursor % n
            };
            let (k, e, name) = &self.calls_list[j];
            let i = sweep % inputs.len();
            let (src, float, ws) = (&inputs.frames[i], &inputs.floats[i], &mut self.ws);
            let r = if sweep == 0 {
                adapter::run(*k, self.path, *e, src, float, ws)
            } else {
                spans.time(name, || adapter::run(*k, self.path, *e, src, float, ws))
            };
            tally.check(r.map(|()| ws.digest(*k)), inputs.digest(i, *k));
            self.cursor += 1;
            self.calls += 1;
            if self.cursor == n {
                self.warm_allocs = Some(self.ws.scratch_fresh_allocs());
            }
            if self.cursor >= n && Instant::now() >= deadline {
                return;
            }
        }
    }

    /// Scratch allocations since the warm-up sweep (0 when steady).
    fn alloc_growth(&self) -> usize {
        self.ws.scratch_fresh_allocs() - self.warm_allocs.unwrap_or(0)
    }
}

/// Frames sent one at a time through a one-slot stream: each is
/// submitted to an idle stream and awaited, so its latency is service
/// time plus handoff, with no queueing.
struct OneSlot {
    stream: Stream,
    base: u64,
    next_id: u64,
}

impl OneSlot {
    fn start(wl: &Workload, inputs: &Inputs) -> Result<OneSlot, String> {
        let spec = StreamSpec {
            slots: 1,
            queue_cap: 1,
            ..endtoend::closed_spec(wl)
        };
        let stream = Stream::new(spec)?;
        let mut next_id = 0;
        endtoend::warm_up(&stream, &inputs.frames, 1, &mut next_id)?;
        Ok(OneSlot {
            stream,
            base: next_id,
            next_id,
        })
    }

    fn run_for(&mut self, inputs: &Inputs, secs: f64) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs_f64(secs);
        loop {
            let id = self.next_id;
            let frame = &inputs.frames[id as usize % inputs.len()];
            self.stream.submit_until_admitted(id, frame)?;
            self.stream.wait_idle();
            self.next_id += 1;
            if Instant::now() >= deadline {
                return Ok(());
            }
        }
    }

    /// Median latency in milliseconds; checks every frame.
    fn finish(self, inputs: &Inputs, tally: &mut Tally) -> f64 {
        let outcomes = self.stream.finish();
        endtoend::check_outcomes(&outcomes, inputs, tally);
        let ms: Vec<f64> = outcomes
            .iter()
            .filter(|o| o.id >= self.base)
            .map(|o| o.latency.as_secs_f64() * 1e3)
            .collect();
        stats::median(&ms)
    }
}

/// Highest-level cache size the host reports, in bytes.
fn llc_bytes() -> Option<usize> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    let mut best: Option<(u32, usize)> = None;
    for entry in dir.flatten() {
        let p = entry.path();
        let read = |f: &str| std::fs::read_to_string(p.join(f)).ok();
        if read("type").is_some_and(|t| t.trim() == "Instruction") {
            continue;
        }
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let size = size.trim();
        let (digits, mult) = match size.chars().last() {
            Some('K') => (&size[..size.len() - 1], 1 << 10),
            Some('M') => (&size[..size.len() - 1], 1 << 20),
            Some('G') => (&size[..size.len() - 1], 1 << 30),
            _ => (size, 1),
        };
        let Ok(n) = digits.parse::<usize>() else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, n * mult));
        }
    }
    best.map(|(_, b)| b)
}

/// Streaming-copy bandwidth (bytes read plus bytes written per second)
/// over a source and a destination of twice the last-level cache each,
/// so the copy touches four times the LLC.
fn mem_copy_gbps() -> f64 {
    const MIB: usize = 1 << 20;
    let llc = llc_bytes();
    let half = (2 * llc.unwrap_or(32 * MIB)).max(64 * MIB);
    println!(
        "mem: last-level cache {} MiB ({}), copy buffers 2 x {} MiB",
        llc.unwrap_or(32 * MIB) / MIB,
        if llc.is_some() {
            "from /sys"
        } else {
            "not reported; assumed"
        },
        half / MIB
    );
    let src = vec![0x5au8; half];
    let mut dst = vec![0u8; half];
    dst.copy_from_slice(&src);
    let mut gbps = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        gbps.push(2.0 * half as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    stats::median(&gbps)
}
