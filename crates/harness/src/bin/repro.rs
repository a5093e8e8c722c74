//! Command-line reproduction driver.
//!
//! ```text
//! repro table1                 # Table I (platform inventory)
//! repro table2                 # Table II (convert, simulated platforms)
//! repro table3                 # Table III (benchmarks 2-5 at 8 Mpx)
//! repro figure2 .. figure6     # speed-up figures (simulated platforms)
//! repro asm-analysis           # Section V instruction-stream comparison
//! repro energy                 # A4 energy-efficiency extension
//! repro host [--quick] [--full] [--csv FILE]  # AUTO vs HAND on THIS machine
//! repro fused [--quick] [--full] [--csv FILE] # fused vs two-pass pipeline
//! repro parallel [--quick] [--full] [--csv FILE] # pool vs sequential fused
//! repro extensions [--quick] [--full] [--csv FILE] # A5/A6/A9 AUTO vs HAND, A8 AVX2 vs SSE2
//! repro stats [--full] [--json FILE] # instrumented exercise -> telemetry report
//! repro chaos [--seed N] [--quick]   # fault-injection matrix over the fused pipeline
//! repro stream [--quick] [--frames N] [--rate FPS] [--json FILE]
//!              [--image RES] [--kernel gaussian|edge] [--slo-ms N]
//!              [--slots N] [--queue N]
//!                              # streaming engine: throughput-latency report
//! repro csv [dir]              # write every table/figure as CSV files
//! repro all                    # everything except host mode
//! ```
//!
//! `host`, `fused`, `parallel`, `extensions` and `stream` also accept
//! `--telemetry`:
//! the run executes with the `obs` layer enabled and finishes with the
//! span-tree / counter / histogram report plus a machine-readable JSON
//! dump. Telemetry output is namespaced per subcommand
//! (`results/telemetry_<cmd>.json`) so runs don't clobber each other;
//! override with `--json FILE` (`--telemetry-json FILE` for `stream`,
//! whose `--json` names the throughput report).
//!
//! Every subcommand declares its flags. An unknown flag, a value flag
//! without its value, a number that does not parse, or an unknown
//! `--kernel`/`--image` name exits with code 2 and a usage line.

use pixelimage::Resolution;
use platform_model::{all_platforms, Isa, Kernel};
use repro_harness::figures::{figure, render_figure};
use repro_harness::tables::{render_table, table1, table2, table3};
use repro_harness::timing::{host_auto_engine, host_hand_engine, measure, HostConfig, WorkSet};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("all");
    let flagged = [
        "host",
        "fused",
        "parallel",
        "extensions",
        "stats",
        "chaos",
        "stream",
        "csv",
    ];
    if !flagged.contains(&command) && args.len() > 1 {
        Flags::parse(command, &args[1..], &[], &[]);
    }
    match command {
        "table1" => print!("{}", render_table(&table1())),
        "table2" => print!("{}", render_table(&table2())),
        "table3" => print!("{}", render_table(&table3())),
        "figure2" => print!("{}", render_figure(&figure(Kernel::Convert))),
        "figure3" => print!("{}", render_figure(&figure(Kernel::Threshold))),
        "figure4" => print!("{}", render_figure(&figure(Kernel::Gaussian))),
        "figure5" => print!("{}", render_figure(&figure(Kernel::Sobel))),
        "figure6" => print!("{}", render_figure(&figure(Kernel::Edge))),
        "asm-analysis" => asm_analysis(),
        "energy" => energy(),
        "host" => host_mode(&args[1..]),
        "fused" => fused_mode(&args[1..]),
        "parallel" => parallel_mode(&args[1..]),
        "extensions" => extensions_mode(&args[1..]),
        "stats" => stats_mode(&args[1..]),
        "chaos" => chaos_mode(&args[1..]),
        "stream" => stream_mode(&args[1..]),
        "csv" => {
            if args.len() > 2 || args.get(1).is_some_and(|a| a.starts_with("--")) {
                eprintln!("usage: repro csv [DIR]");
                std::process::exit(2);
            }
            let dir = args.get(1).cloned().unwrap_or_else(|| "results".into());
            if let Err(e) = write_csvs(&dir) {
                eprintln!("csv export failed: {e}");
                std::process::exit(1);
            }
        }
        "all" => {
            print!("{}", render_table(&table1()));
            println!();
            print!("{}", render_table(&table2()));
            println!();
            print!("{}", render_table(&table3()));
            for kernel in Kernel::ALL {
                println!();
                print!("{}", render_figure(&figure(kernel)));
            }
            println!();
            asm_analysis();
            println!();
            energy();
        }
        other => {
            eprintln!("unknown command: {other}");
            eprintln!(
                "usage: repro [table1|table2|table3|figure2..figure6|asm-analysis|energy|host|fused|parallel|extensions|stats|chaos|stream|all]"
            );
            std::process::exit(2);
        }
    }
}

/// Writes every table and figure as CSV into `dir`.
fn write_csvs(dir: &str) -> std::io::Result<()> {
    use repro_harness::figures::figure_number;
    let dir = std::path::Path::new(dir);
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("table1.csv"), table1().to_csv())?;
    std::fs::write(dir.join("table2.csv"), table2().to_csv())?;
    std::fs::write(dir.join("table3.csv"), table3().to_csv())?;
    for kernel in Kernel::ALL {
        let fig = figure(kernel);
        let name = format!("figure{}.csv", figure_number(kernel));
        std::fs::write(dir.join(name), fig.to_csv())?;
    }
    println!("wrote table1-3.csv and figure2-6.csv to {}", dir.display());
    Ok(())
}

/// A subcommand's flags, parsed strictly against what it declares:
/// `switches` take no value, `values` take exactly one. Anything else is
/// a usage error (exit code 2).
struct Flags {
    command: String,
    switches: &'static [&'static str],
    values: &'static [&'static str],
    given: Vec<(String, Option<String>)>,
}

impl Flags {
    fn parse(
        command: &str,
        args: &[String],
        switches: &'static [&'static str],
        values: &'static [&'static str],
    ) -> Flags {
        let mut flags = Flags {
            command: command.to_string(),
            switches,
            values,
            given: Vec::new(),
        };
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            let value = if switches.contains(&arg.as_str()) {
                None
            } else if values.contains(&arg.as_str()) {
                match rest.next() {
                    Some(v) if !v.starts_with("--") => Some(v.clone()),
                    _ => flags.fail(&format!("{arg} needs a value")),
                }
            } else if arg.starts_with("--") {
                flags.fail(&format!("unknown flag {arg}"))
            } else {
                flags.fail(&format!("unexpected argument {arg}"))
            };
            flags.given.push((arg.clone(), value));
        }
        flags
    }

    /// Prints `msg` and the usage line, then exits with code 2.
    fn fail(&self, msg: &str) -> ! {
        let switches = self.switches.iter().map(|s| format!(" [{s}]"));
        let values = self.values.iter().map(|v| format!(" [{v} VALUE]"));
        let usage: String = switches.chain(values).collect();
        eprintln!("repro {}: {msg}", self.command);
        eprintln!("usage: repro {}{usage}", self.command);
        std::process::exit(2);
    }

    fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| n == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.given
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The value of `name` parsed as `T`; one that does not parse is a
    /// usage error.
    fn number<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        let v = self.value(name)?;
        Some(
            v.parse()
                .unwrap_or_else(|_| self.fail(&format!("{name}: not a number: {v}"))),
        )
    }

    /// The value of `name` looked up by label in `choices`; an unknown
    /// label is a usage error.
    fn choice<T: Copy>(&self, name: &str, choices: &[(&str, T)]) -> Option<T> {
        let v = self.value(name)?;
        let found = choices.iter().find(|(label, _)| *label == v);
        Some(found.map(|&(_, c)| c).unwrap_or_else(|| {
            let known: Vec<&str> = choices.iter().map(|(label, _)| *label).collect();
            self.fail(&format!(
                "{name}: unknown {v} (one of {})",
                known.join(", ")
            ))
        }))
    }

    /// Whether `--telemetry` was given; when it was, enables the `obs`
    /// layer and clears any state left from process start-up so the
    /// report covers exactly this run.
    fn telemetry(&self) -> bool {
        let on = self.has("--telemetry");
        if on {
            obs::set_enabled(true);
            obs::reset();
        }
        on
    }
}

/// What the timing subcommands (`host`, `fused`, `parallel`,
/// `extensions`) share:
/// `--quick`/`--full` pick the protocol and resolutions, `--csv` names
/// the table dump and `--telemetry` turns on the `obs` report.
struct Timing {
    flags: Flags,
    config: HostConfig,
    resolutions: &'static [Resolution],
    telemetry: bool,
}

impl Timing {
    fn parse(command: &str, args: &[String], values: &'static [&'static str]) -> Timing {
        let flags = Flags::parse(command, args, &["--quick", "--full", "--telemetry"], values);
        let quick = flags.has("--quick");
        let resolutions: &'static [Resolution] = if flags.has("--full") {
            &Resolution::ALL
        } else if quick {
            &[Resolution::Vga]
        } else {
            &[Resolution::Vga, Resolution::Mp1]
        };
        Timing {
            config: if quick {
                HostConfig::quick()
            } else {
                HostConfig::default()
            },
            resolutions,
            telemetry: flags.telemetry(),
            flags,
        }
    }

    /// Writes `csv` to the `--csv` path if one was given, then the
    /// telemetry report (to `--json`, default `telemetry_json`) if it was
    /// requested.
    fn finish(&self, csv: String, telemetry_json: &str) {
        if let Some(path) = self.flags.value("--csv") {
            write_output(path, csv);
        }
        if self.telemetry {
            telemetry_report(self.flags.value("--json").unwrap_or(telemetry_json));
        }
    }
}

/// Writes `contents` to `path`, creating parent directories, and says
/// so; exits with code 1 when the file cannot be written.
fn write_output(path: &str, contents: String) {
    let dir = std::path::Path::new(path).parent();
    let dir = dir.filter(|d| !d.as_os_str().is_empty());
    let written = dir
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, contents));
    if let Err(e) = written {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {path}");
}

/// Snapshots telemetry, prints the human-readable report, and writes the
/// machine-readable JSON to `path`.
fn telemetry_report(path: &str) {
    let snap = obs::snapshot();
    println!();
    print!("{}", snap.render());
    write_output(path, snap.to_json());
}

/// Stats mode: run a short instrumented exercise of all three telemetry
/// layers — the fused band pipeline (serial), the work-stealing pool
/// (banded parallel), and the harness timing protocol — then print the
/// full report and write the JSON dump. The pooled passes run on the
/// global pool at the host's width, as `repro parallel` does.
fn stats_mode(args: &[String]) {
    use repro_harness::timing::{measure_fused, measure_parallel};

    let flags = Flags::parse("stats", args, &["--full"], &["--json"]);
    let full = flags.has("--full");
    let json_path = flags
        .value("--json")
        .unwrap_or("results/telemetry_stats.json");
    let res = if full {
        Resolution::Mp8
    } else {
        Resolution::Vga
    };
    let config = HostConfig::quick();
    obs::set_enabled(true);
    obs::reset();

    println!(
        "Stats mode: instrumented fused + pooled passes at {}",
        res.label()
    );
    println!(
        "pool width {}; protocol: {} images x {} cycles per point\n",
        rayon::current_num_threads(),
        config.images,
        config.cycles
    );
    let work = WorkSet::new(res, config.images);
    let engine = host_hand_engine();
    const STENCILS: [Kernel; 3] = [Kernel::Gaussian, Kernel::Sobel, Kernel::Edge];
    for kernel in STENCILS {
        let m = measure_fused(kernel, engine, &work, &config);
        println!(
            "fused  {:<10} mean {:.6}s over {} passes",
            kernel.table3_label(),
            m.seconds,
            m.runs
        );
    }
    for kernel in STENCILS {
        let m = measure_parallel(kernel, engine, &work, &config);
        println!(
            "pooled {:<10} mean {:.6}s over {} passes",
            kernel.table3_label(),
            m.seconds,
            m.runs
        );
    }
    telemetry_report(json_path);
}

/// Chaos mode: drives the fused pipeline (sequential and banded-parallel)
/// through a deterministic injected-fault matrix — forced errors at the
/// entry points, band panics, pool-task panics, worker deaths and task
/// stalls — and verifies the fault-tolerance contract at every cell:
///
/// * a `try_*` call either succeeds **bit-exactly** or returns
///   `KernelError::FaultInjected`; it never unwinds and never returns a
///   different error,
/// * no scratch workspace stays outstanding after a faulted run (caller
///   arena and every pool worker's thread-local arena),
/// * the worker pool ends at its full complement (deaths respawned),
/// * the circuit breaker demonstrably degrades to a correct serial run
///   and closes again after a successful half-open probe.
///
/// Exits non-zero if any invariant is violated. The whole matrix replays
/// bit-identically for a given `--seed`.
fn chaos_mode(args: &[String]) {
    use pixelimage::Image;
    use simdbench_core::error::KernelError;
    use simdbench_core::kernelgen::paper_gaussian_kernel;
    use simdbench_core::pipeline::{
        try_fused_gaussian_blur_with, try_par_fused_edge_detect_with, BandPlan,
    };
    use simdbench_core::scratch::{self, Scratch};
    use simdbench_core::Engine;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    let flags = Flags::parse("chaos", args, &["--quick"], &["--seed"]);
    let seed: u64 = flags.number("--seed").unwrap_or(42);
    let quick = flags.has("--quick");
    let (w, h) = if quick {
        (160, 120)
    } else {
        Resolution::Vga.dims()
    };
    let runs_per_cell = if quick { 6 } else { 12 };

    struct Cell {
        failpoint: &'static str,
        action: faultline::Action,
        rate: f64,
        /// Job watchdog armed while this cell runs.
        watchdog_ms: Option<u64>,
    }
    use faultline::Action::{Delay, Error, Panic};
    let mut cells = Vec::new();
    for rate in [0.25, 1.0] {
        for (failpoint, action, watchdog_ms) in [
            ("fused.entry", Error, None),
            ("par_fused.entry", Error, None),
            ("pipeline.band", Panic, None),
            ("pool.task", Panic, None),
            ("pool.worker", Panic, None),
            ("pool.task", Delay(25), Some(10)),
        ] {
            cells.push(Cell {
                failpoint,
                action,
                rate,
                watchdog_ms,
            });
        }
    }

    println!("Chaos mode: injected-fault matrix over the fused pipeline");
    println!(
        "image {w}x{h}, {} runs per arm per cell, base seed {seed}\n",
        runs_per_cell
    );

    faultline::disarm_all();
    rayon::reset_circuit_breaker();
    rayon::set_job_watchdog(None);
    obs::set_enabled(true);
    obs::reset();

    let engine = host_hand_engine();
    // The parallel arm runs the edge on Autovec, whose bands check out
    // their rings from each worker's arena, so the arena-return
    // invariant below has something to leak. (The Native edge band reads
    // its source rows directly and checks out an empty workspace.)
    let par_engine = Engine::Autovec;
    let kernel = paper_gaussian_kernel();
    let src = pixelimage::synthetic_image(w, h, seed);
    // Small bands on 4 workers so the parallel arm schedules many tasks
    // through the real pool (a cache-sized plan would fit the whole test
    // frame in one band and bypass the scheduler entirely).
    let plan = BandPlan {
        band_rows: 8,
        threads: 4,
    };
    // Injected panics are expected by the thousand; silence the default
    // hook's backtrace spam for the duration (restored before exit).
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    // Disarmed references for the bit-exactness checks, plus the healthy
    // worker complement.
    let mut gauss_ref = Image::<u8>::new(w, h);
    simdbench_core::gaussian::try_gaussian_blur_kernel(&src, &mut gauss_ref, &kernel, engine)
        .expect("disarmed Gaussian reference");
    let mut edge_ref = Image::<u8>::new(w, h);
    simdbench_core::edge::try_edge_detect(&src, &mut edge_ref, 96, Engine::Scalar)
        .expect("disarmed edge reference");
    let mut par_dst = Image::<u8>::new(w, h);
    try_par_fused_edge_detect_with(&src, &mut par_dst, 96, par_engine, &plan)
        .expect("disarmed warm-up run");
    let complement = live_workers_after_wait(plan.threads);

    let mut violations: Vec<String> = Vec::new();
    println!(
        "{:<16} {:<9} {:>5}  {:>6} {:>9}  {:>6} {:>9}",
        "failpoint", "action", "rate", "seq-ok", "seq-fault", "par-ok", "par-fault"
    );

    for (index, cell) in cells.iter().enumerate() {
        let label = format!("{} {:?} rate {}", cell.failpoint, cell.action, cell.rate);
        faultline::disarm_all();
        rayon::reset_circuit_breaker();
        rayon::set_job_watchdog(cell.watchdog_ms.map(Duration::from_millis));
        faultline::arm(cell.failpoint, cell.action, cell.rate, seed + index as u64);

        let mut scratch = Scratch::new();
        let (mut seq_ok, mut seq_fault) = (0u32, 0u32);
        let (mut par_ok, mut par_fault) = (0u32, 0u32);
        for _ in 0..runs_per_cell {
            // Sequential arm: fused Gaussian with a caller-owned arena.
            let mut dst = Image::<u8>::new(w, h);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                try_fused_gaussian_blur_with(&src, &mut dst, &kernel, engine, &mut scratch)
            }));
            match outcome {
                Ok(Ok(())) => {
                    seq_ok += 1;
                    if !dst.pixels_eq(&gauss_ref) {
                        violations.push(format!("{label}: seq Ok run not bit-exact"));
                    }
                }
                Ok(Err(KernelError::FaultInjected { .. })) => seq_fault += 1,
                Ok(Err(other)) => {
                    violations.push(format!("{label}: seq unexpected error {other:?}"))
                }
                Err(_) => violations.push(format!("{label}: seq try_* unwound")),
            }
            if scratch.outstanding_bytes() != 0 {
                violations.push(format!(
                    "{label}: {} scratch bytes outstanding after seq run",
                    scratch.outstanding_bytes()
                ));
            }

            // Parallel arm: banded fused edge over the worker pool.
            let mut dst = Image::<u8>::new(w, h);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                try_par_fused_edge_detect_with(&src, &mut dst, 96, par_engine, &plan)
            }));
            match outcome {
                Ok(Ok(())) => {
                    par_ok += 1;
                    if !dst.pixels_eq(&edge_ref) {
                        violations.push(format!("{label}: par Ok run not bit-exact"));
                    }
                }
                Ok(Err(KernelError::FaultInjected { .. })) => par_fault += 1,
                Ok(Err(other)) => {
                    violations.push(format!("{label}: par unexpected error {other:?}"))
                }
                Err(_) => violations.push(format!("{label}: par try_* unwound")),
            }
        }
        faultline::disarm_all();
        rayon::set_job_watchdog(None);

        // Invariant: no pool worker's thread-local arena holds an
        // un-returned workspace after the cell. Swept per cell, because a
        // later `pool.worker` cell kills workers and frees their arenas,
        // leaks included.
        live_workers_after_wait(complement);
        let leaked = AtomicUsize::new(0);
        rayon::broadcast(|_| {
            leaked.fetch_add(scratch::worker_arena_outstanding_bytes(), Ordering::Relaxed);
        });
        if leaked.load(Ordering::Relaxed) != 0 {
            violations.push(format!(
                "{label}: {} scratch bytes outstanding across worker arenas",
                leaked.load(Ordering::Relaxed)
            ));
        }
        println!(
            "{:<16} {:<9} {:>5}  {:>6} {:>9}  {:>6} {:>9}",
            cell.failpoint,
            format!("{:?}", cell.action),
            cell.rate,
            seq_ok,
            seq_fault,
            par_ok,
            par_fault
        );
    }

    // Invariant: the pool returns to its full worker complement once the
    // injected deaths stop.
    let live = live_workers_after_wait(complement);
    if live < complement {
        violations.push(format!(
            "pool complement not restored: {live}/{complement} workers live"
        ));
    }

    // Circuit-breaker demonstration: open it with injected task panics,
    // prove a degraded serial run completes bit-exactly, then close it
    // through the half-open probe.
    rayon::reset_circuit_breaker();
    faultline::arm(
        "pool.task",
        faultline::Action::Panic,
        1.0,
        seed ^ 0x0B1E_A4E5,
    );
    let mut breaker_attempts = 0;
    while !rayon::circuit_breaker_open() && breaker_attempts < 8 {
        let mut dst = Image::<u8>::new(w, h);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            try_par_fused_edge_detect_with(&src, &mut dst, 96, par_engine, &plan)
        }));
        breaker_attempts += 1;
    }
    faultline::disarm_all();
    if !rayon::circuit_breaker_open() {
        violations.push("circuit breaker failed to open under repeated job panics".into());
    }
    let degraded_before = obs::snapshot().counter(obs::Counter::PoolDegradedRuns);
    let mut dst = Image::<u8>::new(w, h);
    let degraded_result = try_par_fused_edge_detect_with(&src, &mut dst, 96, par_engine, &plan);
    let degraded_after = obs::snapshot().counter(obs::Counter::PoolDegradedRuns);
    if degraded_result != Ok(()) || !dst.pixels_eq(&edge_ref) {
        violations.push("degraded serial run failed or was not bit-exact".into());
    }
    if degraded_after == degraded_before {
        violations.push("open breaker did not route through the degraded serial path".into());
    }
    let mut close_attempts = 0;
    while rayon::circuit_breaker_open() && close_attempts < 32 {
        let mut dst = Image::<u8>::new(w, h);
        let _ = try_par_fused_edge_detect_with(&src, &mut dst, 96, par_engine, &plan);
        close_attempts += 1;
    }
    if rayon::circuit_breaker_open() {
        violations.push("breaker failed to close after fault source removed".into());
    }
    rayon::reset_circuit_breaker();
    std::panic::set_hook(prev_hook);

    let snap = obs::snapshot();
    println!("\nrecovery counters:");
    println!(
        "  pool.respawns       {}",
        snap.counter(obs::Counter::PoolRespawns)
    );
    println!(
        "  pool.watchdog_trips {}",
        snap.counter(obs::Counter::PoolWatchdogTrips)
    );
    println!(
        "  pool.degraded_runs  {}",
        snap.counter(obs::Counter::PoolDegradedRuns)
    );
    println!(
        "  workers live        {}/{} (complement restored)",
        rayon::pool_live_workers(),
        complement
    );
    println!("  breaker             open -> degraded serial (bit-exact) -> closed");

    if violations.is_empty() {
        println!("\nchaos matrix clean: every run completed or errored cleanly, no leaks");
    } else {
        println!("\n{} INVARIANT VIOLATIONS:", violations.len());
        for v in &violations {
            println!("  - {v}");
        }
        std::process::exit(1);
    }
}

/// Waits up to 10 s for at least `want` pool workers to be live and
/// returns the census. A worker counts itself live only once its thread
/// has started, and respawns are asynchronous.
fn live_workers_after_wait(want: usize) -> usize {
    use std::time::{Duration, Instant};

    let deadline = Instant::now() + Duration::from_secs(10);
    while rayon::pool_live_workers() < want && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    rayon::pool_live_workers()
}

/// Stream mode: drives N synthetic frames through the multi-frame
/// streaming engine (DESIGN.md §11) at a configurable offered rate and
/// reports throughput, latency distribution, and shed/reject counts.
///
/// `--rate FPS` runs open-loop: frames are offered on schedule and a
/// saturated queue rejects them (the backpressure the report counts).
/// `--rate 0` (default) runs closed-loop: submission retries until
/// admitted, measuring the engine's capacity.
///
/// `--quick` is the CI smoke: small frames at a gentle rate, asserting
/// zero shed, zero failures, bit-exact output against the serial
/// two-pass scalar kernel, and a flat slot-arena ledger across the steady state (the
/// zero-allocation proof). Exits non-zero on any violation.
fn stream_mode(args: &[String]) {
    use simdbench_core::edge::try_edge_detect;
    use simdbench_core::gaussian::try_gaussian_blur_kernel;
    use simdbench_core::kernelgen::paper_gaussian_kernel;
    use simdbench_core::stream::{
        frame_checksum, summarize, FrameStatus, StreamConfig, StreamEngine, StreamError,
        StreamKernel,
    };
    use simdbench_core::Engine;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let flags = Flags::parse(
        "stream",
        args,
        &["--quick", "--telemetry"],
        &[
            "--telemetry-json",
            "--json",
            "--image",
            "--frames",
            "--rate",
            "--slo-ms",
            "--kernel",
            "--slots",
            "--queue",
        ],
    );
    let quick = flags.has("--quick");
    let resolutions = Resolution::ALL.map(|r| (r.label(), r));
    let res = flags
        .choice("--image", &resolutions)
        .unwrap_or(Resolution::Vga);
    let frames: u64 = flags
        .number("--frames")
        .unwrap_or(if quick { 48 } else { 240 });
    let rate: f64 = flags
        .number("--rate")
        .unwrap_or(if quick { 120.0 } else { 0.0 });
    let slo_ms: Option<u64> = flags.number("--slo-ms");
    let kernels = [
        ("gaussian", StreamKernel::Gaussian),
        ("edge", StreamKernel::Edge),
    ];
    let kernel = flags
        .choice("--kernel", &kernels)
        .unwrap_or(StreamKernel::Gaussian);
    let slots: Option<usize> = flags.number("--slots");
    let queue_cap: Option<usize> = flags.number("--queue");
    let telemetry = flags.telemetry();
    let telemetry_path = flags
        .value("--telemetry-json")
        .unwrap_or("results/telemetry_stream.json");
    let json_path = flags.value("--json").unwrap_or("results/stream.json");

    let (width, height, res_label) = if quick {
        (160, 120, "160x120".to_string())
    } else {
        let (w, h) = res.dims();
        (w, h, res.label().to_string())
    };

    let mut config = StreamConfig::new(width, height);
    config.kernel = kernel;
    config.engine = host_hand_engine();
    if let Some(n) = slots {
        config.slots = n;
    }
    if let Some(n) = queue_cap {
        config.queue_cap = n;
    }
    // Quick keeps a generous SLO armed so the shed path is live (and
    // provably silent at this rate); full runs shed only on request.
    config.slo = slo_ms
        .or(if quick { Some(1000) } else { None })
        .map(Duration::from_millis);

    println!("Stream mode: multi-frame engine over the fused pipeline");
    println!(
        "frame {res_label}, {} frames, offered rate {}, {} slots, queue cap {}, kernel {:?}\n",
        frames,
        if rate > 0.0 {
            format!("{rate} fps (open loop)")
        } else {
            "max (closed loop)".into()
        },
        config.slots,
        config.queue_cap,
        config.kernel,
    );

    let src = Arc::new(pixelimage::synthetic_image(width, height, 7));
    // Reference checksum for the bit-exactness check, from the serial
    // two-pass scalar kernel: a fault in the stream engine's own fused
    // rows cannot then agree with itself.
    let want = {
        let mut reference = pixelimage::Image::new(width, height);
        match config.kernel {
            StreamKernel::Gaussian => try_gaussian_blur_kernel(
                &src,
                &mut reference,
                &paper_gaussian_kernel(),
                Engine::Scalar,
            ),
            StreamKernel::Edge => {
                try_edge_detect(&src, &mut reference, config.thresh, Engine::Scalar)
            }
        }
        .expect("serial reference run");
        frame_checksum(&reference)
    };

    let slo_for_json = config.slo;
    let (slots, queue_cap) = (config.slots.max(1), config.queue_cap.max(1));
    let engine = match StreamEngine::new(config) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("stream config rejected: {e}");
            std::process::exit(1);
        }
    };

    // Warm-up: one closed-loop pass per slot settles every arena, then
    // the ledger must stay flat for the measured run.
    for id in 0..4u64 {
        while let Err(StreamError::Saturated { .. }) = engine.submit(id, Arc::clone(&src)) {
            engine.wait_idle();
        }
    }
    engine.wait_idle();
    let warm_allocs = engine.slot_fresh_allocs();

    let start = Instant::now();
    let mut rejected = 0u64;
    for i in 0..frames {
        if rate > 0.0 {
            let target = start + Duration::from_secs_f64(i as f64 / rate);
            let now = Instant::now();
            if target > now {
                std::thread::sleep(target - now);
            }
        }
        loop {
            match engine.submit(100 + i, Arc::clone(&src)) {
                Ok(()) => break,
                Err(StreamError::Saturated { .. }) if rate > 0.0 => {
                    // Open loop: the offered frame is lost to
                    // backpressure; that IS the measurement.
                    rejected += 1;
                    break;
                }
                Err(StreamError::Saturated { .. }) => {
                    std::thread::sleep(Duration::from_micros(50));
                }
                Err(e) => {
                    eprintln!("frame {i} rejected: {e}");
                    rejected += 1;
                    break;
                }
            }
        }
    }
    engine.wait_idle();
    let wall = start.elapsed();
    let end_allocs = engine.slot_fresh_allocs();
    let outstanding = engine.outstanding_scratch_bytes();
    let outcomes = engine.finish();

    // Warm-up outcomes (ids < 100) are excluded from the report.
    let measured: Vec<_> = outcomes.into_iter().filter(|o| o.id >= 100).collect();
    let summary = summarize(&measured);
    let mismatched = measured
        .iter()
        .filter(|o| matches!(o.status, FrameStatus::Completed { checksum } if checksum != want))
        .count();
    let latencies: Vec<f64> = measured
        .iter()
        .filter(|o| matches!(o.status, FrameStatus::Completed { .. }))
        .map(|o| o.latency.as_secs_f64())
        .collect();
    let latency = obs::stats::SampleStats::from_samples(&latencies);
    let throughput = summary.completed as f64 / wall.as_secs_f64();

    println!("offered     {frames}");
    println!("rejected    {rejected}  (queue backpressure)");
    println!("shed        {}  (SLO expired in queue)", summary.shed);
    println!("failed      {}", summary.failed);
    println!(
        "completed   {}  ({mismatched} checksum mismatches)",
        summary.completed
    );
    println!(
        "degraded    {}  (breaker-open serial frames)",
        summary.degraded
    );
    println!("wall        {:.3}s", wall.as_secs_f64());
    println!("throughput  {throughput:.1} frames/s");
    println!(
        "latency     mean {:.6}s  p50 {:.6}s  p95 {:.6}s  max {:.6}s",
        latency.mean, latency.median, latency.p95, latency.max
    );
    println!("slot arenas fresh allocs {warm_allocs} -> {end_allocs}, {outstanding} B outstanding");

    let report = StreamReport {
        width,
        height,
        res_label: res_label.clone(),
        frames,
        rate,
        slots,
        queue_cap,
        slo_ms: slo_for_json.map(|d| d.as_millis() as u64),
        kernel: match kernel {
            StreamKernel::Gaussian => "gaussian",
            StreamKernel::Edge => "edge",
        },
        rejected,
        shed: summary.shed,
        failed: summary.failed,
        completed: summary.completed,
        degraded: summary.degraded,
        mean_s: latency.mean,
        p50_s: latency.median,
        p95_s: latency.p95,
        max_s: latency.max,
        throughput_fps: throughput,
        wall_s: wall.as_secs_f64(),
        warm_allocs,
        end_allocs,
        outstanding,
        mismatched,
    };
    println!();
    write_output(json_path, stream_json(&report));

    if telemetry {
        telemetry_report(telemetry_path);
    }

    if quick {
        let mut violations = Vec::new();
        if summary.shed != 0 {
            violations.push(format!("{} frames shed at smoke rate", summary.shed));
        }
        if summary.failed != 0 {
            violations.push(format!("{} frames failed", summary.failed));
        }
        if rejected != 0 {
            violations.push(format!("{rejected} frames rejected at smoke rate"));
        }
        if summary.completed as u64 != frames {
            violations.push(format!(
                "{} of {frames} frames completed",
                summary.completed
            ));
        }
        if mismatched != 0 {
            violations.push(format!("{mismatched} frames not bit-exact vs serial"));
        }
        if end_allocs != warm_allocs {
            violations.push(format!(
                "slot arenas grew at steady state: {warm_allocs} -> {end_allocs} fresh allocs"
            ));
        }
        if outstanding != 0 {
            violations.push(format!("{outstanding} scratch bytes outstanding"));
        }
        if violations.is_empty() {
            println!("stream smoke clean: zero shed, zero alloc growth, bit-exact");
        } else {
            println!("\n{} STREAM SMOKE VIOLATIONS:", violations.len());
            for v in &violations {
                println!("  - {v}");
            }
            std::process::exit(1);
        }
    }
}

/// Section V: instruction-stream comparison of HAND vs AUTO per kernel.
fn asm_analysis() {
    use op_trace::analysis::{StreamComparison, StreamProfile};
    use op_trace::OpMix;
    use platform_model::workload::{auto_mix, hand_mix};

    println!("Section V analysis: instruction streams per output pixel");
    println!("(HAND measured through the simulated intrinsic surfaces;");
    println!(" AUTO modelled from the paper's gcc 4.6 disassembly)\n");
    for isa in [Isa::Neon, Isa::Sse2] {
        println!("--- {} ---", isa.label());
        for kernel in Kernel::ALL {
            let hand = hand_mix(kernel, isa);
            let auto = auto_mix(kernel, isa);
            // Render per 1000 pixels so integer op counts read naturally.
            let to_opmix = |m: &platform_model::workload::PixelMix| {
                let mut mix = OpMix::new();
                for class in op_trace::OpClass::ALL {
                    mix.set(class, (m.get(class) * 1000.0).round() as u64);
                }
                mix
            };
            let cmp = StreamComparison::new(
                format!("{} [{}]", kernel.label(), isa.label()),
                StreamProfile::new("HAND (intrinsics)", to_opmix(&hand), 1000),
                StreamProfile::new("AUTO (gcc 4.6)", to_opmix(&auto), 1000),
            );
            print!("{}", cmp.report());
        }
    }
}

/// A4: energy-efficiency extension.
fn energy() {
    use platform_model::energy::{classify, joules_per_frame, megapixels_per_joule};
    use platform_model::Strategy;

    println!("Energy extension (A4): 8 Mpx Gaussian blur, per-frame energy");
    println!(
        "{:<14} {:>6} {:>12} {:>12} {:>14}  tier",
        "platform", "watts", "J/frame(A)", "J/frame(H)", "Mpx/J (HAND)"
    );
    for p in all_platforms() {
        let auto = joules_per_frame(&p, Kernel::Gaussian, Strategy::Auto, Resolution::Mp8);
        let hand = joules_per_frame(&p, Kernel::Gaussian, Strategy::Hand, Resolution::Mp8);
        let eff = megapixels_per_joule(&p, Kernel::Gaussian, Strategy::Hand, Resolution::Mp8);
        println!(
            "{:<14} {:>6.1} {:>12.4} {:>12.4} {:>14.2}  {:?}",
            p.short,
            p.tdp_watts,
            auto,
            hand,
            eff,
            classify(&p)
        );
    }
}

/// Prints one `label` × image row of two timings and their ratio, and
/// appends the same row to `csv`.
fn report_row(csv: &mut String, label: &str, res: Resolution, a: f64, b: f64) {
    let r = res.label();
    println!("{label:<14} {r:>11} {a:>12.6} {b:>12.6} {:>8.2}x", a / b);
    csv.push_str(&format!("{label},{r},{a:.6},{b:.6},{:.3}\n", a / b));
}

/// Fused mode: band-tiled fused pipeline vs the two-pass kernels on this
/// machine, native engine, paper protocol — the A4 locality experiment.
fn fused_mode(args: &[String]) {
    use repro_harness::timing::measure_fused;

    let t = Timing::parse("fused", args, &["--csv", "--json"]);
    const STENCILS: [Kernel; 3] = [Kernel::Gaussian, Kernel::Sobel, Kernel::Edge];

    println!("Fused mode: band-tiled fused pipeline vs two-pass (native engine)");
    println!(
        "protocol: {} images x {} cycles per point\n",
        t.config.images, t.config.cycles
    );
    println!(
        "{:<14} {:>11} {:>12} {:>12} {:>9}",
        "kernel", "image", "2-pass (s)", "fused (s)", "speed-up"
    );
    let mut csv = String::from("kernel,image,two_pass_seconds,fused_seconds,speedup\n");
    let engine = host_hand_engine();
    for &res in t.resolutions {
        let work = WorkSet::new(res, t.config.images);
        for kernel in STENCILS {
            let two_pass = measure(kernel, engine, &work, &t.config);
            let fused = measure_fused(kernel, engine, &work, &t.config);
            let label = kernel.table3_label();
            report_row(&mut csv, label, res, two_pass.seconds, fused.seconds);
        }
    }
    t.finish(csv, "results/telemetry_fused.json");
}

/// Parallel mode: the band-parallel fused pipeline on the persistent
/// work-stealing pool vs the sequential fused kernels, under the paper's
/// timing protocol. It runs on the global pool at the host's width (the
/// pool perfbench measures), so both tools answer the same question.
fn parallel_mode(args: &[String]) {
    use repro_harness::timing::{measure_fused, measure_parallel};

    let t = Timing::parse("parallel", args, &["--csv", "--json"]);
    const STENCILS: [Kernel; 3] = [Kernel::Gaussian, Kernel::Sobel, Kernel::Edge];

    println!("Parallel mode: persistent pool vs sequential fused (native engine)");
    println!(
        "pool width {}; protocol: {} images x {} cycles per point\n",
        rayon::current_num_threads(),
        t.config.images,
        t.config.cycles
    );
    println!(
        "{:<14} {:>11} {:>12} {:>12} {:>9}",
        "kernel", "image", "seq (s)", "pool (s)", "pool gain"
    );
    let mut csv = String::from("kernel,image,seq_seconds,pool_seconds,pool_gain\n");
    let engine = host_hand_engine();
    for &res in t.resolutions {
        let work = WorkSet::new(res, t.config.images);
        for kernel in STENCILS {
            let seq = measure_fused(kernel, engine, &work, &t.config);
            // Snapshot/reset lifecycle (DESIGN.md §9): the sequential arm
            // runs its single band on this thread, so its counters and
            // span trees must not bleed into the pool arm's telemetry.
            obs::reset();
            let pooled = measure_parallel(kernel, engine, &work, &t.config);
            let label = kernel.table3_label();
            report_row(&mut csv, label, res, seq.seconds, pooled.seconds);
        }
    }
    if t.telemetry {
        println!("\n(telemetry covers the final pool arm; obs::reset() isolates arms)");
    }
    t.finish(csv, "results/telemetry_parallel.json");
}

/// Extensions mode: the related-work kernels on this machine under the
/// paper protocol. A5 colour conversion, A6 2x downsampling and A9 median
/// blur run AUTO vs HAND; A8 times the AVX2 widenings of the convert and
/// threshold rows against the SSE2 rows they replace.
fn extensions_mode(args: &[String]) {
    use pixelimage::Image;
    use simdbench_core::{avx, color, convert, median, resize, threshold, ThresholdType};
    type ConvertRow = fn(&[f32], &mut [i16]);
    type ThresholdRow = fn(&[u8], &mut [u8], u8, u8, ThresholdType);

    let t = Timing::parse("extensions", args, &["--csv", "--json"]);
    let avx2 = avx::avx2_available();

    println!("Extensions mode: AUTO vs HAND (A5/A6/A9), SSE2 vs AVX2 rows (A8)");
    println!(
        "protocol: {} images x {} cycles per point\n",
        t.config.images, t.config.cycles
    );
    println!(
        "{:<14} {:>11} {:>12} {:>12} {:>9}",
        "kernel", "image", "base (s)", "new (s)", "speed-up"
    );
    let mut csv = String::from("kernel,image,base_seconds,new_seconds,speedup\n");
    let (cfg, engines) = (&t.config, [host_auto_engine(), host_hand_engine()]);
    for &res in t.resolutions {
        let work = WorkSet::new(res, t.config.images);
        let (w, h) = res.dims();
        let n = work.gray.len();
        let mut dst = Image::<u8>::new(w, h);
        let mut half = Image::<u8>::new(w / 2, h / 2);
        let mut short = Image::<i16>::new(w, h);
        compare_arms(&mut csv, "color", &work, cfg, engines, |i, engine| {
            // Three consecutive suite images stand in for the B, G, R planes.
            let [b, g, r] = [i, i + 1, i + 2].map(|j| &work.gray[j % n]);
            color::try_bgr_to_gray(b, g, r, &mut dst, engine).expect("suite planes agree");
        });
        compare_arms(&mut csv, "downsample", &work, cfg, engines, |i, engine| {
            resize::try_downsample2x(&work.gray[i], &mut half, engine).expect("dst is src/2");
        });
        compare_arms(&mut csv, "median", &work, cfg, engines, |i, engine| {
            median::try_median_blur3(&work.gray[i], &mut dst, engine).expect("same-shape frames");
        });
        if !avx2 {
            continue;
        }
        let arms: [ConvertRow; 2] = [convert::convert_row_native, avx::convert_row_avx2];
        compare_arms(&mut csv, "convert_avx2", &work, cfg, arms, |i, row| {
            for y in 0..h {
                row(work.float[i].row(y), short.row_mut(y));
            }
        });
        let arms: [ThresholdRow; 2] = [threshold::threshold_row_native, avx::threshold_row_avx2];
        compare_arms(&mut csv, "threshold_avx2", &work, cfg, arms, |i, row| {
            for y in 0..h {
                let (src, out) = (work.gray[i].row(y), dst.row_mut(y));
                row(src, out, 128, 255, ThresholdType::Binary);
            }
        });
    }
    if !avx2 {
        println!("convert_avx2, threshold_avx2: skipped (no AVX2 on this host)");
    }
    t.finish(csv, "results/telemetry_extensions.json");
}

/// Times `run` once per arm under the paper protocol (`run` gets the
/// work-set image index and the arm) and reports the two means as one
/// row: the first arm is the base, the second the new code.
fn compare_arms<A: Copy>(
    csv: &mut String,
    label: &'static str,
    work: &WorkSet,
    config: &HostConfig,
    arms: [A; 2],
    mut run: impl FnMut(usize, A),
) {
    use repro_harness::timing::run_protocol;

    let _span = obs::span(label);
    let [base, new] = arms.map(|arm| run_protocol(work, config, |i| run(i, arm)).0);
    report_row(csv, label, work.resolution, base, new);
}

/// Host mode: real measurements on this machine.
fn host_mode(args: &[String]) {
    use repro_harness::timing::HostMeasurement;

    let t = Timing::parse("host", args, &["--csv", "--json", "--bench-json"]);
    let bench_path = t
        .flags
        .value("--bench-json")
        .unwrap_or("results/bench_host.json");

    println!("Host mode: AUTO (compiler-vectorized Rust) vs HAND (native intrinsics)");
    println!(
        "protocol: {} images x {} cycles per point\n",
        t.config.images, t.config.cycles
    );
    println!(
        "{:<14} {:>11} {:>12} {:>12} {:>9}",
        "kernel", "image", "AUTO (s)", "HAND (s)", "speed-up"
    );
    let mut csv = String::from("kernel,image,auto_seconds,hand_seconds,speedup\n");
    let mut rows: Vec<HostMeasurement> = Vec::new();
    for &res in t.resolutions {
        let work = WorkSet::new(res, t.config.images);
        for kernel in Kernel::ALL {
            let auto = measure(kernel, host_auto_engine(), &work, &t.config);
            let hand = measure(kernel, host_hand_engine(), &work, &t.config);
            let label = kernel.table3_label();
            report_row(&mut csv, label, res, auto.seconds, hand.seconds);
            rows.push(auto);
            rows.push(hand);
        }
    }

    println!("\nper-pass distribution (seconds):");
    println!(
        "{:<10} {:>11} {:>8} {:>11} {:>11} {:>11} {:>11} {:>11}",
        "kernel", "image", "engine", "min", "median", "p95", "max", "stddev"
    );
    for m in &rows {
        let s = m.stats();
        println!(
            "{:<10} {:>11} {:>8} {:>11.6} {:>11.6} {:>11.6} {:>11.6} {:>11.6}",
            m.kernel.table3_label(),
            m.resolution.label(),
            m.engine.label(),
            s.min,
            s.median,
            s.p95,
            s.max,
            s.stddev
        );
    }

    println!();
    write_output(bench_path, bench_json(&t.config, &rows));
    t.finish(csv, "results/telemetry_host.json");
}

/// Everything the stream-mode JSON report records: configuration,
/// counts, latency distribution, throughput, and the slot-arena ledger
/// evidence for the zero-allocation claim.
struct StreamReport {
    width: usize,
    height: usize,
    res_label: String,
    frames: u64,
    rate: f64,
    slots: usize,
    queue_cap: usize,
    slo_ms: Option<u64>,
    kernel: &'static str,
    rejected: u64,
    shed: usize,
    failed: usize,
    completed: usize,
    degraded: usize,
    mean_s: f64,
    p50_s: f64,
    p95_s: f64,
    max_s: f64,
    throughput_fps: f64,
    wall_s: f64,
    warm_allocs: usize,
    end_allocs: usize,
    outstanding: usize,
    mismatched: usize,
}

/// Writes the machine-readable stream-mode dump consumed by the
/// EXPERIMENTS.md A14 throughput-vs-offered-rate analysis.
fn stream_json(r: &StreamReport) -> String {
    use obs::json::number;

    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"config\": {{\"image\": \"{}\", \"width\": {}, \"height\": {}, \"frames\": {}, \
         \"offered_rate_fps\": {}, \"slots\": {}, \"queue_cap\": {}, \"slo_ms\": {}, \
         \"kernel\": \"{}\"}},\n",
        r.res_label,
        r.width,
        r.height,
        r.frames,
        number(r.rate),
        r.slots,
        r.queue_cap,
        r.slo_ms.map_or("null".into(), |v| v.to_string()),
        r.kernel,
    ));
    out.push_str(&format!(
        "  \"counts\": {{\"offered\": {}, \"rejected\": {}, \"shed\": {}, \"failed\": {}, \
         \"completed\": {}, \"degraded\": {}, \"checksum_mismatches\": {}}},\n",
        r.frames, r.rejected, r.shed, r.failed, r.completed, r.degraded, r.mismatched,
    ));
    out.push_str(&format!(
        "  \"latency_s\": {{\"mean\": {}, \"p50\": {}, \"p95\": {}, \"max\": {}}},\n",
        number(r.mean_s),
        number(r.p50_s),
        number(r.p95_s),
        number(r.max_s),
    ));
    out.push_str(&format!(
        "  \"throughput_fps\": {},\n  \"wall_s\": {},\n",
        number(r.throughput_fps),
        number(r.wall_s),
    ));
    out.push_str(&format!(
        "  \"steady_state\": {{\"warm_fresh_allocs\": {}, \"end_fresh_allocs\": {}, \
         \"outstanding_bytes\": {}}}\n}}\n",
        r.warm_allocs, r.end_allocs, r.outstanding,
    ));
    out
}

/// Writes the machine-readable host benchmark dump: one record per
/// (kernel, engine, resolution) point with the full distribution summary,
/// consumed by `scripts_merge_bench.py` to populate the BENCH trajectory.
fn bench_json(config: &HostConfig, rows: &[repro_harness::timing::HostMeasurement]) -> String {
    use obs::json::number;

    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"protocol\": {{\"images\": {}, \"cycles\": {}, \"warmup\": {}}},\n",
        config.images, config.cycles, config.warmup
    ));
    out.push_str("  \"measurements\": [\n");
    for (i, m) in rows.iter().enumerate() {
        let s = m.stats();
        out.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"engine\": \"{}\", \"image\": \"{}\", \"runs\": {}, \
             \"mean_s\": {}, \"min_s\": {}, \"median_s\": {}, \"p95_s\": {}, \"max_s\": {}, \
             \"stddev_s\": {}}}{}\n",
            m.kernel.table3_label(),
            m.engine.label(),
            m.resolution.label(),
            m.runs,
            number(m.seconds),
            number(s.min),
            number(s.median),
            number(s.p95),
            number(s.max),
            number(s.stddev),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
