//! The repository benchmark: end-to-end stream and paper-suite metrics
//! from an untraced run, per-layer metrics from a traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload vga-gaussian --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `README.md` beside this file
//! for every metric and workload.

mod adapter;
mod endtoend;
mod inputs;
mod layers;
mod openloop;
mod stats;

use std::process::{Command, ExitCode};
use std::time::Duration;

use adapter::StreamOp;
use inputs::Inputs;

/// One set of inputs and offered load.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub width: usize,
    pub height: usize,
    pub op: StreamOp,
    /// Distinct frames a run rotates through.
    pub frames: usize,
    /// Offered rate of the open loop, frames per second.
    pub open_rate_hz: f64,
    /// Admission queue of the open-loop stream.
    pub open_queue_cap: usize,
    /// SLO of the open-loop stream; queued frames older than it are shed.
    pub slo: Option<Duration>,
    /// Offered above capacity: refusals and shedding are expected, and
    /// there is no closed loop.
    pub overload: bool,
    /// Percentile reported as `frame_tail_ms`: the highest one the
    /// open loop's sample count leaves at least ten samples beyond.
    pub tail_pct: f64,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "vga-gaussian",
        width: 640,
        height: 480,
        op: StreamOp::Gaussian,
        frames: 8,
        open_rate_hz: 200.0,
        open_queue_cap: 64,
        slo: None,
        overload: false,
        tail_pct: 90.0,
    },
    Workload {
        name: "8mpx-edge",
        width: 3264,
        height: 2448,
        op: StreamOp::Edge,
        frames: 4,
        open_rate_hz: 20.0,
        open_queue_cap: 64,
        slo: None,
        overload: false,
        tail_pct: 90.0,
    },
    Workload {
        name: "vga-overload",
        width: 640,
        height: 480,
        op: StreamOp::Gaussian,
        frames: 8,
        open_rate_hz: 4000.0,
        open_queue_cap: 4,
        slo: Some(Duration::from_millis(3)),
        overload: true,
        tail_pct: 99.0,
    },
];

/// End-to-end metrics (untraced run): name and unit.
pub const END_TO_END: [(&str, &str); 9] = [
    ("stream_fps", "1/s"),
    ("frame_p50_ms", "ms"),
    ("frame_tail_ms", "ms"),
    ("error_rate", "ratio"),
    ("suite_hand_ms", "ms"),
    ("suite_auto_ms", "ms"),
    ("par_frame_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Metric values of one run, by name.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Checks the run produced exactly `expected`, each once and finite.
    fn check(&self, expected: &[(String, &'static str)]) -> Result<(), String> {
        let mut got: Vec<(&str, &str)> = self
            .metrics
            .iter()
            .map(|(n, _, u)| (n.as_str(), *u))
            .collect();
        let mut want: Vec<(&str, &str)> = expected.iter().map(|(n, u)| (n.as_str(), *u)).collect();
        got.sort_unstable();
        want.sort_unstable();
        if got != want {
            return Err(format!("metrics produced {got:?}, expected {want:?}"));
        }
        match self.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
            Some((n, v, _)) => Err(format!("metric {n} is {v}")),
            None => Ok(()),
        }
    }

    fn json(&self, tally: &Tally, correct: bool) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.offered.max(1),
            tally.failed + tally.mismatched,
            body.join(", ")
        )
    }
}

/// Outcome counts of every checked operation of a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub offered: u64,
    /// Frames the stream refused at admission.
    pub refused: u64,
    /// Frames shed for missing their SLO in the queue.
    pub shed: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Outputs that differ from the scalar reference.
    pub mismatched: u64,
}

impl Tally {
    /// Counts one checked output: `got` is its digest or the error.
    pub fn check(&mut self, got: Result<u64, String>, want: u64) {
        self.offered += 1;
        match got {
            Ok(d) if d == want => {}
            Ok(_) => self.mismatched += 1,
            Err(e) => {
                eprintln!("operation failed: {e}");
                self.failed += 1;
            }
        }
    }

    pub fn errors(&self) -> u64 {
        self.refused + self.shed + self.failed + self.mismatched
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_probe = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            setup_probe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                let w = WORKLOADS.iter().find(|w| w.name == value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value}; one of {names:?}")
                })?;
                workload = Some(*w);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
        setup_probe,
    })
}

/// Runs the set-up probe `n` times, each in a fresh process, and returns
/// the median seconds.
fn setup_seconds(wl: &Workload, seed: u64, n: usize) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut secs = Vec::with_capacity(n);
    for _ in 0..n {
        let out = Command::new(&exe)
            .args(["--setup-probe", "--workload", wl.name, "--seed"])
            .arg(seed.to_string())
            .output()
            .map_err(|e| format!("set-up probe: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let value = stdout
            .lines()
            .last()
            .and_then(|l| l.strip_prefix("setup_s "))
            .and_then(|v| v.parse::<f64>().ok());
        match (out.status.success(), value) {
            (true, Some(v)) => secs.push(v),
            _ => {
                return Err(format!(
                    "set-up probe failed ({}): {}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr)
                ))
            }
        }
    }
    println!("setup probes (s): {secs:?}");
    Ok(stats::median(&secs))
}

/// Peak resident set of this process, from `VmHWM`.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let wl = &args.workload;
    if args.setup_probe {
        let secs = endtoend::setup_probe(wl, args.seed)?;
        println!("setup_s {secs}");
        return Ok(ExitCode::SUCCESS);
    }
    println!(
        "workload {} ({}x{}, {:?}), seed {}, {} s, trace {}, pool width {}",
        wl.name,
        wl.width,
        wl.height,
        wl.op,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        adapter::pool_width()
    );

    let mut report = Report::default();
    let mut tally = Tally::default();
    let setup = if args.trace {
        None
    } else {
        Some(setup_seconds(wl, args.seed, 7)?)
    };

    let inputs = Inputs::new(wl.width, wl.height, args.seed, wl.frames, wl.op)?;
    println!(
        "inputs: {} frames, fingerprint {:016x}",
        inputs.len(),
        inputs.fingerprint()
    );

    let expected: Vec<(String, &'static str)> = if args.trace {
        layers::run(wl, &inputs, args.seconds, &mut report, &mut tally)?;
        layers::names()
    } else {
        endtoend::run(wl, &inputs, args.seconds, &mut report, &mut tally)?;
        report.put("setup_s", setup.expect("untraced runs probe set-up"), "s");
        report.put("peak_rss_mib", peak_rss_mib()?, "MiB");
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    report.check(&expected)?;

    println!(
        "tally: offered {} refused {} shed {} failed {} mismatched {}",
        tally.offered, tally.refused, tally.shed, tally.failed, tally.mismatched
    );
    let correct =
        tally.failed == 0 && tally.mismatched == 0 && (wl.overload || tally.errors() == 0);
    println!("{}", report.json(&tally, correct));
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(|a| run(&a)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names every metric this
    /// program reports, with its unit, and every workload it accepts.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let metrics: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .chain(layers::names())
            .collect();
        for (n, u) in &metrics {
            let entry = format!("\"name\": \"{n}\", \"unit\": \"{u}\"");
            assert!(json.contains(&entry), "{entry} missing");
        }
        for w in WORKLOADS {
            assert!(
                json.contains(&format!("\"name\": \"{}\"", w.name)),
                "{}",
                w.name
            );
        }
        let entries = metrics.len() + WORKLOADS.len();
        assert_eq!(json.matches("\"name\":").count(), entries);
    }
}
