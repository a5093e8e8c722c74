//! End-to-end tests of the two command-line binaries, spawned as real
//! processes.

use std::path::PathBuf;
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn imgtool() -> Command {
    Command::new(env!("CARGO_BIN_EXE_imgtool"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("simd-repro-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn repro_table1_prints_all_platforms() {
    let out = repro().arg("table1").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for name in ["Intel Atom D510", "NVIDIA Tegra T30", "Samsung Exynos 3110"] {
        assert!(text.contains(name), "missing {name}");
    }
}

#[test]
fn repro_table2_has_speedup_rows() {
    let out = repro().arg("table2").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(text.matches("Speed-up").count(), 4); // one per image size
    assert!(text.contains("3264x2448"));
}

#[test]
fn repro_figures_render_bars() {
    for figure in ["figure2", "figure3", "figure4", "figure5", "figure6"] {
        let out = repro().arg(figure).output().unwrap();
        assert!(out.status.success(), "{figure}");
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains('#'), "{figure} has no bars");
        assert!(text.contains("ODROID-X"));
    }
}

#[test]
fn repro_asm_analysis_reports_instruction_ratio() {
    let out = repro().arg("asm-analysis").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("instruction ratio"));
    assert!(text.contains("libcall"));
}

#[test]
fn repro_csv_writes_all_files() {
    let dir = temp_dir("csv");
    let out = repro().arg("csv").arg(&dir).output().unwrap();
    assert!(out.status.success());
    for file in [
        "table1.csv",
        "table2.csv",
        "table3.csv",
        "figure2.csv",
        "figure6.csv",
    ] {
        let path = dir.join(file);
        assert!(path.exists(), "missing {file}");
        assert!(std::fs::metadata(&path).unwrap().len() > 50);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repro_fused_quick_reports_speedups() {
    let dir = temp_dir("fused");
    let csv = dir.join("fused.csv");
    let out = repro()
        .args(["fused", "--quick", "--csv", csv.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("fused"));
    assert!(text.contains("speed-up"));
    let csv_text = std::fs::read_to_string(&csv).unwrap();
    // Header + the three stencil kernels at VGA.
    assert_eq!(csv_text.lines().count(), 4);
    assert!(csv_text.starts_with("kernel,image,two_pass_seconds,fused_seconds,speedup"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repro_parallel_quick_reports_dispatch_gain() {
    let dir = temp_dir("parallel");
    let csv = dir.join("parallel.csv");
    let out = repro()
        .args(["parallel", "--quick", "--csv", csv.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("persistent pool vs sequential fused"));
    assert!(text.contains("pool gain"));
    let csv_text = std::fs::read_to_string(&csv).unwrap();
    // Header + the three stencil kernels at VGA.
    assert_eq!(csv_text.lines().count(), 4);
    assert!(csv_text.starts_with("kernel,image,seq_seconds,pool_seconds,pool_gain"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repro_extensions_quick_reports_every_row() {
    let dir = temp_dir("extensions");
    let csv = dir.join("extensions.csv");
    let out = repro()
        .args(["extensions", "--quick", "--csv", csv.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    let row = |label: &str| {
        text.lines()
            .any(|l| l.starts_with(&format!("{label} ")) && l.contains("640x480"))
    };
    for label in ["color", "downsample", "median"] {
        assert!(row(label), "missing {label} row:\n{text}");
    }
    // The AVX2 rows run only on AVX2 hosts; elsewhere one line says so.
    let skipped = text.contains("convert_avx2, threshold_avx2: skipped");
    assert_eq!(row("convert_avx2"), !skipped, "{text}");
    assert_eq!(row("threshold_avx2"), !skipped, "{text}");
    let csv_text = std::fs::read_to_string(&csv).unwrap();
    assert!(csv_text.starts_with("kernel,image,base_seconds,new_seconds,speedup\n"));
    // Header + three AUTO vs HAND rows (+ two AVX2 rows) at VGA.
    let rows = if skipped { 4 } else { 6 };
    assert_eq!(csv_text.lines().count(), rows, "{csv_text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repro_host_telemetry_prints_report_and_writes_json() {
    let dir = temp_dir("host-telemetry");
    let telemetry = dir.join("telemetry.json");
    let bench = dir.join("bench_host.json");
    let out = repro()
        .args(["host", "--quick", "--telemetry"])
        .args(["--json", telemetry.to_str().unwrap()])
        .args(["--bench-json", bench.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    // Distribution stats from the retained per-pass samples.
    assert!(text.contains("per-pass distribution"));
    assert!(text.contains("median"));
    assert!(text.contains("stddev"));
    // Telemetry report sections.
    assert!(text.contains("span tree"));
    assert!(text.contains("harness.passes"));
    assert!(text.contains("harness.pass_ns"));

    let json = std::fs::read_to_string(&telemetry).unwrap();
    assert!(json.trim_start().starts_with('{'));
    assert!(json.contains("\"counters\""));
    assert!(json.contains("\"histograms\""));
    assert!(json.contains("\"spans\""));
    assert_eq!(json.matches('{').count(), json.matches('}').count());

    let bench_json = std::fs::read_to_string(&bench).unwrap();
    assert!(bench_json.contains("\"measurements\""));
    assert!(bench_json.contains("\"median_s\""));
    // 5 kernels x 2 engines at VGA.
    assert_eq!(bench_json.matches("\"kernel\"").count(), 10);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repro_stats_reports_all_three_layers() {
    let dir = temp_dir("stats");
    let telemetry = dir.join("telemetry.json");
    let out = repro()
        .args(["stats", "--json", telemetry.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    // Pipeline, pool, and harness layers all show up in one report.
    assert!(text.contains("pipeline.bands"));
    assert!(text.contains("pool.steals"));
    assert!(text.contains("harness.passes"));
    assert!(text.contains("steals by victim"));
    assert!(text.contains("fused.gaussian"));
    let json = std::fs::read_to_string(&telemetry).unwrap();
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repro_chaos_quick_reports_clean_matrix() {
    let out = repro()
        .args(["chaos", "--quick", "--seed", "7"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "chaos matrix reported violations:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    // Every fault family ran ...
    for failpoint in [
        "fused.entry",
        "par_fused.entry",
        "pipeline.band",
        "pool.task",
        "pool.worker",
    ] {
        assert!(text.contains(failpoint), "missing {failpoint} cell");
    }
    // ... the recovery machinery demonstrably engaged ...
    assert!(text.contains("pool.respawns"));
    assert!(text.contains("complement restored"));
    assert!(text.contains("open -> degraded serial (bit-exact) -> closed"));
    // ... and every invariant held.
    assert!(text.contains("chaos matrix clean"));
    assert!(!text.contains("INVARIANT VIOLATIONS"));
}

#[test]
fn repro_stream_quick_smoke_is_clean_and_writes_report() {
    let dir = temp_dir("stream");
    let json = dir.join("stream.json");
    let telemetry = dir.join("telemetry_stream.json");
    let out = repro()
        .args(["stream", "--quick", "--telemetry"])
        .args(["--json", json.to_str().unwrap()])
        .args(["--telemetry-json", telemetry.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stream smoke reported violations:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("Stream mode"));
    assert!(text.contains("throughput"));
    assert!(text.contains("stream smoke clean"));
    let report = std::fs::read_to_string(&json).unwrap();
    for key in [
        "\"throughput_fps\"",
        "\"latency_s\"",
        "\"steady_state\"",
        "\"shed\": 0",
        "\"checksum_mismatches\": 0",
        "\"outstanding_bytes\": 0",
    ] {
        assert!(report.contains(key), "stream.json missing {key}: {report}");
    }
    let telem = std::fs::read_to_string(&telemetry).unwrap();
    for metric in ["stream.admitted", "stream.completed", "stream.frame_ns"] {
        assert!(telem.contains(metric), "telemetry missing {metric}");
    }
}

#[test]
fn repro_rejects_unknown_command() {
    let out = repro().arg("bogus").output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown command"));
}

/// Runs `repro` with `args` and asserts it exits with code 2, naming
/// `reason` and printing a usage line on stderr.
fn assert_usage_error(args: &[&str], reason: &str) {
    let out = repro().args(args).output().unwrap();
    let err = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
    assert!(err.contains(reason), "{args:?}: {err}");
    assert!(err.contains("usage: repro"), "{args:?}: {err}");
    assert!(out.stdout.is_empty(), "{args:?} did work before failing");
}

#[test]
fn repro_rejects_malformed_flags_with_a_usage_line() {
    // Unknown flags.
    assert_usage_error(&["stream", "--bogus"], "unknown flag --bogus");
    assert_usage_error(&["fused", "--cvs", "x.csv"], "unknown flag --cvs");
    assert_usage_error(&["table1", "--full"], "unknown flag --full");
    assert_usage_error(&["extensions", "--bogus"], "unknown flag --bogus");
    // A value flag without its value.
    assert_usage_error(&["fused", "--csv"], "--csv needs a value");
    assert_usage_error(&["chaos", "--seed", "--quick"], "--seed needs a value");
    // Numbers that do not parse.
    assert_usage_error(&["stream", "--frames", "abc"], "not a number: abc");
    assert_usage_error(&["chaos", "--seed", "-1"], "--seed: not a number: -1");
    // Unknown kernel and image names.
    assert_usage_error(&["stream", "--kernel", "sharpen"], "unknown sharpen");
    assert_usage_error(&["stream", "--image", "4k"], "--image: unknown 4k");
}

#[test]
fn imgtool_demo_then_pipeline_roundtrip() {
    let dir = temp_dir("imgtool");
    // Generate synthetic photos.
    let out = imgtool().arg("demo").arg(&dir).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let photo = dir.join("photo0.bmp");
    assert!(photo.exists());

    // Blur with an explicit sigma.
    let blurred = dir.join("blurred.bmp");
    let out = imgtool()
        .args(["blur", photo.to_str().unwrap(), blurred.to_str().unwrap()])
        .args(["--sigma", "1.5", "--ksize", "9"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Edge-detect the blurred image with the simulated NEON backend.
    let edges = dir.join("edges.bmp");
    let out = imgtool()
        .args(["edges", blurred.to_str().unwrap(), edges.to_str().unwrap()])
        .args(["--thresh", "80", "--engine", "neon-sim"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The edge map decodes as a binary BMP of the same size.
    let bytes = std::fs::read(&edges).unwrap();
    match pixelimage::bmp::decode(&bytes).unwrap() {
        pixelimage::bmp::Decoded::Gray(img) => {
            assert_eq!(img.width(), 640);
            assert_eq!(img.height(), 480);
            assert!(img.iter_pixels().all(|p| p == 0 || p == 255));
        }
        _ => panic!("expected gray BMP"),
    }

    // Halving produces 320x240.
    let half = dir.join("half.bmp");
    let out = imgtool()
        .args(["half", photo.to_str().unwrap(), half.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let bytes = std::fs::read(&half).unwrap();
    match pixelimage::bmp::decode(&bytes).unwrap() {
        pixelimage::bmp::Decoded::Gray(img) => {
            assert_eq!((img.width(), img.height()), (320, 240));
        }
        _ => panic!("expected gray BMP"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn imgtool_rejects_bad_engine_and_missing_file() {
    let out = imgtool()
        .args(["blur", "in.bmp", "out.bmp", "--engine", "quantum"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown engine"));

    let out = imgtool()
        .args(["blur", "/nonexistent/in.bmp", "/tmp/out.bmp"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    // Values that do not parse or are out of range are usage errors,
    // caught before the (missing) input is read or any output written.
    let dir = temp_dir("imgtool-bad-values");
    let missing = dir.join("missing.bmp");
    let output = dir.join("out.bmp");
    for (command, flag, value) in [
        ("threshold", "--thresh", "300"),
        ("edges", "--thresh", "-1"),
        ("blur", "--sigma", "abc"),
        ("blur", "--sigma", "0"),
        ("blur", "--sigma", "-1.5"),
        ("blur", "--sigma", "nan"),
        ("blur", "--sigma", "inf"),
        ("blur", "--ksize", "abc"),
        ("blur", "--ksize", "8"),
    ] {
        let out = imgtool()
            .args([command, missing.to_str().unwrap(), output.to_str().unwrap()])
            .args([flag, value])
            .output()
            .unwrap();
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {err}");
        assert!(err.contains("usage: imgtool"), "{flag} {value}: {err}");
        assert!(!output.exists(), "{flag} {value} wrote output");
    }

    // A frame a kernel rejects exits 1 with the kernel's error and writes
    // nothing: a 0-row image on every same-shape command, and a
    // 1-pixel-wide one on `half`, whose output would be 0 wide.
    let gray_bmp = |name: &str, w: usize, h: usize| {
        let path = dir.join(name);
        let bytes = pixelimage::bmp::encode_gray(&pixelimage::Image::new(w, h));
        std::fs::write(&path, bytes).unwrap();
        path
    };
    let (no_rows, one_wide) = (
        gray_bmp("no-rows.bmp", 4, 0),
        gray_bmp("one-wide.bmp", 1, 6),
    );
    for (command, input) in [
        ("blur", &no_rows),
        ("edges", &no_rows),
        ("threshold", &no_rows),
        ("sobel", &no_rows),
        ("half", &one_wide),
    ] {
        let out = imgtool()
            .args([command, input.to_str().unwrap(), output.to_str().unwrap()])
            .output()
            .unwrap();
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{command}: {err}");
        let want = format!("cannot process {}: zero-size frame", input.display());
        assert!(err.contains(&want), "{command}: {err}");
        assert!(!output.exists(), "{command} wrote output");
    }
    std::fs::remove_dir_all(&dir).ok();
}
