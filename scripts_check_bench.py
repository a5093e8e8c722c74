#!/usr/bin/env python3
"""CI perf-regression gate: compares a fresh `repro host` dump against
the committed BENCH trajectory baseline and fails on regressions.

Usage: scripts_check_bench.py [bench_host.json] [BENCH_host.json]

Each (kernel, engine, image) point's median per-pass time is compared
against the same point in the baseline's most recent run. A point is a
regression when its median exceeds the baseline by more than the noise
threshold (default 10%, override with the CI_PERF_THRESHOLD env var,
in percent). The gate prints a per-kernel delta table, flags every
regression, and exits nonzero if any exist. Points present on only one
side (a new kernel, a retired one) are reported but never fail the
gate. Stdlib-only, like its sibling scripts_merge_bench.py.

Run from CI via `CI_PERF=1 scripts/ci.sh` (or `scripts/ci.sh --stage
perf`), which benches first and then invokes this check; refresh the
baseline after intentional perf changes with scripts_merge_bench.py.
"""
import json
import os
import sys

DEFAULT_THRESHOLD_PCT = 10.0


def load_points(path, trajectory):
    """Returns {(kernel, engine, image): median_ns} for a bench dump or
    for the most recent run of a trajectory file."""
    with open(path) as f:
        data = json.load(f)
    if trajectory:
        runs = data.get("runs")
        if not runs:
            raise SystemExit(f"{path}: trajectory has no runs to compare against")
        measurements = runs[-1]["measurements"]
    else:
        if "measurements" not in data:
            raise SystemExit(f"{path}: not a bench_host.json dump (no 'measurements')")
        measurements = data["measurements"]
    points = {}
    for m in measurements:
        key = (m["kernel"], m["engine"], m["image"])
        points[key] = m["median_s"] * 1e9
    return points


def check(current_path, baseline_path, threshold_pct):
    current = load_points(current_path, trajectory=False)
    baseline = load_points(baseline_path, trajectory=True)

    print(
        f"perf gate: {current_path} vs {baseline_path} "
        f"(threshold {threshold_pct:g}% on median per-pass ns)"
    )
    header = (
        f"{'kernel':<10} {'engine':<8} {'image':<11} "
        f"{'base ns':>14} {'now ns':>14} {'delta':>8}  verdict"
    )
    print(header)
    print("-" * len(header))

    regressions = []
    for key in sorted(baseline):
        kernel, engine, image = key
        base_ns = baseline[key]
        if key not in current:
            print(
                f"{kernel:<10} {engine:<8} {image:<11} {base_ns:>14.0f} "
                f"{'--':>14} {'--':>8}  MISSING (not in current run)"
            )
            continue
        now_ns = current[key]
        delta_pct = (now_ns - base_ns) / base_ns * 100.0
        if delta_pct > threshold_pct:
            verdict = "REGRESSION"
            regressions.append((key, delta_pct))
        elif delta_pct < -threshold_pct:
            verdict = "improved"
        else:
            verdict = "ok"
        print(
            f"{kernel:<10} {engine:<8} {image:<11} {base_ns:>14.0f} "
            f"{now_ns:>14.0f} {delta_pct:>+7.1f}%  {verdict}"
        )
    for key in sorted(set(current) - set(baseline)):
        kernel, engine, image = key
        print(
            f"{kernel:<10} {engine:<8} {image:<11} {'--':>14} "
            f"{current[key]:>14.0f} {'--':>8}  new (no baseline)"
        )

    if regressions:
        print(f"\n{len(regressions)} REGRESSION(S) past the {threshold_pct:g}% threshold:")
        for (kernel, engine, image), delta_pct in regressions:
            print(f"  - {kernel}/{engine}/{image}: {delta_pct:+.1f}%")
        print(
            "If intentional, refresh the baseline: "
            "scripts_merge_bench.py results/bench_host.json BENCH_host.json"
        )
        return 1
    print("\nperf gate clean: no point regressed past the threshold")
    return 0


if __name__ == "__main__":
    src = sys.argv[1] if len(sys.argv) > 1 else "results/bench_host.json"
    base = sys.argv[2] if len(sys.argv) > 2 else "BENCH_host.json"
    try:
        threshold = float(os.environ.get("CI_PERF_THRESHOLD", DEFAULT_THRESHOLD_PCT))
    except ValueError:
        raise SystemExit("CI_PERF_THRESHOLD must be a number (percent)")
    sys.exit(check(src, base, threshold))
