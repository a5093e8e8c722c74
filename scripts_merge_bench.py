#!/usr/bin/env python3
"""Merges a `repro host` dump (results/bench_host.json) into the BENCH
trajectory file (BENCH_host.json) so successive runs accumulate into a
time series of host measurements.

Usage: scripts_merge_bench.py [bench_host.json] [BENCH_host.json]

The trajectory is a JSON object:
  {"runs": [{"date": "...", "protocol": {...}, "measurements": [...]}]}
Each invocation appends one run entry; an entry whose measurements are
byte-identical to the last run is skipped (re-running the merge is
idempotent). Telemetry output is namespaced per subcommand
(results/telemetry_<cmd>.json); when the host run was taken with
--telemetry, its counters from results/telemetry_host.json are attached
to the run entry so the trajectory carries pool/scratch counters next
to the timings. Sibling of scripts_check_bench.py, which gates a fresh
dump against the trajectory this script builds.
"""
import datetime
import json
import os
import sys

HOST_TELEMETRY = "results/telemetry_host.json"


def merge(src_path, traj_path):
    with open(src_path) as f:
        run = json.load(f)
    if "measurements" not in run:
        raise SystemExit(f"{src_path}: not a bench_host.json dump (no 'measurements')")

    if os.path.exists(traj_path):
        with open(traj_path) as f:
            traj = json.load(f)
    else:
        traj = {"runs": []}

    entry = {
        "date": datetime.date.today().isoformat(),
        "protocol": run.get("protocol", {}),
        "measurements": run["measurements"],
    }
    telemetry_path = os.path.join(os.path.dirname(src_path) or ".", "telemetry_host.json")
    if not os.path.exists(telemetry_path):
        telemetry_path = HOST_TELEMETRY
    if os.path.exists(telemetry_path):
        with open(telemetry_path) as f:
            entry["telemetry_counters"] = json.load(f).get("counters", {})
    if traj["runs"] and traj["runs"][-1]["measurements"] == entry["measurements"]:
        print(f"{traj_path}: last run identical, nothing to merge")
        return

    traj["runs"].append(entry)
    with open(traj_path, "w") as f:
        json.dump(traj, f, indent=1)
        f.write("\n")
    points = len(entry["measurements"])
    print(f"{traj_path}: appended run {len(traj['runs'])} ({points} measurement points)")


if __name__ == "__main__":
    src = sys.argv[1] if len(sys.argv) > 1 else "results/bench_host.json"
    traj = sys.argv[2] if len(sys.argv) > 2 else "BENCH_host.json"
    merge(src, traj)
