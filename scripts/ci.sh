#!/usr/bin/env bash
# Full local CI, split into named stages with per-stage wall time.
#
# Usage:
#   scripts/ci.sh                 run every stage in order
#   scripts/ci.sh --stage NAME    run a single stage (perf runs even
#                                 without CI_PERF=1)
#   CI_PERF=1 scripts/ci.sh       also run the perf-regression gate:
#                                 `repro host` + scripts_check_bench.py
#                                 against the committed BENCH_host.json
#                                 (threshold via CI_PERF_THRESHOLD, %)
#
# Stage order keeps the fail-fast suites (pool stress, chaos matrix,
# repeated runs of the suites sharing process-global state, stream smoke,
# telemetry) ahead of the full test sweep so scheduler,
# fault-tolerance, and streaming regressions surface in seconds. The
# perfbench stage runs the benchmark's self-tests, which call the
# pipeline, pool and stream surfaces the benchmark measures, so a drift
# between those surfaces and the benchmark fails CI.
#
# Every stage but `perf` must leave the working tree as it found it:
# reports go under target/ci/, and a stage that changes `git status`
# (or the content of an already modified file) fails the run. `perf` is
# exempt, because writing results/bench_host.json is its job.
set -euo pipefail
cd "$(dirname "$0")/.."

STAGES=(build pool-stress chaos-stress repeat stream-smoke telemetry test perfbench clippy fmt doc)
if [[ "${CI_PERF:-0}" == "1" ]]; then
  STAGES+=(perf)
fi

stage_build() {
  cargo build --release
}

stage_pool_stress() {
  cargo test -q -p rayon pool_stress_many_small_calls
}

stage_chaos_stress() {
  cargo test -q -p rayon --test chaos
  cargo run -q --release -p repro-harness --bin repro -- chaos --quick --seed 42
}

stage_repeat() {
  # The chaos and stream-fault suites share process-global state (the
  # pool's worker census, armed failpoints) across threads, so a race in
  # them can pass a single run; the cheap dispatch suite rides along. Run
  # each 20 times; stop at the first failure and show its output.
  local suite run out
  for suite in \
    "-p simdbench-core --lib dispatch" \
    "-p rayon --test chaos" \
    "-p simdbench-core --test stream_faults"; do
    for run in $(seq 20); do
      # shellcheck disable=SC2086 # $suite is a list of cargo arguments
      if ! out=$(cargo test -q $suite 2>&1); then
        printf '%s\n' "$out"
        echo "cargo test -q $suite failed on run $run of 20" >&2
        return 1
      fi
    done
  done
}

stage_stream_smoke() {
  # Asserts zero shed frames, zero steady-state arena growth, and
  # bit-exact output at the smoke rate; exits nonzero on violation.
  # Both stream kernels run, so each one's output is checked. The reports
  # go to target/ci/, not over the tracked results/stream.json.
  cargo run -q --release -p repro-harness --bin repro -- stream --quick \
    --json target/ci/stream_gaussian.json
  cargo run -q --release -p repro-harness --bin repro -- stream --quick --kernel edge \
    --json target/ci/stream_edge.json
}

stage_telemetry() {
  cargo test -q -p simdbench-core --test telemetry_overhead
  cargo test -q -p rayon --test telemetry
}

stage_test() {
  # The root manifest's `default-members` lists every crate, so this is
  # the whole workspace.
  cargo test -q
}

stage_perfbench() {
  cargo test --release --offline --manifest-path perfbench/Cargo.toml
}

stage_clippy() {
  cargo clippy --workspace --all-targets -- -D warnings
}

stage_fmt() {
  cargo fmt --check
}

stage_doc() {
  # Broken or private intra-doc links (for example to a deleted function)
  # fail the build instead of rotting silently.
  RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
}

stage_perf() {
  cargo run -q --release -p repro-harness --bin repro -- host
  python3 scripts_check_bench.py results/bench_host.json BENCH_host.json
}

# The working tree's state: `git status` plus a digest of the tracked
# diff, so rewriting an already modified file counts as a change too.
# Constant outside a git checkout.
tree_state() {
  git status --porcelain 2>/dev/null || true
  { git diff --no-ext-diff 2>/dev/null || true; } | cksum
}

run_stage() {
  local name="$1"
  local fn="stage_${name//-/_}"
  if ! declare -F "$fn" >/dev/null; then
    echo "unknown stage: $name (known: ${STAGES[*]} perf)" >&2
    exit 2
  fi
  echo "==> [$name]"
  local before
  before=$(tree_state)
  local t0=$SECONDS
  "$fn"
  local dt=$((SECONDS - t0))
  TIMING_REPORT+="$(printf '%-16s %4ds' "$name" "$dt")"$'\n'
  echo "--- [$name] ${dt}s"
  if [[ "$name" != perf && "$(tree_state)" != "$before" ]]; then
    DIRTY_STAGES+=("$name")
  fi
}

TIMING_REPORT=""
DIRTY_STAGES=()

if [[ "${1:-}" == "--stage" ]]; then
  run_stage "${2:?--stage needs a name}"
elif [[ -n "${1:-}" ]]; then
  echo "usage: scripts/ci.sh [--stage NAME]" >&2
  exit 2
else
  for s in "${STAGES[@]}"; do
    run_stage "$s"
  done
fi

echo
echo "stage wall times:"
printf '%s' "$TIMING_REPORT"
if ((${#DIRTY_STAGES[@]})); then
  git status --short >&2 || true
  echo "stages changed the working tree: ${DIRTY_STAGES[*]}" >&2
  exit 1
fi
echo "CI OK"
