#!/usr/bin/env bash
# Build-matrix driver: configures and builds the repo in every supported
# configuration and runs the tier-1 suite in each. Today's matrix:
#
#   default        DNND_TELEMETRY=ON  (the normal build; also runs a short
#                  e2ebench build-1r smoke that must report correct: true)
#   telemetry-off  DNND_TELEMETRY=OFF (instrumentation compiled to no-ops;
#                  proves the facade keeps the same API surface and that
#                  no test silently depends on telemetry being recorded)
#   simd-off       DNND_SIMD=OFF (the AVX2 distance-kernel TU is not even
#                  compiled; the blocked scalar reference carries every
#                  build. The kernel determinism contract says this flavour
#                  produces bit-identical graphs AND identical metrics
#                  counters, so the same committed metrics baseline must
#                  gate it unchanged)
#   tsan           DNND_SANITIZE=thread, run with DNND_THREADS_PER_RANK=4:
#                  every auto-threaded pool (NN-Descent initial evaluations,
#                  engine phases, query handlers, the memory-ledger
#                  hammer) runs under ThreadSanitizer with real workers.
#                  The thread-count determinism contract says this leg's
#                  graphs and counters are bit-identical to serial runs,
#                  so the SAME committed metrics baseline gates it
#                  unchanged — with 4 threads on.
#
# Usage:
#   tests/run_matrix.sh            # whole matrix
#   tests/run_matrix.sh default    # one named configuration
#
# Each configuration builds into its own directory (build-matrix-<name>)
# so switching configurations never poisons an incremental build.
set -euo pipefail

cd "$(dirname "$0")/.."

declare -A configs=(
  [default]="-DDNND_TELEMETRY=ON"
  [telemetry-off]="-DDNND_TELEMETRY=OFF"
  [simd-off]="-DDNND_SIMD=OFF"
  [tsan]="-DDNND_SANITIZE=thread"
)

# Per-configuration run environment (prepended to every test/gate command).
# The tsan leg forces a 4-worker pool into every threads_per_rank=0 (auto)
# component so TSan watches real cross-thread traffic; determinism means
# nothing else about the run may change.
declare -A run_env=(
  [tsan]="DNND_THREADS_PER_RANK=4"
)

selected=("${!configs[@]}")
if [[ $# -gt 0 ]]; then
  for name in "$@"; do
    if [[ -z "${configs[$name]:-}" ]]; then
      echo "unknown configuration '$name' (have: ${!configs[*]})" >&2
      exit 2
    fi
  done
  selected=("$@")
fi

for name in "${selected[@]}"; do
  build_dir="build-matrix-${name}"
  echo "==== configuration ${name} (${configs[$name]}) ===="
  # shellcheck disable=SC2086 — the flags string is intentionally split
  cmake -B "$build_dir" -S . ${configs[$name]}
  cmake --build "$build_dir" -j
  # shellcheck disable=SC2086 — the env string is intentionally split
  (cd "$build_dir" &&
   env ${run_env[$name]:-} ctest -L tier1 --output-on-failure -j "$(nproc)")
  # Kill-and-resume recovery must hold in every flavour: checkpoint and
  # resume paths are instrumented, so a telemetry-off build exercising the
  # same matrix proves recovery does not depend on the counters existing.
  # shellcheck disable=SC2086
  (cd "$build_dir" &&
   env ${run_env[$name]:-} \
     ctest -L recovery --no-tests=error --output-on-failure -j "$(nproc)")
  # The concurrency tests (thread parity matrix, memory-ledger hammer)
  # must be present in every flavour — they are the TSan
  # leg's main payload, and --no-tests=error catches a label typo.
  # shellcheck disable=SC2086
  (cd "$build_dir" &&
   env ${run_env[$name]:-} \
     ctest -L concurrency --no-tests=error --output-on-failure -j "$(nproc)")
  # Replicated serving failover (ISSUE 10) must hold in every flavour:
  # failure detection, replica routing and degraded-mode coverage may not
  # depend on telemetry counters existing (telemetry-off), and the TSan
  # leg drives the serving protocol with its 4-thread run environment.
  # --no-tests=error catches a label typo.
  # shellcheck disable=SC2086
  (cd "$build_dir" &&
   env ${run_env[$name]:-} \
     ctest -L serving-chaos --no-tests=error --output-on-failure \
       -j "$(nproc)")
  # Metrics regression gate in every flavour: the baseline is recorded
  # with tracing disabled, so handler byte counters must match even under
  # DNND_TELEMETRY=OFF — a mismatch there means telemetry leaked bytes
  # into the message envelope. The tsan leg runs the gate with
  # DNND_THREADS_PER_RANK=4: threading may not move a single counter.
  # shellcheck disable=SC2086
  env ${run_env[$name]:-} tests/check_metrics_regression.sh "$build_dir"
  # End-to-end benchmark smoke (default leg only): e2ebench/ builds its own
  # Release tree (.bench_build/) against src/ and calls the library API
  # directly, so an API change that breaks it fails here rather than in
  # the benchmark pipeline. The run must exit 0 and report correct: true.
  if [[ "$name" == default ]]; then
    python3 e2ebench/run.py --workload build-1r --seed 1 --seconds 3 \
        --trace 0 > "$build_dir/e2ebench_smoke.out"
    python3 - "$build_dir/e2ebench_smoke.out" <<'PY'
import json, sys
lines = open(sys.argv[1]).read().strip().splitlines()
result = json.loads(lines[-1]) if lines else {}
if result.get("correct") is not True:
    sys.exit(f"e2ebench smoke: correct is {result.get('correct')!r}")
print("e2ebench smoke: correct")
PY
  fi
done

echo "==== matrix passed: ${selected[*]} ===="
