#!/usr/bin/env bash
# Chaos-test driver: builds the repo and runs the `chaos`-, `recovery`-
# and `serving-chaos`-labelled suites (full DNND builds over a matrix of
# engine seeds x fault plans x drivers, kill-and-resume recovery runs over
# seeds x kill plans, and replicated-serving failover/degradation runs —
# the `-L chaos` regex matches the "serving-chaos" label too).
#
# Usage:
#   tests/run_chaos.sh                 # run the whole chaos+recovery matrix
#   tests/run_chaos.sh -s 12 -p drop_heavy
#                                      # replay one combination (the values
#                                      # printed by a failing run's
#                                      # "replay:" trace line; kill plans
#                                      # such as kill_r0_mid select the
#                                      # recovery matrix the same way)
#   tests/run_chaos.sh -r 20           # run each test up to 20 times,
#                                      # stopping a test at its first
#                                      # failure (ctest --repeat
#                                      # until-fail:20): reproduces
#                                      # schedule-dependent flakes
#   DNND_SANITIZE=thread tests/run_chaos.sh
#                                      # same matrix under TSan
#
# Each failing assertion prints `replay: DNND_CHAOS_SEED=<s>
# DNND_CHAOS_PLAN=<name>`; feeding those back via -s/-p reruns exactly that
# schedule — it is a pure function of the two seeds, no log capture needed.
set -euo pipefail

cd "$(dirname "$0")/.."

seed=""
plan=""
repeat=""
while getopts "s:p:r:h" opt; do
  case "$opt" in
    s) seed="$OPTARG" ;;
    p) plan="$OPTARG" ;;
    r)
      if [[ ! "$OPTARG" =~ ^[1-9][0-9]*$ ]]; then
        echo "run_chaos: -r needs a positive repeat count, got '$OPTARG'" >&2
        exit 2
      fi
      repeat="$OPTARG"
      ;;
    h)
      sed -n '2,26p' "$0"
      exit 0
      ;;
    *) exit 2 ;;
  esac
done

build_dir="build"
cmake_args=(-B "$build_dir" -S .)
if [[ -n "${DNND_SANITIZE:-}" ]]; then
  build_dir="build-${DNND_SANITIZE}"
  cmake_args=(-B "$build_dir" -S . "-DDNND_SANITIZE=${DNND_SANITIZE}")
fi

cmake "${cmake_args[@]}"
cmake --build "$build_dir" -j --target test_chaos test_fault_injection \
  test_recovery test_serving_chaos

if [[ -n "$seed" ]]; then export DNND_CHAOS_SEED="$seed"; fi
if [[ -n "$plan" ]]; then export DNND_CHAOS_PLAN="$plan"; fi

ctest_args=(-L 'chaos|recovery' --no-tests=error --output-on-failure
            -j "$(nproc)")
if [[ -n "$repeat" ]]; then ctest_args+=(--repeat "until-fail:$repeat"); fi

cd "$build_dir"
ctest "${ctest_args[@]}"
