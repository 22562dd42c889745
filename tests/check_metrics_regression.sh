#!/usr/bin/env bash
# Metrics regression gate: replays the deterministic reference build and
# diffs its metrics.json against the committed baseline at 0% tolerance
# via `dnnd_cli stats --diff` (exit 3 on drift), then serves the query set
# through the replicated distributed query service (4 ranks, replication
# factor 2) over the built index and gates that run's query.metrics.json
# the same way, so serving traffic (messages, bytes, evals per handler) is
# pinned as tightly as build traffic.
#
# The reference run pins every source of nondeterminism:
#   - synthetic fashion-mnist stand-in (seeded generator, fixed n)
#   - sequential phase driver (the Environment default)
#   - DNND_TRACE_SAMPLE_PERIOD=0, so no traced envelope bytes — trace
#     varints encode wall-clock timestamps and would make remote_bytes
#     vary run to run. With tracing off, an ON build's envelopes are
#     byte-identical to an OFF build's, so the SAME baseline gates both
#     matrix flavours: if a DNND_TELEMETRY=OFF binary ever produced
#     different handler byte counts, telemetry would be leaking wire
#     bytes and this gate would fail.
#
# Usage:
#   tests/check_metrics_regression.sh <build-dir>            # gate
#   tests/check_metrics_regression.sh <build-dir> --regen    # refresh
#
# --regen rewrites tests/baselines/metrics.json and
# tests/baselines/query_metrics.json from the current binary; commit the
# result when an intentional algorithm change shifts counters.
set -euo pipefail

cd "$(dirname "$0")/.."

build_dir=${1:?usage: tests/check_metrics_regression.sh <build-dir> [--regen]}
regen=${2:-}
cli="$build_dir/examples/dnnd_cli"
baseline="tests/baselines/metrics.json"
query_baseline="tests/baselines/query_metrics.json"

if [[ ! -x "$cli" ]]; then
  echo "check_metrics_regression: $cli not built" >&2
  exit 1
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

export DNND_TRACE_SAMPLE_PERIOD=0
"$cli" gen fashion-mnist "$work/ds" 400 20 >/dev/null
"$cli" build "$work/ds.base.fvecs" "$work/run" 8 4 >/dev/null
"$cli" query "$work/run" "$work/ds.query.fvecs" --serve 4 --replication 2 \
  >/dev/null

if [[ "$regen" == "--regen" ]]; then
  mkdir -p "$(dirname "$baseline")"
  cp "$work/run.metrics.json" "$baseline"
  cp "$work/run.query.metrics.json" "$query_baseline"
  echo "check_metrics_regression: baselines rewritten at $baseline and $query_baseline"
  exit 0
fi

for b in "$baseline" "$query_baseline"; do
  if [[ ! -f "$b" ]]; then
    echo "check_metrics_regression: no baseline at $b (run with --regen)" >&2
    exit 1
  fi
done

echo "== metrics regression gate ($build_dir) =="
# Deterministic counters gate at 0%; memory-ledger byte peaks gate at a
# loose 25% (capacities shift with allocator growth policy, not behaviour —
# a subsystem that doubles its footprint still fails). On OFF builds both
# documents carry enabled:false and the mem.* comparison self-excludes.
"$cli" stats --diff "$baseline" "$work/run.metrics.json" \
  --tolerance 0 --mem-tolerance 25

echo "== serving traffic gate ($build_dir) =="
"$cli" stats --diff "$query_baseline" "$work/run.query.metrics.json" \
  --tolerance 0 --mem-tolerance 25

# Smoke the memory report path: must render (or report telemetry-disabled)
# without erroring on every matrix flavour.
echo "== memory report smoke ($build_dir) =="
"$cli" stats "$work/run" --memory --budget-gb 16
