#!/usr/bin/env bash
# Benchmark-regression harness: runs hamband_bench_report, which writes
# its report to --out (default <build-dir>/BENCH_full.json, or
# <build-dir>/BENCH_smoke.json with --smoke): the fig8/fig9 headline
# points and the batched fig8 twin, the fig_shard keyspace-scaling sweep,
# the fig_bigstate delta-bytes sweep, the fig_reconfig online-membership
# sweep and the paper section with every point of the paper's Figs 8-13,
# the headline aggregate and the ablations. It then gates the report:
#
#  - the tool's bare --check requires every sim section and applies every
#    built-in gate: the paper's relative claims and the extension floors
#    for batching, shard scaling, delta bytes and reconfig retention.
#    The floors are constants in tools/hamband_bench_report.cpp
#    (HeadlineMinVsMsg ... MinReconfigAfter), not options; its header
#    lists them.
#  - no-regression: the tool's --compare holds every sim point to the
#    committed baseline report, BENCH_pr39.json unless --baseline points
#    elsewhere, within its built-in tolerance (CompareTolerance). It lists
#    every point's old and new value and names each failing one. Full runs
#    only: the smoke op count is too small to compare against a full-run
#    baseline. Skipped when --out is the baseline itself.
#
# A new baseline is a full run with --out BENCH_prN.json at the repository
# root; that run prints its compare against the old baseline.
#
# The report also carries a transport dimension (--transport, default
# "both"): alongside the simulated-time figures it records fig8_shm /
# fig8_shm_batched, the same fig8 point deployed on the shared-memory
# transport where each node is a real OS thread and throughput is
# wall-clock ops/us (see docs/transport.md). The shm numbers are
# machine-dependent, so no gate compares them against a baseline; they
# are recorded so a report shows simulated and measured throughput side
# by side.
#
# Usage: scripts/bench_regress.sh [--smoke] [--out FILE] [--baseline FILE]
#                                 [--ops N] [--reps N]
#                                 [--transport sim|shm|both] [build-dir]

set -euo pipefail

REPO="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$REPO/build"
OUT=""
BASELINE="$REPO/BENCH_pr39.json"
OPS=6000
REPS=1
TRANSPORT=both
SMOKE=0

while [ $# -gt 0 ]; do
  case "$1" in
    --smoke) SMOKE=1 ;;
    --out) OUT="$2"; shift ;;
    --baseline) BASELINE="$2"; shift ;;
    --ops) OPS="$2"; shift ;;
    --reps) REPS="$2"; shift ;;
    --transport) TRANSPORT="$2"; shift ;;
    -*) echo "usage: $0 [--smoke] [--out FILE] [--baseline FILE] [--ops N]" \
             "[--reps N] [--transport sim|shm|both] [build-dir]" >&2
        exit 2 ;;
    *) BUILD="$1" ;;
  esac
  shift
done

REPORT_ARGS=(--ops "$OPS" --reps "$REPS" --transport "$TRANSPORT")
if [ "$SMOKE" = 1 ]; then
  REPORT_ARGS+=(--smoke)
  OUT="${OUT:-$BUILD/BENCH_smoke.json}"
else
  OUT="${OUT:-$BUILD/BENCH_full.json}"
fi

cmake -B "$BUILD" -S "$REPO" >/dev/null
cmake --build "$BUILD" -j"$(nproc)" --target hamband_bench_report

"$BUILD/tools/hamband_bench_report" "${REPORT_ARGS[@]}" --out "$OUT"
"$BUILD/tools/hamband_bench_report" --check "$OUT"

if [ "$SMOKE" = 1 ]; then
  echo "bench_regress: smoke ok ($OUT)"
  exit 0
fi

# No-regression gate: no sim point may lose (or gain) throughput beyond
# the tool's tolerance against the committed baseline report.
if [ -f "$BASELINE" ] && [ "$OUT" != "$BASELINE" ]; then
  "$BUILD/tools/hamband_bench_report" --compare "$OUT" "$BASELINE"
fi

echo "bench_regress: ok ($OUT)"
