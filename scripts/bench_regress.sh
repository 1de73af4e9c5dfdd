#!/usr/bin/env bash
# Benchmark-regression harness: runs the fig8/fig9 headline points (plus
# the batched fig8 twin), the fig_shard keyspace-scaling sweep, the
# fig_bigstate delta-bytes sweep, the fig_reconfig online-membership
# sweep and the paper section (every point of the paper's Figs 8-13, the
# headline aggregate and the ablations, at pinned sizes) through
# hamband_bench_report and emits BENCH_pr19.json, then validates it. Six
# gates run on every invocation:
#
#  - paper claims: the tool's --check gates the paper's relative claims
#    on the paper section with built-in floors (17x MSG and 2.7x Mu
#    headline throughput, Hamband ahead of both baselines at every Fig 8
#    and Fig 9 point, 1.4x Mu per Fig 10 size, above Mu per Fig 11 ratio,
#    the failure orderings of Figs 12 and 13);
#  - batching on/off: fig8_batched throughput must beat fig8 by at least
#    --min-batch-speedup (default 1.25x);
#  - shard scaling: the fig_shard sweep's top-shard-count throughput must
#    beat its 1-shard point by at least --min-shard-speedup (default 2x;
#    the sweep is deterministic simulated time, so the gate holds in
#    smoke runs too);
#  - delta bytes: every gated fig_bigstate entry (gset and two-phase-set
#    pre-seeded with --big-elems elements) must ship at least
#    --min-delta-bytes-factor (default 5x) fewer transport bytes per
#    delivered call in delta mode than in full-image mode (the
#    lww-register entry is the ungated tiny-image contrast case, see
#    docs/deltas.md);
#  - reconfig retention: the fig_reconfig add-one/remove-one points
#    (docs/reconfig.md) must sustain --min-reconfig-retention (default
#    0.70x) of steady-state throughput during the membership transition
#    and return to 95% of the capacity-adjusted steady rate after (the
#    sweep's op count is pinned inside the tool, so the gate holds in
#    smoke runs too);
#  - no-regression: the throughput of fig8, fig8_batched, fig9 and every
#    fig_shard point (matched by shard count, plus the zipf point) must
#    stay within --tolerance of the committed baseline report,
#    BENCH_pr19.json unless --baseline points elsewhere; a failure names
#    the point (full runs only -- the smoke op count is too small to
#    compare against a full-run baseline; skipped when --out is the
#    baseline itself, which is how the baseline is regenerated).
#
# The report also carries a transport dimension (--transport, default
# "both"): alongside the simulated-time figures it records fig8_shm /
# fig8_shm_batched, the same fig8 point deployed on the shared-memory
# transport where each node is a real OS thread and throughput is
# wall-clock ops/us (see docs/transport.md). The shm numbers are
# machine-dependent, so no gate compares them against a baseline; they
# are recorded so a report shows simulated and measured throughput side
# by side. All regression gates below act on the sim figures only.
#
# Usage: scripts/bench_regress.sh [--smoke] [--out FILE] [--baseline FILE]
#                                 [--ops N] [--reps N] [--tolerance T]
#                                 [--min-batch-speedup X]
#                                 [--min-shard-speedup X] [--shards LIST]
#                                 [--shard-objects N] [--big-elems N]
#                                 [--min-delta-bytes-factor X]
#                                 [--min-reconfig-retention X]
#                                 [--transport sim|shm|both] [build-dir]

set -euo pipefail

REPO="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$REPO/build"
OUT="$REPO/BENCH_pr19.json"
BASELINE="$REPO/BENCH_pr19.json"
OPS=6000
REPS=1
TOLERANCE=0.05
MIN_BATCH_SPEEDUP=1.25
MIN_SHARD_SPEEDUP=2.0
MIN_DELTA_BYTES_FACTOR=5
MIN_RECONFIG_RETENTION=0.70
SHARDS=1,2,4,8
SHARD_OBJECTS=100000
BIG_ELEMS=100000
TRANSPORT=both
SMOKE=0

while [ $# -gt 0 ]; do
  case "$1" in
    --smoke) SMOKE=1 ;;
    --out) OUT="$2"; shift ;;
    --baseline) BASELINE="$2"; shift ;;
    --ops) OPS="$2"; shift ;;
    --reps) REPS="$2"; shift ;;
    --tolerance) TOLERANCE="$2"; shift ;;
    --min-batch-speedup) MIN_BATCH_SPEEDUP="$2"; shift ;;
    --min-shard-speedup) MIN_SHARD_SPEEDUP="$2"; shift ;;
    --min-delta-bytes-factor) MIN_DELTA_BYTES_FACTOR="$2"; shift ;;
    --min-reconfig-retention) MIN_RECONFIG_RETENTION="$2"; shift ;;
    --shards) SHARDS="$2"; shift ;;
    --shard-objects) SHARD_OBJECTS="$2"; shift ;;
    --big-elems) BIG_ELEMS="$2"; shift ;;
    --transport) TRANSPORT="$2"; shift ;;
    -*) echo "usage: $0 [--smoke] [--out FILE] [--baseline FILE] [--ops N]" \
             "[--reps N] [--tolerance T] [--transport sim|shm|both]" \
             "[build-dir]" >&2
        exit 2 ;;
    *) BUILD="$1" ;;
  esac
  shift
done

REPORT_ARGS=(--ops "$OPS" --reps "$REPS" --transport "$TRANSPORT"
             --shards "$SHARDS" --shard-objects "$SHARD_OBJECTS"
             --big-elems "$BIG_ELEMS")
[ "$SMOKE" = 1 ] && REPORT_ARGS+=(--smoke)

cmake -B "$BUILD" -S "$REPO" >/dev/null
cmake --build "$BUILD" -j"$(nproc)" --target hamband_bench_report

"$BUILD/tools/hamband_bench_report" "${REPORT_ARGS[@]}" --out "$OUT"
"$BUILD/tools/hamband_bench_report" --check "$OUT" \
  --min-batch-speedup "$MIN_BATCH_SPEEDUP" \
  --min-shard-speedup "$MIN_SHARD_SPEEDUP" \
  --min-delta-bytes-factor "$MIN_DELTA_BYTES_FACTOR" \
  --min-reconfig-retention "$MIN_RECONFIG_RETENTION"

if [ "$SMOKE" = 1 ]; then
  echo "bench_regress: smoke ok ($OUT)"
  exit 0
fi

# No-regression gate: no compared sim point may lose (or gain)
# throughput beyond the tolerance against the committed baseline report.
if [ -f "$BASELINE" ] && [ "$OUT" != "$BASELINE" ]; then
  "$BUILD/tools/hamband_bench_report" \
    --compare "$OUT" "$BASELINE" --tolerance "$TOLERANCE"
fi

echo "bench_regress: ok ($OUT)"
