#!/usr/bin/env bash
# Simulator parity check: builds bench/e2e's hamband_e2e from the working
# tree and from git revision REV, runs every BENCHMARK.json workload on
# both for one simulated second, untraced (end-to-end figures) and traced
# (per-layer figures), and fails on any difference in a deterministic
# metric: every metric the run reports except the host and wall-clock
# figures in HOST below (setup time, memory, host nanoseconds, the shm
# session and the micro-benchmark probes). Simulated time, visibility,
# fold counts and the per-layer event counts all compare exactly.
#
# It also builds both trees' hamband_fuzz and hamband_mc and cmp's the
# outputs of scripts/ci.sh's explorer commands: the seven fuzz smokes (run
# with --verbose) and the six hamband_mc explorations (run with --json).
#
# A refactor that claims "the simulator replays the same events" must
# pass this against its parent.
#
# Every workload runs at seeds 1 and 11, the first seed of each of the two
# calibration ranges in bench/e2e/README.md.
#
# Usage: scripts/sim_parity.sh REV [--build DIR]
#   REV       revision to compare against (e.g. HEAD~1)
#   --build   scratch directory (default build/parity); REV's sources are
#             exported there with `git archive` and both trees build there;
#             REV's results are cached there per commit

set -euo pipefail

REPO="$(cd "$(dirname "$0")/.." && pwd)"
REV=""
SEEDS=(1 11)
OUT="$REPO/build/parity"
while [ $# -gt 0 ]; do
  case "$1" in
    --build) OUT="$2"; shift 2 ;;
    -*) echo "sim_parity: unknown option $1" >&2; exit 2 ;;
    *) REV="$1"; shift ;;
  esac
done
if [ -z "$REV" ]; then
  echo "usage: scripts/sim_parity.sh REV [--build DIR]" >&2
  exit 2
fi
SHA="$(git -C "$REPO" rev-parse --verify "$REV^{commit}")"
JOBS="$(nproc)"
[ "$JOBS" -le 4 ] || JOBS=4

# REV's sources, exported once per commit.
REV_SRC="$OUT/src-$SHA"
if [ ! -f "$REV_SRC/.exported" ]; then
  rm -rf "$REV_SRC"
  mkdir -p "$REV_SRC"
  git -C "$REPO" archive "$SHA" | tar -x -C "$REV_SRC"
  touch "$REV_SRC/.exported"
fi

build() { # SRC_ROOT BUILD_DIR
  cmake -S "$1/bench/e2e" -B "$2" -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$2" -j"$JOBS" --target hamband_e2e >/dev/null
  cmake -S "$1" -B "$2-tools" -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$2-tools" -j"$JOBS" --target hamband_fuzz hamband_mc \
    >/dev/null
}
echo "sim_parity: building working tree and $REV ($SHA)"
build "$REPO" "$OUT/head"
build "$REV_SRC" "$OUT/rev-$SHA"

FAIL=0

# scripts/ci.sh's explorer commands at its default FUZZ_RUNS=50 (fuzz
# smokes with --verbose, explorations with --json). Output and exit status
# must be byte-identical; REV's are computed once per commit.
EXPLORE=(
  "fuzz --runs 50 --seed 42 --verbose"
  "fuzz --runs 25 --seed 43 --batch --verbose"
  "fuzz --runs 25 --seed 44 --deltas --verbose"
  "fuzz --runs 25 --seed 45 --reconfig --verbose"
  "fuzz --runs 25 --seed 53 --deltas --reconfig --verbose"
  "fuzz --runs 25 --seed 49 --nodes 2 --deltas --reconfig --verbose"
  "fuzz --runs 25 --seed 902 --batch --reconfig --verbose"
  "mc --type all --calls 4 --crashes 1 --budget 1600 --json"
  "mc --type counter --calls 3 --crashes 1 --deltas --json"
  "mc --type gset --calls 3 --crashes 1 --deltas --json"
  "mc --type counter --calls 2 --nodes 3 --crashes 0 --budget 40 --reconfig --json"
  "mc --type bank-account --calls 6 --seed 2 --crashes 1 --batch --json"
  "mc --type courseware --calls 4 --crashes 1 --batch --json"
)
explore() { # TOOLS_DIR TOOL ARGS...: prints the run's output and status
  local RC=0
  "$1/hamband_$2" "${@:3}" 2>&1 || RC=$?
  echo "exit $RC"
}
for E in "${EXPLORE[@]}"; do
  read -r -a CMD <<<"$E"
  NAME="explore-${E// /_}.out"
  CACHE="$OUT/rev-$SHA/$NAME"
  if [ ! -s "$CACHE" ]; then
    explore "$OUT/rev-$SHA-tools/tools" "${CMD[@]}" >"$CACHE.tmp"
    mv "$CACHE.tmp" "$CACHE"
  fi
  explore "$OUT/head-tools/tools" "${CMD[@]}" >"$OUT/head/$NAME"
  if cmp -s "$CACHE" "$OUT/head/$NAME"; then
    echo "sim_parity: same hamband_$E"
  else
    echo "sim_parity: DIFF hamband_$E (cmp $CACHE $OUT/head/$NAME)"
    FAIL=1
  fi
done

WORKLOADS="$(python3 -c 'import json,sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
  "$REPO/BENCHMARK.json")"

for SEED in "${SEEDS[@]}"; do
  for W in $WORKLOADS; do
    for TRACE in 0 1; do
      ARGS=(--workload "$W" --seed "$SEED" --seconds 1 --trace "$TRACE")
      # REV's result is deterministic: run it once per (workload, seed,
      # trace) and reuse it.
      CACHE="$OUT/rev-$SHA/result-$W-$SEED-$TRACE.json"
      [ -s "$CACHE" ] ||
        "$OUT/rev-$SHA/hamband_e2e" "${ARGS[@]}" | tail -n 1 >"$CACHE"
      A="$(cat "$CACHE")"
      B="$("$OUT/head/hamband_e2e" "${ARGS[@]}" | tail -n 1)"
      if ! python3 - "$A" "$B" "$W seed=$SEED trace=$TRACE" <<'EOF'
import fnmatch, json, sys
HOST = ("setup_s", "peak_rss_mb", "host_us_per_op", "node.submit_host_ns_p50",
        "sim.host_ns_per_op.*", "sim.trace_overhead_pct", "shm.*", "wire.*",
        "types.*", "obs.*")
old, new, what = json.loads(sys.argv[1]), json.loads(sys.argv[2]), sys.argv[3]
bad = []
# "attempted" counts the replays that fit the run's wall-clock --seconds,
# so it is a host figure. A traced courseware-fault run adds a wall-clock
# shm session, so its other call counts only repeat untraced.
keys = ("correct",) if what.endswith("trace=1") else ("correct", "failed")
for key in keys:
    if old[key] != new[key]:
        bad.append("%s %s -> %s" % (key, old[key], new[key]))
for name, m in sorted(old["metrics"].items()):
    if any(fnmatch.fnmatchcase(name, g) for g in HOST):
        continue
    got = new["metrics"].get(name, {}).get("value")
    if got != m["value"]:
        bad.append("%s %r -> %r" % (name, m["value"], got))
if bad:
    print("sim_parity: DIFF %s" % what)
    for line in bad:
        print("  " + line)
    sys.exit(1)
print("sim_parity: same %s" % what)
EOF
      then
        FAIL=1
      fi
    done
  done
done
if [ "$FAIL" -ne 0 ]; then
  echo "sim_parity: FAILED against $REV" >&2
  exit 1
fi
echo "sim_parity: identical to $REV"
