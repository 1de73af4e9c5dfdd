#!/usr/bin/env bash
# Tier-1 verification plus fault-schedule fuzz smokes (baseline, batched
# twin, delta twin, reconfig, delta + reconfig, batched + reconfig,
# pinned regression runs, cross-process trace determinism),
# the bench-report smoke with its built-in gates and one doctored report
# per gate, the full sim report compared against the committed baseline,
# the bounded coordination-verifier gate (including keyed-lift
# preservation), the hamband_mc exhaustive small-scope sweep
# (plus delta-mode explorations of the counter and the gset, and batched
# explorations of the bank account and courseware), the
# end-to-end benchmark smoke
# (bench/e2e's own build and ctests), a TSan flavor (threaded obs mutation,
# shm ring stress, the shm transport conformance corpus, the shm sharded
# keyspace corpus, and the shm delta corpus), an ASan+UBSan+LSan pass of
# the whole ctest suite, and lint.
#
# Usage: scripts/ci.sh [build-dir]
#   HAMBAND_SANITIZE=ON|address|thread  configure with ASan+UBSan or TSan
#   FUZZ_RUNS=N                         fuzz schedule count (default 50)
#   SKIP_TSAN=1                         skip the TSan and ASan builds

set -euo pipefail

REPO="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$REPO/build}"
FUZZ_RUNS="${FUZZ_RUNS:-50}"

cmake -B "$BUILD" -S "$REPO" -DHAMBAND_SANITIZE="${HAMBAND_SANITIZE:-OFF}"
cmake --build "$BUILD" -j"$(nproc)"
ctest --test-dir "$BUILD" --output-on-failure -j"$(nproc)"

"$BUILD/tools/hamband_fuzz" --runs "$FUZZ_RUNS" --seed 42

# Batching smoke: every schedule re-runs against a batched cluster and the
# crash-free observation-independent runs are diffed state-for-state
# against the unbatched twin (see docs/batching.md).
"$BUILD/tools/hamband_fuzz" --runs "$((FUZZ_RUNS / 2))" --seed 43 --batch

# Delta smoke: the same twin-diff discipline for delta-state summary
# propagation (bounded SummaryDelta frames, plus the full image a
# receiver asks for when it finds a gap, see docs/deltas.md). Delta
# shipping is a transport-level optimization and must be invisible in
# the converged states.
"$BUILD/tools/hamband_fuzz" --runs "$((FUZZ_RUNS / 2))" --seed 44 --deltas

# Reconfig smoke: every schedule runs an online membership transition at
# the midpoint of its call sequence (docs/reconfig.md). The harness
# retries closed-epoch rejections, asserts the cross-epoch delivery
# counters stay zero, and diffs the converged states against a
# static-membership twin cluster.
"$BUILD/tools/hamband_fuzz" --runs "$((FUZZ_RUNS / 2))" --seed 45 --reconfig

# Delta + reconfig smoke: a joiner must resume every source's delta
# stream at the version the transfer image carries, including the
# donor's own summary and a source that flushed with no active peer
# (docs/deltas.md). The two-node run covers the lone-source case.
"$BUILD/tools/hamband_fuzz" --runs "$((FUZZ_RUNS / 2))" --seed 53 --deltas \
  --reconfig
"$BUILD/tools/hamband_fuzz" --runs "$((FUZZ_RUNS / 2))" --seed 49 --nodes 2 \
  --deltas --reconfig

# Batched + reconfig smoke: a membership transition must drain the calls
# a batched leader accepted and has not yet appended (docs/batching.md),
# and the batched twin must still converge with the unbatched one.
"$BUILD/tools/hamband_fuzz" --runs "$((FUZZ_RUNS / 2))" --seed 902 --batch \
  --reconfig

# Pinned fuzz regressions. Each run without a '#' line above it let the
# semantics replay put a new leader's appends ahead of entries it had not
# applied (a Mu leader catches up first) and failed with "semantics world
# diverged" until the replay modelled the catch-up. A '#' line names what
# the pin below it guards.
echo "ci: pinned fuzz regressions"
while read -r PIN; do
  [[ $PIN == '#'* ]] && continue
  # shellcheck disable=SC2086
  "$BUILD/tools/hamband_fuzz" $PIN </dev/null >/dev/null ||
    { echo "ci: pinned fuzz run failed: hamband_fuzz $PIN" >&2; exit 1; }
done <<'PINS'
--seed 7 --only 393
--seed 7 --only 543
--seed 7 --only 647
--seed 43 --batch --only 205
--seed 43 --batch --only 241
--seed 45 --reconfig --only 65
# An install ends a stale campaign; the campaign's proposal must not win.
--seed 45 --reconfig --only 40
# Only a view change re-sends: a re-sent copy's dedup "committed" beat a failed append.
--seed 1049 --nodes 2 --deltas --reconfig --only 943
# A leader re-elected by a campaign appends through fresh writers, not stale ones.
--seed 1902 --batch --reconfig --only 904
# A late install overrides a stale campaign: Mu views order by (membership epoch, round).
--seed 5902 --batch --reconfig --only 1336
# The same split, reached with one F ring per node pair.
--seed 3053 --deltas --reconfig --only 488
--seed 53 --deltas --reconfig --only 179
--seed 102 --reconfig --only 189
--seed 200 --only 1245
--seed 200 --only 1573
--seed 201 --deltas --batch --only 133
# A leader suspended and back before any peer suspects it judges the held requests.
--seed 201 --deltas --batch --only 517
--seed 201 --deltas --batch --only 673
--seed 201 --deltas --batch --only 731
PINS

# Bench smoke: the regression harness produces a smoke report and runs the
# tool's bare --check on it, which requires every sim section and applies
# every built-in gate (the paper's claims and the extension floors).
"$REPO/scripts/bench_regress.sh" --smoke --out "$BUILD/BENCH_smoke.json" \
  "$BUILD"

# Every built-in gate must fire. Each doctored copy of the smoke report
# breaks one gate; the bare --check must reject it with that gate's
# message, and --compare against the original must reject a copy with one
# point halved, naming that point.
echo "ci: every report gate fires on a doctored report"
python3 - "$BUILD/BENCH_smoke.json" "$BUILD/BENCH_doctored" <<'PY'
import json, sys

def doctored(case, edit):
    doc = json.load(open(sys.argv[1]))
    edit(doc)
    json.dump(doc, open("%s_%s.json" % (sys.argv[2], case), "w"))

def pick(points, **fields):
    return next(p for p in points
                if all(p[k] == v for k, v in fields.items()))

def fig9_below_mu(doc):  # one Hamband Fig 9 point below its Mu twin
    ham = pick(doc["paper"]["fig9"], runtime="hamband")
    mu = pick(doc["paper"]["fig9"], runtime="mu", type=ham["type"],
              nodes=ham["nodes"], update_pct=ham["update_pct"], ops=ham["ops"])
    ham["throughput_ops_us"] = mu["throughput_ops_us"] / 2

def fig13_follower_ahead(doc):  # a follower failure that costs nothing
    pts = doc["paper"]["fig13"]
    pick(pts, variant="fail:follower")["throughput_ops_us"] = \
        pick(pts, variant="fail:none")["throughput_ops_us"] * 1.01

def batching_gone(doc):
    doc["fig8_batched"]["throughput_ops_us"] = doc["fig8"]["throughput_ops_us"]

def shards_flat(doc):
    pts = doc["fig_shard"]["points"]
    pick(pts, shards=8)["throughput_ops_us"] = \
        pick(pts, shards=1)["throughput_ops_us"]

def deltas_flat(doc):
    pick(doc["fig_bigstate"]["types"], type="gset")["bytes_factor"] = 1

def reconfig_stall(doc):
    p = pick(doc["fig_reconfig"]["points"], action="add")
    p["during_tput_ops_us"] = p["steady_tput_ops_us"] / 3

def shard_halved(doc):
    pick(doc["fig_shard"]["points"], shards=8)["throughput_ops_us"] /= 2

def paper_halved(doc):
    pick(doc["paper"]["fig11"], runtime="hamband",
         update_pct=50)["throughput_ops_us"] /= 2

doctored("fig9", fig9_below_mu)
doctored("fig13", fig13_follower_ahead)
doctored("batch", batching_gone)
doctored("shard", shards_flat)
doctored("delta", deltas_flat)
doctored("reconfig", reconfig_stall)
doctored("no_reconfig", lambda doc: doc.pop("fig_reconfig"))
doctored("cmp_shard", shard_halved)
doctored("cmp_paper", paper_halved)
PY
while read -r CASE MODE MSG; do
  if [ "$MODE" = check ]; then
    ARGS=(--check "$BUILD/BENCH_doctored_$CASE.json")
  else
    ARGS=(--compare "$BUILD/BENCH_doctored_$CASE.json" "$BUILD/BENCH_smoke.json")
  fi
  if out=$("$BUILD/tools/hamband_bench_report" "${ARGS[@]}" </dev/null 2>&1); then
    echo "ci: --$MODE accepted the doctored report $CASE" >&2
    exit 1
  fi
  grep -qF "$MODE failed: $MSG" <<<"$out" || {
    echo "ci: doctored report $CASE failed for the wrong reason: $out" >&2
    exit 1; }
done <<'CASES'
fig9 check paper.fig9/
fig13 check paper.fig13 throughput not ordered
batch check batching speedup below floor
shard check shard speedup below floor
delta check fig_bigstate gset delta bytes reduction below floor
reconfig check fig_reconfig add throughput retention below floor
no_reconfig check fig_reconfig.points missing or empty
cmp_shard compare fig_shard/shards=8 outside tolerance
cmp_paper compare paper.fig11/project-management/hamband/nodes:4/upd:50/ops:24000/base outside tolerance
CASES

# Bench no-regression gate: the full simulated-time report, checked and
# compared point by point against the committed baseline (about 30 s on
# 4 cores). The smoke report above is too small to compare.
echo "ci: full sim report against the committed baseline"
"$REPO/scripts/bench_regress.sh" --transport sim --out "$BUILD/BENCH_full.json" \
  "$BUILD"

# End-to-end benchmark smoke: bench/e2e is its own CMake project (the
# build bench/e2e/run.py uses), so its two ctests -- the tiny-size run of
# every BENCHMARK.json workload and the legacy-timing check -- are not
# part of the main ctest pass above.
echo "ci: end-to-end benchmark smoke (bench.e2e_smoke, bench.e2e_legacy_timing)"
cmake -S "$REPO/bench/e2e" -B "$BUILD-e2e" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD-e2e" -j"$(nproc)" --target hamband_e2e
ctest --test-dir "$BUILD-e2e" --output-on-failure \
  -R '^bench\.e2e_(smoke|legacy_timing)$'

# Coordination-verifier gate: every registered type's declared spec must
# be sound at the default bound (a soundness violation is a convergence or
# integrity bug and fails CI). Spurious over-coordination edges are
# performance defects, not safety ones: the run prints them as warnings
# and the exactness tests in ctest (VerifierExactness) keep them at zero.
echo "ci: bounded coordination verification"
"$BUILD/tools/hamband_analyze" --verify all

# Exhaustive small-scope model check: hamband_mc drives every registered
# type through every schedule interleaving at the CI bound (3 nodes, 4
# calls, 1 crash point, fair budget split over the crash placements) and
# fails on any violated oracle. The JSON report records the explored /
# deduped / pruned counts per type alongside the DPOR reduction factor.
# Every type exhausts the tool's default budget of 400 schedules, so CI
# spends 1600 per type: 523 to 1020 schedules explored per type (523 to
# 823 for the five types with sync groups, whose calls no timer re-sends),
# about a minute in all on 4 cores.
echo "ci: exhaustive schedule exploration (hamband_mc small-scope sweep)"
"$BUILD/tools/hamband_mc" --type all --calls 4 --crashes 1 --budget 1600 \
  --json > "$BUILD/MC_sweep.json"
echo "ci: explored-state counts recorded in $BUILD/MC_sweep.json"

# Smaller delta-mode explorations: interleavings of the counter and of
# the gset at 3 calls with one crash point, against a cluster shipping
# SummaryDelta frames. Exercises the delta apply and gap paths under
# exhaustive scheduling rather than random fuzz; the gset's image grows
# with every call, the counter's never does.
echo "ci: exhaustive delta-mode exploration (hamband_mc --deltas)"
"$BUILD/tools/hamband_mc" --type counter --calls 3 --crashes 1 --deltas
"$BUILD/tools/hamband_mc" --type gset --calls 3 --crashes 1 --deltas

# A reconfig-mode exploration: schedule interleavings of the counter
# with an online membership transition at the midpoint (no crash points
# -- the crash-during-transition matrix lives in reconfig_tests). The
# budget keeps the sweep small; the cross-epoch and transfer-atomicity
# oracles run on every explored schedule.
echo "ci: exhaustive reconfig-mode exploration (hamband_mc --reconfig)"
"$BUILD/tools/hamband_mc" --type counter --calls 2 --nodes 3 --crashes 0 \
  --budget 40 --reconfig

# Batched explorations of two types with conflicting calls: a group
# leader coalesces the calls it accepts in one client-lane burst into one
# log entry, and the oracles judge every schedule, crash points included.
# Each scope is pinned so that some explored schedule forms a multi-call
# entry (the report's coalesced count); a scope that no longer reaches
# that path fails here. About 3 s each.
echo "ci: exhaustive batched exploration (hamband_mc --batch)"
for MC in "--type bank-account --calls 6 --seed 2" \
  "--type courseware --calls 4"; do
  # shellcheck disable=SC2086
  out=$("$BUILD/tools/hamband_mc" $MC --crashes 1 --batch) ||
    { echo "$out" >&2; echo "ci: hamband_mc $MC --batch failed" >&2; exit 1; }
  echo "$out"
  if ! grep -q 'coalesced=[1-9]' <<<"$out"; then
    echo "ci: hamband_mc $MC --batch formed no multi-call entry" >&2
    exit 1
  fi
done

# Transport policy smoke: fault-schedule fuzzing is sim-only and must
# refuse the shm transport with a clear error (exit 2), not fall through
# to a nondeterministic run.
if "$BUILD/tools/hamband_fuzz" --runs 1 --transport shm 2>/dev/null; then
  echo "ci: hamband_fuzz accepted --transport shm (must reject)" >&2
  exit 1
fi

# The explorer has the same fail-closed contract: deterministic
# re-execution is defined against the sim transport and a single
# unsharded cluster only, so --transport shm and --shards must be
# refused with the usage error code (exit 2), never silently ignored.
rc=0; "$BUILD/tools/hamband_mc" --type counter --calls 2 \
  --transport shm >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "ci: hamband_mc --transport shm must exit 2 (got $rc)" >&2
  exit 1
fi
rc=0; "$BUILD/tools/hamband_mc" --type counter --calls 2 \
  --shards 4 >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "ci: hamband_mc --shards 4 must exit 2 (got $rc)" >&2
  exit 1
fi

# Keyspace policy smoke: the same fail-closed contract for sharded
# deployments -- fuzz schedules and trace replay are defined against a
# single unsharded cluster (the sharded corpus lives in sharding_tests).
if "$BUILD/tools/hamband_fuzz" --runs 1 --shards 4 2>/dev/null; then
  echo "ci: hamband_fuzz accepted --shards 4 (must reject)" >&2
  exit 1
fi

# Reconfig replay policy: a trace dumped from a fixed-membership run
# carries no membership transition, so replaying it under --reconfig
# would silently change the schedule being reproduced. hamband_fuzz must
# refuse the mismatch with the usage error code.
"$BUILD/tools/hamband_fuzz" --runs 1 --seed 46 --dump "$BUILD/plain.ftrace" \
  >/dev/null
rc=0; "$BUILD/tools/hamband_fuzz" --reconfig \
  --replay-trace "$BUILD/plain.ftrace" >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "ci: hamband_fuzz --reconfig with a pre-epoch trace must exit 2" \
       "(got $rc)" >&2
  exit 1
fi

# Cross-process trace determinism: run 0 of seed 42 is the network-noise
# profile (one-sided delays and a partition). Two processes dumping it
# must write byte-identical traces, and the trace must replay bit for bit.
for COPY in a b; do
  "$BUILD/tools/hamband_fuzz" --seed 42 --only 0 \
    --dump "$BUILD/noise_$COPY.ftrace" >/dev/null
done
cmp "$BUILD/noise_a.ftrace" "$BUILD/noise_b.ftrace" || {
  echo "ci: two processes dumped different traces of --seed 42 --only 0" >&2
  exit 1; }
if ! out=$("$BUILD/tools/hamband_fuzz" --replay-trace "$BUILD/noise_a.ftrace") ||
   ! grep -qF "trace=identical" <<<"$out"; then
  echo "ci: the --seed 42 --only 0 trace did not replay identically: $out" >&2
  exit 1
fi

# TSan flavor, in a separate build tree (TSan and ASan cannot mix):
#  - the observability registry's threaded-mutation test;
#  - the shm ring stress suite (real writer/reader threads hammering one
#    ring through wraps, pads, spans and a mid-stream crash);
#  - the shm half of the transport conformance suite -- the full
#    lockstep-equivalence corpus, batched and unbatched, with every node
#    on its own OS thread. The sim half runs in the main ctest pass
#    above, under ASan+UBSan when HAMBAND_SANITIZE is set.
#  - the shm half of the sharded keyspace suite -- the cross-shard
#    equivalence corpus over every registered type plus the sim-only
#    fault-injection policy pin, with several shards multiplexed onto
#    each node thread.
#  - the shm half of the delta-propagation suite -- the delta-vs-semantics
#    lockstep corpus, batched and unbatched, with delta frames flowing
#    between real node threads; in the unbatched half one receiver drops
#    one frame (the hook set in its own thread), so a full-image request
#    and the chunked image that answers it cross threads too.
#  - the reconfig suite -- the full membership-transition matrix
#    (join/leave, epoch-fence rejections, crash-at-every-stage with
#    FaultTrace replay). The suite is sim-deterministic, but under TSan
#    it pins the epoch-fence and permission-revocation paths that the
#    shm backend drives from real threads.
if [ "${SKIP_TSAN:-0}" != "1" ]; then
  echo "ci: TSan threaded smoke (obs + shm transport + sharding + deltas" \
       "+ reconfig)"
  cmake -B "$BUILD-tsan" -S "$REPO" -DHAMBAND_SANITIZE=thread
  cmake --build "$BUILD-tsan" -j"$(nproc)" \
    --target obs_tests shm_ring_stress_tests transport_conformance_tests \
             sharding_tests delta_tests reconfig_tests
  "$BUILD-tsan/tests/obs_tests" \
    --gtest_filter='ObsRegistry.ConcurrentMutationIsExact'
  "$BUILD-tsan/tests/shm_ring_stress_tests"
  "$BUILD-tsan/tests/transport_conformance_tests" \
    --gtest_filter='*shm*:*FaultInjection*'
  "$BUILD-tsan/tests/sharding_tests" \
    --gtest_filter='*shm_*:*FaultInjectionIsSimOnly*'
  "$BUILD-tsan/tests/delta_tests" --gtest_filter='*shm_*'
  "$BUILD-tsan/tests/reconfig_tests"
fi

# ASan flavor: the whole ctest suite under ASan+UBSan, whose LeakSanitizer
# fails any test binary that leaks (self-rescheduling closures must hold
# themselves through a weak_ptr or a reference, never their own
# shared_ptr). A separate build tree, like the TSan one.
if [ "${SKIP_TSAN:-0}" != "1" ]; then
  echo "ci: ASan+UBSan+LSan ctest pass"
  cmake -B "$BUILD-asan" -S "$REPO" -DHAMBAND_SANITIZE=address
  cmake --build "$BUILD-asan" -j"$(nproc)"
  ctest --test-dir "$BUILD-asan" --output-on-failure -j"$(nproc)"
fi

# Lint: no-op (with a notice) when clang-tidy is not installed.
"$REPO/scripts/lint.sh" "$BUILD"

echo "ci: all checks passed"
