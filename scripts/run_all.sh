#!/usr/bin/env bash
# Builds everything, runs the full test suite (leaving test_output.txt in
# the repository root), regenerates every figure of the paper's
# evaluation into build/BENCH_run_all.json and gates the paper's claims
# on it.
set -euo pipefail
cd "$(dirname "$0")/.."

# The same configuration as the tier-1 command and scripts/ci.sh (the
# default generator), so an existing build/ is reused, not refused.
cmake -B build -S .
cmake --build build -j"$(nproc)"

ctest --test-dir build 2>&1 | tee test_output.txt

# The report's "paper" section holds every figure point (EXPERIMENTS.md
# reads it); --check validates it and gates the paper's relative claims.
build/tools/hamband_bench_report --transport sim --out build/BENCH_run_all.json
build/tools/hamband_bench_report --check build/BENCH_run_all.json

echo
echo "Examples:"
for e in build/examples/*; do
  # The directory also holds CMake's own files; run the programs only.
  [ -f "$e" ] && [ -x "$e" ] || continue
  echo "===== $e ====="
  "$e"
done

echo
echo "Coordination analysis of every registered type:"
build/tools/hamband_analyze all
