#!/usr/bin/env bash
# clang-tidy over the library, tools and tests, driven by the compilation
# database (CMAKE_EXPORT_COMPILE_COMMANDS is on by default). The check set
# lives in .clang-tidy at the repo root.
#
# Usage: scripts/lint.sh [build-dir]
#
# Exits 0 with a notice when clang-tidy is not installed, so CI degrades
# gracefully on minimal toolchains.

set -euo pipefail

REPO="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$REPO/build}"

TIDY="${CLANG_TIDY:-clang-tidy}"
if ! command -v "$TIDY" >/dev/null 2>&1; then
  echo "lint: $TIDY not found; skipping (install clang-tidy to enable)"
  exit 0
fi

if [ ! -f "$BUILD/compile_commands.json" ]; then
  echo "lint: $BUILD/compile_commands.json missing; configure first:" >&2
  echo "  cmake -B $BUILD -S $REPO" >&2
  exit 1
fi

# Only first-party sources; the database also holds the example targets,
# and third-party headers (gtest) are not linted.
mapfile -t FILES < <(find "$REPO/src" "$REPO/tools" "$REPO/tests" \
  -name '*.cpp' | sort)

echo "lint: running $TIDY on ${#FILES[@]} files"
# --warnings-as-errors promotes every enabled check to an error so the
# script exits non-zero on findings (set -e propagates it to ci.sh);
# without it clang-tidy exits 0 on plain warnings and CI would pass.
"$TIDY" -p "$BUILD" --quiet --warnings-as-errors='*' "${FILES[@]}"
echo "lint: clean"
