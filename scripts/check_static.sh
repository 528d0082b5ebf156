#!/usr/bin/env bash
# Static-analysis gate: vodlint (always), then clang-tidy and clang-format
# (when installed — the CI image has them, minimal dev containers may not).
#
# Usage: scripts/check_static.sh [--fix]
#   --fix   let clang-format rewrite files instead of failing on drift
# Exits non-zero on any vodlint violation, clang-tidy error (the .clang-tidy
# config promotes all warnings), or formatting drift.
set -euo pipefail

cd "$(dirname "$0")/.."

fix=0
if [[ "${1:-}" == "--fix" ]]; then
  fix=1
fi

echo "== vodlint =="
python3 tools/vodlint/vodlint.py --self-test
# The scan covers the bench/example/tool sources too, so a raw thread or
# a new mutable global fails wherever it lands.  The report lands in build/
# for EXPERIMENTS.md-style baseline counts; fixture files are excluded from
# the walk and exercised by their own --expect ctest entries.
mkdir -p build
python3 tools/vodlint/vodlint.py --root . \
  --report build/vodlint_report.json src bench examples tools
# The mutable-global inventory is pinned (DESIGN.md §9): nothing active and
# exactly four waived process-wide objects — the logger, the profiler, the
# trace formatting scratch and bench_repro_summary's failure counter.  A
# new global, waived or not, fails here until the pin moves with a reason.
python3 - <<'PY'
import json
import sys

with open("build/vodlint_report.json", encoding="utf-8") as f:
    counts = json.load(f)["rules"]["shared-mutable-global"]
if counts != {"active": 0, "suppressed": 4}:
    sys.exit(f"shared-mutable-global inventory moved: {counts}, "
             "expected 0 active / 4 suppressed")
PY

if command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy =="
  # clang-tidy needs the compilation database the default preset exports.
  if [[ ! -f build/compile_commands.json ]]; then
    cmake --preset default >/dev/null
  fi
  mapfile -t sources < <(find src -name '*.cpp' | sort)
  clang-tidy -p build --quiet "${sources[@]}"
else
  echo "== clang-tidy not installed; skipping =="
fi

if command -v clang-format >/dev/null 2>&1; then
  echo "== clang-format =="
  mapfile -t files < <(find src tests bench examples \
    \( -name '*.cpp' -o -name '*.h' \) | sort)
  if [[ $fix -eq 1 ]]; then
    clang-format -i "${files[@]}"
  else
    clang-format --dry-run --Werror "${files[@]}"
  fi
else
  echo "== clang-format not installed; skipping =="
fi

echo "static checks passed"
