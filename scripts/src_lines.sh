#!/usr/bin/env bash
# Prints the .cpp/.h line count of src/ (the library, the number every
# change reports) and of tests/support (the test-only oracles).
#
# Usage: scripts/src_lines.sh
set -euo pipefail

cd "$(dirname "$0")/.."

for dir in src tests/support; do
  lines=$(find "$dir" -type f \( -name '*.cpp' -o -name '*.h' \) -print0 |
    sort -z | xargs -0 cat | wc -l)
  printf '%-14s %6d\n' "$dir" "$lines"
done
