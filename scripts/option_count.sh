#!/usr/bin/env bash
# Prints the field count of every *Options, *Setup and *Profile struct in
# src/ (the library's settable values, one line per struct) and their
# total.  A field is a data member declared directly in the struct body;
# member functions, static members and type declarations are not counted,
# while std::function members are.
#
# Usage: scripts/option_count.sh
set -euo pipefail

cd "$(dirname "$0")/.."

find src -type f -name '*.h' -print0 | sort -z | xargs -0 awk '
  function classify(stmt) {
    sub(/=.*/, "", stmt)  # default member initializer
    while (gsub(/<[^<>]*>/, "", stmt) > 0) {}  # template arguments
    gsub(/^[ \t]+|[ \t]+$/, "", stmt)
    if (stmt == "" || stmt ~ /\(/) return 0
    if (stmt ~ /^(static|using|friend|enum|struct|class|template|public|private)/) {
      return 0
    }
    return 1
  }
  !in_struct && match($0, /^[ \t]*struct [A-Za-z_]*(Options|Setup|Profile)[ \t]*\{/) {
    name = $0
    sub(/^[ \t]*struct /, "", name)
    sub(/[ \t]*\{.*/, "", name)
    in_struct = 1
    depth = 0
    stmt = ""
    fields = 0
  }
  in_struct {
    line = $0
    sub(/\/\/.*/, "", line)
    for (i = 1; i <= length(line); ++i) {
      c = substr(line, i, 1)
      if (c == "{") {
        ++depth
        continue
      }
      if (c == "}") {
        if (--depth == 0) {
          print name, fields
          in_struct = 0
          break
        }
        continue
      }
      if (depth != 1) continue
      if (c == ";") {
        fields += classify(stmt)
        stmt = ""
      } else if (stmt != "" || c != " ") {
        stmt = stmt c
      }
    }
    if (in_struct && depth == 1) stmt = stmt " "
  }
' | sort | awk '
  { printf "%-22s %3d\n", $1, $2; total += $2 }
  END { printf "%-22s %3d\n", "total", total }
'
