#!/usr/bin/env bash
# Prints, per internal/* package, the Go code lines the way ROADMAP aim 2
# counts them: tests excluded, blank and //-comment lines excluded. A PR
# that claims to delete a duplicate shows it as a smaller number here.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
total=0
for dir in internal/*/; do
  files=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' | sort)
  [ -n "$files" ] || continue
  n=$(cat $files | grep -vcE '^\s*(//.*)?$' || true)
  printf '%6d  %s\n' "$n" "${dir%/}"
  total=$((total + n))
done
printf '%6d  total\n' "$total"
