#!/usr/bin/env bash
# Prints, per internal/* package, the Go code lines the way ROADMAP aim 2
# counts them: blank and //-comment lines excluded. The first column is
# production code (non-test files), the number a PR that claims to delete
# a duplicate shows as smaller; the second is the package's _test.go
# files, so code moved from production into tests shows as a move rather
# than as a deletion.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# count prints the code lines of the files find lists for its arguments.
count() {
  local files
  files=$(find "$@" | sort)
  if [ -z "$files" ]; then
    echo 0
    return
  fi
  cat $files | grep -vcE '^\s*(//.*)?$' || true
}

total=0
tests=0
printf '%6s  %6s  %s\n' code tests package
for dir in internal/*/; do
  n=$(count "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go')
  m=$(count "$dir" -maxdepth 1 -name '*_test.go')
  printf '%6d  %6d  %s\n' "$n" "$m" "${dir%/}"
  total=$((total + n))
  tests=$((tests + m))
done
printf '%6d  %6d  total\n' "$total" "$tests"
