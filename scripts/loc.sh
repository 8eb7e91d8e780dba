#!/usr/bin/env bash
# Prints the lines of Go in the root module, non-test files and _test.go
# files apart, leaving out the nested benchmark module (crpbench/) and the
# benchmark's build directory (.bench_build/). Run from the repository root:
#
#   bash scripts/loc.sh
set -euo pipefail

files=$(find . \( -path ./.git -o -path ./crpbench -o -path ./.bench_build \) -prune \
	-o -type f -name '*.go' -print)
lines() { xargs cat /dev/null | wc -l | tr -d ' '; }
nontest=$(grep -v '_test\.go$' <<<"$files" | lines)
tests=$(grep '_test\.go$' <<<"$files" | lines)
echo "non-test Go lines: $nontest"
echo "test Go lines:     $tests"
