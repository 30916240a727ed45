#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the root of a checkout:
#
#   bash benchmark/run.sh --workload stream --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary and the scratch store files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

# Build output goes to stderr: the last line of stdout is the result.
(cd "$root/benchmark" && go build -o "$out/gdpn-benchmark" .) 1>&2

commit=none
if [ -e "$root/.git" ] && git -C "$root" rev-parse --verify -q HEAD >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse HEAD)
fi
exec "$out/gdpn-benchmark" -root "$root" -commit "$commit" "$@"
