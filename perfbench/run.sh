#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it:
#
#   bash perfbench/run.sh --workload paper-mem --seed 1 --seconds 36 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# directory this is started from (the checkout root). See README.md.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

# The runtime knobs the program would otherwise inherit are scrubbed, so
# every run sees Go's defaults; what was removed is recorded in the result.
scrubbed=""
for v in GOGC GOMEMLIMIT GOMAXPROCS GODEBUG; do
	if [ -n "${!v+x}" ]; then
		scrubbed="$scrubbed $v=${!v}"
		unset "$v"
	fi
done
export PERFBENCH_SCRUBBED="${scrubbed# }"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
	CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -root "$root" "$@"
