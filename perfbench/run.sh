#!/usr/bin/env bash
# Builds toporoutingd and the benchmark from this checkout, then runs one
# benchmark pass. Run from the repository root:
#
#   bash perfbench/run.sh --workload topology-cold --seed 1 --seconds 10 --trace 0
#
# Build output, the Go build cache and span files stay under .bench_build/
# in the checkout. The last line of standard output is the JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local

# With telemetry in its default "local" mode, a go command may start a
# detached child (its own session) that outlives this script. "go telemetry
# off" is the one go command that never starts it, and it turns the child
# off for every later go command here.
go telemetry off >&2
go build -o "$out/toporoutingd" ./cmd/toporoutingd >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -daemon "$out/toporoutingd" -out "$out" "$@"
