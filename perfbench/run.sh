#!/usr/bin/env bash
# Builds the benchmark and usherd from the checkout this script lives in,
# then runs one workload:
#
#   bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare <set-A-dir> <set-B-dir>
#
# Everything the build writes (Go build cache, temporary files, the go
# command's telemetry counters, binaries) goes under .bench_build/ at the
# checkout root; run outputs go under perfbench/out/.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$build/perfbench" . &&
	go build -o "$build/usherd" github.com/valueflow/usher/cmd/usherd) >&2
cd "$root"
exec "$build/perfbench" --usherd "$build/usherd" "$@"
