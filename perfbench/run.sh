#!/usr/bin/env bash
# Builds uuserve and the benchmark program from this tree into
# .bench_build/ and runs one benchmark run:
#
#   bash perfbench/run.sh --workload estimate-mix --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ (Go build cache included).
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/uuserve || ! -d internal/engine ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/uuserve and internal/ not found)" >&2
	exit 2
fi

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/gocache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOPROXY=off
export GOMODCACHE="$build/gomodcache"

go build -o "$build/bin/uuserve" ./cmd/uuserve
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -uuserve "$build/bin/uuserve" -workdir "$build/run" "$@"
