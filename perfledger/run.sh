#!/usr/bin/env bash
# Builds the benchmark and the binaries it drives (usrepro, usfault, usserve)
# from this checkout's source, then runs it with the given arguments:
#
#   bash perfledger/run.sh -workload sim_kernels -seed 1 -seconds 15 -trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in the checkout (or $CARGO_TARGET_DIR, if set),
# including the Go build cache.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfledger/go.mod ]]; then
	echo "perfledger: run from the repository root (go.mod and perfledger/go.mod not found)" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/bin" "$build/tmp"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" PPROF_TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off CGO_ENABLED=0

go build -o "$build/bin/" ./cmd/usrepro ./cmd/usfault ./cmd/usserve
(cd perfledger && go build -o "$build/bin/perfledger" .)
exec "$build/bin/perfledger" -bin "$build/bin" -work "$build/work" "$@"
