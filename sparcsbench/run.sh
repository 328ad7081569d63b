#!/usr/bin/env bash
# Builds sparcsd and the sparcsbench load generator from source into
# .bench_build/ (the Go build cache too, so nothing is written outside the
# checkout), then runs the generator with the given arguments. Run it from
# the repository root:
#
#   bash sparcsbench/run.sh --workload hit --seed 1 --seconds 10 --trace 0
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/sparcsd ]]; then
	echo "run.sh: run from the repository root (go.mod and cmd/sparcsd not found)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go build -o "$out/sparcsd" ./cmd/sparcsd >&2
(cd sparcsbench && go build -o "$out/sparcsbench" .) >&2
exec "$out/sparcsbench" -daemon "$out/sparcsd" "$@"
