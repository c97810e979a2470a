#!/usr/bin/env bash
# Builds rdfcubed and the benchmark program from this checkout, then runs
# one benchmark run. Run from the repository root:
#
#   bash rdfbench/run.sh --workload cube-explore --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
       GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOENV=off CGO_ENABLED=0
go build -o "$out/bin/rdfcubed" ./cmd/rdfcubed >&2
(cd rdfbench && go build -o "$out/bin/rdfbench" .) >&2
exec "$out/bin/rdfbench" -daemon "$out/bin/rdfcubed" -work "$out" "$@"
