#!/usr/bin/env bash
# Builds the benchmark from source, keeping every build artefact inside the
# checkout, then becomes it: exec replaces this shell, so the benchmark is
# the only process and nothing is left behind when it ends.
#
#   bash bench/run.sh --workload query-hot --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
go build -C "$root/bench" -o "$out/bench" .
exec "$out/bench" "$@"
