#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Everything it leaves behind (the Go build cache, the binary, a run's image
# files and span log) stays in .bench_build/ inside the checkout, so the first
# run of a fresh checkout compiles the standard library too and later runs
# only check that the binary is current.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOPROXY=off GOTOOLCHAIN=local # the image's toolchain and no network: there is nothing to fetch

# -C needs the go.mod of this directory and, through its replace line, the
# one a level up: in a directory that holds only the benchmark the build
# fails here and nothing runs.
go build -C "$root/bench" -o "$out/iosnap-bench" .

cd "$root"
exec "$out/iosnap-bench" "$@"
