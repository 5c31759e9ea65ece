#!/usr/bin/env bash
# Builds cmd/bench from source and runs it with the given arguments.
# Run it from the repository root:
#
#	bash cmd/bench/run.sh --workload build --seed 1 --seconds 10 --trace 0
#
# Everything it writes (Go build cache, binary, scratch inputs) stays in
# .bench_build under the current directory. Build output goes to stderr,
# so the last line of stdout is the run's JSON summary.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
go -C "$root/cmd/bench" build -o "$out/asmodel-bench" . >&2
exec "$out/asmodel-bench" -workdir "$out" "$@"
