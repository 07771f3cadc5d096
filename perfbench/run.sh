#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload static-long --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and the
# benchmark's work files all stay under .bench_build/ in the repository.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${root}/.bench_build"
mkdir -p "${out}"
export GOCACHE="${out}/gocache" GOPATH="${out}/gopath" XDG_CONFIG_HOME="${out}/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "${root}/perfbench" build -o "${out}/perfbench" .
cd "${root}"
exec "${out}/perfbench" -work "${out}/perfbench-work" "$@"
