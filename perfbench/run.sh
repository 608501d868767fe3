#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload deep-exact --seed 1 --seconds 20 --trace 0
#
# Run from the root of a checkout. Build outputs, the Go build cache and
# the benchmark's scratch state stay under .bench_build/.
set -euo pipefail
root="$(pwd)"
if [[ ! -f "${root}/go.mod" || ! -f "${root}/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of an ftpm checkout" >&2
	exit 2
fi
build="${root}/.bench_build"
mkdir -p "${build}/tmp"
export GOCACHE="${build}/go-cache" GOMODCACHE="${build}/go-mod" GOPATH="${build}/go-path"
export GOTMPDIR="${build}/tmp" TMPDIR="${build}/tmp"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOMAXPROCS=2
(cd "${root}/perfbench" && go build -o "${build}/perfbench" .)
exec "${build}/perfbench" --dir "${build}/run" "$@"
