#!/usr/bin/env bash
# Builds the benchmark and runs it from the root of the checkout:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# bench/ is a Go module of its own (module repro/bench, so that it may
# import repro/internal/...), which keeps it out of the root module's
# `go build ./... && go test ./...`. Everything the build and the run
# write stays in .bench_build/ in the checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-modcacherw
(cd "$root/bench" && go build -o "$build/hbbench" .) >&2

cd "$root"
HB_BENCH_COMMIT=${HB_BENCH_COMMIT:-$(git rev-parse --short HEAD 2>/dev/null || echo unknown)}
export HB_BENCH_COMMIT
exec "$build/hbbench" "$@"
