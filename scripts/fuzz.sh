#!/bin/sh
# fuzz.sh [fuzztime] — runs every Fuzz* target in the module for a short
# budget each (default 10s). `go test -fuzz` takes one target in one package
# per run, so the targets are listed per package and looped over; a new
# fuzz target is picked up without touching this script or CI. Only
# directories with a `func Fuzz` in a test file are listed, so the other
# packages' test binaries are not built just to learn they have none.
set -eu
cd "$(dirname "$0")/.."
fuzztime=${1:-10s}

for pkg in $(grep -rl --include='*_test.go' '^func Fuzz' . | xargs -n1 dirname | sort -u); do
    for target in $(go test -list '^Fuzz' "$pkg" | grep '^Fuzz' || true); do
        echo "== $pkg $target ($fuzztime) =="
        go test -run '^$' -fuzz "^$target\$" -fuzztime "$fuzztime" "$pkg"
    done
done
echo "ok"
