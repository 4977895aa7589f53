#!/bin/sh
# loc.sh — non-test Go lines (`wc -l`, comments and blank lines included)
# per package directory of the root module, then the module total. The
# nested bench/ module and hidden directories (build output such as
# .bench_build/) are left out. This is the count ROADMAP item 6 tracks.
# Run from anywhere.
set -eu
cd "$(dirname "$0")/.."

find . -path ./bench -prune -o -name '.?*' -prune -o \
    -name '*.go' ! -name '*_test.go' -print |
    xargs wc -l |
    awk '$2 != "total" {
        dir = $2
        sub(/\/[^\/]*$/, "", dir)
        sub(/^\.\/?/, "", dir)
        if (dir == "") dir = "."
        lines[dir] += $1
        total += $1
    }
    END {
        for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -k2"
        close("sort -k2")
        printf "%7d  total\n", total
    }'
