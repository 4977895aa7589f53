#!/bin/sh
# check.sh — the repository's verification gate: formatting, vet, build,
# the full test suite under the race detector, and the nested bench/
# module (its own go.mod, so `./...` from the root never reaches it and a
# product change could break the benchmark unseen). Run from anywhere.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== bench module: go vet, go test =="
(cd bench && go vet ./... && go test ./...)

echo "ok"
