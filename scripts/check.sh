#!/bin/sh
# Full pre-merge gate: build, vet, plain tests, then the suite again under
# the race detector. Equivalent to `make check`.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:"
    echo "$unformatted"
    exit 1
fi
echo "== go build ./..."
go build ./...
echo "== go vet ./..."
go vet ./...
echo "== go test ./..."
go test -timeout 300s ./...
echo "== go test -race ./..."
go test -race -timeout 600s ./...
echo "== bench module (go -C bench vet . && go -C bench test .)"
go -C bench vet .
go -C bench test -timeout 300s .
echo "== serve-smoke"
sh scripts/serve_smoke.sh
echo "== obs-smoke"
sh scripts/obs_smoke.sh
echo "== crash-smoke"
sh scripts/crash_smoke.sh
echo "OK"
