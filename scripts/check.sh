#!/bin/sh
# check.sh runs the full verification gauntlet: build, go vet, the
# repository's own static-analysis suite (cmd/lint), the test suite, and
# the race detector. CI runs exactly this script; run it locally before
# sending changes.
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> go run ./cmd/lint -jsonfile lint-findings.json ./..."
go run ./cmd/lint -jsonfile lint-findings.json ./...

echo "==> go test ./..."
go test ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> scripts/serve_smoke.sh (query service end-to-end)"
./scripts/serve_smoke.sh

echo "==> benchall -feedback (adaptive-cost convergence smoke)"
go run ./cmd/benchall -scale tiny -feedback

echo "All checks passed."
