#!/bin/sh
# Tier-1 verification: build, vet, tests, and the race detector, for the
# repository's module and for the benchmark's own (bench/ is a nested
# module, so ./... does not reach it).
# Run from the repository root (or anywhere inside it).
set -eu

cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== go test ./..."
go test ./...

echo "== go test -race ./..."
go test -race ./...

echo "== go test -C bench ./..."
go test -C bench ./...

echo "== go test -C bench -race ./..."
go test -C bench -race ./...

echo "verify: all green"
