#!/bin/sh
# Tier-1 verification: gofmt over every tracked Go file, then build, vet,
# tests, and the race detector, for the repository's module and for the
# benchmark's own (bench/ is a nested module, so ./... does not reach it),
# then the refactoring oracle: every experiment's CSV, regenerated, against
# the committed results/.
# Run from the repository root (or anywhere inside it).
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== gofmt -l"
# git ls-files, not ., so build and benchmark outputs (.bench_build/) are
# never walked.
unformatted=$(gofmt -l $(git ls-files '*.go'))
if [ -n "$unformatted" ]; then
    echo "verify: gofmt would reformat:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== go test ./..."
go test ./...

echo "== go test -race ./..."
go test -race ./...

echo "== go vet -C bench ./..."
go vet -C bench ./...

echo "== go test -C bench ./..."
go test -C bench ./...

echo "== go test -C bench -race ./..."
go test -C bench -race ./...

# results/*.csv hold the default scale. The experiments run on virtual time,
# so a change that leaves the model alone reproduces them byte for byte.
# Not a go test: under -race the run would take minutes.
echo "== benchrunner -csv vs results/*.csv"
go run ./cmd/benchrunner -csv "$tmp/csv" > /dev/null
(cd results && ls *.csv) > "$tmp/committed"
(cd "$tmp/csv" && ls *.csv) > "$tmp/produced"
diff "$tmp/committed" "$tmp/produced" || {
    echo "verify: benchrunner's CSVs (>) are not the set committed in results/ (<)" >&2
    exit 1
}
while read -r f; do
    cmp "results/$f" "$tmp/csv/$f"
done < "$tmp/committed"

echo "verify: all green"
