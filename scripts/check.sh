#!/usr/bin/env bash
# Full verification: build, vet, format check, tests (perfbench's too),
# extended fuzz, differential campaign.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l . | grep -v '^$' || true)
if [ -n "$unformatted" ]; then
  echo "needs gofmt:"; echo "$unformatted"; exit 1
fi

echo "== build =="
go build ./...

echo "== vet =="
go vet ./...

echo "== test =="
go test ./...

echo "== perfbench test (its own module) =="
(cd perfbench && go test ./...)

echo "== extended fuzz (1000 seeds) =="
USHER_FUZZ_SEEDS=1000 go test -run TestExtendedFuzz .

echo "== differential campaign (1000 seeds) =="
go run ./cmd/usher-difftest -seeds 1000 -repro-dir testdata/difftest

echo "OK"
