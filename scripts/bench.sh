#!/usr/bin/env sh
# bench.sh — run the fast-path microbenchmark suite and (optionally)
# refresh the checked-in baseline.
#
# Usage:
#   scripts/bench.sh            # run benchmarks, print results
#   scripts/bench.sh -update    # also rewrite BENCH_BASELINE.{txt,json}
#
# The benchmarked packages are the fast-path hot spots:
#   internal/rules    tuple-space classification vs linear scan
#   internal/vswitch  megaflow cache vs slow-path upcall
#   internal/packet   pooled AppendMarshal vs allocate-per-packet
#   internal/tunnel   pooled encap vs seed-style encap
#   internal/smartnic SmartNIC match-action lookup (hit/miss/update)
#   internal/decision 2-level Decide vs N-level DecideTiered, Decide at
#                     10k candidates, and one whole 1,536-pattern pass
#   internal/openflow RuleSync framing and the 16-agent fan-out
#   internal/sketch   count-min/space-saving update, shard observe, merge
#
# BENCH_BASELINE.txt is the raw `go test -bench` text (benchstat input);
# BENCH_BASELINE.json is the stable machine-readable form produced by
# cmd/benchjson. CI compares a fresh run against the .txt with benchstat
# (non-blocking — shared runners are too noisy to gate on).
set -eu

cd "$(dirname "$0")/.."

PKGS="./internal/rules ./internal/vswitch ./internal/packet ./internal/tunnel ./internal/smartnic ./internal/decision ./internal/openflow ./internal/sketch"
COUNT="${BENCH_COUNT:-1}"
OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT

# -run '^$' : benchmarks only, no unit tests.
# shellcheck disable=SC2086
go test -run '^$' -bench . -benchmem -count "$COUNT" $PKGS | tee "$OUT"

if [ "${1:-}" = "-update" ]; then
	cp "$OUT" BENCH_BASELINE.txt
	go run ./cmd/benchjson <"$OUT" >BENCH_BASELINE.json
	echo "updated BENCH_BASELINE.txt and BENCH_BASELINE.json" >&2
fi
