#!/usr/bin/env sh
# bench.sh — run the tracked benchmark set and archive it as JSON.
#
# Usage: scripts/bench.sh [output.json]    (default BENCH_PR${BENCH_PR}.json)
#
# BENCH_PR names the PR whose baseline this archive becomes; bump it when
# a PR re-baselines the gate instead of editing the default filename in
# every call site (CI reads the same file name in its -gate step).
#
# Five tiers:
#   - experiment benchmarks (repo root): whole figure pipelines, few
#     iterations because each run is seconds of simulation;
#   - micro-benchmarks (internal packages): the hot paths the performance
#     work targets, timed properly;
#   - N-sweep scale frontier: one demand-driven stage-game solve from
#     nothing per op at N = 10², 10³, 10⁴ and 10⁵ on a static overlay,
#     single iteration — the curve CI's bench-delta gate reads B/op and
#     allocs/op from;
#   - phase breakdown: the N-sweep with the phase profiler attached,
#     emitting per-phase <phase>-ns/op and <phase>-allocs/op custom
#     metrics that name where each decade's cost lives (the -allocs/op
#     entries are gated by CI like allocs/op);
#   - settlement throughput: the payment pipeline at N = 10²..10⁵
#     receipts per epoch, serial vs sharded vs aggregated tiers, with a
#     settlements/sec custom metric — CI gates the aggregated/serial
#     ratio at N=10⁴ via benchjson -speedup.
# The combined text output is converted by cmd/benchjson into one JSON
# document with ns/op, B/op, allocs/op and custom metrics per benchmark.
set -eu
cd "$(dirname "$0")/.."

BENCH_PR=9
out="${1:-BENCH_PR${BENCH_PR}.json}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

echo "== experiment benchmarks =="
go test -run '^$' \
  -bench 'BenchmarkFig3PayoffVsMaliciousUM1|BenchmarkFig4PayoffVsMaliciousUM2|BenchmarkFig5ForwarderSetSize|BenchmarkSingleRunUM1|BenchmarkSingleRunUM2' \
  -benchmem -benchtime 5x . | tee "$tmp"

echo "== micro-benchmarks =="
go test -run '^$' \
  -bench 'BenchmarkSelectivityAt|BenchmarkScorerReuse|BenchmarkSPNESimCache|BenchmarkSPNESolveCold' \
  -benchmem -benchtime 1s ./internal/... | tee -a "$tmp"

echo "== N-sweep scale frontier =="
go test -run '^$' \
  -bench 'BenchmarkScaleFrontier' \
  -benchmem -benchtime 1x -timeout 30m ./internal/core/ | tee -a "$tmp"

echo "== phase breakdown =="
go test -run '^$' \
  -bench 'BenchmarkPhaseBreakdown' \
  -benchmem -benchtime 1x -timeout 30m ./internal/core/ | tee -a "$tmp"

echo "== settlement throughput =="
go test -run '^$' \
  -bench 'BenchmarkSettlementThroughput' \
  -benchmem -benchtime 20x -timeout 30m ./internal/payment/ | tee -a "$tmp"

go run ./cmd/benchjson -in "$tmp" -out "$out" \
  -speedup 'settlements/sec,BenchmarkSettlementThroughput/N=10000/aggregated,BenchmarkSettlementThroughput/N=10000/serial,4'
echo "wrote $out"
