#!/usr/bin/env sh
# experiments.sh — regenerate the checked-in evaluation outputs plus the
# flight-recorder trace artifacts.
#
# Usage:
#   scripts/experiments.sh            # write everything under results/
#
# Produces:
#   results/microbench.txt        Figures 3, 4(a), 4(b), 5
#   results/evalbench.txt         Tables 1-4 + controller cost
#   results/migrate-trace.txt     Figure 12 gnuplot series + summary
#   results/tiered-ladder.txt     three-tier placement ladder (software ->
#                                 SmartNIC -> TCAM graduation/demotion)
#   results/failover.txt          control-plane HA failover (elections,
#                                 fencing, leases, reconvergence)
#   results/fig12-trace.json      Figure 12 flight-recorder trace (Perfetto)
#   results/fastrak-trace.json    fastrak-sim -migrate run trace (Perfetto)
#   results/fastrak-metrics.prom  same run, Prometheus text exposition
#   results/fastrak-series.csv    same run, sampled time series
#   results/fastrak-trace.txt     offline analysis of the trace (flows/
#                                 drops/churn, cmd/fastrak-trace)
#
# Everything runs in virtual time from fixed seeds, so the outputs are
# deterministic; CI uploads results/ as the experiments artifact.
set -eu

cd "$(dirname "$0")/.."
mkdir -p results

echo "== microbench (Figures 3-5)"
go run ./cmd/microbench >results/microbench.txt

echo "== evalbench (Tables 1-4, controller cost)"
go run ./cmd/evalbench >results/evalbench.txt

echo "== migrate-trace (Figure 12 + flight recorder)"
go run ./cmd/migrate-trace -trace-out results/fig12-trace.json \
	>results/migrate-trace.txt

echo "== tiered placement ladder (SmartNIC tier)"
go run ./cmd/fastrak-sim -scenario tiered -seed 5 -duration 8s >results/tiered-ladder.txt

echo "== control-plane failover (HA replicas, fencing, leases)"
go run ./cmd/fastrak-sim -scenario failover -duration 8s >results/failover.txt

echo "== fastrak-sim traced migration scenario"
go run ./cmd/fastrak-sim -trace -migrate \
	-trace-out results/fastrak-trace.json \
	-metrics-out results/fastrak-metrics.prom \
	-csv-out results/fastrak-series.csv >/dev/null

echo "== fastrak-trace offline analysis"
{
	go run ./cmd/fastrak-trace -flows -max-flows 5 results/fastrak-trace.json
	echo
	go run ./cmd/fastrak-trace -drops results/fastrak-trace.json
	echo
	go run ./cmd/fastrak-trace -churn results/fastrak-trace.json
} >results/fastrak-trace.txt

echo "done; artifacts in results/"
