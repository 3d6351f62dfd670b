#!/usr/bin/env sh
# experiments.sh — regenerate the checked-in evaluation outputs plus the
# flight-recorder trace artifacts.
#
# Usage:
#   scripts/experiments.sh            # write everything under results/
#
# Produces (`go run ./cmd/fastrak-sim list` names each row's files):
#   results/microbench.txt        Figures 3, 4(a), 4(b), 5      (microbench)
#   results/evalbench.txt         Tables 1-4 + controller cost  (evalbench)
#   results/migrate-trace.txt     Figure 12 gnuplot series + summary (fig12)
#   results/fig12-trace.json      Figure 12 flight-recorder trace (Perfetto)
#   results/tiered-ladder.txt     three-tier placement ladder (software ->
#                                 SmartNIC -> TCAM graduation/demotion)
#   results/failover.txt          control-plane HA failover (elections,
#                                 fencing, leases, reconvergence)
#   results/fastrak-trace.json    traced rack run with a live migration
#   results/fastrak-metrics.prom  same run, Prometheus text exposition
#   results/fastrak-series.csv    same run, sampled time series
#   results/fastrak-trace.txt     offline analysis of the trace (flows/
#                                 drops/churn, cmd/fastrak-trace)
#
# Everything runs in virtual time from fixed seeds, so the outputs are
# deterministic; CI uploads results/ as the experiments artifact.
set -eu

cd "$(dirname "$0")/.."

echo "== fastrak-sim: every results/ row in one process"
go run ./cmd/fastrak-sim -out results microbench evalbench fig12 tiered failover traced >/dev/null

echo "== fastrak-trace offline analysis"
{
	go run ./cmd/fastrak-trace -flows -max-flows 5 results/fastrak-trace.json
	echo
	go run ./cmd/fastrak-trace -drops results/fastrak-trace.json
	echo
	go run ./cmd/fastrak-trace -churn results/fastrak-trace.json
} >results/fastrak-trace.txt

echo "done; artifacts in results/"
