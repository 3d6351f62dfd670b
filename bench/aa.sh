#!/bin/sh
# A/A check: run every workload N times, twice, on one commit, and print per
# workload x end-to-end metric the two medians, how far apart they are, the
# spread of each set (interquartile range over median) and the bound. The
# two sets use the same seeds and their runs alternate (A B, B A, A B, ...),
# so that a drift of the box's speed over the half hour this takes falls on
# both sets alike and what is left is the benchmark's own run-to-run noise.
# The table and the raw runs are written to bench/baseline/<commit>.json,
# one file per commit, so the history is kept.
#
#   sh bench/aa.sh [N=5] [seconds=20]
set -eu
n=${1:-5}
secs=${2:-20}
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
cd "$root"
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT
for w in dp_steady dp_newflows ctl_cycle svc_ingest; do
	seed=1
	while [ "$seed" -le "$n" ]; do
		order="A B"
		[ $((seed % 2)) -eq 0 ] && order="B A"
		for set in $order; do
			line=$(sh "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$secs" --trace 0 | tail -n 1)
			echo "$set $w $seed $line" >>"$raw"
			echo "$set $w seed=$seed done" >&2
		done
		seed=$((seed + 1))
	done
done
mkdir -p "$here/baseline"
python3 - "$raw" "$root/BENCHMARK.json" "$here/baseline/$commit.json" "$commit" "$n" "$secs" <<'PY'
import json, statistics, sys, platform, os
raw, spec, out, commit, n, secs = sys.argv[1:7]
bounds = {m["name"]: m for m in json.load(open(spec))["end_to_end"]}
runs = []
for line in open(raw):
    s, w, seed, js = line.split(" ", 3)
    runs.append({"set": s, "workload": w, "seed": int(seed), "result": json.loads(js)})
def spread(v):
    q = statistics.quantiles(v, n=4)
    return (q[2] - q[0]) / statistics.median(v)
table = []
print(f"{'workload':12} {'metric':13} {'median A':>14} {'median B':>14} {'apart by':>10} {'spread A':>9} {'spread B':>9} {'bound':>6}")
for w in dict.fromkeys(r["workload"] for r in runs):
    for name, m in bounds.items():
        v = {s: [r["result"]["metrics"][name]["value"] for r in runs if r["workload"] == w and r["set"] == s] for s in "AB"}
        ma, mb = statistics.median(v["A"]), statistics.median(v["B"])
        # Either set may be the parent: the worse median relative to the better.
        apart = abs(ma - mb) / (min(ma, mb) if m["better"] == "lower" else max(ma, mb))
        row = {"workload": w, "metric": name, "median_a": ma, "median_b": mb, "apart_by": apart,
               "spread_a": spread(v["A"]), "spread_b": spread(v["B"]), "bound": m["bound"]}
        # The spread of setup_s has no bound of its own (the driver's rule).
        row["inside"] = apart <= m["bound"] and (name == "setup_s" or max(row["spread_a"], row["spread_b"]) <= m["bound"])
        table.append(row)
        flag = "" if row["inside"] else "  <-- outside the bound"
        print(f"{w:12} {name:13} {ma:14.4f} {mb:14.4f} {apart:10.4f} {row['spread_a']:9.4f} {row['spread_b']:9.4f} {m['bound']:6.2f}{flag}")
failed = sum(r["result"]["failed"] for r in runs)
outside = sum(not r["inside"] for r in table)
print(f"failed ops over all runs: {failed}; pairs outside their bound: {outside}")
env = {"commit": commit, "runs_per_set": int(n), "seconds": float(secs), "nproc": os.cpu_count(),
       "kernel": platform.release(), "machine": platform.machine()}
json.dump({"env": env, "table": table, "runs": runs}, open(out, "w"), indent=1)
print("wrote", out)
PY
