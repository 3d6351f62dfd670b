#!/usr/bin/env sh
# hogtest.sh — count how often a wall-clock test fails on a loaded box.
#
# Usage:
#   scripts/hogtest.sh <pkg> <run-regex> <n>
#   scripts/hogtest.sh ./internal/vswitch TestPlane 200
#
# Compiles the package's test binary once, starts three `yes` CPU hogs,
# runs the binary n times with -test.run=<run-regex>, then n more times at
# GOMAXPROCS=1, and prints the failure count of each pass. The hogs stand
# in for the packages tier-1 runs in parallel. The output of every failed
# run is kept in the temporary directory the script prints.
set -eu

if [ $# -ne 3 ]; then
	echo "usage: $0 <pkg> <run-regex> <n>" >&2
	exit 2
fi
pkg=$1
run=$2
n=$3

cd "$(dirname "$0")/.."
dir=$(go list -f '{{.Dir}}' "$pkg")
tmp=$(mktemp -d)
bin="$tmp/pkg.test"
go test -c -o "$bin" "$pkg"
echo "binary: $bin"

hogs=""
cleanup() {
	for p in $hogs; do kill "$p" 2>/dev/null || true; done
}
trap cleanup EXIT INT TERM
for _ in 1 2 3; do
	yes >/dev/null &
	hogs="$hogs $!"
done

# sweep <label> [env assignment]: n runs, failures counted and logged.
sweep() {
	label=$1
	shift
	fails=0
	i=1
	while [ "$i" -le "$n" ]; do
		out="$tmp/$label-$i.log"
		if (cd "$dir" && env "$@" "$bin" -test.run "$run" -test.count=1 >"$out" 2>&1); then
			rm -f "$out"
		else
			fails=$((fails + 1))
		fi
		i=$((i + 1))
	done
	echo "$pkg $run $label: $fails/$n failed"
}

sweep hogs
sweep hogs-gomaxprocs1 GOMAXPROCS=1
echo "failed-run logs (if any): $tmp"
