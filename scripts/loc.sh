#!/usr/bin/env sh
# loc.sh — print the ROADMAP's "Size" number: lines of non-test Go outside
# bench/ (a module of its own). One command, so the number is never counted
# by hand again.
set -eu

cd "$(dirname "$0")/.."
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l
