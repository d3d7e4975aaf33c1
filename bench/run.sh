#!/bin/sh
# Builds the benchmark from source inside the checkout (build cache
# included, so nothing is written outside it) and runs it with the given
# arguments. BENCHMARK.json's command is `sh bench/run.sh`.
set -eu
cd "$(dirname "$0")"
export GOCACHE="$PWD/out/gocache" GOTOOLCHAIN=local GOWORK=off
go build -o out/bench .
exec out/bench "$@"
