#!/usr/bin/env bash
# Builds the job benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash jobbench/run.sh --workload node-round --seed 42 --seconds 30 --trace 0
#
# Build output, the Go build cache and the per-run state directories
# go under $CARGO_TARGET_DIR (default .bench_build), inside the
# checkout. Outside a gpuscale checkout the build fails and so does
# this script, without printing a result.
set -euo pipefail

src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/go-cache GOPATH=$out/go-path GOTOOLCHAIN=local GOENV=off GOFLAGS=
export XDG_CONFIG_HOME=$out/config
go -C "$src" build -o "$out/jobbench" .
exec "$out/jobbench" --state-root "$out" "$@"
