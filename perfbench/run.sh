#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload offline-exact --seed 1 --seconds 55 --trace 0
#
# The binary, the Go build cache and every other file the toolchain
# writes stay under .bench_build/ in the checkout (or $CARGO_TARGET_DIR
# when set). Outside a repository checkout the build fails, and so does
# this script.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
