#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload churn-study --seed 1 --seconds 50 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# checkout: the Go build cache, the binary, span dumps and trace archives.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
