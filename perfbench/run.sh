#!/usr/bin/env bash
# Builds the benchmark program and the programs it measures (sparseadapt and
# sparseadaptd) from this checkout's sources, then runs the benchmark with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload exp-small --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout,
# the Go build cache included.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/sparseadapt || ! -d cmd/sparseadaptd || ! -f perfbench/go.mod ]]; then
  echo "perfbench: run from the root of a sparseadapt checkout (go.mod, cmd/ and perfbench/ are not all here)" >&2
  exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go build -o "$out/bin/" ./cmd/sparseadapt ./cmd/sparseadaptd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --root "$root" --bin "$out/bin" "$@"
