#!/usr/bin/env bash
# Builds matchd and the benchmark from the checkout this script sits in,
# then runs the benchmark with the given arguments, e.g.
#
#   bash bench/run.sh --workload serve-ladder --seed 7 --seconds 20 --trace 0
#
# Every build product, the Go build cache included, stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
if [[ ! -f go.mod || ! -d cmd/matchd ]]; then
	echo "run.sh: $root holds no matchsim source tree to build" >&2
	exit 2
fi

out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=

(cd bench && go build -o "$out/matchd" matchsim/cmd/matchd && go build -o "$out/bench" .)
exec "$out/bench" -matchd "$out/matchd" "$@"
