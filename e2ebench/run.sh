#!/usr/bin/env bash
# Builds the end-to-end benchmark and cmd/spand from the sources of the
# checkout it runs in, then runs one benchmark pass. Run it from the
# repository root:
#
#   bash e2ebench/run.sh --workload browse --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and run file lands under .bench_build/ in the
# checkout; nothing is read or written outside it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/e2ebench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
go build -o "$out/spand" ./cmd/spand

exec "$out/e2ebench" -spand "$out/spand" -workdir "$out/run" -root "$root" "$@"
