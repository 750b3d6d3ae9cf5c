#!/usr/bin/env bash
# Builds dipserve and the perfbench load generator from the checkout it
# is run in, then runs one benchmark workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload hit-inline --seed 1 --seconds 15 --trace 0
#
# Every build and run artifact (Go build cache included) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off

go build -o "$out/bin/dipserve" ./cmd/dipserve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -server "$out/bin/dipserve" "$@"
