#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash _perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the root of the checkout. Every build and run artefact (Go
# build cache, binary, scratch files, span dumps) stays under
# .bench_build in the checkout; nothing is downloaded. Outside a full
# checkout (no go.mod beside _perfbench) the build fails and the script
# exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" --out "$out" "$@"
