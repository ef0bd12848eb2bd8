#!/usr/bin/env bash
# Builds the indaas daemon and the benchmark from this checkout, then runs
# one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload cold-audit --seed 1 --seconds 15 --trace 0
#
# Everything it writes (binaries, the Go build cache, daemon data
# directories) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
[ -f "$root/go.mod" ] && [ -d "$root/cmd/indaas" ] || {
    echo "perfbench: run from the repository root (no cmd/indaas here)" >&2
    exit 2
}
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOTELEMETRY=off

go build -o "$out/indaas" ./cmd/indaas
(cd "$root/perfbench" && go build -o "$out/perfbench" .)

args=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload|--seed|--seconds|--trace) args+=("-${1#--}" "$2"); shift 2 ;;
        *) args+=("$1"); shift ;;
    esac
done
exec "$out/perfbench" -indaas "$out/indaas" -work "$out/work" "${args[@]}"
