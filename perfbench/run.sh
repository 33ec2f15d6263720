#!/usr/bin/env bash
# Builds the skyfaas benchmark from the checkout this script sits in and
# runs one workload, passing every argument through:
#
#   bash perfbench/run.sh --workload burst-small --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and the traces stay under .bench_build/ in the
# checkout. Outside a skyfaas checkout the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" --outdir "$out" "$@"
