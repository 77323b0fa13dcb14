#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash bench/run.sh --workload grid-cold --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh compare base.ndjson change.ndjson
#
# Binaries, Go's build cache, temp files and config all stay under
# .bench_build at the repository root, and the module proxy is off: the build
# needs nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$out/bench" .)
if [ "${1:-}" = compare ]; then
	exec "$out/bench" compare -root "$root" "${@:2}"
fi
exec "$out/bench" -root "$root" "$@"
