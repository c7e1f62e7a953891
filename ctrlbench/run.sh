#!/usr/bin/env bash
# Builds the control-round benchmark from the checkout it is run in and runs
# it with the given arguments, e.g.
#
#   bash ctrlbench/run.sh --workload hier-full-10k --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build caches, the go command's
# configuration and telemetry, the binary, write-ahead store directories and
# span files all stay under .bench_build/ there.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/ctrlbench" && go build -o "$out/ctrlbench" .)
commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)
exec "$out/ctrlbench" --commit "$commit" --out "$out" "$@"
