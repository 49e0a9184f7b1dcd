#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it with the given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload paper-suite --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary all stay under
# .bench_build in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -f benchmark/go.mod || ! -d internal ]]; then
	echo "run.sh: run from the root of a branchreorder checkout" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" TMPDIR="$out/tmp"
# Keep the toolchain's own settings and telemetry inside the checkout, and
# never let it fetch a different toolchain.
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd benchmark && go build -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
