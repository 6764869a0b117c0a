#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it is run in and runs
# it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload testbed --seed 1 --seconds 40 --trace 0
#
# Everything the build writes (Go build cache, binary, temporary files)
# and the traced run's spans stay under .bench_build/ in the current
# directory. The build needs the repository's own module one directory
# up; without it the build fails and nothing is run.
set -euo pipefail

src=$(cd "$(dirname "$0")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/home"

(
	cd "$src"
	env HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
		GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
		GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off \
		go build -o "$out/perfbench.$$" .
)
mv -f "$out/perfbench.$$" "$out/perfbench"
exec "$out/perfbench" "$@"
