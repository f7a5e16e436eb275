#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-read --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. Everything the build and the
# run write — Go's build cache, the binary, WAL directories, traces —
# stays under .bench_build/ in the current directory.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d perfbench ]; then
	echo "perfbench: run from the repository root (needs go.mod and perfbench/)" >&2
	exit 2
fi
if ! command -v go >/dev/null 2>&1 && [ -x /usr/local/go/bin/go ]; then
	PATH="$PATH:/usr/local/go/bin"
fi

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPROXY=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out" "$@"
