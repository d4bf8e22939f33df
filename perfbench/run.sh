#!/usr/bin/env bash
# Builds the perfbench binary from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload flat-1m --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (binary, Go build cache, span
# files) goes under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/perfbench"

if ! command -v go >/dev/null 2>&1 && [ -x /usr/local/go/bin/go ]; then
	PATH="$PATH:/usr/local/go/bin"
fi

# Keep every Go cache and config write inside the build directory.
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTELEMETRY=off
# Build with the installed toolchain; never fetch another one.
export GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$out/perfbench/perfbench" .) >&2

exec "$out/perfbench/perfbench" -out "$out/perfbench" "$@"
