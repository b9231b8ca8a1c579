#!/usr/bin/env bash
# Builds the wirebench binary from this checkout's sources and runs it.
#
#   bash _wirebench/run.sh --workload wire_min64 --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, temporary files, the binary, span files) goes
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$here" && go build -o "$out/wirebench" .)
exec "$out/wirebench" "$@"
