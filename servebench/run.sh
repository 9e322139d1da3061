#!/usr/bin/env bash
# Builds the serving benchmark from the checkout's sources and runs it.
#
#   bash servebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build outputs, the Go build cache and span
# files go under $CARGO_TARGET_DIR (default .bench_build), inside the
# checkout. The last line of standard output is the result JSON; build
# output and the human-readable report go to standard error.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/servebench" && go build -o "$out/servebench" .) >&2
exec "$out/servebench" -out "$out" "$@"
