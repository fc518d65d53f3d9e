#!/usr/bin/env bash
# Builds the serving benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build products (the Go build cache and the binary) and traces stay under
# .bench_build in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/home"
if ! command -v go >/dev/null 2>&1; then
	# The Go distribution's standard install location.
	PATH="$PATH:/usr/local/go/bin"
fi
(
	cd perfbench
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
		GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
		GOENV=off GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
