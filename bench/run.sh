#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the arguments given. Everything the build
# writes (Go's build cache included) stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
(
	cd "$here"
	HOME="$out/home" GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off \
		GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off \
		go build -o "$out/bench" .
)
exec "$out/bench" "$@"
